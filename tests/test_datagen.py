from collections import Counter
from random import Random

import pytest

from assemblage_shapley import (
    AssignmentScenario,
    SourceTable,
    assign_owner_counts,
    assign_records,
    generate_assignment,
    sample_copy_count,
)


def table(name, n_rows):
    return SourceTable(name, ("id",), tuple((f"{name}{i}",) for i in range(n_rows)))


# --- owner counts ----------------------------------------------------------------

def test_uo_concentrates_owners_on_largest_table():
    tables = [table("a", 100), table("b", 5000), table("c", 40)]
    scenario = AssignmentScenario(owner_mode="UO", k=10)
    assert assign_owner_counts(tables, scenario) == {"a": 2, "b": 10, "c": 2}


def test_eo_with_k1_gives_every_table_one_owner():
    tables = [table("a", 500), table("b", 300)]
    scenario = AssignmentScenario(owner_mode="EO", k=1)
    assert assign_owner_counts(tables, scenario) == {"a": 1, "b": 1}


def test_eo_small_table_exception():
    tables = [table("a", 5), table("b", 500)]
    scenario = AssignmentScenario(owner_mode="EO", k=10, small_table_threshold=100)
    assert assign_owner_counts(tables, scenario) == {"a": 1, "b": 10}


def test_owner_counts_reject_empty_table_list():
    with pytest.raises(ValueError):
        assign_owner_counts([], AssignmentScenario())


# --- copy counts ------------------------------------------------------------------

def test_copy_count_m1_always_one():
    rng = Random(0)
    assert all(sample_copy_count(4.0, 1, rng) == 1 for _ in range(100))


def test_copy_count_zipf_frequencies():
    # P(c) proportional to c^-4 on {1,2,3}
    weights = [1.0, 2.0**-4, 3.0**-4]
    total = sum(weights)
    expected = [w / total for w in weights]
    rng = Random("zipf-freq")
    n = 10**6
    counts = Counter(sample_copy_count(4.0, 3, rng) for _ in range(n))
    for c in (1, 2, 3):
        assert abs(counts[c] / n - expected[c - 1]) < 0.01


def test_copy_count_extreme_alpha_degenerates_to_one():
    rng = Random("alpha-50")
    n = 100_000
    ones = sum(1 for _ in range(n) if sample_copy_count(50.0, 3, rng) == 1)
    assert ones / n > 0.999


# --- record assignment ----------------------------------------------------------------

def test_single_owner_gets_every_row_once():
    t = table("a", 20)
    (owned,) = assign_records(t, [0], [1] * 20, "EA", 3.0, Random(1))
    assert owned.rows == t.rows


def test_full_copy_count_forces_all_owners():
    t = table("a", 10)
    owned = assign_records(t, [0, 1, 2, 3, 4], [5] * 10, "EA", 3.0, Random(1))
    for ot in owned:
        assert ot.rows == t.rows


def test_copy_count_clamped_to_owner_count():
    t = table("a", 10)
    owned = assign_records(t, [0, 1], [3] * 10, "EA", 3.0, Random(1))
    holders = Counter()
    for ot in owned:
        for row in ot.rows:
            holders[row] += 1
    assert all(v == 2 for v in holders.values())


def test_ua_first_owner_share_matches_zipf_weight():
    t = table("a", 1_000_000)
    owned = assign_records(t, [0, 1, 2, 3, 4], [1] * len(t.rows), "UA", 3.0, Random("ua"))
    first = len(owned[0].rows) / len(t.rows)
    expected = 1.0 / sum((r + 1) ** -3.0 for r in range(5))
    assert abs(first - expected) < 0.01


# --- full protocol ------------------------------------------------------------------

def test_no_data_loss_and_copy_bound():
    tables = [table("a", 150), table("b", 40)]
    scenario = AssignmentScenario(owner_mode="EO", assign_mode="UA", k=4, seed=3,
                                  small_table_threshold=10)
    a = generate_assignment(tables, scenario)
    for src in tables:
        held = [t for t in a.tables if t.table == src.name]
        union = set().union(*(set(t.rows) for t in held))
        assert union == set(src.rows)
        copies = Counter()
        for t in held:
            for row in t.rows:
                copies[row] += 1
        assert max(copies.values()) <= scenario.max_copies


def test_deterministic_given_scenario_and_seed():
    tables = [table("a", 80), table("b", 30)]
    scenario = AssignmentScenario(k=3, seed=11, small_table_threshold=5)
    a = generate_assignment(tables, scenario)
    b = generate_assignment(tables, scenario)
    assert a.tables == b.tables
    c = generate_assignment(tables, AssignmentScenario(k=3, seed=12, small_table_threshold=5))
    assert a.tables != c.tables


def test_owner_ids_are_dense_blocks_per_table():
    tables = [table("a", 200), table("b", 300)]
    scenario = AssignmentScenario(k=3, seed=0)
    a = generate_assignment(tables, scenario)
    assert a.owners_by_table == {"a": (0, 1, 2), "b": (3, 4, 5)}
    assert a.n_owners == 6


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_scenario_refuses_a_nan_exponent(field):
    # a NaN exponent would be written into the manifest as NaN, which is not JSON
    with pytest.raises(ValueError, match=r"^alpha and beta must be positive, got "):
        AssignmentScenario(**{field: float("nan")})


def test_scenario_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        AssignmentScenario(owner_mode="XX")
    with pytest.raises(ValueError):
        AssignmentScenario(k=0)
    with pytest.raises(ValueError):
        AssignmentScenario(alpha=0)
    with pytest.raises(ValueError):
        AssignmentScenario(max_copies=0)
    s = AssignmentScenario(owner_mode="UO", assign_mode="UA", k=7, seed=42)
    path = tmp_path / "scenario.json"
    s.dump(path)
    assert AssignmentScenario.load(path) == s
