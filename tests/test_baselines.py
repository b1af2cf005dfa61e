from fractions import Fraction as F
from random import Random

import pytest

import assemblage_shapley.baselines as baselines_module

from assemblage_shapley import (
    CostLimitError,
    OwnedTable,
    OwnerSet,
    Scan,
    UtilityEvaluator,
    brute_force_tuple_oracle,
    evaluate_plan,
    iusv_all,
    minimalize,
    perm_shapley,
    trad_shapley,
)

from helpers import example_counter_tables, random_mini_dataset


def mk(width, *groups):
    return minimalize(OwnerSet.from_indices(width, g) for g in groups)


# --- UtilityEvaluator ---------------------------------------------------------

def test_evaluator_empty_set_is_zero_and_memo_counts_calls():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    assert ev.evaluate(OwnerSet.empty(3)) == 0
    full = OwnerSet.full(3)
    ev.evaluate(full)
    calls = ev.calls
    ev.evaluate(full)
    assert ev.calls == calls  # memo hit


def test_evaluator_monotone_on_random_instances():
    rng = Random("monotone")
    for _ in range(20):
        plan, tables, n_owners = random_mini_dataset(rng, max_owners=5)
        ev = UtilityEvaluator(plan, tables, n_owners=n_owners)
        values = {bits: ev.evaluate(bits) for bits in range(1 << n_owners)}
        for bits in range(1 << n_owners):
            for o in range(n_owners):
                if not bits >> o & 1:
                    assert values[bits] <= values[bits | 1 << o]


# --- trad_shapley -----------------------------------------------------------------

def test_trad_on_counter_scenario():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    alloc = trad_shapley(ev)
    assert alloc.shares == (F(2, 3), F(1, 6), F(1, 6))
    assert alloc.total() == ev.evaluate(OwnerSet.full(3))  # balance


def test_trad_single_owner_identity_plan():
    t = OwnedTable("t", 0, ("x",), ((1,), (2,), (3,)))
    ev = UtilityEvaluator(Scan("t"), [t])
    assert trad_shapley(ev).shares == (F(3),)


def test_trad_equals_iusv_on_random_instances():
    rng = Random("trad-vs-iusv")
    for _ in range(8):
        plan, tables, n_owners = random_mini_dataset(rng, max_owners=6)
        ev = UtilityEvaluator(plan, tables, n_owners=n_owners)
        exact = trad_shapley(ev)
        fast = iusv_all(evaluate_plan(plan, tables, n_owners=n_owners)).allocation
        assert exact.shares == fast.shares


def test_trad_refuses_above_owner_cap(monkeypatch):
    tables = [OwnedTable("t", o, ("x",), ((o,),)) for o in range(21)]
    ev = UtilityEvaluator(Scan("t"), tables)
    with pytest.raises(CostLimitError):
        trad_shapley(ev)
    # the cap is read where it is checked, so a lower one applies at once
    monkeypatch.setattr(baselines_module, "DEFAULT_TRAD_MAX_OWNERS", 2)
    with pytest.raises(CostLimitError):
        trad_shapley(UtilityEvaluator(Scan("t"), tables[:3]))


# --- perm_shapley ------------------------------------------------------------------

def test_perm_single_owner_is_exact():
    t = OwnedTable("t", 0, ("x",), ((1,), (2,)))
    ev = UtilityEvaluator(Scan("t"), [t])
    assert perm_shapley(ev, samples=3, seed=9).shares == (F(2),)


def test_perm_exhaustive_equals_trad():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    assert perm_shapley(ev, exhaustive=True).shares == trad_shapley(ev).shares


def test_perm_deterministic_given_seed():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    a = perm_shapley(ev, samples=32, seed=5)
    b = perm_shapley(ev, samples=32, seed=5)
    c = perm_shapley(ev, samples=32, seed=6)
    assert a.shares == b.shares
    assert a.shares != c.shares


def test_perm_large_sample_close_to_exact():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    est = perm_shapley(ev, samples=10_000, seed=1)
    exact = (F(2, 3), F(1, 6), F(1, 6))
    for got, want in zip(est.shares, exact):
        assert abs(got - want) < F(5, 100)


def test_perm_rejects_zero_samples():
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    with pytest.raises(ValueError):
        perm_shapley(ev, samples=0)


def test_perm_estimates_average_out_to_exact():
    # unbiasedness smoke check: mean over seeds converges toward trad
    plan, tables = example_counter_tables()
    ev = UtilityEvaluator(plan, tables)
    exact = trad_shapley(ev)
    n_seeds = 60
    acc = [F(0)] * 3
    for seed in range(n_seeds):
        est = perm_shapley(ev, samples=16, seed=seed)
        for i, v in enumerate(est.shares):
            acc[i] += v
    for i in range(3):
        assert abs(acc[i] / n_seeds - exact.shares[i]) < F(8, 100)


# --- brute-force tuple oracle ---------------------------------------------------------

def test_oracle_on_bridge_instance():
    assert brute_force_tuple_oracle(mk(3, [0, 1], [0, 2]), F(1)) == {
        0: F(2, 3),
        1: F(1, 6),
        2: F(1, 6),
    }


def test_oracle_single_witness():
    assert brute_force_tuple_oracle(mk(4, [2]), F(5, 7)) == {2: F(5, 7)}


def test_oracle_pair_plus_single():
    assert brute_force_tuple_oracle(mk(3, [0, 1], [2]), F(1)) == {
        2: F(2, 3),
        0: F(1, 6),
        1: F(1, 6),
    }


def test_oracle_refuses_above_cap():
    wide = mk(21, list(range(21)))
    with pytest.raises(CostLimitError):
        brute_force_tuple_oracle(wide, F(1))
