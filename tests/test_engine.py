import json
import pickle
from fractions import Fraction
from random import Random

import pytest

import assemblage_shapley.engine as engine_module
import assemblage_shapley.model as model_module
import assemblage_shapley.plans as plans_module
from assemblage_shapley import (
    AssignmentScenario,
    EquiJoin,
    IngestError,
    NaturalJoin,
    OwnedTable,
    OwnerSet,
    PlanError,
    Project,
    Scan,
    SourceTable,
    SynthesisLimitError,
    SynthesisSet,
    Union,
    evaluate_plan,
    generate_assignment,
    iusv_all,
    minimalize,
    plan_from_json,
    plan_to_json,
    restrict_tables,
)
from assemblage_shapley.engine import (
    DEFAULT_MAX_SYNTHESES,
    coalition_from_dict,
    coalition_to_dict,
    load_coalition,
)

from helpers import (
    example_counter_tables,
    example_mapping_tables,
    random_mini_dataset,
    random_owned_tables,
    random_plan,
)


def osets(width, *index_groups):
    return [OwnerSet.from_indices(width, g) for g in index_groups]


# --- minimalize ---------------------------------------------------------------

def test_minimalize_prunes_supersets():
    out = minimalize(osets(3, [0], [0, 1]))
    assert [sorted(s) for s in out] == [[0]]


def test_minimalize_keeps_already_minimal():
    out = minimalize(osets(3, [0, 1]))
    assert [sorted(s) for s in out] == [[0, 1]]


def test_minimalize_three_sets_brute_force_cross_check():
    # cross-check against a direct pairwise-subset scan
    sets = osets(3, [0, 2], [1, 2], [0, 1, 2])
    expected = [
        a for a in sets if not any(set(b.indices()) < set(a.indices()) for b in sets)
    ]
    out = minimalize(sets)
    assert sorted(tuple(s) for s in out) == sorted(tuple(s) for s in expected)
    assert [sorted(s) for s in out] == [[0, 2], [1, 2]]


def test_minimalize_dedups_and_orders_canonically():
    out = minimalize(osets(4, [2, 3], [0], [2, 3], [1]))
    assert [sorted(s) for s in out] == [[0], [1], [2, 3]]


def test_minimalize_rejects_empty_input_and_empty_sets():
    with pytest.raises(ValueError):
        minimalize([])
    with pytest.raises(ValueError):
        minimalize([OwnerSet.empty(3)])


def test_synthesis_set_validates_antichain():
    with pytest.raises(ValueError):
        SynthesisSet(tuple(osets(3, [0], [0, 1])))
    with pytest.raises(ValueError):
        SynthesisSet(())
    with pytest.raises(ValueError, match="canonical order"):
        SynthesisSet(tuple(osets(3, [1], [0])))
    with pytest.raises(ValueError, match="canonical order"):
        SynthesisSet(tuple(osets(3, [0], [0])))


def test_synthesis_set_owners_union():
    s = minimalize(osets(5, [0, 2], [1, 2]))
    assert sorted(s.owners()) == [0, 1, 2]


# --- evaluate_plan: worked scenarios -------------------------------------------

def test_mapping_scenario_single_tuple_two_syntheses():
    plan, tables = example_mapping_tables()
    d = evaluate_plan(plan, tables)
    assert len(d) == 1
    (t,) = d.tuples
    assert t.values == (10093, "Volkswagen")
    assert t.utility == 1
    assert [sorted(s) for s in t.syntheses] == [[0, 2], [1, 2]]


def test_counter_scenario_two_syntheses():
    plan, tables = example_counter_tables()
    d = evaluate_plan(plan, tables)
    (t,) = d.tuples
    assert t.values == ("a", "b", "c")
    assert [sorted(s) for s in t.syntheses] == [[0, 1], [0, 2]]


def test_identity_scan_single_owner():
    t = OwnedTable("t", 0, ("x",), ((1,), (2,), (2,)))
    d = evaluate_plan(Scan("t"), [t])
    assert sorted(tup.values for tup in d) == [(1,), (2,)]
    assert all([sorted(s) for s in tup.syntheses] == [[0]] for tup in d)


def test_self_join_bridge_prunes_non_minimal_witness():
    # owner 0 holds (a,b),(a,c); owner 1 holds (b,c); a bridge join can also
    # derive (a,c) from both owners, but that witness is subsumed by {0}
    u1 = OwnedTable("pa", 0, ("person1", "person2"), (("a", "b"), ("a", "c")))
    u2 = OwnedTable("pb", 1, ("person1", "person2"), (("b", "c"),))
    bridge = Project(
        EquiJoin(Scan("pa"), Scan("pb"), (("person2", "person1"),)),
        ("person1", "person2_r"),
        rename=("person1", "person2"),
    )
    plan = Union((Scan("pa"), Scan("pb"), bridge))
    d = evaluate_plan(plan, [u1, u2])
    by_value = {t.values: t for t in d}
    assert set(by_value) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert [sorted(s) for s in by_value[("a", "c")].syntheses] == [[0]]
    assert [sorted(s) for s in by_value[("b", "c")].syntheses] == [[1]]


def test_projection_merges_collapsed_tuples():
    t0 = OwnedTable("t", 0, ("x", "y"), ((1, "a"),))
    t1 = OwnedTable("t", 1, ("x", "y"), ((1, "b"),))
    d = evaluate_plan(Project(Scan("t"), ("x",)), [t0, t1])
    (t,) = d.tuples
    assert t.values == (1,)
    assert [sorted(s) for s in t.syntheses] == [[0], [1]]


def test_scan_filter_on_constant():
    t = OwnedTable("t", 0, ("x", "y"), ((1, "keep"), (2, "drop")))
    d = evaluate_plan(Scan("t", where=(("y", "keep"),)), [t])
    assert [tup.values for tup in d] == [(1, "keep")]


def test_same_row_held_by_many_owners_yields_singleton_witnesses():
    tables = [OwnedTable("t", o, ("x",), ((7,),)) for o in range(4)]
    d = evaluate_plan(Scan("t"), tables)
    (t,) = d.tuples
    assert [sorted(s) for s in t.syntheses] == [[0], [1], [2], [3]]


def test_scan_witnesses_are_canonical_whatever_the_table_order():
    # owner 1 holds two copies of the table; the scan reads owners in order
    tables = [
        OwnedTable("t", 3, ("x",), ((7,),)),
        OwnedTable("t", 1, ("x",), ((7,), (8,))),
        OwnedTable("t", 0, ("x",), ((8,),)),
        OwnedTable("t", 1, ("x",), ((7,),)),
    ]
    d = evaluate_plan(Scan("t"), tables)
    assert {t.values: t.syntheses.masks() for t in d} == {(7,): (0b10, 0b1000), (8,): (1, 0b10)}
    assert d == evaluate_plan(Scan("t"), tables[::-1])


def test_each_output_row_is_minimalised_once(monkeypatch):
    calls = []
    real = engine_module._minimal_masks
    monkeypatch.setattr(
        engine_module, "_minimal_masks", lambda masks: calls.append(1) or real(masks)
    )
    scan_tables = [OwnedTable("t", o, ("x",), ((7,), (o,))) for o in range(4)]
    evaluate_plan(Scan("t"), scan_tables)
    assert calls == []  # singleton witnesses need no pass
    lefts = [OwnedTable("l", o, ("k", "a"), ((1, "x"), (2, "x"))) for o in range(3)]
    rights = [OwnedTable("r", o + 3, ("k", "b"), ((1, "y"), (2, "y"))) for o in range(3)]
    d = evaluate_plan(NaturalJoin(Scan("l"), Scan("r")), lefts + rights)
    assert len(d) == 2 and len(calls) == 2  # one per join output row


def test_output_witnesses_stay_masks(monkeypatch):
    built = []
    real_init = OwnerSet.__init__
    monkeypatch.setattr(
        OwnerSet,
        "__init__",
        lambda s, width, bits=0: built.append(bits) or real_init(s, width, bits),
    )
    lefts = [OwnedTable("l", o, ("k", "a"), ((1, "x"), (2, "x"))) for o in range(3)]
    rights = [OwnedTable("r", o + 3, ("k", "b"), ((1, "y"), (2, "y"))) for o in range(3)]
    d = evaluate_plan(NaturalJoin(Scan("l"), Scan("r")), lefts + rights)
    assert built == []  # 2 rows of 9 witnesses each, none an OwnerSet
    # iterating builds them, from the stored masks
    assert [s.bits for s in d.tuples[0].syntheses] == list(d.tuples[0].syntheses.masks())
    assert len(built) == 9


def test_coalition_dump_writes_masks_without_owner_sets(monkeypatch):
    lefts = [OwnedTable("l", o, ("k", "a"), ((1, "x"),)) for o in range(3)]
    rights = [OwnedTable("r", o + 3, ("k", "b"), ((1, "y"),)) for o in (0, 2)]
    d = evaluate_plan(NaturalJoin(Scan("l"), Scan("r")), lefts + rights)
    built = []
    real_init = OwnerSet.__init__
    monkeypatch.setattr(
        OwnerSet,
        "__init__",
        lambda s, width, bits=0: built.append(bits) or real_init(s, width, bits),
    )
    dumped = coalition_to_dict(d)
    assert built == []
    assert dumped["tuples"][0]["syntheses"] == [[0, 3], [1, 3], [2, 3], [0, 5], [1, 5], [2, 5]]


def test_utility_fn_applied_and_validated():
    t = OwnedTable("t", 0, ("x",), ((1,), (2,)))
    d = evaluate_plan(Scan("t"), [t], utility_fn=lambda row: Fraction(row[0], 2))
    assert {tup.values: tup.utility for tup in d} == {(1,): Fraction(1, 2), (2,): Fraction(1)}
    with pytest.raises(ValueError):
        evaluate_plan(Scan("t"), [t], utility_fn=lambda row: Fraction(-1))
    with pytest.raises(TypeError, match="True is not a utility"):
        evaluate_plan(Scan("t"), [t], utility_fn=lambda row: row[0] > 0)


def test_total_utility_is_the_exact_sum_over_mixed_denominators():
    t = OwnedTable("t", 0, ("x",), tuple((x,) for x in range(1, 41)))
    d = evaluate_plan(Scan("t"), [t], utility_fn=lambda row: Fraction(row[0] % 7, row[0] % 9 + 1))
    assert len({tup.utility.denominator for tup in d}) > 5
    assert d.total_utility() == sum((tup.utility for tup in d), Fraction(0))


# --- plan validation errors ------------------------------------------------------

def test_unknown_table_rejected():
    t = OwnedTable("t", 0, ("x",), ((1,),))
    with pytest.raises(PlanError):
        evaluate_plan(Scan("nope"), [t])


def test_missing_attribute_rejected():
    t = OwnedTable("t", 0, ("x",), ((1,),))
    with pytest.raises(PlanError):
        evaluate_plan(Project(Scan("t"), ("y",)), [t])


def test_union_schema_mismatch_rejected():
    t1 = OwnedTable("a", 0, ("x",), ((1,),))
    t2 = OwnedTable("b", 1, ("y",), ((1,),))
    with pytest.raises(PlanError):
        evaluate_plan(Union((Scan("a"), Scan("b"))), [t1, t2])


def test_natural_join_without_shared_attributes_rejected():
    t1 = OwnedTable("a", 0, ("x",), ((1,),))
    t2 = OwnedTable("b", 1, ("y",), ((1,),))
    with pytest.raises(PlanError):
        evaluate_plan(NaturalJoin(Scan("a"), Scan("b")), [t1, t2])


def test_schema_disagreement_between_owners_rejected():
    t1 = OwnedTable("a", 0, ("x",), ((1,),))
    t2 = OwnedTable("a", 1, ("y",), ((1,),))
    with pytest.raises(PlanError):
        evaluate_plan(Scan("a"), [t1, t2])


class _Unscannable:
    """Rows that fail the test if anything reads them."""

    def __iter__(self):
        raise AssertionError("a row was scanned before the plan type-checked")


def _unscannable_tables():
    tables = [
        OwnedTable("a", 0, ("k", "x", "v"), ((1, "p", 2),)),
        OwnedTable("b", 1, ("k", "y", "v"), ((1, "q", 3),)),
        OwnedTable("c", 2, ("k", "v", "v_r"), ((1, 4, 5),)),
    ]
    for t in tables:
        object.__setattr__(t, "rows", _Unscannable())
    return tables


_BAD_PLANS = {
    "unknown-table": (Scan("nope"), "unknown table 'nope'"),
    "filter-attribute": (
        Scan("a", where=(("zz", 1),)),
        "filter attribute 'zz' not in table 'a' ('k', 'x', 'v')",
    ),
    "projected-attribute": (
        Project(Scan("a"), ("zz",)),
        "projected attribute 'zz' not in input schema ('k', 'x', 'v')",
    ),
    "projection-duplicate": (
        Project(Scan("a"), ("k", "x"), rename=("n", "n")),
        "duplicate attribute names in projection output ('n', 'n')",
    ),
    "natural-join-disjoint": (
        NaturalJoin(Project(Scan("a"), ("x",)), Project(Scan("b"), ("y",))),
        "natural join inputs share no attributes: ('x',) vs ('y',)",
    ),
    "equi-join-left": (
        EquiJoin(Scan("a"), Scan("b"), (("zz", "k"),)),
        "join attribute 'zz' not in left schema ('k', 'x', 'v')",
    ),
    "equi-join-right": (
        EquiJoin(Scan("a"), Scan("b"), (("k", "zz"),)),
        "join attribute 'zz' not in right schema ('k', 'y', 'v')",
    ),
    "equi-join-collision": (
        # b's "v" is renamed "v_r", which c already has
        EquiJoin(Scan("c"), Scan("b"), (("k", "k"),)),
        "attribute name collision on 'v_r' in equi-join output",
    ),
    "union-schemas": (
        Union((Scan("a"), Scan("b"))),
        "union inputs have different schemas: ('k', 'x', 'v') vs ('k', 'y', 'v')",
    ),
}


@pytest.mark.parametrize("nested", [False, True], ids=["root", "under-a-join"])
@pytest.mark.parametrize("case", list(_BAD_PLANS))
def test_bad_plan_error_text_before_any_row_is_scanned(case, nested):
    plan, message = _BAD_PLANS[case]
    if nested:  # a scan that runs first, were the plan checked node by node
        plan = NaturalJoin(Scan("a"), plan)
    with pytest.raises(PlanError) as exc_info:
        evaluate_plan(plan, _unscannable_tables())
    assert str(exc_info.value) == message


def test_each_node_is_laid_out_once(monkeypatch, miniworld):
    laid_out = []
    real = plans_module.node_layout
    monkeypatch.setattr(
        plans_module,
        "node_layout",
        lambda node, *args: laid_out.append(type(node).__name__) or real(node, *args),
    )
    d = evaluate_plan(miniworld.plan, miniworld.assignment.tables)
    assert len(laid_out) == 6 and d == miniworld.coalition
    facts = OwnedTable("facts", 0, ("pk", "fk"), ((1, 2),))
    dims = OwnedTable("dims", 1, ("fk", "attr"), ((2, "x"),))
    for plan, tables, nodes in [
        # the C7 join and the two-catalogue union of the benchmark workloads
        (Project(NaturalJoin(Scan("facts"), Scan("dims")), ("pk", "attr")), [facts, dims], 4),
        (
            Union((Project(Scan("facts"), ("pk",)), Project(Scan("dims"), ("fk",), ("pk",)))),
            [facts, dims],
            5,
        ),
    ]:
        laid_out.clear()
        evaluate_plan(plan, tables)
        assert len(laid_out) == nodes


def test_row_arity_validation():
    with pytest.raises(PlanError, match="in table 'a' of owner 0"):
        OwnedTable("a", 0, ("x", "y"), ((1,),))
    with pytest.raises(PlanError, match="row arity 1 != schema arity 2 in table 'a'$"):
        SourceTable("a", ("x", "y"), ((1, 2), (1,)))


def test_row_dedupe_keeps_first_seen_order():
    # an owner table keeps its rows as given; only a source table dedupes
    t = OwnedTable("a", 0, ["x"], [[2], (1,), [2]])
    assert (t.schema, t.rows) == (("x",), ((2,), (1,), (2,)))
    s = SourceTable("a", ["x"], [[2], (1,), [2]])
    assert (s.schema, s.rows) == (("x",), ((2,), (1,)))


def test_an_owners_repeated_rows_give_what_deduplicated_tables_give():
    # the scan alone collapses a row an owner lists twice, in one table or two
    for seed in range(40):
        rng = Random(seed)
        tables = random_owned_tables(rng)
        plan = random_plan(rng)
        deduped = [
            OwnedTable(t.table, t.owner, t.schema, tuple(dict.fromkeys(t.rows))) for t in tables
        ]
        listed_twice = [
            OwnedTable(t.table, t.owner, t.schema, t.rows + t.rows[::-1]) for t in deduped
        ]
        two_tables = deduped + [
            OwnedTable(t.table, t.owner, t.schema, t.rows[::-1]) for t in deduped
        ]
        want = evaluate_plan(plan, deduped)
        for repeated in (listed_twice, two_tables):
            got = evaluate_plan(plan, repeated)
            assert coalition_to_dict(got) == coalition_to_dict(want), seed
            assert iusv_all(got).allocation.shares == iusv_all(want).allocation.shares, seed


def test_repeated_attribute_name_rejected():
    # with "k" twice, rows (1, "p", 1) and (1, "p", 2) would join to one row
    left = OwnedTable("l", 0, ("k",), ((1,),))
    right = OwnedTable("r", 1, ("k", "v", "k"), ((1, "p", 1), (1, "p", 2)))
    with pytest.raises(PlanError, match="repeats an attribute name"):
        evaluate_plan(NaturalJoin(Scan("l"), Scan("r")), [left, right])


# --- synthesis blowup cap ---------------------------------------------------------

def test_synthesis_cap_aborts_with_diagnostic(monkeypatch):
    # 3 x 3 owner copies on both join sides -> 9 incomparable pair witnesses
    lefts = [OwnedTable("l", o, ("k", "a"), ((1, "x"),)) for o in range(3)]
    rights = [OwnedTable("r", o + 3, ("k", "b"), ((1, "y"),)) for o in range(3)]
    plan = NaturalJoin(Scan("l"), Scan("r"))
    d = evaluate_plan(plan, lefts + rights)
    assert len(d.tuples[0].syntheses) == 9
    monkeypatch.setattr(engine_module, "DEFAULT_MAX_SYNTHESES", 4)
    with pytest.raises(SynthesisLimitError):
        evaluate_plan(plan, lefts + rights)
    # each message names the row, the count, the cap and the operator
    message = r"tuple \(1, 'x', 'y'\) has 9 minimal syntheses \(cap 4\) after join$"
    with pytest.raises(SynthesisLimitError, match=message):
        evaluate_plan(plan, lefts + rights)
    union = Union((Project(Scan("l"), ("k",)), Project(Scan("r"), ("k",))))
    with pytest.raises(SynthesisLimitError, match=r"^tuple \(1,\) has 5 .*\(cap 4\) after union$"):
        evaluate_plan(union, lefts + rights[:2])


def test_join_row_over_the_real_synthesis_cap_is_refused():
    # 13 fact holders times 5 dimension holders: 65 pair witnesses, one over 64
    lefts = [OwnedTable("l", o, ("k", "a"), ((1, "x"),)) for o in range(13)]
    rights = [OwnedTable("r", o + 13, ("k", "b"), ((1, "y"),)) for o in range(5)]
    plan = NaturalJoin(Scan("l"), Scan("r"))
    message = r"^tuple \(1, 'x', 'y'\) has 65 minimal syntheses \(cap 64\) after join$"
    with pytest.raises(SynthesisLimitError, match=message):
        evaluate_plan(plan, lefts + rights)
    (t,) = evaluate_plan(plan, lefts[:12] + rights).tuples  # 12 x 5 = 60 fit
    assert len(t.syntheses) == 60


def test_owner_cap_is_read_through_model_by_every_check(monkeypatch):
    tables = [OwnedTable("t", o, ("x",), ((o,),)) for o in range(3)]
    three = coalition_to_dict(evaluate_plan(Scan("t"), tables))
    source = SourceTable("t", ("x",), tuple((i,) for i in range(200)))
    monkeypatch.setattr(model_module, "DEFAULT_MAX_OWNERS", 2)
    with pytest.raises(PlanError, match=r"^3 owners exceeds the cap of 2$"):
        evaluate_plan(Scan("t"), tables)
    with pytest.raises(ValueError, match=r"^3 owners exceeds the cap of 2$"):
        generate_assignment([source], AssignmentScenario(k=3))
    with pytest.raises(ValueError, match=r"^n_owners must be an integer from 0 to 2, got 3$"):
        coalition_from_dict(three)
    assert len(evaluate_plan(Scan("t"), tables[:2])) == 2  # at the cap


@pytest.mark.parametrize(
    "plan", [Scan("t"), Project(Scan("t"), ("x",))], ids=["scan", "project"]
)
def test_synthesis_cap_on_rows_no_operator_combines(plan, monkeypatch):
    # no join and no projection collision: the output pass is the only check
    n = DEFAULT_MAX_SYNTHESES + 1
    tables = [OwnedTable("t", o, ("x", "y"), ((7, "a"),)) for o in range(n)]
    with pytest.raises(SynthesisLimitError, match=f"{n} minimal syntheses"):
        evaluate_plan(plan, tables)
    operator = "scan" if isinstance(plan, Scan) else "projection"
    message = rf"^tuple \(7,.*\) has {n} minimal syntheses \(cap 64\) after {operator}$"
    with pytest.raises(SynthesisLimitError, match=message):
        evaluate_plan(plan, tables)
    (t,) = evaluate_plan(plan, tables[1:]).tuples
    assert len(t.syntheses) == DEFAULT_MAX_SYNTHESES
    monkeypatch.setattr(engine_module, "DEFAULT_MAX_SYNTHESES", 4)
    with pytest.raises(SynthesisLimitError):
        evaluate_plan(plan, tables[:5])


# --- determinism and restriction ----------------------------------------------------

def test_evaluation_is_deterministic():
    plan, tables = example_mapping_tables()
    assert evaluate_plan(plan, tables) == evaluate_plan(plan, tables)


def test_restrict_tables_keeps_universe_width():
    plan, tables = example_counter_tables()
    restricted = restrict_tables(tables, OwnerSet.from_indices(3, [0]))
    d = evaluate_plan(plan, restricted)
    assert d.n_owners == 3
    assert len(d) == 0


def test_witness_soundness_and_minimality_on_random_instances():
    rng = Random("witness-soundness")
    order_rng = Random("table-order")
    checked = 0
    for _ in range(40):
        plan, tables, n_owners = random_mini_dataset(rng)
        d = evaluate_plan(plan, tables, n_owners=n_owners)
        # the input order of the tables changes nothing, not even tuple order
        for order in (tables[::-1], order_rng.sample(tables, len(tables))):
            assert evaluate_plan(plan, order, n_owners=n_owners) == d
        assert pickle.loads(pickle.dumps(d)) == d
        for t in d:
            # the unvalidated output passes the public validating constructor
            assert SynthesisSet(t.syntheses.syntheses) == t.syntheses
            assert hash(SynthesisSet(t.syntheses.syntheses)) == hash(t.syntheses)
            assert {(type(syn), syn.width) for syn in t.syntheses} == {(OwnerSet, n_owners)}
            for syn in t.syntheses:
                sub = evaluate_plan(
                    plan, restrict_tables(tables, syn), n_owners=n_owners
                )
                assert t.values in {x.values for x in sub}, "witness cannot produce tuple"
                members = list(syn)
                for drop in members:
                    smaller = OwnerSet.from_indices(
                        n_owners, [m for m in members if m != drop]
                    )
                    sub2 = evaluate_plan(
                        plan, restrict_tables(tables, smaller), n_owners=n_owners
                    )
                    assert t.values not in {x.values for x in sub2}, "witness not minimal"
                checked += 1
    assert checked > 50


def test_no_duplicate_coalition_tuples_on_random_instances():
    rng = Random("dedup")
    for _ in range(25):
        plan, tables, n_owners = random_mini_dataset(rng)
        d = evaluate_plan(plan, tables, n_owners=n_owners)
        values = [t.values for t in d]
        assert len(values) == len(set(values))


# --- serialization -----------------------------------------------------------------

def test_plan_json_roundtrip():
    plan, _ = example_mapping_tables()
    assert plan_from_json(plan_to_json(plan)) == plan
    bridge = Project(
        EquiJoin(Scan("pa", where=(("x", 1),)), Scan("pb"), (("p2", "p1"),)),
        ("p1", "p2_r"),
        rename=("p1", "p2"),
    )
    assert plan_from_json(plan_to_json(bridge)) == bridge


def test_coalition_set_json_roundtrip():
    plan, tables = example_mapping_tables()
    d = evaluate_plan(plan, tables)
    assert coalition_from_dict(coalition_to_dict(d)) == d


def test_coalition_from_dict_minimalises_witness_lists():
    data = {
        "schema": ["x"],
        "n_owners": 4,
        "tuples": [
            {"values": [1], "utility": "1/1", "syntheses": [[2, 3], [0, 1], [0], [3], [0]]}
        ],
    }
    (t,) = coalition_from_dict(data).tuples
    assert [sorted(s) for s in t.syntheses] == [[0], [3]]
    assert SynthesisSet(t.syntheses.syntheses) == t.syntheses


def test_coalition_roundtrip_preserves_fraction_cells():
    t = OwnedTable("t", 0, ("x", "w"), ((1, Fraction(3, 2)),))
    d = evaluate_plan(Scan("t"), [t])
    d2 = coalition_from_dict(coalition_to_dict(d))
    assert d2.tuples[0].values == (1, Fraction(3, 2))


def test_coalition_cells_read_json_floats_through_their_decimal_string():
    data = {"schema": ["x"], "n_owners": 1,
            "tuples": [{"values": [0.1], "utility": "1", "syntheses": [[0]]}]}
    d = coalition_from_dict(data)
    assert d.tuples[0].values == (Fraction(1, 10),)
    assert coalition_to_dict(d)["tuples"][0]["values"] == [{"fraction": "1/10"}]


@pytest.mark.parametrize(
    "text",
    ["true", "false", "null", "[1]", '{"fraction": "1/2", "x": 1}'],
    ids=["true", "false", "null", "list", "fraction-extra-key"],
)
def test_values_outside_the_codec_are_refused_in_plans_and_coalition_sets(tmp_path, text):
    with pytest.raises(PlanError, match="is not an exact value"):
        plan_from_json(f'{{"op": "scan", "table": "t", "where": {{"a": {text}}}}}')
    path = tmp_path / "coalition.json"
    path.write_text(json.dumps({
        "schema": ["a"], "n_owners": 1,
        "tuples": [{"values": [json.loads(text)], "utility": "1", "syntheses": [[0]]}],
    }))
    with pytest.raises(IngestError, match="^malformed coalition set: .*is not an exact value") as e:
        load_coalition(path)
    assert e.value.path == str(path)
