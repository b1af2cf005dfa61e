import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from assemblage_shapley import (
    CaseStats,
    CostLimitError,
    General,
    OwnerSet,
    SingleOwnerOnly,
    SynthesisSet,
    SynthesisSplit,
    UniqueMultiOwner,
    brute_force_tuple_oracle,
    classify_tuple,
    iusv_all,
    iusv_tuple,
    minimalize,
    shapley_sc,
    shapley_single_owner_only,
    shapley_sl,
    shapley_unique_multi,
)

from helpers import coalition, example_counter_tables, permutation_oracle, random_synthesis_set
import assemblage_shapley.shapley as shapley_module
from assemblage_shapley import evaluate_plan
from assemblage_shapley.shapley import DEFAULT_SC_MAX_TERMS, _rank_relabel


def mk(width, *groups):
    return minimalize(OwnerSet.from_indices(width, g) for g in groups)


COUNTER = mk(3, [0, 1], [0, 2])  # the bridging-owner instance: psi = (2/3, 1/6, 1/6)


# --- classification ------------------------------------------------------------

def test_classify_single_owner_only():
    assert classify_tuple(mk(3, [0], [1])) == SingleOwnerOnly(m=2)


def test_classify_unique_multi_owner():
    assert classify_tuple(mk(3, [0, 1], [2])) == UniqueMultiOwner(m=2, k=1)
    assert classify_tuple(mk(4, [0, 1, 2])) == UniqueMultiOwner(m=3, k=0)


def test_classify_general():
    assert classify_tuple(COUNTER) == General()


# --- closed forms ----------------------------------------------------------------

def test_single_owner_only_splits_evenly():
    s = mk(3, [0], [1])
    assert shapley_single_owner_only(s, F(1)) == {0: F(1, 2), 1: F(1, 2)}


def test_single_owner_sole_owner_takes_all():
    assert shapley_single_owner_only(mk(2, [0]), F(1)) == {0: F(1)}


def test_single_owner_five_way_split_matches_permutation_oracle():
    s = mk(5, [0], [1], [2], [3], [4])
    expected = {i: F(1, 5) for i in range(5)}
    assert permutation_oracle(s, F(1)) == expected
    got = shapley_single_owner_only(s, F(1))
    assert got == expected
    assert sum(got.values()) == 1


def test_single_owner_only_precondition_enforced():
    with pytest.raises(ValueError, match=r"^tuple is not single-owner-only: UniqueMultiOwner"):
        shapley_single_owner_only(mk(3, [0, 1]), F(1))


def test_unique_multi_no_singles_is_even_split():
    assert shapley_unique_multi(mk(3, [0, 1]), F(1)) == {0: F(1, 2), 1: F(1, 2)}


def test_unique_multi_m2_k1_matches_permutation_oracle():
    s = mk(3, [0, 1], [2])
    expected = {0: F(1, 6), 1: F(1, 6), 2: F(2, 3)}
    assert permutation_oracle(s, F(1)) == expected
    assert shapley_unique_multi(s, F(1)) == expected


def test_unique_multi_m3_k2_matches_subset_oracle():
    s = mk(6, [0, 1, 2], [3], [4])
    expected = {0: F(1, 30), 1: F(1, 30), 2: F(1, 30), 3: F(9, 20), 4: F(9, 20)}
    assert brute_force_tuple_oracle(s, F(1)) == expected
    got = shapley_unique_multi(s, F(1))
    assert got == expected
    assert sum(got.values()) == 1


def test_unique_multi_precondition_enforced():
    with pytest.raises(
        ValueError, match=r"^tuple has no unique multi-owner synthesis: SingleOwnerOnly"
    ):
        shapley_unique_multi(mk(3, [0], [1]), F(1))


def test_unique_multi_zero_utility():
    s = mk(3, [0, 1], [2])
    assert shapley_unique_multi(s, F(0)) == {0: F(0), 1: F(0), 2: F(0)}


# --- synthesis-combination (SC) -----------------------------------------------------

def test_sc_bridging_owner_inclusion_exclusion():
    # nu = 1/2 + 1/2 - 1/3 = 2/3, no correction term
    split = SynthesisSplit.for_owner(COUNTER, 0)
    assert split.m_u == 2 and split.m_not_u == 0
    assert shapley_sc(0, split, F(1)) == F(2, 3)


def test_sc_partner_owner_with_correction():
    # nu = 1/2, tau over the single pair = 1/3
    split = SynthesisSplit.for_owner(COUNTER, 1)
    assert split.m_u == 1 and split.m_not_u == 1
    assert shapley_sc(1, split, F(1)) == F(1, 6)


def test_sc_single_against_pair_matches_permutation_oracle():
    s = mk(3, [2], [0, 1])
    expected = permutation_oracle(s, F(1))
    assert expected[2] == F(2, 3)  # nu = 1, tau = 1/3
    split = SynthesisSplit.for_owner(s, 2)
    assert shapley_sc(2, split, F(1)) == F(2, 3)


def test_sc_absent_owner_is_zero():
    split = SynthesisSplit(owner=5, w_u=(), w_not_u=tuple(COUNTER))
    assert shapley_sc(5, split, F(1)) == F(0)


def test_sc_refuses_a_split_for_another_owner():
    s = mk(4, [0, 1], [0, 2], [3])
    assert shapley_sc(3, SynthesisSplit.for_owner(s, 3), F(1)) == F(7, 12)
    assert brute_force_tuple_oracle(s, F(1))[3] == F(7, 12)
    with pytest.raises(ValueError, match=r"^split is for owner 1, not owner 3$"):
        shapley_sc(3, SynthesisSplit.for_owner(s, 1), F(1))


def test_a_split_and_the_owner_sets_it_holds_are_frozen():
    split = SynthesisSplit.for_owner(COUNTER, 1)
    with pytest.raises(FrozenInstanceError):
        split.w_u[0].bits = 8
    with pytest.raises(FrozenInstanceError):
        split.w_not_u[0].width = 8
    assert split == SynthesisSplit.for_owner(COUNTER, 1)


def test_sc_term_cap_raises_cost_error(monkeypatch):
    rng = Random("sc-cap")
    s = random_synthesis_set(rng, max_owners=10, max_syntheses=6)
    while classify_tuple(s) != General():
        s = random_synthesis_set(rng, max_owners=10, max_syntheses=6)
    owner = next(iter(s.owners()))
    split = SynthesisSplit.for_owner(s, owner)
    monkeypatch.setattr(shapley_module, "DEFAULT_SC_MAX_TERMS", 1)
    with pytest.raises(CostLimitError):
        shapley_sc(owner, split, F(1))


def test_sc_over_the_real_term_cap_raises_before_enumerating(monkeypatch):
    def no_enumeration(mask):
        raise AssertionError("SC set up an enumeration over the cap")

    monkeypatch.setattr(shapley_module, "bit_indices", no_enumeration)
    # 25 syntheses {0, i} all hold owner 0: 2**25 - 1 terms, over 2**24
    s = mk(26, *[[0, i] for i in range(1, 26)])
    message = r"^inclusion-exclusion over 25 sets needs 33554431 terms \(cap 16777216\)$"
    with pytest.raises(CostLimitError, match=message):
        shapley_sc(0, SynthesisSplit.for_owner(s, 0), F(1))


# --- synthesis-look-up (SL) -----------------------------------------------------------

def test_sl_bridging_owner_subset_sum():
    # (1/3) * (1/C(2,1) + 1/C(2,1) + 1/C(2,2)) = 2/3
    assert shapley_sl(0, COUNTER, F(1)) == F(2, 3)


def test_sl_partner_owner():
    assert shapley_sl(1, COUNTER, F(1)) == F(1, 6)


def test_sl_sole_synthesis_owner_gets_everything():
    assert shapley_sl(0, mk(4, [0]), F(1)) == F(1)


def test_sl_absent_owner_is_zero():
    assert shapley_sl(2, mk(4, [0, 1]), F(1)) == F(0)


def spanning_antichain(rng, n):
    """A random antichain whose syntheses mention exactly the owners 0..n-1:
    a random partition into two to four syntheses, plus up to two more of
    two to four owners that may overlap them."""
    while True:
        owners = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
        groups = [owners[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        groups += [rng.sample(range(n), rng.randint(2, 4)) for _ in range(rng.randint(0, 2))]
        s = mk(n, *groups)
        if len(s.owners()) == n:
            return s


def test_sl_owner_cap_raises_cost_error(monkeypatch):
    def no_table(width):
        raise AssertionError(f"SL built a table of width {width} over the cap")

    monkeypatch.setattr(shapley_module, "_sl_masks", no_table)
    # one owner over the default cap of 30: 2**31 subsets are never enumerated
    wide = spanning_antichain(Random("sl-cap"), 31)
    with pytest.raises(CostLimitError):
        shapley_sl(0, wide, F(1))
    monkeypatch.setattr(shapley_module, "DEFAULT_SL_MAX_OWNERS", 2)
    with pytest.raises(CostLimitError):
        shapley_sl(0, COUNTER, F(1))


def test_sl_table_over_several_blocks_matches_sc():
    # 17-20 owners: the table has 2 to 16 blocks of 2**16 subsets each
    rng = Random("sl-blocks")
    for n in (17, 18, 19, 20, 20):
        s = spanning_antichain(rng, n)
        utility = F(rng.randint(1, 9), rng.randint(1, 4))
        for owner in s.owners():
            want = shapley_sc(owner, SynthesisSplit.for_owner(s, owner), utility)
            assert shapley_sl(owner, s, utility) == want


def test_sl_memory_is_bounded_by_the_block_width():
    # a 2**24-bit table held whole would need 2 MB per bitset
    s = spanning_antichain(Random("sl-memory"), 24)
    tracemalloc.start()
    try:
        value = shapley_sl(0, s, F(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert value == shapley_sc(0, SynthesisSplit.for_owner(s, 0), F(1))


# --- cross-algorithm agreement (quick sweep; the big one is in acceptance) -------------

def test_sc_sl_oracle_agree_on_random_sets():
    rng = Random("agree")
    for _ in range(60):
        s = random_synthesis_set(rng, max_owners=7, max_syntheses=4)
        utility = F(rng.randint(1, 5), rng.randint(1, 3))
        oracle = brute_force_tuple_oracle(s, utility)
        for owner in s.owners():
            split = SynthesisSplit.for_owner(s, owner)
            assert shapley_sc(owner, split, utility) == oracle[owner]
            assert shapley_sl(owner, s, utility) == oracle[owner]


def test_agreement_with_permutation_oracle_small():
    rng = Random("perm-agree")
    for _ in range(25):
        s = random_synthesis_set(rng, max_owners=5, max_syntheses=4)
        oracle = permutation_oracle(s, F(1))
        assert iusv_tuple(s, F(1)) == oracle


# --- IUSV driver -------------------------------------------------------------------

def test_iusv_tuple_on_general_instance():
    assert iusv_tuple(COUNTER, F(1)) == {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}


def test_iusv_tuple_single_witness():
    assert iusv_tuple(mk(2, [0]), F(1)) == {0: F(1)}


def test_iusv_matches_oracle_on_random_four_owner_sets():
    rng = Random("iusv-4")
    for _ in range(80):
        s = random_synthesis_set(rng, max_owners=4, max_syntheses=5)
        assert iusv_tuple(s, F(1)) == brute_force_tuple_oracle(s, F(1))


def test_iusv_gamma_routing_counts():
    # owner 0 is in both syntheses (max(m_u, m_u*m_nu) = 2); owners 1 and 2
    # are in one each against one other (max = 1); |owners| = 3
    stats = CaseStats()
    iusv_tuple(COUNTER, F(1), gamma=1.0, stats=stats)
    assert (stats.sc_calls, stats.sl_calls) == (3, 0)  # 3 > 2 and 3 > 1

    stats = CaseStats()
    iusv_tuple(COUNTER, F(1), gamma=2.0, stats=stats)
    assert (stats.sc_calls, stats.sl_calls) == (2, 1)  # owner 0: 3 <= 4 -> SL

    stats = CaseStats()
    iusv_tuple(COUNTER, F(1), gamma=10.0, stats=stats)
    assert (stats.sc_calls, stats.sl_calls) == (0, 3)


def test_iusv_gamma_does_not_change_values():
    for gamma in (0.5, 1.0, 2.0, 10.0):
        assert iusv_tuple(COUNTER, F(1), gamma=gamma) == {
            0: F(2, 3),
            1: F(1, 6),
            2: F(1, 6),
        }
    # a tiny gamma routes every general-case owner to SC, a huge one to SL
    rng = Random("gamma-routes")
    for _ in range(60):
        s = random_synthesis_set(rng, max_owners=9, max_syntheses=6)
        utility = F(rng.randint(1, 9), rng.randint(1, 4))
        all_sc, all_sl = CaseStats(), CaseStats()
        assert iusv_tuple(s, utility, gamma=1e-9, stats=all_sc) == iusv_tuple(
            s, utility, gamma=1e9, stats=all_sl
        )
        assert all_sc.sl_calls == all_sl.sc_calls == 0
        assert all_sc.sc_calls == all_sl.sl_calls


def test_iusv_silent_fallback_when_preferred_route_over_budget(monkeypatch):
    stats = CaseStats()
    # gamma huge prefers SL for everyone, but SL is capped out -> SC fallback
    monkeypatch.setattr(shapley_module, "DEFAULT_SL_MAX_OWNERS", 2)
    values = iusv_tuple(COUNTER, F(1), gamma=100.0, stats=stats)
    assert values == {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}
    assert stats.sl_calls == 0 and stats.sc_calls == 3 and stats.fallbacks == 3


def test_iusv_double_budget_failure_raises(monkeypatch):
    monkeypatch.setattr(shapley_module, "DEFAULT_SL_MAX_OWNERS", 2)
    monkeypatch.setattr(shapley_module, "DEFAULT_SC_MAX_TERMS", 1)
    with pytest.raises(CostLimitError):
        iusv_tuple(COUNTER, F(1))


def test_iusv_rejects_nonpositive_gamma():
    d = coalition(3, (F(1), COUNTER))
    for gamma in (0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            iusv_tuple(COUNTER, F(1), gamma=gamma)
        with pytest.raises(ValueError):
            iusv_all(d, gamma)


def test_closed_form_cases_skip_routing():
    stats = CaseStats()
    iusv_tuple(mk(3, [0], [1]), F(1), stats=stats)
    iusv_tuple(mk(3, [0, 1], [2]), F(1), stats=stats)
    assert stats.single_owner_only == 1
    assert stats.unique_multi == 1
    assert stats.general_calls == 0


def test_monotone_sanity_bridging_owner_earns_more():
    values = iusv_tuple(COUNTER, F(1))
    assert values[0] > values[1]
    assert values[1] == values[2]


# --- aggregation ----------------------------------------------------------------------

def test_iusv_all_additivity_over_independent_tuples():
    from assemblage_shapley.engine import CoalitionSet, CoalitionTuple

    d = CoalitionSet(
        schema=("x",),
        tuples=(
            CoalitionTuple((1,), F(1), mk(2, [0])),
            CoalitionTuple((2,), F(1), mk(2, [1])),
        ),
        n_owners=2,
    )
    res = iusv_all(d)
    assert res.allocation.shares == (F(1), F(1))
    assert res.stats.single_owner_only == 2


def test_iusv_all_counter_scenario_end_to_end():
    plan, tables = example_counter_tables()
    d = evaluate_plan(plan, tables)
    res = iusv_all(d)
    assert res.allocation.shares == (F(2, 3), F(1, 6), F(1, 6))
    assert res.allocation.total() == d.total_utility()


def test_iusv_all_empty_coalition_is_all_zero():
    from assemblage_shapley.engine import CoalitionSet

    d = CoalitionSet(schema=("x",), tuples=(), n_owners=4)
    res = iusv_all(d)
    assert res.allocation.shares == (F(0),) * 4
    assert res.stats.tuples == 0


def test_iusv_all_per_tuple_breakdown():
    plan, tables = example_counter_tables()
    d = evaluate_plan(plan, tables)
    res = iusv_all(d, per_tuple=True)
    assert res.allocation.per_tuple == {
        (0, 0): F(2, 3),
        (0, 1): F(1, 6),
        (0, 2): F(1, 6),
    }


def test_case_stats_merge():
    a = CaseStats(single_owner_only=1, sc_calls=2)
    b = CaseStats(unique_multi=3, sl_calls=1, fallbacks=1)
    a.merge(b)
    assert a.tuples == 4 and a.general_calls == 3 and a.fallbacks == 1
    # with a multiplicity, as for b's witness list held by 4 tuples
    a.merge(b, 4)
    assert a == CaseStats(
        single_owner_only=1, unique_multi=15, sc_calls=2, sl_calls=5, fallbacks=5
    )
    a.merge(CaseStats(general=1, sc_calls=3), 0)
    assert a.general == 0 and a.sc_calls == 2


# --- the shape cache in iusv_all ---------------------------------------------------------



def uncached(d, gamma=1.0):
    """iusv_all's outputs computed tuple by tuple with iusv_tuple."""
    shares = [F(0)] * d.n_owners
    breakdown = {}
    stats = CaseStats()
    for i, t in enumerate(d.tuples):
        for owner, v in iusv_tuple(t.syntheses, t.utility, gamma, stats=stats).items():
            shares[owner] += v
            breakdown[(i, owner)] = v
    return tuple(shares), breakdown, stats


@st.composite
def relabelled_copies(draw, repeats=False):
    """A few random antichains, each copied with its owners relabelled.

    Half the copies relabel monotonically, which keeps the shape (a cache
    hit); the others permute the owners arbitrarily. Utilities are fractions
    with denominators from 2 to 7. With ``repeats``, each copy is held by one
    to three tuples, so witness lists repeat, and utilities are from 0 to 50
    over denominators from 1 to 7.
    """
    n_owners = draw(st.integers(4, 8))
    tuples = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(3, n_owners))
        owner = st.integers(0, k - 1)
        groups = draw(st.lists(st.sets(owner, min_size=2, max_size=4), min_size=2, max_size=5))
        groups += [[o] for o in draw(st.sets(owner, max_size=1))]
        for _ in range(draw(st.integers(1, 3))):
            targets = draw(st.permutations(range(n_owners)))[:k]
            if draw(st.booleans()):
                targets = sorted(targets)
            s = mk(n_owners, *[[targets[o] for o in g] for g in groups])
            if not repeats:
                tuples.append((F(draw(st.integers(1, 50)), draw(st.integers(2, 7))), s))
                continue
            for _ in range(draw(st.integers(1, 3))):
                tuples.append((F(draw(st.integers(0, 50)), draw(st.integers(1, 7))), s))
    return coalition(n_owners, *tuples)


@settings(max_examples=200)
@given(
    d=relabelled_copies(),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    sc_max_terms=st.sampled_from([DEFAULT_SC_MAX_TERMS, 1]),
)
def test_iusv_all_shape_cache_equals_per_tuple_iusv(d, gamma, sc_max_terms):
    with mock.patch.object(shapley_module, "DEFAULT_SC_MAX_TERMS", sc_max_terms):
        shares, breakdown, stats = uncached(d, gamma)
        res = iusv_all(d, gamma, per_tuple=True)
    assert res.allocation.shares == shares
    assert res.allocation.per_tuple == breakdown
    assert res.stats == stats
    assert res.shape_cache_hits + res.shape_cache_misses == stats.general
    for t in d.tuples:
        owners, key = _rank_relabel(t.syntheses)
        # the local masks are a canonical antichain as they stand
        SynthesisSet(tuple(OwnerSet(len(owners), m) for m in key))


@settings(max_examples=200)
@given(
    d=relabelled_copies(repeats=True),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    sc_max_terms=st.sampled_from([DEFAULT_SC_MAX_TERMS, 1]),
)
def test_iusv_all_groups_repeated_witness_lists(d, gamma, sc_max_terms):
    with mock.patch.object(shapley_module, "DEFAULT_SC_MAX_TERMS", sc_max_terms):
        shares, breakdown, stats = uncached(d, gamma)
        res = iusv_all(d, gamma, per_tuple=True)
    assert res.allocation.shares == shares
    assert res.allocation.per_tuple == breakdown
    assert res.stats == stats
    assert res.shape_cache_hits + res.shape_cache_misses == stats.general


def counting_core(monkeypatch):
    """Patch the per-tuple core and the relabelling to record their inputs:
    the relabelled witness lists and the shapes the core computes."""
    relabelled, computed = [], []
    real_relabel, real_core = shapley_module._rank_relabel, shapley_module._unit_values

    def relabel(s):
        relabelled.append(s.masks())
        return real_relabel(s)

    def core(owners, local, *args):
        computed.append(local)
        return real_core(owners, local, *args)

    monkeypatch.setattr(shapley_module, "_rank_relabel", relabel)
    monkeypatch.setattr(shapley_module, "_unit_values", core)
    return relabelled, computed


def test_iusv_all_computes_each_witness_list_once(monkeypatch):
    # two lists of a general shape and two of a unique-multi closed form
    general, general2 = mk(6, [0, 1], [0, 2]), mk(6, [3, 4], [3, 5])
    closed, closed2 = mk(6, [3, 4], [5]), mk(6, [0, 1], [2])
    d = coalition(
        6,
        (F(1), general), (F(2, 3), closed), (F(0), general),
        (F(5, 7), closed), (F(3), general), (F(1, 2), closed),
        (F(2), general2), (F(1, 4), closed2),
    )
    relabelled, computed = counting_core(monkeypatch)
    res = iusv_all(d, per_tuple=True)
    # one relabelling per distinct list, one core call per distinct shape
    assert relabelled == [s.masks() for s in (general, closed, general2, closed2)]
    assert computed == [(0b011, 0b101), (0b100, 0b011)]
    monkeypatch.undo()
    shares, breakdown, stats = uncached(d)
    assert res.allocation.shares == shares
    assert res.allocation.per_tuple == breakdown
    assert res.stats == stats
    assert (stats.general, stats.unique_multi) == (4, 4)
    # hits and misses count general-case tuples only
    assert (res.shape_cache_hits, res.shape_cache_misses) == (3, 1)


def test_single_owner_only_lists_of_two_shapes_call_the_core_twice(monkeypatch):
    # 60 lists: pairs and triples of single owners over 12 owners
    rng = Random("single-owner-shapes")
    tuples = []
    for i in range(60):
        owners = rng.sample(range(12), 2 + i % 2)
        tuples.append((F(rng.randint(0, 9), rng.randint(1, 5)), mk(12, *[[o] for o in owners])))
    d = coalition(12, *tuples)
    relabelled, computed = counting_core(monkeypatch)
    res = iusv_all(d, per_tuple=True)
    assert computed == [(0b01, 0b10), (0b001, 0b010, 0b100)]
    assert len(relabelled) == len({t.syntheses.masks() for t in d.tuples})
    monkeypatch.undo()
    shares, breakdown, stats = uncached(d)
    assert res.allocation.shares == shares
    assert res.allocation.per_tuple == breakdown
    assert res.stats == stats and stats.single_owner_only == 60
    assert (res.shape_cache_hits, res.shape_cache_misses) == (0, 0)


def test_driver_builds_no_split_or_owner_set_at_any_gamma(monkeypatch):
    # COUNTER's shape on {0,1,2} and {3,5,6}; a path over {7,...,10}, twice;
    # and a unique-multi closed form
    path = mk(11, [7, 8], [8, 9], [9, 10])
    d = coalition(
        11,
        (F(1), mk(11, [0, 1], [0, 2])), (F(2), mk(11, [3, 5], [3, 6])),
        (F(1), path), (F(3), path), (F(5), mk(11, [1, 4], [6])),
    )
    shares = uncached(d)[0]
    built = []
    for cls in (SynthesisSplit, OwnerSet):
        real = cls.__init__

        def init(self, *args, _real=real, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    routed = {}
    for gamma in (1e9, 1.0, 1e-9):  # every owner to SL, mixed, every owner to SC
        res = iusv_all(d, gamma=gamma, per_tuple=True)
        assert res.allocation.shares == shares
        assert (res.shape_cache_hits, res.shape_cache_misses) == (2, 2)
        routed[gamma] = (res.stats.sc_calls, res.stats.sl_calls)
    assert built == []
    assert routed[1e9] == (0, 14) and routed[1e-9] == (14, 0)


def test_shape_cache_hits_on_relabelled_copies(caplog, monkeypatch):
    # COUNTER's shape on owners {0,1,2}, {3,5,6} and {2,4,6}: one miss, two hits
    d = coalition(
        7,
        (F(1), mk(7, [0, 1], [0, 2])),
        (F(3, 2), mk(7, [3, 5], [3, 6])),
        (F(5), mk(7, [2, 4], [2, 6])),
    )
    relabels = []
    real_relabel = shapley_module._rank_relabel
    monkeypatch.setattr(
        shapley_module, "_rank_relabel", lambda s: relabels.append(s) or real_relabel(s)
    )
    with caplog.at_level("DEBUG", logger="assemblage_shapley.shapley"):
        res = iusv_all(d)
    # one relabelling per general tuple: the miss reuses the key's
    assert len(relabels) == 3
    assert (res.shape_cache_hits, res.shape_cache_misses) == (2, 1)
    assert res.allocation.shares == uncached(d)[0]
    assert res.allocation.shares[3] == F(3, 2) * F(2, 3)
    assert res.stats.general == 3 and res.stats.sc_calls == 9
    assert [r.getMessage() for r in caplog.records] == [
        "iusv_all: 3 general tuples, shape cache 2 hits, 1 misses (one per distinct shape)"
    ]


def test_shape_cache_replays_fallbacks(monkeypatch):
    # owner 0 of COUNTER needs 3 SC terms: over a cap of 1 it falls back to SL
    d = coalition(6, (F(2), mk(6, [0, 1], [0, 2])), (F(7, 3), mk(6, [3, 4], [3, 5])))
    monkeypatch.setattr(shapley_module, "DEFAULT_SC_MAX_TERMS", 1)
    res = iusv_all(d)
    shares, _, stats = uncached(d)
    assert res.allocation.shares == shares
    assert res.stats == stats
    assert (res.stats.fallbacks, res.shape_cache_hits) == (2, 1)


def test_shape_cache_double_budget_failure_names_global_owner(monkeypatch):
    d = coalition(7, (F(1), mk(7, [4, 5], [4, 6])), (F(1), mk(7, [0, 1], [0, 2])))
    monkeypatch.setattr(shapley_module, "DEFAULT_SC_MAX_TERMS", 1)
    monkeypatch.setattr(shapley_module, "DEFAULT_SL_MAX_OWNERS", 2)
    with pytest.raises(CostLimitError) as got:
        iusv_all(d)
    with pytest.raises(CostLimitError) as want:
        iusv_tuple(d.tuples[0].syntheses, F(1))
    assert "owner 4 " in str(got.value)
    assert str(got.value) == str(want.value)


def test_double_budget_failure_raises_on_the_first_failing_tuple(monkeypatch):
    # COUNTER's shape falls back to SL (3 owners, cap 3); the singles are a
    # closed form. Both lists repeat before the first tuple over both budgets.
    ok_general = mk(8, [0, 1], [0, 2])
    ok_closed = mk(8, [6], [7])
    first = mk(8, [3, 4], [3, 5], [6, 7])  # 5 owners; owner 3 needs 3 SC terms
    later = mk(8, [0, 1], [0, 2], [5, 6])
    d = coalition(
        8,
        (F(1), ok_general), (F(2), ok_closed), (F(1, 3), ok_general), (F(4), ok_closed),
        (F(1), first), (F(1), ok_general), (F(1), later), (F(1), first),
    )
    monkeypatch.setattr(shapley_module, "DEFAULT_SC_MAX_TERMS", 1)
    monkeypatch.setattr(shapley_module, "DEFAULT_SL_MAX_OWNERS", 3)
    ok = iusv_all(coalition(8, *[(t.utility, t.syntheses) for t in d.tuples[:4]]))
    assert ok.stats.fallbacks == 2  # owner 0 of each general tuple
    with pytest.raises(CostLimitError) as got:
        iusv_all(d, per_tuple=True)
    with pytest.raises(CostLimitError) as want:
        iusv_tuple(first, F(1))
    with pytest.raises(CostLimitError) as other:
        iusv_tuple(later, F(1))
    assert "owner 3 " in str(got.value)
    assert str(got.value) == str(want.value) != str(other.value)
