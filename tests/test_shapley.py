from fractions import Fraction as F
from random import Random

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

from helpers import example_counter_tables, permutation_oracle, random_synthesis_set
from assemblage_shapley import evaluate_plan
from assemblage_shapley.engine import CoalitionSet, CoalitionTuple
from assemblage_shapley.shapley import DEFAULT_SC_MAX_TERMS, _shape_key


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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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


def test_sc_term_cap_raises_cost_error():
    rng = Random("sc-cap")
    s = random_synthesis_set(rng, max_owners=10, max_syntheses=6)
    while classify_tuple(s) != General():
        s = random_synthesis_set(rng, max_owners=10, max_syntheses=6)
    owner = next(iter(s.owners()))
    split = SynthesisSplit.for_owner(s, owner)
    with pytest.raises(CostLimitError):
        shapley_sc(owner, split, F(1), max_terms=1)


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


def test_sl_owner_cap_raises_cost_error():
    with pytest.raises(CostLimitError):
        shapley_sl(0, COUNTER, F(1), max_owners=2)


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


def test_iusv_silent_fallback_when_preferred_route_over_budget():
    stats = CaseStats()
    # gamma huge prefers SL for everyone, but SL is capped out -> SC fallback
    values = iusv_tuple(
        COUNTER, F(1), gamma=100.0, stats=stats, sl_max_owners=2
    )
    assert values == {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}
    assert stats.sl_calls == 0 and stats.sc_calls == 3 and stats.fallbacks == 3


def test_iusv_double_budget_failure_raises():
    with pytest.raises(CostLimitError):
        iusv_tuple(COUNTER, F(1), sl_max_owners=2, sc_max_terms=1)


def test_iusv_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        iusv_tuple(COUNTER, F(1), gamma=0)


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


# --- the shape cache in iusv_all ---------------------------------------------------------



def coalition(n_owners, *tuples):
    """A coalition set of (utility, synthesis set) pairs."""
    return CoalitionSet(
        schema=("i",),
        tuples=tuple(CoalitionTuple((i,), u, s) for i, (u, s) in enumerate(tuples)),
        n_owners=n_owners,
    )


def uncached(d, gamma=1.0, **caps):
    """iusv_all's outputs computed tuple by tuple with iusv_tuple."""
    shares = [F(0)] * d.n_owners
    breakdown = {}
    stats = CaseStats()
    for i, t in enumerate(d.tuples):
        for owner, v in iusv_tuple(t.syntheses, t.utility, gamma, stats=stats, **caps).items():
            shares[owner] += v
            breakdown[(i, owner)] = v
    return tuple(shares), breakdown, stats


@st.composite
def relabelled_copies(draw):
    """A few random antichains, each copied with its owners relabelled.

    Half the copies relabel monotonically, which keeps the shape (a cache
    hit); the others permute the owners arbitrarily. Utilities are fractions
    with denominators from 2 to 7.
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
            utility = F(draw(st.integers(1, 50)), draw(st.integers(2, 7)))
            tuples.append((utility, mk(n_owners, *[[targets[o] for o in g] for g in groups])))
    return coalition(n_owners, *tuples)


@settings(max_examples=200)
@given(
    d=relabelled_copies(),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    sc_max_terms=st.sampled_from([DEFAULT_SC_MAX_TERMS, 1]),
)
def test_iusv_all_shape_cache_equals_per_tuple_iusv(d, gamma, sc_max_terms):
    shares, breakdown, stats = uncached(d, gamma, sc_max_terms=sc_max_terms)
    res = iusv_all(d, gamma, per_tuple=True, sc_max_terms=sc_max_terms)
    assert res.allocation.shares == shares
    assert res.allocation.per_tuple == breakdown
    assert res.stats == stats
    assert res.shape_cache_hits + res.shape_cache_misses == stats.general
    for t in d.tuples:
        owners, key = _shape_key(t.syntheses)
        # the local masks are a canonical antichain as they stand
        SynthesisSet(tuple(OwnerSet(len(owners), m) for m in key))


def test_shape_cache_hits_on_relabelled_copies(caplog):
    # COUNTER's shape on owners {0,1,2}, {3,5,6} and {2,4,6}: one miss, two hits
    d = coalition(
        7,
        (F(1), mk(7, [0, 1], [0, 2])),
        (F(3, 2), mk(7, [3, 5], [3, 6])),
        (F(5), mk(7, [2, 4], [2, 6])),
    )
    with caplog.at_level("DEBUG", logger="assemblage_shapley.shapley"):
        res = iusv_all(d)
    assert (res.shape_cache_hits, res.shape_cache_misses) == (2, 1)
    assert res.allocation.shares == uncached(d)[0]
    assert res.allocation.shares[3] == F(3, 2) * F(2, 3)
    assert res.stats.general == 3 and res.stats.sc_calls == 9
    assert [r.getMessage() for r in caplog.records] == [
        "iusv_all: 3 general tuples, shape cache 2 hits, 1 misses (one per distinct shape)"
    ]


def test_shape_cache_replays_fallbacks():
    # owner 0 of COUNTER needs 3 SC terms: over a cap of 1 it falls back to SL
    d = coalition(6, (F(2), mk(6, [0, 1], [0, 2])), (F(7, 3), mk(6, [3, 4], [3, 5])))
    res = iusv_all(d, sc_max_terms=1)
    shares, _, stats = uncached(d, sc_max_terms=1)
    assert res.allocation.shares == shares
    assert res.stats == stats
    assert (res.stats.fallbacks, res.shape_cache_hits) == (2, 1)


def test_shape_cache_double_budget_failure_names_global_owner():
    d = coalition(7, (F(1), mk(7, [4, 5], [4, 6])), (F(1), mk(7, [0, 1], [0, 2])))
    with pytest.raises(CostLimitError) as got:
        iusv_all(d, sc_max_terms=1, sl_max_owners=2)
    with pytest.raises(CostLimitError) as want:
        iusv_tuple(d.tuples[0].syntheses, F(1), sc_max_terms=1, sl_max_owners=2)
    assert "owner 4 " in str(got.value)
    assert str(got.value) == str(want.value)
