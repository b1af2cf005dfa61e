"""Shapley's axioms and the product closed forms, checked above the 20 owners
the brute-force oracle can enumerate.

A product of a and b owner-disjoint singleton lists (every synthesis is one
owner of each side) gives each of the a owners b/(a(a+b)) and each of the b
owners a/(b(a+b)); a star is the case a = 1. Symmetry, additivity and
efficiency are checked on seeded random antichains of up to 14 owners.
"""

from fractions import Fraction as F
from random import Random

import pytest

from assemblage_shapley import (
    CostLimitError,
    General,
    OwnerSet,
    brute_force_tuple_oracle,
    classify_tuple,
    iusv_all,
    iusv_tuple,
    minimalize,
)

from helpers import coalition

#: puts every owner of a general-case list on the SL table
ALL_SL = 1e9


def product(a, b):
    """The witness list {i, a + j} for i < a, j < b, over a + b owners."""
    return minimalize(OwnerSet(a + b, 1 << i | 1 << a + j) for i in range(a) for j in range(b))


def product_values(a, b):
    """The product's closed form at utility 1, by owner."""
    return [F(b, a * (a + b))] * a + [F(a, b * (a + b))] * b


@pytest.mark.parametrize("a, b", [(2, 3), (1, 5), (3, 4)])
def test_product_closed_form_equals_the_oracle(a, b):
    oracle = brute_force_tuple_oracle(product(a, b), F(1))
    assert [oracle[o] for o in range(a + b)] == product_values(a, b)


@pytest.mark.parametrize("a, b", [(1, 21), (2, 20), (4, 20)])
def test_product_closed_form_above_the_oracle_limit(a, b):
    s = product(a, b)
    with pytest.raises(CostLimitError):
        brute_force_tuple_oracle(s, F(1))
    res = iusv_all(coalition(a + b, (F(1), s)), ALL_SL)
    assert list(res.allocation.shares) == product_values(a, b)
    assert sum(res.allocation.shares) == 1


def test_a_star_over_both_caps_names_its_hub():
    message = (
        r"^both SC and SL exceed their budgets for owner 0 \(m_u=30, m_not_u=0, owners=31\)$"
    )
    with pytest.raises(CostLimitError, match=message):
        iusv_all(coalition(31, (F(1), product(1, 30))))


def random_list(rng, n_owners):
    """A random antichain of one to six syntheses, each of one to four of
    ``n_owners`` owners."""
    sizes = [rng.randint(1, min(4, n_owners)) for _ in range(rng.randint(1, 6))]
    owners = range(n_owners)
    return minimalize(OwnerSet.from_indices(n_owners, rng.sample(owners, k)) for k in sizes)


def relabel(s, targets, width):
    """``s`` with owner ``o`` renamed ``targets[o]``, over ``width`` owners."""
    return minimalize(OwnerSet.from_indices(width, (targets[o] for o in m)) for m in s)


def random_coalition(rng, n_owners, width=None, first=0):
    """Random witness lists over owners ``first`` to ``first + n_owners - 1``
    of a ``width``-owner universe. Each list of k < n_owners ranks is placed
    twice, on two random sets of k owners in rank order, which keeps its
    shape; each placement is held by one to three tuples, so witness lists
    repeat. The first list is drawn again until it is a general case, so the
    shape cache hits."""
    width = n_owners if width is None else width
    lists = []
    for i in range(rng.randint(2, 4)):
        k = rng.randint(3, n_owners - 1)
        base = random_list(rng, k)
        while i == 0 and classify_tuple(base) != General():
            base = random_list(rng, k)
        for _ in range(2):
            targets = sorted(rng.sample(range(first, first + n_owners), k))
            s = relabel(base, targets, width)
            lists += [(F(rng.randint(0, 50), rng.randint(1, 7)), s)
                      for _ in range(rng.randint(1, 3))]
    return lists


@pytest.mark.parametrize("seed", range(20))
def test_relabelling_the_owners_permutes_the_shares(seed):
    rng = Random(f"symmetry-{seed}")
    n = rng.randint(8, 14)
    lists = random_coalition(rng, n)
    perm = rng.sample(range(n), n)
    res = iusv_all(coalition(n, *lists))
    moved = iusv_all(coalition(n, *[(u, relabel(s, perm, n)) for u, s in lists]))
    assert res.shape_cache_hits > 0
    assert [moved.allocation.shares[perm[o]] for o in range(n)] == list(res.allocation.shares)


@pytest.mark.parametrize("seed", range(20))
def test_merging_owner_disjoint_coalitions_adds_their_allocations(seed):
    rng = Random(f"additivity-{seed}")
    n1, n2 = rng.randint(4, 12), rng.randint(4, 12)
    width = n1 + n2
    first = random_coalition(rng, n1, width)
    second = random_coalition(rng, n2, width, first=n1)
    merged = iusv_all(coalition(width, *first, *second)).allocation.shares
    one = iusv_all(coalition(width, *first)).allocation.shares
    two = iusv_all(coalition(width, *second)).allocation.shares
    assert list(merged) == [x + y for x, y in zip(one, two)]


@pytest.mark.parametrize("gamma", [1e-9, 1.0, ALL_SL])
def test_each_tuples_values_sum_to_its_utility(gamma):
    rng = Random(f"efficiency-{gamma}")
    for _ in range(100):
        n = rng.randint(2, 14)
        utility = F(rng.randint(0, 50), rng.randint(1, 7))
        assert sum(iusv_tuple(random_list(rng, n), utility, gamma).values()) == utility
