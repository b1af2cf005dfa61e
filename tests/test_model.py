import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from assemblage_shapley import Allocation, OwnerSet, UniverseMismatchError, as_utility
from assemblage_shapley.model import exact_sum, sum_parts, value_from_json, value_to_json


def test_union_and_subset():
    a = OwnerSet.singleton(4, 0)
    b = OwnerSet.singleton(4, 1)
    assert (a | b) == OwnerSet.from_indices(4, [0, 1])
    assert OwnerSet.from_indices(4, [0, 1]) <= OwnerSet.from_indices(4, [0, 1, 2])
    assert not OwnerSet.from_indices(4, [0, 3]) <= OwnerSet.from_indices(4, [0, 1])


def test_union_cardinality_of_overlapping_sets():
    a = OwnerSet.from_indices(4, [0, 1])
    b = OwnerSet.from_indices(4, [0, 2])
    assert len(a | b) == 3


def test_membership_iteration_and_repr():
    s = OwnerSet.from_indices(8, [1, 5, 6])
    assert list(s) == [1, 5, 6]
    assert 5 in s and 0 not in s and 9 not in s
    assert s.indices() == (1, 5, 6)
    assert "u5" in repr(s)
    assert bool(OwnerSet.empty(3)) is False


def test_difference_and_without():
    s = OwnerSet.from_indices(5, [0, 2, 4])
    assert s.without(2) == OwnerSet.from_indices(5, [0, 4])
    assert s.difference(OwnerSet.from_indices(5, [0, 1])) == OwnerSet.from_indices(5, [2, 4])


def test_mismatched_universes_rejected():
    with pytest.raises(UniverseMismatchError):
        OwnerSet.singleton(4, 0) | OwnerSet.singleton(5, 0)
    with pytest.raises(UniverseMismatchError):
        OwnerSet.singleton(4, 0) <= OwnerSet.singleton(8, 0)
    assert OwnerSet.singleton(4, 0) != OwnerSet.singleton(5, 0)


def test_out_of_range_construction_rejected():
    with pytest.raises(ValueError):
        OwnerSet.singleton(4, 4)
    with pytest.raises(ValueError):
        OwnerSet.from_indices(2, [3])
    with pytest.raises(ValueError):
        OwnerSet(3, bits=0b1000)


owner_sets = st.integers(2, 12).flatmap(
    lambda w: st.tuples(
        st.integers(0, (1 << w) - 1),
        st.integers(0, (1 << w) - 1),
        st.integers(0, (1 << w) - 1),
    ).map(lambda bits: tuple(OwnerSet(w, b) for b in bits))
)


@given(owner_sets)
def test_lattice_laws(sets):
    a, b, c = sets
    assert (a | a) == a and (a & a) == a
    assert (a | b) == (b | a) and (a & b) == (b & a)
    assert (a | (a & b)) == a
    assert (a & (a | b)) == a
    assert ((a | b) | c) == (a | (b | c))
    assert ((a & b) & c) == (a & (b & c))
    assert a <= (a | b) and (a & b) <= a


fractions = st.fractions(min_value=0, max_value=1000, max_denominator=10**6)


@given(fractions, fractions)
def test_rational_roundtrip(a, b):
    assert (a + b) - b == a


def test_as_utility_exact_decimal_conversion():
    assert as_utility(0.1) == Fraction(1, 10)
    assert as_utility("3/7") == Fraction(3, 7)
    assert as_utility(2) == Fraction(2)
    with pytest.raises(ValueError):
        as_utility(-1)
    with pytest.raises(TypeError):  # as the value codec refuses a bool
        as_utility(True)


def test_allocation_basics():
    alloc = Allocation.from_mapping(3, {1: Fraction(2, 3), 2: Fraction(1, 3)})
    assert alloc[0] == 0 and alloc[1] == Fraction(2, 3)
    assert alloc.total() == 1
    assert alloc.per_owner() == {0: 0, 1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert alloc.as_floats() == [0.0, pytest.approx(2 / 3), pytest.approx(1 / 3)]
    assert Allocation.zeros(2).total() == 0
    assert Allocation.zeros(0).total() == 0


@given(
    st.lists(
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
        max_size=50,
    )
)
def test_exact_sum_equals_the_fraction_fold(values):
    total = exact_sum(values)
    assert type(total) is Fraction
    assert total == sum(values, Fraction(0))


def test_sum_parts_of_nothing_is_zero():
    assert sum_parts({}) == 0
    assert sum_parts({3: -2, 6: 5}) == Fraction(1, 6)


def test_allocation_rejects_negative_share():
    with pytest.raises(ValueError):
        Allocation(shares=(Fraction(-1, 2),))


@given(st.one_of(st.integers(), st.text(), st.fractions()))
def test_exact_values_roundtrip_through_json_text(value):
    back = value_from_json(json.loads(json.dumps(value_to_json(value))))
    assert back == value and type(back) is type(value)
