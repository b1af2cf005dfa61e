import json
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from assemblage_shapley import Allocation, OwnerSet, UniverseMismatchError, as_utility
from assemblage_shapley.model import (
    check_fields, exact_sum, has_type, sum_parts, value_from_json, value_to_json,
)


def test_union_and_subset():
    a = OwnerSet(4, 0b0001)
    b = OwnerSet(4, 0b0010)
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
    assert tuple(s) == (1, 5, 6)
    assert "u5" in repr(s)
    assert repr(s) == "OwnerSet({u1,u5,u6}, width=8)"
    assert bool(OwnerSet(3)) is False


def test_difference_and_without():
    # a difference is an intersection with the complement
    s = OwnerSet.from_indices(5, [0, 2, 4])
    assert s & OwnerSet(5, 0b11111 ^ 0b00100) == OwnerSet.from_indices(5, [0, 4])
    assert s & OwnerSet(5, 0b11111 ^ 0b00011) == OwnerSet.from_indices(5, [2, 4])


def test_mismatched_universes_rejected():
    with pytest.raises(UniverseMismatchError):
        OwnerSet(4, 1) | OwnerSet(5, 1)
    with pytest.raises(UniverseMismatchError):
        OwnerSet(4, 1) <= OwnerSet(8, 1)
    assert OwnerSet(4, 1) != OwnerSet(5, 1)


def test_out_of_range_construction_rejected():
    with pytest.raises(ValueError):
        OwnerSet.from_indices(4, [4])
    with pytest.raises(ValueError):
        OwnerSet.from_indices(2, [3])
    with pytest.raises(ValueError):
        OwnerSet(3, bits=0b1000)
    with pytest.raises(ValueError):
        OwnerSet(3, bits=-1)
    with pytest.raises(ValueError):
        OwnerSet(-1)


def test_owner_sets_are_frozen_hashable_and_picklable():
    s = OwnerSet(4, 0b0011)
    held = {s: "x"}
    for name, value in (("bits", 0b1111), ("width", 8)):
        with pytest.raises(FrozenInstanceError):
            setattr(s, name, value)
    assert s in held and s == OwnerSet(4, 0b0011)
    assert hash(s) == hash(OwnerSet.from_indices(4, [0, 1])) == hash((4, 0b0011))
    assert pickle.loads(pickle.dumps(s)) == s
    assert not hasattr(s, "__dict__")


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
    alloc = Allocation(shares=(Fraction(0), Fraction(2, 3), Fraction(1, 3)))
    assert alloc[0] == 0 and alloc[1] == Fraction(2, 3)
    assert alloc.total() == 1
    assert alloc.per_owner() == {0: 0, 1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert alloc.as_floats() == [0.0, pytest.approx(2 / 3), pytest.approx(1 / 3)]
    assert Allocation(shares=(Fraction(0),) * 2).total() == 0
    assert Allocation(shares=()).total() == 0


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


@pytest.mark.parametrize(
    "value, hint, fits",
    [
        (1, float, True), (1.5, float, True), (True, float, False), (True, int, False),
        (True, bool, True), (2.0, int, False), ("1", int, False),
        (None, int | None, True), (3, int | None, True), ("3", int | None, False),
        (["a"], list[str], True), ([1], list[str], False), ("a", list[str], False),
        ({"a": 1}, dict[str, float], True), ({"a": True}, dict[str, float], False),
        ({1: 1.0}, dict[str, float], False), ([], dict[str, float], False),
    ],
)
def test_has_type(value, hint, fits):
    assert has_type(value, hint) is fits


def test_check_fields_names_the_field():
    @dataclass
    class Record:
        n: int
        shares: list[float] | None = None

    check_fields(Record(1, [1, 0.5]))
    with pytest.raises(TypeError, match=r"^shares must be list\[float\] \| None, got \['x'\]$"):
        check_fields(Record(1, ["x"]))
    with pytest.raises(TypeError, match=r"^n must be int, got True$"):
        check_fields(Record(True))
