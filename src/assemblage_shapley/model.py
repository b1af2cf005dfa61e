"""Owner identities, owner sets, exact utilities, and allocations.

Owners are dense non-negative integers within one scenario. Sets of owners are
fixed-width bit vectors so that union/intersection/subset tests are exact
integer operations. All revenue arithmetic uses ``fractions.Fraction``; floats
only appear at the reporting boundary. Every exact total is summed one way:
integer numerators keyed by denominator (:func:`exact_sum`), made into one
``Fraction`` at the end (:func:`sum_parts`).
"""

from __future__ import annotations

import types
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Any, Iterable, Iterator, Mapping, Union, get_args, get_origin, get_type_hints

from .errors import UniverseMismatchError

#: Owner universes are capped per scenario so bit vectors stay fixed-width.
DEFAULT_MAX_OWNERS = 4096

#: Exact non-negative rational utility. Floats only at the reporting boundary.
Utility = Fraction


def bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sum_parts(parts: Mapping[int, int]) -> Fraction:
    """The exact sum of ``numerator / denominator`` over ``parts``, which maps
    denominators to numerators, as one ``Fraction`` over the denominators'
    least common multiple; ``0`` when ``parts`` is empty."""
    den = lcm(*parts)
    return Fraction(sum(n * (den // d) for d, n in parts.items()), den)


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of ``values``: their numerators are added as integers per
    denominator, and :func:`sum_parts` builds one ``Fraction``."""
    parts: defaultdict[int, int] = defaultdict(int)
    for v in values:
        parts[v.denominator] += v.numerator
    return sum_parts(parts)


def as_utility(value: int | str | Fraction | float) -> Fraction:
    """Coerce ``value`` to an exact non-negative ``Fraction``.

    Floats are converted through their decimal string form so that e.g. ``0.1``
    becomes ``1/10`` rather than the binary approximation. A ``bool`` raises
    ``TypeError``, as in :func:`value_from_json`.
    """
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a utility")
    if isinstance(value, float):
        value = str(value)
    out = Fraction(value)
    if out < 0:
        raise ValueError(f"utility must be non-negative, got {out}")
    return out


def value_to_json(value: int | str | Fraction) -> int | str | dict:
    """The JSON form of an exact value (a plan constant or a coalition cell):
    an ``int`` or ``str`` as itself, a ``Fraction`` as ``{"fraction": "p/q"}``.
    Any other value, a ``bool`` included, raises ``TypeError``."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}"}
    raise TypeError(f"cannot write {value!r} as an exact value")


def value_from_json(data) -> int | str | Fraction:
    """The exact value :func:`value_to_json` wrote as ``data``, or a JSON float
    read through its decimal string, so ``0.1`` is ``1/10``. Any other JSON
    value (a ``bool``, ``null``, a list, another object) raises ``TypeError``."""
    if isinstance(data, (int, str)) and not isinstance(data, bool):
        return data
    if isinstance(data, float):
        return Fraction(str(data))
    if isinstance(data, dict) and set(data) == {"fraction"} and isinstance(data["fraction"], str):
        return Fraction(data["fraction"])
    raise TypeError(f"{data!r} is not an exact value")


@cache
def field_types(cls) -> Mapping[str, Any]:
    """The resolved annotation of each field of the dataclass ``cls``, in
    field order; worked out once per class."""
    hints = get_type_hints(cls)
    return types.MappingProxyType({f.name: hints[f.name] for f in fields(cls)})


def has_type(value, hint) -> bool:
    """Whether ``value`` fits the annotation ``hint``: ``typing.Any``, a class,
    ``X | None``, ``list[X]`` or ``dict[K, V]``. An ``int`` fits ``float``, and
    a ``bool`` fits only ``bool``."""
    if hint is Any:
        return True
    origin = get_origin(hint)
    if origin in (Union, types.UnionType):
        return any(has_type(value, arg) for arg in get_args(hint))
    if origin is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(has_type(v, item) for v in value)
    if origin is dict:
        key, item = get_args(hint)
        return isinstance(value, dict) and all(
            has_type(k, key) and has_type(v, item) for k, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def check_fields(record) -> None:
    """Raise ``TypeError`` naming the first field of the dataclass instance
    ``record`` whose value does not fit its annotation (see :func:`json_object`)."""
    hints = field_types(type(record))
    json_object({name: getattr(record, name) for name in hints}, "record", **hints)


def json_object(data, what: str, /, **hints) -> dict:
    """``data``, a JSON object read as a ``what``; a key not in ``hints`` raises
    ``ValueError``, and data that is not an object, or a value that does not fit
    its key's annotation (see :func:`has_type`), ``TypeError``. Absent keys pass."""
    if not isinstance(data, dict):
        raise TypeError(f"a {what} must be an object, got {type(data).__name__}")
    unknown = [key for key in data if key not in hints]
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; a {what} takes {', '.join(hints)}")
    for key, value in data.items():
        hint = hints[key]
        if not has_type(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else hint
            raise TypeError(f"{key} must be {shown}, got {value!r}")
    return data


class OwnerSet:
    """An immutable set of owner indices over a fixed-width universe.

    Supports ``|`` (union), ``&`` (intersection), ``<=`` (subset), ``len``
    (cardinality), ``in``, and iteration over member indices. Mixing sets from
    universes of different widths raises :class:`UniverseMismatchError`.
    """

    __slots__ = ("width", "bits")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError(f"universe width must be >= 0, got {width}")
        if bits < 0 or bits >> width:
            raise ValueError(f"bit pattern {bits:#x} does not fit a {width}-owner universe")
        self.width = width
        self.bits = bits

    @classmethod
    def empty(cls, width: int) -> "OwnerSet":
        return cls(width, 0)

    @classmethod
    def full(cls, width: int) -> "OwnerSet":
        return cls(width, (1 << width) - 1)

    @classmethod
    def singleton(cls, width: int, owner: int) -> "OwnerSet":
        if not 0 <= owner < width:
            raise ValueError(f"owner {owner} outside universe of width {width}")
        return cls(width, 1 << owner)

    @classmethod
    def from_indices(cls, width: int, owners: Iterable[int]) -> "OwnerSet":
        bits = 0
        for o in owners:
            if not 0 <= o < width:
                raise ValueError(f"owner {o} outside universe of width {width}")
            bits |= 1 << o
        return cls(width, bits)

    def _check(self, other: "OwnerSet") -> None:
        if not isinstance(other, OwnerSet):
            raise TypeError(f"expected OwnerSet, got {type(other).__name__}")
        if other.width != self.width:
            raise UniverseMismatchError(
                f"owner universes differ: width {self.width} vs {other.width}"
            )

    def union(self, other: "OwnerSet") -> "OwnerSet":
        self._check(other)
        return OwnerSet(self.width, self.bits | other.bits)

    __or__ = union

    def intersection(self, other: "OwnerSet") -> "OwnerSet":
        self._check(other)
        return OwnerSet(self.width, self.bits & other.bits)

    __and__ = intersection

    def difference(self, other: "OwnerSet") -> "OwnerSet":
        self._check(other)
        return OwnerSet(self.width, self.bits & ~other.bits)

    def without(self, owner: int) -> "OwnerSet":
        return OwnerSet(self.width, self.bits & ~(1 << owner))

    def is_subset(self, other: "OwnerSet") -> bool:
        self._check(other)
        return self.bits & other.bits == self.bits

    __le__ = is_subset

    def __lt__(self, other: "OwnerSet") -> bool:
        return self.is_subset(other) and self.bits != other.bits

    def cardinality(self) -> int:
        return self.bits.bit_count()

    __len__ = cardinality

    def __contains__(self, owner: int) -> bool:
        return 0 <= owner < self.width and bool(self.bits >> owner & 1)

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OwnerSet):
            return NotImplemented
        return self.width == other.width and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.width, self.bits))

    def __repr__(self) -> str:
        members = ",".join(f"u{i}" for i in self)
        return f"OwnerSet({{{members}}}, width={self.width})"


@dataclass(frozen=True)
class Allocation:
    """Per-owner revenue shares for one coalition set.

    ``shares[i]`` is the exact value assigned to owner ``i``; the owner universe
    is dense, so zeros are stored explicitly. ``per_tuple`` optionally maps
    ``(tuple_index, owner)`` to that tuple's contribution.
    """

    shares: tuple[Fraction, ...]
    per_tuple: Mapping[tuple[int, int], Fraction] | None = None

    def __post_init__(self):
        for i, v in enumerate(self.shares):
            if v < 0:
                raise ValueError(f"negative share {v} for owner {i}")

    @classmethod
    def zeros(cls, n_owners: int) -> "Allocation":
        return cls(shares=(Fraction(0),) * n_owners)

    @classmethod
    def from_mapping(cls, n_owners: int, values: Mapping[int, Fraction]) -> "Allocation":
        shares = [Fraction(0)] * n_owners
        for owner, v in values.items():
            shares[owner] = Fraction(v)
        return cls(shares=tuple(shares))

    @property
    def n_owners(self) -> int:
        return len(self.shares)

    def __getitem__(self, owner: int) -> Fraction:
        return self.shares[owner]

    def total(self) -> Fraction:
        return exact_sum(self.shares)

    def per_owner(self) -> dict[int, Fraction]:
        return dict(enumerate(self.shares))

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.shares]
