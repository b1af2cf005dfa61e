"""Plan evaluation over owner-held tables with witness (synthesis) tracking.

Evaluating a coalition plan produces the deduplicated coalition set. Alongside
each output tuple we carry its syntheses: the owner sets that can jointly
produce an instance of that tuple. Witness lists are kept in the normal form
of the why-provenance (PosBool) semiring (Green, Karvounarakis & Tannen, PODS
2007): an antichain in canonical (cardinality, bits) order. A subsumed witness
never becomes minimal again under these monotone operators, so a row is
minimalised at most once, where its witnesses combine. A scan reads owners in
ascending order and collapses an owner's repeated rows (the one place they
collapse), so its distinct singleton witnesses are already canonical. A join
combines each matching pair's lists, and no two pairs give one row; a
projection or union combines only rows that collide.

Two lists whose owner unions do not meet combine without minimalising. For a
join, l1 | r1 ⊆ l2 | r2 over disjoint owners forces l1 ⊆ l2 and r1 ⊆ r2, so
the unions of two antichains are distinct and none contains another; for a
merge, a non-empty mask cannot lie inside a mask over the other list's owners.
Either way only the canonical order is left to restore. Lists whose owners
meet are minimalised. A join of two single witnesses is one OR, ``[l | r]``,
whether or not their owners meet: one mask is an antichain, and neither
row's owner union is computed until a pair holds a longer list. The output
rows are checked against the cap, and each distinct list is wrapped once, as
it stands, in a ``SynthesisSet`` shared by every row that has it: a
``SynthesisSet`` stores int masks, not ``OwnerSet``s. Each output
``CoalitionTuple`` is built through its slots' setters, not its frozen
constructor.

The ``plans`` module owns the column layout. The whole plan is type-checked
and laid out once, by ``plans.plan_layout``, before any row is read, and the
engine takes every output schema and column position from that layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from . import model
from .errors import PlanError, SynthesisLimitError, read_json
from .model import OwnerSet, as_utility, bit_indices, exact_sum, value_from_json, value_to_json
from .plans import (
    EquiJoin, Layout, NaturalJoin, PlanNode, Project, Scan, Union, children, plan_layout,
)

Row = tuple

#: Per-tuple cap on minimal syntheses; Shapley cost is exponential in this.
DEFAULT_MAX_SYNTHESES = 64


def _normalise_rows(table, where: str) -> None:
    """Store ``table``'s schema and rows as tuples, the rows as given; a row
    of the wrong arity is a :class:`PlanError` naming ``where``."""
    schema = tuple(table.schema)
    rows = tuple(map(tuple, table.rows))
    if set(map(len, rows)) - {len(schema)}:
        row = next(row for row in rows if len(row) != len(schema))
        raise PlanError(f"row arity {len(row)} != schema arity {len(schema)} in {where}")
    object.__setattr__(table, "schema", schema)
    object.__setattr__(table, "rows", rows)


@dataclass(frozen=True)
class SourceTable:
    """A logical table before any owner assignment."""

    name: str
    schema: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        _normalise_rows(self, f"table {self.name!r}")
        object.__setattr__(self, "rows", tuple(dict.fromkeys(self.rows)))

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class OwnedTable:
    """One owner's copy of (part of) a logical table.

    Its rows are kept as given, duplicates included. The scan of
    :func:`evaluate_plan` collapses an owner's repeated rows, so an owner
    contributes at most one witness per row value.
    """

    table: str
    owner: int
    schema: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        if self.owner < 0:
            raise ValueError(f"owner index must be >= 0, got {self.owner}")
        _normalise_rows(self, f"table {self.table!r} of owner {self.owner}")

    def __len__(self) -> int:
        return len(self.rows)


def _canonical(mask: int) -> tuple[int, int]:
    """The (cardinality, bits) key of the canonical order."""
    return mask.bit_count(), mask


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Deduplicated subset-minimal elements, sorted by (cardinality, bits)."""
    ordered = sorted(set(masks), key=_canonical)
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _owners(masks: Iterable[int]) -> int:
    """The union of ``masks``."""
    bits = 0
    for m in masks:
        bits |= m
    return bits


def _profile(masks: list[int]) -> tuple[int, int]:
    """The owner union of the non-empty canonical antichain ``masks``, and the
    cardinality all its masks share, or -1 where they differ."""
    low, high = masks[0].bit_count(), masks[-1].bit_count()
    return _owners(masks), (low if low == high else -1)


def _join_masks(
    lmasks: list[int], lprofile: tuple[int, int], rmasks: list[int], rprofile: tuple[int, int]
) -> list[int]:
    """The canonical antichain of the unions of ``lmasks`` × ``rmasks``, two
    canonical antichains of the given :func:`_profile`."""
    (lowners, lcard), (rowners, rcard) = lprofile, rprofile
    if lowners & rowners:
        return _minimal_masks(lm | rm for lm in lmasks for rm in rmasks)
    # disjoint owners: an antichain already, only its order is left
    out = [lm | rm for lm in lmasks for rm in rmasks]
    if lcard < 0 or rcard < 0:
        out.sort(key=_canonical)
    else:  # every union has lcard + rcard owners
        out.sort()
    return out


def _merge_masks(have: list[int], masks: list[int]) -> list[int]:
    """The canonical antichain of the minimal masks of two canonical
    antichains ``have`` and ``masks``."""
    (howners, hcard), (mowners, mcard) = _profile(have), _profile(masks)
    if howners & mowners:
        return _minimal_masks(have + masks)
    # disjoint owners: an antichain already, only its order is left
    out = have + masks
    if hcard == mcard >= 0:
        out.sort()
    else:
        out.sort(key=_canonical)
    return out


def _getter(positions: tuple[int, ...]) -> Callable[[Row], Row]:
    """A function from a row to the tuple of its values at ``positions``;
    ``itemgetter`` alone returns a bare value for one position."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


def _synthesis_masks(syntheses: Sequence[OwnerSet]) -> list[int]:
    """The masks of a non-empty list of non-empty owner sets of one width."""
    if not syntheses:
        raise ValueError("a coalition tuple must have at least one synthesis")
    width = syntheses[0].width
    for s in syntheses:
        if s.width != width:
            raise ValueError("syntheses span different owner universes")
        if not s:
            raise ValueError("empty owner set cannot be a synthesis")
    return [s.bits for s in syntheses]


@dataclass(frozen=True, init=False)
class SynthesisSet:
    """The minimal syntheses of one coalition tuple: a non-empty antichain,
    stored as its owner universe ``width`` and its masks ``bits`` in canonical
    order. The constructor validates :class:`OwnerSet`s; iterating and
    ``syntheses`` build them again only when asked."""

    width: int
    bits: tuple[int, ...]

    def __init__(self, syntheses: Sequence[OwnerSet]):
        masks = _synthesis_masks(syntheses)
        if masks != _minimal_masks(masks):
            raise ValueError(
                "syntheses must be a deduplicated antichain in canonical order; "
                "use SynthesisSet.from_sets or minimalize"
            )
        object.__setattr__(self, "width", syntheses[0].width)
        object.__setattr__(self, "bits", tuple(masks))

    @classmethod
    def from_sets(cls, syntheses: Iterable[OwnerSet]) -> "SynthesisSet":
        return minimalize(syntheses)

    @classmethod
    def _trusted(cls, width: int, bits: tuple[int, ...]) -> "SynthesisSet":
        """Wrap masks known to be a canonical antichain, without validating."""
        s = object.__new__(cls)
        object.__setattr__(s, "width", width)
        object.__setattr__(s, "bits", bits)
        return s

    @property
    def syntheses(self) -> tuple[OwnerSet, ...]:
        return tuple(self)

    def owners(self) -> OwnerSet:
        """Union of all minimal syntheses: the only owners with nonzero value."""
        return OwnerSet(self.width, _owners(self.bits))

    def masks(self) -> tuple[int, ...]:
        return self.bits

    def __iter__(self) -> Iterator[OwnerSet]:
        return (OwnerSet(self.width, m) for m in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def minimalize(syntheses: Iterable[OwnerSet]) -> SynthesisSet:
    """Reduce witness sets to their subset-minimal antichain.

    Output order is canonical: by cardinality, then by bit pattern.
    """
    syntheses = list(syntheses)
    kept = _minimal_masks(_synthesis_masks(syntheses))
    return SynthesisSet._trusted(syntheses[0].width, tuple(kept))


@dataclass(frozen=True, slots=True)
class CoalitionTuple:
    values: Row
    utility: Fraction
    syntheses: SynthesisSet


# What evaluate_plan's output pass builds a CoalitionTuple from: its slots'
# setters, which skip the frozen __setattr__ the constructor goes through.
_new_tuple = CoalitionTuple.__new__
_set_values = CoalitionTuple.values.__set__
_set_utility = CoalitionTuple.utility.__set__
_set_syntheses = CoalitionTuple.syntheses.__set__


@dataclass(frozen=True)
class CoalitionSet:
    """Deduplicated output tuples of a coalition plan, with witnesses over
    ``n_owners`` owners; a repeated tuple, or syntheses over another number
    of owners, raises ``ValueError``."""

    schema: tuple[str, ...]
    tuples: tuple[CoalitionTuple, ...]
    n_owners: int

    def __post_init__(self):
        values = set()
        for t in self.tuples:
            if t.syntheses.width != self.n_owners:
                raise ValueError(
                    f"tuple {t.values!r} has syntheses over {t.syntheses.width} owners, "
                    f"not {self.n_owners}"
                )
            values.add(t.values)
        if len(values) != len(self.tuples):
            raise ValueError("coalition set contains duplicate tuple values")

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[CoalitionTuple]:
        return iter(self.tuples)

    def total_utility(self) -> Fraction:
        return exact_sum(t.utility for t in self.tuples)


def _catalog(tables: Sequence[OwnedTable]) -> dict[str, tuple[str, ...]]:
    catalog: dict[str, tuple[str, ...]] = {}
    for t in tables:
        # a repeated name would let two right rows give one join output row
        if len(set(t.schema)) != len(t.schema):
            raise PlanError(f"table {t.table!r} repeats an attribute name: {t.schema}")
        if t.table in catalog:
            if catalog[t.table] != t.schema:
                raise PlanError(
                    f"owners of table {t.table!r} disagree on its schema: "
                    f"{catalog[t.table]} vs {t.schema}"
                )
        else:
            catalog[t.table] = t.schema
    return catalog


def infer_n_owners(tables: Sequence[OwnedTable]) -> int:
    return max((t.owner for t in tables), default=-1) + 1


Relation = dict  # Row -> list[int] witness masks


#: How a synthesis cap error names each operator.
_OPERATOR = {Scan: "scan", Project: "projection", NaturalJoin: "join", EquiJoin: "join",
             Union: "union"}


def _cap_error(row: Row, count: int, node: PlanNode) -> SynthesisLimitError:
    """The error for ``row`` with ``count`` > ``DEFAULT_MAX_SYNTHESES``
    minimal syntheses after ``node``."""
    return SynthesisLimitError(
        f"tuple {row!r} has {count} minimal syntheses (cap {DEFAULT_MAX_SYNTHESES}) "
        f"after {_OPERATOR[type(node)]}"
    )


def _merged(sources, node: PlanNode) -> Relation:
    """One relation of the (row, masks) pairs of ``sources``, combining rows
    that collide; it stores the lists it is given and changes none."""
    dest: Relation = {}
    for items in sources:
        for row, masks in items:
            have = dest.setdefault(row, masks)
            if have is not masks:  # each list is one row's, so this row collides
                merged = _merge_masks(have, masks)
                if len(merged) > DEFAULT_MAX_SYNTHESES:
                    raise _cap_error(row, len(merged), node)
                dest[row] = merged
    return dest


def evaluate_plan(
    plan: PlanNode,
    tables: Sequence[OwnedTable],
    *,
    utility_fn: Callable[[Row], Fraction] | None = None,
    n_owners: int | None = None,
) -> CoalitionSet:
    """Evaluate ``plan`` over owner-held tables, tracking minimal syntheses.

    Every output tuple carries the antichain of minimal owner sets able to
    produce it. ``utility_fn`` maps an output row to its utility (default 1).
    ``n_owners`` fixes the owner universe width; by default it is inferred as
    ``max(owner index) + 1`` over all tables, including empty ones, so that
    evaluations of owner-restricted inputs stay in the same universe.

    More than ``model.DEFAULT_MAX_OWNERS`` owners is a :class:`PlanError`,
    and a tuple with more than ``DEFAULT_MAX_SYNTHESES`` minimal syntheses
    is a :class:`SynthesisLimitError`.
    """
    if n_owners is None:
        n_owners = infer_n_owners(tables)
    if n_owners > (cap := model.DEFAULT_MAX_OWNERS):
        raise PlanError(f"{n_owners} owners exceeds the cap of {cap}")
    for t in tables:
        if t.owner >= n_owners:
            raise PlanError(f"table {t.table!r} owner {t.owner} outside universe of {n_owners}")
    layout = plan_layout(plan, _catalog(tables))  # type-check the whole tree up front
    cap = DEFAULT_MAX_SYNTHESES

    by_name: dict[str, list[OwnedTable]] = {}
    for t in sorted(tables, key=lambda t: t.owner):
        by_name.setdefault(t.table, []).append(t)

    def eval_node(node: PlanNode, lay: Layout) -> Relation:
        rels = [eval_node(c, c_lay) for c, c_lay in zip(children(node), lay.inputs)]
        if isinstance(node, Scan):
            rel: Relation = {}
            for t in by_name[node.table]:  # ascending owners
                mask = 1 << t.owner
                rows = t.rows
                if lay.where:
                    rows = [r for r in rows if not any(r[i] != v for i, v in lay.where)]
                for row in rows:
                    masks = rel.setdefault(row, [])  # hashes the row once
                    if not masks or masks[-1] != mask:  # an owner's repeated row
                        masks.append(mask)
            return rel

        if isinstance(node, Project):
            get = _getter(lay.columns)
            return _merged([((get(row), masks) for row, masks in rels[0].items())], node)

        if isinstance(node, (NaturalJoin, EquiJoin)):
            lrel, rrel = rels
            lkey, rkey = _getter(lay.left_key), _getter(lay.right_key)
            rkeep = _getter(lay.right_keep)

            # right rows by key, each as [kept columns, masks, profile]; a
            # row's profile, like a left row's, is computed once a pair needs it
            index: dict[Row, list[list]] = {}
            for rrow, rmasks in rrel.items():
                index.setdefault(rkey(rrow), []).append([rkeep(rrow), rmasks, None])

            out: Relation = {}
            for lrow, lmasks in lrel.items():
                matches = index.get(lkey(lrow))
                if matches is None:
                    continue
                lprofile = None
                for match in matches:
                    kept, rmasks, rprofile = match
                    # a right row is its key plus its kept columns: rows never collide
                    row = lrow + kept
                    if len(lmasks) == 1 == len(rmasks):  # two single witnesses
                        out[row] = [lmasks[0] | rmasks[0]]
                        continue
                    if lprofile is None:
                        lprofile = _profile(lmasks)
                    if rprofile is None:
                        rprofile = match[2] = _profile(rmasks)
                    combined = _join_masks(lmasks, lprofile, rmasks, rprofile)
                    if len(combined) > cap:
                        raise _cap_error(row, len(combined), node)
                    out[row] = combined
            return out

        # a Union: plan_layout rejected every other node type
        return _merged([rel.items() for rel in rels], node)

    rel = eval_node(plan, layout)

    tuples = []
    one = Fraction(1)  # the default utility, shared by every row
    # one frozen SynthesisSet per distinct list, shared by every row with it
    shared: dict[tuple[int, ...], SynthesisSet] = {}
    for row, masks in rel.items():
        key = tuple(masks)
        syntheses = shared.get(key)
        if syntheses is None:
            # the only cap check for scan rows and rows no projection merged;
            # the first row with an over-cap list is the first over the cap
            if len(key) > cap:
                raise _cap_error(row, len(key), plan)
            syntheses = shared[key] = SynthesisSet._trusted(n_owners, key)
        rel[row] = None  # free each list as its tuple is built, to lower the peak
        t = _new_tuple(CoalitionTuple)
        _set_values(t, row)
        _set_utility(t, as_utility(utility_fn(row)) if utility_fn is not None else one)
        _set_syntheses(t, syntheses)
        tuples.append(t)
    return CoalitionSet(schema=layout.schema, tuples=tuple(tuples), n_owners=n_owners)


def restrict_tables(tables: Sequence[OwnedTable], owners: OwnerSet) -> list[OwnedTable]:
    """Empty out the rows of every table whose owner is not in ``owners``.

    Tables are kept (with empty rows) so schemas and the owner universe width
    are unchanged; evaluating the same plan over the result simulates the
    coalition restricted to ``owners``.
    """
    out = []
    for t in tables:
        if t.owner in owners:
            out.append(t)
        else:
            out.append(OwnedTable(table=t.table, owner=t.owner, schema=t.schema, rows=()))
    return out


# --- coalition set wire format ----------------------------------------------

def coalition_to_dict(d: CoalitionSet) -> dict:
    return {
        "schema": list(d.schema),
        "n_owners": d.n_owners,
        "tuples": [
            {
                "values": [value_to_json(v) for v in t.values],
                "utility": f"{t.utility.numerator}/{t.utility.denominator}",
                "syntheses": [list(bit_indices(m)) for m in t.syntheses.masks()],
            }
            for t in d.tuples
        ],
    }


def coalition_from_dict(data: Mapping[str, Any]) -> CoalitionSet:
    """The coalition set in ``data``, as :func:`coalition_to_dict` writes it.
    An ``n_owners`` that is not an integer from 0 to ``model.DEFAULT_MAX_OWNERS``
    raises ``ValueError``, as :func:`evaluate_plan` would refuse it; so does a
    tuple whose values do not match the schema in number, and a total utility
    that does not convert to ``float``, as reports give it. Another key or JSON
    type, an owner index of ``true`` included, raises as ``json_object`` does."""
    model.json_object(data, "coalition set", schema=list[str], n_owners=Any, tuples=list)
    n, cap = data["n_owners"], model.DEFAULT_MAX_OWNERS
    if type(n) is not int or not 0 <= n <= cap:
        raise ValueError(f"n_owners must be an integer from 0 to {cap}, got {n!r}")
    schema = tuple(data["schema"])
    tuples = []
    for item in data["tuples"]:
        model.json_object(item, "tuple", values=list, utility=Any, syntheses=list[list[int]])
        values = tuple(value_from_json(v) for v in item["values"])
        if len(values) != len(schema):
            raise ValueError(
                f"tuple {values!r} has {len(values)} values for a schema of {len(schema)}"
            )
        syntheses = SynthesisSet.from_sets(OwnerSet.from_indices(n, s) for s in item["syntheses"])
        tuples.append(
            CoalitionTuple(values=values, utility=as_utility(item["utility"]), syntheses=syntheses)
        )
    d = CoalitionSet(schema=schema, tuples=tuple(tuples), n_owners=n)
    try:
        float(d.total_utility())
    except OverflowError:
        raise ValueError("total utility is beyond the float range") from None
    return d


def dump_coalition(d: CoalitionSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coalition_to_dict(d), fh, indent=1)


def load_coalition(path) -> CoalitionSet:
    """The coalition set in the JSON file ``path``; a file that is not JSON or
    not a coalition set, a cell that is not an exact value included, is an
    :class:`IngestError` naming it."""
    return read_json(path, "coalition set", coalition_from_dict)
