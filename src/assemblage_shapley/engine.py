"""Plan evaluation over owner-held tables with witness (synthesis) tracking.

Evaluating a coalition plan produces the deduplicated coalition set. Alongside
each output tuple we carry its syntheses: the owner sets that can jointly
produce an instance of that tuple. Witness lists are kept in the normal form
of the why-provenance (PosBool) semiring (Green, Karvounarakis & Tannen, PODS
2007): an antichain in canonical (cardinality, bits) order. A subsumed witness
never becomes minimal again under these monotone operators, so each row is
minimalised once, where its witnesses combine. A scan reads owners in
ascending order, so its distinct singleton witnesses are already canonical; a
join minimalises each matching pair's unions, and no two pairs give one row;
a projection or union minimalises only rows that collide. The output rows are
checked against the cap, and their masks are wrapped as they stand: a
``SynthesisSet`` stores int masks, not ``OwnerSet``s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import PlanError, SynthesisLimitError
from .model import DEFAULT_MAX_OWNERS, OwnerSet, as_utility, bit_indices
from .plans import EquiJoin, NaturalJoin, PlanNode, Project, Scan, Union, output_schema

Row = tuple

#: Per-tuple cap on minimal syntheses; Shapley cost is exponential in this.
DEFAULT_MAX_SYNTHESES = 64


def _normalise_rows(table, where: str) -> None:
    """Store ``table``'s schema and deduplicated rows as tuples; a row of the
    wrong arity is a :class:`PlanError` naming ``where``."""
    schema = tuple(table.schema)
    rows = tuple(map(tuple, table.rows))
    for row in rows:
        if len(row) != len(schema):
            raise PlanError(f"row arity {len(row)} != schema arity {len(schema)} in {where}")
    object.__setattr__(table, "schema", schema)
    object.__setattr__(table, "rows", tuple(dict.fromkeys(rows)))


@dataclass(frozen=True)
class SourceTable:
    """A logical table before any owner assignment."""

    name: str
    schema: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        _normalise_rows(self, f"table {self.name!r}")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class OwnedTable:
    """One owner's copy of (part of) a logical table.

    Duplicate rows held by the same owner are collapsed on construction: an
    owner contributes at most one witness per row value.
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


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Deduplicated subset-minimal elements, sorted by (cardinality, bits)."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


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
        bits = 0
        for m in self.bits:
            bits |= m
        return OwnerSet(self.width, bits)

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


@dataclass(frozen=True)
class CoalitionTuple:
    values: Row
    utility: Fraction
    syntheses: SynthesisSet


@dataclass(frozen=True)
class CoalitionSet:
    """Deduplicated output tuples of a coalition plan, with witnesses."""

    schema: tuple[str, ...]
    tuples: tuple[CoalitionTuple, ...]
    n_owners: int

    def __post_init__(self):
        values = [t.values for t in self.tuples]
        if len(set(values)) != len(values):
            raise ValueError("coalition set contains duplicate tuple values")

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[CoalitionTuple]:
        return iter(self.tuples)

    def total_utility(self) -> Fraction:
        return sum((t.utility for t in self.tuples), Fraction(0))


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


def _merge_into(dest: Relation, src_items, cap: int, where: str) -> None:
    """Merge (row, masks) pairs into dest, minimalizing rows that collide."""
    for row, masks in src_items:
        have = dest.get(row)
        if have is None:
            dest[row] = list(masks)
        else:
            merged = _minimal_masks(have + list(masks))
            if len(merged) > cap:
                raise SynthesisLimitError(
                    f"tuple {row!r} accumulated {len(merged)} minimal syntheses "
                    f"(cap {cap}) during {where}"
                )
            dest[row] = merged


def evaluate_plan(
    plan: PlanNode,
    tables: Sequence[OwnedTable],
    *,
    utility_fn: Callable[[Row], Fraction] | None = None,
    n_owners: int | None = None,
    max_syntheses: int = DEFAULT_MAX_SYNTHESES,
    max_owners: int = DEFAULT_MAX_OWNERS,
) -> CoalitionSet:
    """Evaluate ``plan`` over owner-held tables, tracking minimal syntheses.

    Every output tuple carries the antichain of minimal owner sets able to
    produce it. ``utility_fn`` maps an output row to its utility (default 1).
    ``n_owners`` fixes the owner universe width; by default it is inferred as
    ``max(owner index) + 1`` over all tables, including empty ones, so that
    evaluations of owner-restricted inputs stay in the same universe.
    """
    if n_owners is None:
        n_owners = infer_n_owners(tables)
    if n_owners > max_owners:
        raise PlanError(f"{n_owners} owners exceeds the configured cap of {max_owners}")
    for t in tables:
        if t.owner >= n_owners:
            raise PlanError(f"table {t.table!r} owner {t.owner} outside universe of {n_owners}")
    catalog = _catalog(tables)
    output_schema(plan, catalog)  # type-check the whole tree up front

    by_name: dict[str, list[OwnedTable]] = {}
    for t in sorted(tables, key=lambda t: t.owner):
        by_name.setdefault(t.table, []).append(t)

    def eval_node(node: PlanNode) -> tuple[tuple[str, ...], Relation]:
        if isinstance(node, Scan):
            schema = catalog[node.table]
            where = [(schema.index(a), v) for a, v in node.where]
            rel: Relation = {}
            for t in by_name[node.table]:  # ascending owners
                mask = 1 << t.owner
                for row in t.rows:
                    if any(row[i] != v for i, v in where):
                        continue
                    masks = rel.setdefault(row, [])
                    if not masks or masks[-1] != mask:  # one owner, two copies of the table
                        masks.append(mask)
            return schema, rel

        if isinstance(node, Project):
            schema, rel = eval_node(node.child)
            idx = [schema.index(c) for c in node.columns]
            out_schema = tuple(node.rename) if node.rename is not None else node.columns
            out: Relation = {}
            _merge_into(
                out,
                ((tuple(row[i] for i in idx), masks) for row, masks in rel.items()),
                max_syntheses,
                "projection",
            )
            return out_schema, out

        if isinstance(node, (NaturalJoin, EquiJoin)):
            lschema, lrel = eval_node(node.left)
            rschema, rrel = eval_node(node.right)
            if isinstance(node, NaturalJoin):
                shared = [a for a in lschema if a in rschema]
                lkey = [lschema.index(a) for a in shared]
                rkey = [rschema.index(a) for a in shared]
                rkeep = [i for i, a in enumerate(rschema) if a not in shared]
            else:
                lkey = [lschema.index(la) for la, _ in node.on]
                rkey = [rschema.index(ra) for _, ra in node.on]
                dropped = {ra for _, ra in node.on}
                rkeep = [i for i, a in enumerate(rschema) if a not in dropped]
            out_schema = output_schema(node, catalog)

            index: dict[Row, list[tuple[Row, list[int]]]] = {}
            for rrow, rmasks in rrel.items():
                key = tuple(rrow[i] for i in rkey)
                index.setdefault(key, []).append((rrow, rmasks))

            out: Relation = {}
            for lrow, lmasks in lrel.items():
                key = tuple(lrow[i] for i in lkey)
                for rrow, rmasks in index.get(key, ()):
                    # rrow is its key plus its kept columns: rows never collide
                    row = lrow + tuple(rrow[i] for i in rkeep)
                    combined = _minimal_masks(lm | rm for lm in lmasks for rm in rmasks)
                    if len(combined) > max_syntheses:
                        raise SynthesisLimitError(
                            f"tuple {row!r} accumulated {len(combined)} minimal syntheses "
                            f"(cap {max_syntheses}) during join"
                        )
                    out[row] = combined
            return out_schema, out

        if isinstance(node, Union):
            out_schema = output_schema(node, catalog)
            out: Relation = {}
            for child in node.children:
                _, rel = eval_node(child)
                _merge_into(out, rel.items(), max_syntheses, "union")
            return out_schema, out

        raise PlanError(f"unknown plan node type {type(node).__name__}")

    schema, rel = eval_node(plan)

    tuples = []
    one = Fraction(1)  # the default utility, shared by every row
    for row, masks in rel.items():
        # the only cap check for scan rows and rows no projection merged
        if len(masks) > max_syntheses:
            raise SynthesisLimitError(
                f"tuple {row!r} has {len(masks)} minimal syntheses (cap {max_syntheses})"
            )
        syntheses = SynthesisSet._trusted(n_owners, tuple(masks))
        utility = as_utility(utility_fn(row)) if utility_fn is not None else one
        tuples.append(CoalitionTuple(values=row, utility=utility, syntheses=syntheses))
    return CoalitionSet(schema=schema, tuples=tuple(tuples), n_owners=n_owners)


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

def _cell_to_json(v: Any) -> Any:
    if isinstance(v, bool):
        raise ValueError("boolean cells are not supported")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return v
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}"}
    raise ValueError(f"unsupported cell type {type(v).__name__}")


def _cell_from_json(v: Any) -> Any:
    if isinstance(v, dict):
        return Fraction(v["fraction"])
    return v


def coalition_to_dict(d: CoalitionSet) -> dict:
    return {
        "schema": list(d.schema),
        "n_owners": d.n_owners,
        "tuples": [
            {
                "values": [_cell_to_json(v) for v in t.values],
                "utility": f"{t.utility.numerator}/{t.utility.denominator}",
                "syntheses": [list(bit_indices(m)) for m in t.syntheses.masks()],
            }
            for t in d.tuples
        ],
    }


def coalition_from_dict(data: Mapping[str, Any]) -> CoalitionSet:
    n = data["n_owners"]
    tuples = []
    for item in data["tuples"]:
        syntheses = SynthesisSet.from_sets(
            OwnerSet.from_indices(n, idxs) for idxs in item["syntheses"]
        )
        tuples.append(
            CoalitionTuple(
                values=tuple(_cell_from_json(v) for v in item["values"]),
                utility=as_utility(item["utility"]),
                syntheses=syntheses,
            )
        )
    return CoalitionSet(schema=tuple(data["schema"]), tuples=tuple(tuples), n_owners=n)


def dump_coalition(d: CoalitionSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coalition_to_dict(d), fh, indent=1)


def load_coalition(path) -> CoalitionSet:
    with open(path, "r", encoding="utf-8") as fh:
        return coalition_from_dict(json.load(fh))
