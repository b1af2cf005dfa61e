"""Coalition plan expression trees.

A plan is positive relational algebra over logical tables: scans (optionally
filtered on constant equality), projections (optionally renaming output
columns), natural joins, equi-joins on explicit attribute pairs, and set
unions. Plans serialize to/from a JSON expression tree; the schema is
documented in ``docs/plan_schema.md``.

This module owns each node's column layout: :func:`node_layout` decides it
and raises every schema error, and :func:`plan_layout` folds it over a tree
for the engine to execute. :func:`required_columns` reads that layout to tell
ingest which columns of each table the plan reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import MALFORMED, PlanError, read_json
from .model import json_object, value_from_json, value_to_json


class PlanNode:
    """Base class for plan tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(PlanNode):
    """Read a logical table, optionally filtering rows on constant equality."""

    table: str
    where: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Project(PlanNode):
    """Keep ``columns`` of the input, optionally renaming them to ``rename``."""

    child: PlanNode
    columns: tuple[str, ...]
    rename: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.columns:
            raise PlanError("projection must keep at least one column")
        if self.rename is not None and len(self.rename) != len(self.columns):
            raise PlanError(
                f"rename list has {len(self.rename)} names for {len(self.columns)} columns"
            )


@dataclass(frozen=True)
class NaturalJoin(PlanNode):
    """Join two inputs on all attributes they share by name."""

    left: PlanNode
    right: PlanNode


@dataclass(frozen=True)
class EquiJoin(PlanNode):
    """Join two inputs on explicit ``(left_attr, right_attr)`` equality pairs.

    The output keeps all left attributes, drops the right join attributes
    (their values duplicate the left side), and suffixes any remaining right
    attribute whose name collides with a left attribute with ``_r``.
    """

    left: PlanNode
    right: PlanNode
    on: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.on:
            raise PlanError("equi-join needs at least one attribute pair")


@dataclass(frozen=True)
class Union(PlanNode):
    """Set union of two or more inputs sharing one schema."""

    children: tuple[PlanNode, ...] = field(default=())

    def __post_init__(self):
        if len(self.children) < 2:
            raise PlanError("union needs at least two inputs")


@dataclass(frozen=True)
class Layout:
    """One plan node's output ``schema``, its children's layouts ``inputs``,
    and the input positions it reads (empty where its kind reads none): a
    scan's filter ``where`` as (position, constant) pairs, a projection's
    ``columns``, and a join's ``left_key``/``right_key`` pairs and the
    ``right_keep`` columns it appends to the left row."""

    schema: tuple[str, ...]
    inputs: tuple["Layout", ...] = ()
    where: tuple[tuple[int, Any], ...] = ()
    columns: tuple[int, ...] = ()
    left_key: tuple[int, ...] = ()
    right_key: tuple[int, ...] = ()
    right_keep: tuple[int, ...] = ()


def children(node: PlanNode) -> tuple[PlanNode, ...]:
    """The inputs of ``node``, in plan order."""
    if isinstance(node, Project):
        return (node.child,)
    if isinstance(node, (NaturalJoin, EquiJoin)):
        return (node.left, node.right)
    if isinstance(node, Union):
        return node.children
    return ()


def node_layout(
    node: PlanNode, inputs: tuple[Layout, ...], catalog: Mapping[str, tuple[str, ...]]
) -> Layout:
    """Lay out ``node`` over its children's layouts ``inputs``.

    ``catalog`` maps logical table names to their schemas. Raises
    :class:`PlanError` on unknown tables, missing attributes, joins with no
    join attributes, irresolvable name collisions, or union schema mismatches.
    """
    if isinstance(node, Scan):
        if node.table not in catalog:
            raise PlanError(f"unknown table {node.table!r}")
        schema = catalog[node.table]
        for attr, _ in node.where:
            if attr not in schema:
                raise PlanError(f"filter attribute {attr!r} not in table {node.table!r} {schema}")
        return Layout(schema, where=tuple((schema.index(a), v) for a, v in node.where))
    if isinstance(node, Project):
        child = inputs[0].schema
        for c in node.columns:
            if c not in child:
                raise PlanError(f"projected attribute {c!r} not in input schema {child}")
        out = node.rename if node.rename is not None else node.columns
        if len(set(out)) != len(out):
            raise PlanError(f"duplicate attribute names in projection output {out}")
        return Layout(tuple(out), inputs, columns=tuple(child.index(c) for c in node.columns))
    if isinstance(node, (NaturalJoin, EquiJoin)):
        left, right = inputs[0].schema, inputs[1].schema
        # a natural join is an equi-join on its shared attributes; it keeps
        # only right attributes not on the left, so it never renames one
        on = node.on if isinstance(node, EquiJoin) else tuple((a, a) for a in left if a in right)
        if not on:
            raise PlanError(f"natural join inputs share no attributes: {left} vs {right}")
        for la, ra in on:
            if la not in left:
                raise PlanError(f"join attribute {la!r} not in left schema {left}")
            if ra not in right:
                raise PlanError(f"join attribute {ra!r} not in right schema {right}")
        dropped = {ra for _, ra in on}
        keep = tuple(i for i, a in enumerate(right) if a not in dropped)
        out = list(left)
        for i in keep:
            name = right[i] if right[i] not in left else f"{right[i]}_r"
            if name in out:
                raise PlanError(f"attribute name collision on {name!r} in equi-join output")
            out.append(name)
        return Layout(
            tuple(out),
            inputs,
            left_key=tuple(left.index(la) for la, _ in on),
            right_key=tuple(right.index(ra) for _, ra in on),
            right_keep=keep,
        )
    if isinstance(node, Union):
        first = inputs[0].schema
        for s in inputs[1:]:
            if s.schema != first:
                raise PlanError(f"union inputs have different schemas: {first} vs {s.schema}")
        return Layout(first, inputs)
    raise PlanError(f"unknown plan node type {type(node).__name__}")


def plan_layout(node: PlanNode, catalog: Mapping[str, tuple[str, ...]]) -> Layout:
    """Lay out ``node`` and every node under it, children first, each once."""
    inputs = tuple(plan_layout(c, catalog) for c in children(node))
    return node_layout(node, inputs, catalog)


def required_columns(
    plan: PlanNode, catalog: Mapping[str, tuple[str, ...]]
) -> dict[str, frozenset[int]]:
    """For each table ``plan`` scans, the positions of the columns it reads.

    Walks :func:`plan_layout` top-down from all of the root's output columns:
    a projection reads the input columns behind the ones asked of it, a join
    its key columns and the input columns behind the ones asked of it, a
    union the same columns of every input, and a scan its filter columns
    too. A table scanned twice reads the union of both sets. Every other
    column of a table can be dropped at ingest without changing the plan's
    output: in the why-provenance semiring projection commutes with the
    scan. Raises what :func:`plan_layout` raises.
    """
    reads: dict[str, set[int]] = {}

    def walk(node: PlanNode, lay: Layout, used: set[int]) -> None:
        if isinstance(node, Scan):
            reads.setdefault(node.table, set()).update(used, (i for i, _ in lay.where))
            return
        if isinstance(node, Project):
            wanted = [{lay.columns[i] for i in used}]
        elif isinstance(node, (NaturalJoin, EquiJoin)):
            n_left = len(lay.inputs[0].schema)
            left = {i for i in used if i < n_left}
            right = {lay.right_keep[i - n_left] for i in used if i >= n_left}
            wanted = [left.union(lay.left_key), right.union(lay.right_key)]
        else:  # a Union: plan_layout rejected every other node type
            wanted = [used] * len(lay.inputs)
        for child, child_lay, child_used in zip(children(node), lay.inputs, wanted):
            walk(child, child_lay, child_used)

    layout = plan_layout(plan, catalog)
    walk(plan, layout, set(range(len(layout.schema))))
    return {table: frozenset(used) for table, used in reads.items()}


# --- JSON wire format -------------------------------------------------------

def plan_to_dict(node: PlanNode) -> dict:
    if isinstance(node, Scan):
        out: dict[str, Any] = {"op": "scan", "table": node.table}
        if node.where:
            out["where"] = {attr: value_to_json(v) for attr, v in node.where}
        return out
    if isinstance(node, Project):
        out = {"op": "project", "columns": list(node.columns), "input": plan_to_dict(node.child)}
        if node.rename is not None:
            out["rename"] = list(node.rename)
        return out
    if isinstance(node, NaturalJoin):
        return {
            "op": "natural_join",
            "left": plan_to_dict(node.left),
            "right": plan_to_dict(node.right),
        }
    if isinstance(node, EquiJoin):
        return {
            "op": "equi_join",
            "left": plan_to_dict(node.left),
            "right": plan_to_dict(node.right),
            "on": [list(pair) for pair in node.on],
        }
    if isinstance(node, Union):
        return {"op": "union", "inputs": [plan_to_dict(c) for c in node.children]}
    raise PlanError(f"cannot serialize plan node {type(node).__name__}")


def plan_from_dict(data: Mapping[str, Any]) -> PlanNode:
    """The plan tree ``data`` describes; a node that lacks a field, holds a
    field its ``op`` does not take, or holds one of the wrong shape, a
    ``where`` constant included, is a :class:`PlanError`."""
    try:
        op = data["op"]
    except (TypeError, KeyError):
        raise PlanError(f"plan node must be an object with an 'op' field, got {data!r}") from None
    try:
        return _node_from_dict(op, data)
    except MALFORMED as exc:
        raise PlanError(f"malformed {op!r} plan node: {exc!r}") from None


def _node_from_dict(op: Any, data: Mapping[str, Any]) -> PlanNode:
    if op == "scan":
        json_object(data, op, op=Any, table=str, where=dict)
        where = tuple(sorted((a, value_from_json(v)) for a, v in data.get("where", {}).items()))
        return Scan(table=data["table"], where=where)
    if op == "project":
        json_object(data, op, op=Any, input=Any, columns=list[str], rename=list[str] | None)
        rename = data.get("rename")
        return Project(
            child=plan_from_dict(data["input"]),
            columns=tuple(data["columns"]),
            rename=tuple(rename) if rename is not None else None,
        )
    if op == "natural_join":
        json_object(data, op, op=Any, left=Any, right=Any)
        return NaturalJoin(left=plan_from_dict(data["left"]), right=plan_from_dict(data["right"]))
    if op == "equi_join":
        json_object(data, op, op=Any, left=Any, right=Any, on=list[list[str]])
        return EquiJoin(
            left=plan_from_dict(data["left"]),
            right=plan_from_dict(data["right"]),
            on=tuple((la, ra) for la, ra in data["on"]),
        )
    if op == "union":
        json_object(data, op, op=Any, inputs=list)
        return Union(children=tuple(plan_from_dict(c) for c in data["inputs"]))
    raise PlanError(f"unknown plan op {op!r}")


def plan_to_json(node: PlanNode, **dumps_kwargs) -> str:
    return json.dumps(plan_to_dict(node), **dumps_kwargs)


def plan_from_json(text: str) -> PlanNode:
    return plan_from_dict(json.loads(text))


def load_plan(path) -> PlanNode:
    """The plan in the JSON file ``path``; a file that is not JSON or not a
    plan raises an error that names it."""
    data = read_json(path, "plan")
    try:
        return plan_from_dict(data)
    except PlanError as exc:
        raise PlanError(f"plan {path}: {exc}") from None
