"""The benchmark's seeded workloads and their set-up.

Each workload is a pair of fixed source tables, a coalition plan and an
owner-assignment scenario whose own seed is fixed. The workload seed from the
command line draws an isomorphic copy of that assignment: it permutes the
owner ids, relabels the values of every integer column by one bijection per
column name, and shuffles the rows of every owner file. Each seed thus gives
different owner files and a different allocation vector, but the same
witness structure and the same amount of work, so runs at different seeds
can be compared. (Re-drawing the assignment itself moves the join workloads'
cost by about a fifth from seed to seed: a few dozen tuples with eleven or
twelve owners dominate SL.) Set-up writes the owner CSVs, their manifest and
the plan into a directory; the program under test receives only those files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Sequence

from assemblage_shapley import (
    AssignmentScenario,
    NaturalJoin,
    OwnedTable,
    PlanNode,
    Project,
    Scan,
    SourceTable,
    Union,
    generate_assignment,
    plan_to_json,
    write_assignment,
)

#: The seed whose exact allocation digest is recorded in ``digests.json``.
DEFAULT_SEED = 1
#: The owner-assignment seed of every workload, as in acceptance criterion C7.
SCENARIO_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    build_tables: Callable[[], list[SourceTable]]
    types: dict[str, dict[str, str]]
    plan: PlanNode
    scenario: AssignmentScenario


def _c7_tables() -> list[SourceTable]:
    # The scaled instance of acceptance criterion C7: 12 000 facts, 400 dims.
    rng = Random("scaled-trend")
    n_fact, n_dim = 12_000, 400
    facts = SourceTable(
        "facts", ("pk", "fk"), tuple((i, rng.randrange(n_dim)) for i in range(n_fact))
    )
    dims = SourceTable("dims", ("fk", "attr"), tuple((j, f"a{j % 37}") for j in range(n_dim)))
    return [facts, dims]


def _catalogue_tables() -> list[SourceTable]:
    # One 30 000-row entity; cat_a holds the first 70 % and cat_b the last 70 %.
    rng = Random("catalogue")
    n = 30_000
    rows = [
        (i, f"c{rng.randrange(50)}", Fraction(rng.randrange(100, 100_000), 100))
        for i in range(n)
    ]
    cut = n * 7 // 10
    schema = ("id", "cls", "price")
    return [
        SourceTable("cat_a", schema, tuple(rows[:cut])),
        SourceTable("cat_b", schema, tuple(rows[n - cut:])),
    ]


_C7_TYPES = {
    "facts": {"pk": "integer", "fk": "integer"},
    "dims": {"fk": "integer", "attr": "string"},
}
_C7_PLAN = Project(NaturalJoin(Scan("facts"), Scan("dims")), ("pk", "attr"))
_CAT_TYPES = {
    t: {"id": "integer", "cls": "string", "price": "decimal"} for t in ("cat_a", "cat_b")
}
_CAT_PLAN = Union(
    (Project(Scan("cat_a"), ("id", "cls")), Project(Scan("cat_b"), ("id", "cls")))
)

# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="join-uo-ea",
            build_tables=_c7_tables,
            types=_C7_TYPES,
            plan=_C7_PLAN,
            scenario=AssignmentScenario(
                owner_mode="UO", assign_mode="EA", k=10, alpha=4.0, max_copies=3,
                seed=SCENARIO_SEED,
            ),
        ),
        Workload(
            name="join-eo-ua",
            build_tables=_c7_tables,
            types=_C7_TYPES,
            plan=_C7_PLAN,
            scenario=AssignmentScenario(
                owner_mode="EO", assign_mode="UA", k=20, alpha=1.0, max_copies=6, beta=3.0,
                seed=SCENARIO_SEED,
            ),
        ),
        Workload(
            name="union-eo-ea",
            build_tables=_catalogue_tables,
            types=_CAT_TYPES,
            plan=_CAT_PLAN,
            scenario=AssignmentScenario(
                owner_mode="EO", assign_mode="EA", k=10, alpha=1.0, max_copies=3,
                seed=SCENARIO_SEED,
            ),
        ),
    )
}


@dataclass(frozen=True)
class SetupResult:
    manifest: Path
    plan: Path
    n_owners: int
    #: ``owner_ids[o]`` is the id that owner ``o`` of the base assignment has here.
    owner_ids: list[int]
    #: The program's part of set-up: build tables, generate, write.
    seconds: float
    generate_s: float
    write_s: float


def relabel(
    tables: Sequence[OwnedTable], n_owners: int, integer_columns: set[str], seed: int
) -> tuple[list[OwnedTable], list[int]]:
    """A seeded isomorphic copy of owner tables: owners, integer values, row order."""
    rng = Random(f"perfbench-relabel:{seed}")
    owner_ids = list(range(n_owners))
    rng.shuffle(owner_ids)
    value_maps = {}
    for col in sorted(integer_columns):
        values = sorted(
            {row[t.schema.index(col)] for t in tables if col in t.schema for row in t.rows}
        )
        shuffled = values[:]
        rng.shuffle(shuffled)
        value_maps[col] = dict(zip(values, shuffled))
    out = []
    for t in tables:
        maps = [(i, value_maps[c]) for i, c in enumerate(t.schema) if c in value_maps]
        rows = []
        for row in t.rows:
            cells = list(row)
            for i, m in maps:
                cells[i] = m[cells[i]]
            rows.append(tuple(cells))
        rng.shuffle(rows)
        out.append(OwnedTable(t.table, owner_ids[t.owner], t.schema, tuple(rows)))
    return out, owner_ids


def set_up(workload: Workload, seed: int, outdir: Path) -> SetupResult:
    """Build the source tables, assign owners, relabel by ``seed``, write the inputs.

    ``seconds`` leaves the relabelling out: it is the benchmark's own work,
    not the program's.
    """
    start = time.perf_counter()
    tables = workload.build_tables()
    gen_start = time.perf_counter()
    assignment = generate_assignment(tables, workload.scenario)
    gen_end = time.perf_counter()
    # Not timed: relabelling by the workload seed.
    integer_columns = {
        c for cols in workload.types.values() for c, kind in cols.items() if kind == "integer"
    }
    owned, owner_ids = relabel(assignment.tables, assignment.n_owners, integer_columns, seed)
    relabelled = replace(
        assignment,
        tables=tuple(owned),
        owners_by_table={
            name: tuple(owner_ids[o] for o in ids)
            for name, ids in assignment.owners_by_table.items()
        },
    )
    write_start = time.perf_counter()
    manifest = write_assignment(relabelled, outdir, types=workload.types)
    plan_path = outdir / "plan.json"
    plan_path.write_text(plan_to_json(workload.plan, indent=1), encoding="utf-8")
    end = time.perf_counter()
    return SetupResult(
        manifest=manifest,
        plan=plan_path,
        n_owners=assignment.n_owners,
        owner_ids=owner_ids,
        seconds=(gen_end - start) + (end - write_start),
        generate_s=gen_end - gen_start,
        write_s=end - write_start,
    )
