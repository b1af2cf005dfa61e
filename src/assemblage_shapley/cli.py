"""Command-line front end.

Subcommands:

* ``gen``      split a CSV dataset among synthetic data owners
* ``assemble`` evaluate a coalition plan over owner tables, dump the
               coalition set with per-tuple minimal syntheses
* ``shapley``  run one allocation method (trad / perm / iusv) and report
* ``bench``    run a matrix of method configurations from a JSON file

Flag names follow the scenario parameters: ``--k``, ``--alpha``, ``--m``,
``--beta``, ``--gamma``, ``--samples``, ``--seed``, ``--timeout``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

from .bench import (
    METHODS,
    RunConfig,
    ingest_csv,
    load_assignment,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    run_cell,
    run_coalition,
    run_method,
    write_assignment,
)
from .datagen import ASSIGN_MODES, OWNER_MODES, AssignmentScenario, generate_assignment
from .engine import dump_coalition, evaluate_plan, load_coalition
from .errors import AssemblageError, read_json
from .model import json_object
from .plans import load_plan


def _load_schema_config(
    path: str | None, csv_paths: list[str]
) -> tuple[dict, dict[str, dict[str, str]]]:
    """A ``gen --schema`` file, and its types by table. It must be an object
    from tables, each the stem of one of ``csv_paths``, to objects with an
    optional ``types`` object. The type names, and that each attribute is in
    its table's header, are checked on ingest."""
    if path is None:
        return {}, {}
    tables = dict.fromkeys((Path(p).stem for p in csv_paths), Any)

    def check(config):
        json_object(config, "schema config", **tables)
        for entry in config.values():
            json_object(entry, "schema config table", types=dict[str, str])
        return config

    config = read_json(path, "schema config", check)
    return config, {name: entry.get("types", {}) for name, entry in config.items()}


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON file (overrides the flags below)")
    p.add_argument("--owner-mode", choices=OWNER_MODES)
    p.add_argument("--assign-mode", choices=ASSIGN_MODES)
    p.add_argument("--k", type=int, help="owners per governing table")
    p.add_argument("--alpha", type=float, help="Zipf exponent for copy counts")
    p.add_argument("--m", type=int, dest="max_copies", help="max copies of a record")
    p.add_argument("--beta", type=float, help="Zipf exponent for UA owner weights")
    p.add_argument("--small-table-threshold", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(**AssignmentScenario().to_dict())  # each flag's dest is a scenario field


def _scenario_from_args(args) -> AssignmentScenario:
    if args.scenario:
        return AssignmentScenario.load(args.scenario)
    knobs = {f.name: getattr(args, f.name) for f in fields(AssignmentScenario)}
    try:
        return AssignmentScenario(**knobs)
    except ValueError as exc:
        raise AssemblageError(f"invalid scenario flags: {exc}") from None


def _cmd_gen(args) -> int:
    schema_config, types = _load_schema_config(args.schema, args.csv)
    tables = ingest_csv(args.csv, schema_config)
    scenario = _scenario_from_args(args)
    try:
        assignment = generate_assignment(tables, scenario)
    except ValueError as exc:  # too many owners for these tables
        raise AssemblageError(f"cannot assign owners: {exc}") from None
    manifest = write_assignment(assignment, args.out, types=types)
    rows = {t.name: len(t) for t in tables}
    print(f"ingested {len(tables)} tables: {rows}")
    print(f"assigned {assignment.n_owners} owners; manifest at {manifest}")
    return 0


def _cmd_assemble(args) -> int:
    plan = load_plan(args.plan)
    tables, n_owners, _ = load_assignment(args.manifest, plan=plan)
    d = evaluate_plan(plan, tables, n_owners=n_owners)
    dump_coalition(d, args.out)
    print(f"coalition set: {len(d)} tuples over {n_owners} owners -> {args.out}")
    return 0


def _cmd_shapley(args) -> int:
    knobs = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    try:
        config = RunConfig(**knobs)
    except ValueError as exc:
        raise AssemblageError(f"invalid run flags: {exc}") from None
    reference = None
    if args.reference:
        ref_reports = reports_from_json(args.reference)
        if not ref_reports or ref_reports[0].allocation_exact is None:
            raise AssemblageError(f"no exact allocation in reference {args.reference}")
        reference = ref_reports[0].exact_allocation()

    def check_reference(n_owners: int) -> None:
        if reference is not None and reference.n_owners != n_owners:
            message = f"reference {args.reference} allocates to {reference.n_owners} owners"
            raise AssemblageError(f"{message}, but the run has {n_owners}")

    if args.coalition:
        if args.method != "iusv":
            raise AssemblageError("--coalition input only supports the iusv method")
        d = load_coalition(args.coalition)
        check_reference(d.n_owners)
        report = run_coalition(config, d, reference=reference)
    else:
        if not (args.manifest and args.plan):
            raise AssemblageError("need --manifest and --plan (or --coalition for iusv)")
        plan = load_plan(args.plan)
        tables, n_owners, _ = load_assignment(args.manifest, plan=plan)
        check_reference(n_owners)
        report = run_method(config, plan, tables, n_owners=n_owners, reference=reference)

    reports_to_json([report], args.out)
    if args.csv_out:
        reports_to_csv([report], args.csv_out)
    summary = {
        "status": report.status,
        "runtime_seconds": report.runtime_seconds,
        **report.metrics,
    }
    print(f"{report.method}: {json.dumps(summary)} -> {args.out}")
    return 0 if report.status == "ok" else 1


def _cmd_bench(args) -> int:
    cells = read_json(args.matrix, "matrix",
                      lambda data: json_object(data, "matrix", cells=list[dict])["cells"])
    reports = []

    def save():  # after every cell, so a crash keeps the cells already done
        reports_to_json(reports, args.out)
        if args.csv_out:
            reports_to_csv(reports, args.csv_out)

    save()
    for cell in cells:
        knobs = dict(
            method=cell.get("method"),
            gamma=cell.get("gamma", RunConfig.gamma),
            samples=cell.get("samples", RunConfig.samples),
            seed=cell.get("seed", RunConfig.seed),
            timeout_s=cell.get("timeout", args.timeout),
            label=cell.get("label", cell.get("method")),
        )

        def load(cell=cell):
            # RunConfig has checked the knobs; a misspelt one would run at its default
            json_object(cell, "cell", method=Any, gamma=Any, samples=Any, seed=Any, timeout=Any,
                        label=Any, plan=str, manifest=str)
            plan = load_plan(cell.get("plan", args.plan))
            tables, n_owners, _ = load_assignment(cell.get("manifest", args.manifest), plan=plan)
            return plan, tables, n_owners

        report = run_cell(knobs, load)
        reports.append(report)
        print(f"[{report.label}] {report.method}: {report.status} "
              f"runtime={report.runtime_seconds}")
        save()
    print(f"{len(reports)} cells -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assemblage-shapley",
        description="Exact Shapley revenue allocation for assembled data sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="split a CSV dataset among synthetic data owners")
    p.add_argument("csv", nargs="+", help="source CSV files (one per logical table)")
    p.add_argument("--schema", help="JSON file with per-table attribute types")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True, help="output directory for owner CSVs + manifest")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("assemble", help="evaluate a plan and dump the coalition set")
    p.add_argument("--manifest", required=True, help="manifest.json from gen")
    p.add_argument("--plan", required=True, help="coalition plan JSON")
    p.add_argument("--out", required=True, help="coalition set JSON output")
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("shapley", help="run one allocation method")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--manifest", help="manifest.json from gen")
    p.add_argument("--plan", help="coalition plan JSON")
    p.add_argument("--coalition", help="pre-assembled coalition set JSON (iusv only)")
    p.add_argument("--gamma", type=float, default=RunConfig.gamma, help="SC/SL routing knob")
    p.add_argument(
        "--samples", type=int, default=RunConfig.samples, help="permutation samples (perm)"
    )
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument(
        "--timeout",
        type=float,
        dest="timeout_s",
        default=RunConfig.timeout_s,
        help="seconds before the run is killed",
    )
    p.add_argument("--reference", help="report JSON with the exact allocation, for error rate")
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True, help="report JSON output")
    p.add_argument("--csv-out", help="also write the report as CSV")
    p.set_defaults(fn=_cmd_shapley)

    p = sub.add_parser("bench", help="run a matrix of method configurations")
    p.add_argument("--matrix", required=True, help='JSON: {"cells": [{method, gamma, ...}]}')
    p.add_argument("--manifest", help="default manifest for cells that do not name one")
    p.add_argument("--plan", help="default plan for cells that do not name one")
    p.add_argument("--timeout", type=float, default=RunConfig.timeout_s)
    p.add_argument("--out", required=True, help="report table JSON output")
    p.add_argument("--csv-out", help="also write the report table as CSV")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AssemblageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
