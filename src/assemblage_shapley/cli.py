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
from pathlib import Path

from .bench import (
    RunConfig,
    RunReport,
    ingest_csv,
    load_assignment,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    run_coalition,
    run_method,
    write_assignment,
)
from .datagen import AssignmentScenario, generate_assignment
from .engine import dump_coalition, evaluate_plan, load_coalition
from .errors import AssemblageError
from .plans import load_plan


def _load_schema_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON file (overrides the flags below)")
    p.add_argument("--owner-mode", choices=["EO", "UO"], default="EO")
    p.add_argument("--assign-mode", choices=["EA", "UA"], default="EA")
    p.add_argument("--k", type=int, default=5, help="owners per governing table")
    p.add_argument("--alpha", type=float, default=4.0, help="Zipf exponent for copy counts")
    p.add_argument("--m", type=int, default=3, dest="max_copies", help="max copies of a record")
    p.add_argument("--beta", type=float, default=3.0, help="Zipf exponent for UA owner weights")
    p.add_argument("--small-table-threshold", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


def _scenario_from_args(args) -> AssignmentScenario:
    if args.scenario:
        return AssignmentScenario.load(args.scenario)
    return AssignmentScenario(
        owner_mode=args.owner_mode,
        assign_mode=args.assign_mode,
        k=args.k,
        alpha=args.alpha,
        max_copies=args.max_copies,
        beta=args.beta,
        small_table_threshold=args.small_table_threshold,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    schema_config = _load_schema_config(args.schema)
    tables = ingest_csv(args.csv, schema_config)
    scenario = _scenario_from_args(args)
    assignment = generate_assignment(tables, scenario)
    types = {name: dict(cfg.get("types", {})) for name, cfg in schema_config.items()}
    manifest = write_assignment(assignment, args.out, types=types)
    rows = {t.name: len(t) for t in tables}
    print(f"ingested {len(tables)} tables: {rows}")
    print(f"assigned {assignment.n_owners} owners; manifest at {manifest}")
    return 0


def _cmd_assemble(args) -> int:
    tables, n_owners, _ = load_assignment(args.manifest)
    plan = load_plan(args.plan)
    d = evaluate_plan(plan, tables, n_owners=n_owners)
    dump_coalition(d, args.out)
    print(f"coalition set: {len(d)} tuples over {n_owners} owners -> {args.out}")
    return 0


def _cmd_shapley(args) -> int:
    config = RunConfig(
        method=args.method,
        gamma=args.gamma,
        samples=args.samples,
        seed=args.seed,
        timeout_s=args.timeout,
        label=args.label,
    )
    reference = None
    if args.reference:
        ref_reports = reports_from_json(args.reference)
        if not ref_reports or ref_reports[0].allocation_exact is None:
            raise AssemblageError(f"no exact allocation in reference {args.reference}")
        reference = ref_reports[0].exact_allocation()

    if args.coalition:
        if args.method != "iusv":
            raise AssemblageError("--coalition input only supports the iusv method")
        report = run_coalition(config, load_coalition(args.coalition), reference=reference)
    else:
        if not (args.manifest and args.plan):
            raise AssemblageError("need --manifest and --plan (or --coalition for iusv)")
        tables, n_owners, _ = load_assignment(args.manifest)
        plan = load_plan(args.plan)
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
    with open(args.matrix, "r", encoding="utf-8") as fh:
        matrix = json.load(fh)
    reports = []
    for cell in matrix["cells"]:
        config = RunConfig(
            method=cell["method"],
            gamma=cell.get("gamma", 1.0),
            samples=cell.get("samples", 16),
            seed=cell.get("seed", 0),
            timeout_s=cell.get("timeout", args.timeout),
            label=cell.get("label", cell["method"]),
        )
        tables, n_owners, _ = load_assignment(cell.get("manifest", args.manifest))
        plan = load_plan(cell.get("plan", args.plan))
        try:
            report = run_method(config, plan, tables, n_owners=n_owners)
        except AssemblageError as exc:
            report = RunReport.for_config(
                config, status="error", error=f"{type(exc).__name__}: {exc}"
            )
        reports.append(report)
        print(f"[{report.label}] {report.method}: {report.status} "
              f"runtime={report.runtime_seconds}")
    reports_to_json(reports, args.out)
    if args.csv_out:
        reports_to_csv(reports, args.csv_out)
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
    p.add_argument("--method", choices=["trad", "perm", "iusv"], required=True)
    p.add_argument("--manifest", help="manifest.json from gen")
    p.add_argument("--plan", help="coalition plan JSON")
    p.add_argument("--coalition", help="pre-assembled coalition set JSON (iusv only)")
    p.add_argument("--gamma", type=float, default=1.0, help="SC/SL routing knob")
    p.add_argument("--samples", type=int, default=16, help="permutation samples (perm)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=7200.0, help="seconds before the run is killed")
    p.add_argument("--reference", help="report JSON with the exact allocation, for error rate")
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True, help="report JSON output")
    p.add_argument("--csv-out", help="also write the report as CSV")
    p.set_defaults(fn=_cmd_shapley)

    p = sub.add_parser("bench", help="run a matrix of method configurations")
    p.add_argument("--matrix", required=True, help='JSON: {"cells": [{method, gamma, ...}]}')
    p.add_argument("--manifest", help="default manifest for cells that do not name one")
    p.add_argument("--plan", help="default plan for cells that do not name one")
    p.add_argument("--timeout", type=float, default=7200.0)
    p.add_argument("--out", required=True, help="report table JSON output")
    p.add_argument("--csv-out", help="also write the report table as CSV")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AssemblageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
