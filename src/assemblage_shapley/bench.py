"""Benchmark harness: CSV ingestion, metrics, timed method runs, reports.

A run executes one allocation method over one (plan, owner tables) pair under
a wall-clock timeout, and produces a :class:`RunReport` that serializes to
JSON (canonical) and CSV (tabular). Assembling the coalition set is timed
separately from the Shapley computation itself; the exact-baseline and
sampling methods pay for their plan re-executions inside the timed section,
which is what makes them slow.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .baselines import PRNG_NAME, UtilityEvaluator, perm_shapley, trad_shapley
from .datagen import Assignment, AssignmentScenario
from .engine import CoalitionSet, OwnedTable, SourceTable, evaluate_plan
from .errors import IngestError, UndefinedMetricError
from .model import Allocation
from .plans import PlanNode
from .shapley import CaseStats, iusv_all

CELL_TYPES = ("string", "integer", "decimal")


# --- ingestion ----------------------------------------------------------------

def _convert_cell(raw: str, kind: str, path: str, line: int):
    raw = raw.strip()
    try:
        if kind == "integer":
            return int(raw)
        if kind == "decimal":
            return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise IngestError(
            f"cannot parse {raw!r} as {kind}", path=path, line=line
        ) from None
    return raw


def ingest_csv(
    paths: Sequence[str | Path],
    schema_config: Mapping[str, Mapping] | None = None,
    *,
    delimiter: str = ",",
) -> list[SourceTable]:
    """Read CSV files into typed, deduplicated tables.

    The file stem names the table and the header row names its attributes.
    ``schema_config`` optionally maps table names to ``{"types": {attr:
    "integer" | "decimal" | "string"}}``; unspecified attributes are strings.
    Strings are trimmed and numerics normalized, so ``1.50`` and ``1.5`` join.
    """
    schema_config = schema_config or {}
    tables = []
    for path in paths:
        path = Path(path)
        name = path.stem
        types = dict(schema_config.get(name, {}).get("types", {}))
        for attr, kind in types.items():
            if kind not in CELL_TYPES:
                raise IngestError(f"unknown type {kind!r} for attribute {attr!r}", path=str(path))
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError("file is empty (missing header row)", path=str(path)) from None
            schema = tuple(h.strip() for h in header)
            kinds = [types.get(a, "string") for a in schema]
            rows = []
            for line_no, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(schema):
                    raise IngestError(
                        f"row has {len(record)} fields, expected {len(schema)}",
                        path=str(path),
                        line=line_no,
                    )
                rows.append(
                    tuple(
                        _convert_cell(raw, kind, str(path), line_no)
                        for raw, kind in zip(record, kinds)
                    )
                )
        tables.append(SourceTable(name=name, schema=schema, rows=tuple(rows)))
    return tables


# --- owner-table manifest (gen output) -----------------------------------------

def write_assignment(
    assignment: Assignment,
    outdir: str | Path,
    *,
    types: Mapping[str, Mapping[str, str]] | None = None,
) -> Path:
    """Write per-owner CSV files plus a manifest describing them."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    types = types or {}
    manifest: dict[str, Any] = {
        "n_owners": assignment.n_owners,
        "scenario": assignment.scenario.to_dict(),
        "tables": {},
    }
    for t in assignment.tables:
        entry = manifest["tables"].setdefault(
            t.table,
            {"schema": list(t.schema), "types": dict(types.get(t.table, {})), "owners": {}},
        )
        fname = f"{t.table}__owner{t.owner:04d}.csv"
        entry["owners"][str(t.owner)] = fname
        with open(outdir / fname, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(t.schema)
            for row in t.rows:
                writer.writerow([_cell_to_text(v) for v in row])
    manifest_path = outdir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest_path


def _cell_to_text(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return str(v)


def load_assignment(manifest_path: str | Path) -> tuple[list[OwnedTable], int, AssignmentScenario | None]:
    """Load the owner tables written by :func:`write_assignment`."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = manifest_path.parent
    tables: list[OwnedTable] = []
    for name, entry in sorted(manifest["tables"].items()):
        schema = tuple(entry["schema"])
        types = entry.get("types", {})
        kinds = [types.get(a, "string") for a in schema]
        for owner_str, fname in sorted(entry["owners"].items(), key=lambda kv: int(kv[0])):
            rows = []
            path = base / fname
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                if tuple(h.strip() for h in header) != schema:
                    raise IngestError("owner file header disagrees with manifest", path=str(path))
                for line_no, record in enumerate(reader, start=2):
                    if not record:
                        continue
                    rows.append(
                        tuple(
                            _convert_cell(raw, kind, str(path), line_no)
                            for raw, kind in zip(record, kinds)
                        )
                    )
            tables.append(
                OwnedTable(table=name, owner=int(owner_str), schema=schema, rows=tuple(rows))
            )
    scenario = None
    if manifest.get("scenario"):
        scenario = AssignmentScenario.from_dict(manifest["scenario"])
    return tables, manifest["n_owners"], scenario


# --- metrics --------------------------------------------------------------------

def compute_error_rate(exact: Allocation, approx: Allocation) -> Fraction:
    """Normalized total absolute deviation: sum |psi - psi_hat| / sum psi."""
    if exact.n_owners != approx.n_owners:
        raise ValueError(
            f"allocations cover different owner universes: {exact.n_owners} vs {approx.n_owners}"
        )
    denom = exact.total()
    if denom == 0:
        raise UndefinedMetricError("total exact Shapley value is zero; error rate undefined")
    num = sum((abs(a - b) for a, b in zip(exact.shares, approx.shares)), Fraction(0))
    return num / denom


@dataclass(frozen=True)
class CaseRates:
    umos_rate: float
    sc_rate: float
    sl_rate: float


def compute_case_rates(stats: CaseStats) -> CaseRates:
    """UMOS share of tuples and SC/SL shares of general-case owner calls.

    With no general-case calls, both algorithm shares are reported as zero.
    """
    tuples = stats.tuples
    umos = stats.unique_multi / tuples if tuples else 0.0
    calls = stats.general_calls
    sc = stats.sc_calls / calls if calls else 0.0
    sl = stats.sl_calls / calls if calls else 0.0
    return CaseRates(umos_rate=umos, sc_rate=sc, sl_rate=sl)


# --- timed execution -------------------------------------------------------------

def _timed_child(conn, fn, args, kwargs):
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        conn.send(("ok", result, elapsed))
    except Exception as exc:  # noqa: BLE001 - report, parent rethrows as status
        conn.send(("error", f"{type(exc).__name__}: {exc}", None))
    finally:
        conn.close()


def run_with_timeout(
    fn: Callable,
    timeout_s: float | None,
    *args,
    **kwargs,
) -> tuple[str, Any, float | None]:
    """Run ``fn`` under a wall-clock timeout in a forked child process.

    Returns ``(status, payload, seconds)`` where status is ``ok`` /
    ``timeout`` / ``error``. On success ``seconds`` is measured inside the
    child around the call, excluding process overhead. A child that dies
    without sending a result is an ``error`` whose payload names its exit code
    or signal. ``timeout_s=None`` runs inline with no isolation.
    """
    if timeout_s is None:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return "ok", result, time.perf_counter() - start
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_timed_child, args=(child_conn, fn, args, kwargs))
    proc.start()
    child_conn.close()
    got = parent_conn.poll(timeout_s)
    if not got:
        proc.terminate()
        proc.join()
        parent_conn.close()
        return "timeout", None, None
    try:
        status, payload, elapsed = parent_conn.recv()
    except EOFError:
        proc.join()
        parent_conn.close()
        code = proc.exitcode
        if code < 0:
            return "error", f"killed by signal {-code}", None
        return "error", f"child exited with code {code}", None
    proc.join()
    parent_conn.close()
    if status == "ok":
        return "ok", payload, elapsed
    return "error", payload, None


# --- run configuration and reports ------------------------------------------------

METHODS = ("trad", "perm", "iusv")


@dataclass(frozen=True)
class RunConfig:
    """One method execution: which algorithm, its knobs, and its timeout."""

    method: str
    gamma: float = 1.0
    samples: int = 16
    seed: int = 0
    timeout_s: float | None = 7200.0
    label: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout_s}")


@dataclass
class RunReport:
    """Everything observed about one run, in serializable form."""

    label: str
    method: str
    status: str
    gamma: float
    samples: int
    seed: int
    timeout_s: float | None
    n_owners: int | None = None
    n_tuples: int | None = None
    total_utility: float | None = None
    runtime_seconds: float | None = None
    assemble_seconds: float | None = None
    allocation: list[float] | None = None
    allocation_exact: list[str] | None = None
    metrics: dict = field(default_factory=dict)
    histogram: dict = field(default_factory=dict)
    rng: str | None = None
    error: str | None = None

    @classmethod
    def for_config(cls, config: RunConfig, *, status: str = "ok", **fields) -> "RunReport":
        """A report on a run of ``config``, with the config's knobs filled in."""
        return cls(
            label=config.label,
            method=config.method,
            status=status,
            gamma=config.gamma,
            samples=config.samples,
            seed=config.seed,
            timeout_s=config.timeout_s,
            **fields,
        )

    def exact_allocation(self) -> Allocation | None:
        if self.allocation_exact is None:
            return None
        return Allocation(shares=tuple(Fraction(s) for s in self.allocation_exact))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        return cls(**dict(data))

    def without_runtimes(self) -> "RunReport":
        return replace(self, runtime_seconds=None, assemble_seconds=None)


def _run_iusv(d: CoalitionSet, gamma: float):
    return iusv_all(d, gamma)


def _run_trad(plan, tables, n_owners, utility_fn):
    ev = UtilityEvaluator(plan, tables, utility_fn=utility_fn, n_owners=n_owners)
    return trad_shapley(ev)


def _run_perm(plan, tables, n_owners, utility_fn, samples, seed):
    ev = UtilityEvaluator(plan, tables, utility_fn=utility_fn, n_owners=n_owners)
    return perm_shapley(ev, samples=samples, seed=seed)


def _coalition_report(config: RunConfig, d: CoalitionSet) -> RunReport:
    return RunReport.for_config(
        config,
        n_owners=d.n_owners,
        n_tuples=len(d),
        total_utility=float(d.total_utility()),
    )


def _record_outcome(
    report: RunReport,
    status: str,
    payload: Any,
    elapsed: float | None,
    reference: Allocation | None,
) -> RunReport:
    """Fill ``report`` in from what :func:`run_with_timeout` returned.

    An iusv run also reports its case rates, the shape cache's hit rate over
    general-case tuples, and its ``CaseStats`` as the histogram.
    """
    report.status = status
    report.runtime_seconds = elapsed
    if status == "error":
        report.error = payload
        return report
    if status == "timeout":
        return report

    if report.method == "iusv":
        allocation = payload.allocation
        stats: CaseStats = payload.stats
        rates = compute_case_rates(stats)
        report.metrics.update(
            umos_rate=rates.umos_rate,
            sc_rate=rates.sc_rate,
            sl_rate=rates.sl_rate,
            shape_cache_hit_rate=(
                payload.shape_cache_hits / stats.general if stats.general else 0.0
            ),
        )
        report.histogram = asdict(stats)
    else:
        allocation = payload
    report.allocation = allocation.as_floats()
    report.allocation_exact = [str(v) for v in allocation.shares]
    if reference is not None:
        report.metrics["error_rate"] = float(compute_error_rate(reference, allocation))
    return report


def run_method(
    config: RunConfig,
    plan: PlanNode,
    tables: Sequence[OwnedTable],
    *,
    n_owners: int | None = None,
    utility_fn=None,
    reference: Allocation | None = None,
) -> RunReport:
    """Execute one configured method and report allocation, runtime, metrics."""
    assemble_start = time.perf_counter()
    d = evaluate_plan(plan, tables, utility_fn=utility_fn, n_owners=n_owners)
    assemble_seconds = time.perf_counter() - assemble_start
    report = _coalition_report(config, d)
    report.assemble_seconds = assemble_seconds

    if config.method == "iusv":
        status, payload, elapsed = run_with_timeout(
            _run_iusv, config.timeout_s, d, config.gamma
        )
    elif config.method == "trad":
        status, payload, elapsed = run_with_timeout(
            _run_trad, config.timeout_s, plan, list(tables), d.n_owners, utility_fn
        )
    else:
        report.rng = PRNG_NAME
        status, payload, elapsed = run_with_timeout(
            _run_perm,
            config.timeout_s,
            plan,
            list(tables),
            d.n_owners,
            utility_fn,
            config.samples,
            config.seed,
        )
    return _record_outcome(report, status, payload, elapsed, reference)


def run_coalition(
    config: RunConfig, d: CoalitionSet, *, reference: Allocation | None = None
) -> RunReport:
    """Run the iusv method on an already assembled coalition set.

    The run is timed and killed like :func:`run_method`'s; the report has no
    assemble time.
    """
    if config.method != "iusv":
        raise ValueError(f"a coalition set can only be run with iusv, not {config.method!r}")
    report = _coalition_report(config, d)
    status, payload, elapsed = run_with_timeout(_run_iusv, config.timeout_s, d, config.gamma)
    return _record_outcome(report, status, payload, elapsed, reference)


def run_benchmark(
    cells: Sequence[tuple[RunConfig, PlanNode, Sequence[OwnedTable]]],
    *,
    n_owners: int | None = None,
    utility_fn=None,
    reference: Allocation | None = None,
    parallel: bool = False,
) -> list[RunReport]:
    """Run a matrix of configured cells; failures are isolated per cell.

    Cells run sequentially by default so runtime measurements are clean. The
    parallel mode exists for correctness-only sweeps: cells run in a process
    pool, runtimes reflect contention, and per-cell timeouts are not enforced
    (the pool workers cannot fork watchdog children).
    """
    def one(cell):
        config, plan, tables = cell
        try:
            return run_method(
                config,
                plan,
                tables,
                n_owners=n_owners,
                utility_fn=utility_fn,
                reference=reference,
            )
        except Exception as exc:  # noqa: BLE001 - matrix isolation
            return RunReport.for_config(
                config, status="error", error=f"{type(exc).__name__}: {exc}"
            )

    if not parallel:
        return [one(c) for c in cells]
    with multiprocessing.get_context("fork").Pool() as pool:
        return pool.map(_BenchCellRunner(n_owners, utility_fn, reference), list(cells))


class _BenchCellRunner:
    """Picklable cell runner for the parallel benchmark mode."""

    def __init__(self, n_owners, utility_fn, reference):
        self.n_owners = n_owners
        self.utility_fn = utility_fn
        self.reference = reference

    def __call__(self, cell):
        config, plan, tables = cell
        config = replace(config, timeout_s=None)
        try:
            return run_method(
                config,
                plan,
                tables,
                n_owners=self.n_owners,
                utility_fn=self.utility_fn,
                reference=self.reference,
            )
        except Exception as exc:  # noqa: BLE001
            return RunReport.for_config(
                config, status="error", error=f"{type(exc).__name__}: {exc}"
            )


# --- report serialization -----------------------------------------------------------

_CSV_COLUMNS = [
    "label", "method", "status", "gamma", "samples", "seed", "timeout_s",
    "n_owners", "n_tuples", "total_utility", "runtime_seconds",
    "assemble_seconds", "allocation", "allocation_exact", "metrics",
    "histogram", "rng", "error",
]
_JSON_CELLS = {"allocation", "allocation_exact", "metrics", "histogram"}
_FLOAT_CELLS = {"gamma", "timeout_s", "total_utility", "runtime_seconds", "assemble_seconds"}
_INT_CELLS = {"samples", "seed", "n_owners", "n_tuples"}


def reports_to_json(reports: Sequence[RunReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=1, sort_keys=True)


def reports_from_json(path: str | Path) -> list[RunReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return [RunReport.from_dict(d) for d in json.load(fh)]


def reports_to_csv(reports: Sequence[RunReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            d = r.to_dict()
            row = {}
            for col in _CSV_COLUMNS:
                v = d[col]
                if col in _JSON_CELLS:
                    row[col] = json.dumps(v)
                elif v is None:
                    row[col] = ""
                else:
                    row[col] = v
            writer.writerow(row)


def reports_from_csv(path: str | Path) -> list[RunReport]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            kwargs: dict[str, Any] = {}
            for col, raw in row.items():
                if col in _JSON_CELLS:
                    kwargs[col] = json.loads(raw)
                elif raw == "":
                    kwargs[col] = None
                elif col in _FLOAT_CELLS:
                    kwargs[col] = float(raw)
                elif col in _INT_CELLS:
                    kwargs[col] = int(raw)
                else:
                    kwargs[col] = raw
            if kwargs.get("metrics") is None:
                kwargs["metrics"] = {}
            if kwargs.get("histogram") is None:
                kwargs["histogram"] = {}
            out.append(RunReport(**kwargs))
    return out
