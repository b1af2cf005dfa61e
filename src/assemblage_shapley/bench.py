"""Benchmark harness: CSV ingestion, metrics, timed method runs, reports.

A run executes one allocation method over one (plan, owner tables) pair under
a wall-clock timeout, and produces a :class:`RunReport` that serializes to
JSON (canonical) and CSV (tabular). Assembling the coalition set is timed
separately from the Shapley computation itself; the exact-baseline and
sampling methods pay for their plan re-executions inside the timed section,
which is what makes them slow.

Each decision is stated once: ``CELL_PARSERS`` says how a CSV cell of each
manifest type parses, ``_run`` runs every method in the fork child and fills
its report in, and the report CSV's columns and cell parsers come from
:class:`RunReport`'s fields.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import re
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence, get_args, get_type_hints

from .baselines import PRNG_NAME, UtilityEvaluator, _check_samples, perm_shapley, trad_shapley
from .datagen import Assignment, AssignmentScenario
from .engine import CoalitionSet, OwnedTable, SourceTable, evaluate_plan
from .errors import IngestError, UndefinedMetricError, decoded, read_json, utf8_text
from .model import Allocation, exact_sum
from .plans import PlanNode, required_columns
from .shapley import DEFAULT_GAMMA, CaseStats, _check_gamma, iusv_all

#: How a CSV cell of each type parses. Each ignores surrounding whitespace.
CELL_PARSERS: dict[str, Callable[[str], Any]] = {
    "string": str.strip,
    "integer": int,
    "decimal": Fraction,
}

#: Decimal text that is plainly a ``Fraction``: an optional sign, digits, and
#: optionally ``/`` and a nonzero denominator, as :func:`write_assignment` writes.
_PLAIN_DECIMAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


def _check_decimal(raw: str) -> None:
    if _PLAIN_DECIMAL.fullmatch(raw) is None:
        Fraction(raw)


def _check_integer(raw: str) -> None:
    int(raw)


#: How a CSV cell of each type is checked when no plan column reads it: it
#: raises exactly when its ``CELL_PARSERS`` entry raises, and gives ``None``.
_CELL_CHECKS: dict[str, Callable[[str], None]] = {
    "string": lambda raw: None,
    "integer": _check_integer,
    "decimal": _check_decimal,
}


# --- ingestion ----------------------------------------------------------------

def ingest_csv(
    paths: Sequence[str | Path],
    schema_config: Mapping[str, Mapping] | None = None,
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
        schema, rows = _read_csv(path, types)
        tables.append(SourceTable(name=name, schema=schema, rows=rows))
    return tables


def _read_csv(
    path: Path,
    types: Mapping[str, str],
    *,
    schema: tuple[str, ...] | None = None,
    read: Collection[int] | None = None,
) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """The header and typed rows of one CSV file; ``types`` maps attributes
    to cell types. With ``schema``, the header must equal it. With ``read``,
    only the cells at those positions are parsed; every other cell is checked
    and stored as ``None``. An unknown type, a missing header, a row with the
    wrong number of fields or a bad cell, parsed or checked, raises
    :class:`IngestError` naming the file and line; a file that is not UTF-8
    raises one naming the file."""
    for attr, kind in types.items():
        if not (isinstance(kind, str) and kind in CELL_PARSERS):
            raise IngestError(f"unknown type {kind!r} for attribute {attr!r}", path=str(path))
    with utf8_text(path, "CSV file") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise IngestError(
                "file is empty (missing header row)", path=str(path), line=1
            ) from None
        if schema is not None and header != schema:
            raise IngestError("owner file header disagrees with manifest", path=str(path), line=1)
        kinds = [types.get(a, "string") for a in header]
        parsers = [
            CELL_PARSERS[kind] if read is None or i in read else _CELL_CHECKS[kind]
            for i, kind in enumerate(kinds)
        ]
        rows = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise IngestError(
                    f"row has {len(record)} fields, expected {len(header)}",
                    path=str(path),
                    line=line_no,
                )
            try:
                rows.append(tuple([parse(raw) for parse, raw in zip(parsers, record)]))
            except (ValueError, ZeroDivisionError):
                for raw, kind in zip(record, kinds):
                    try:
                        CELL_PARSERS[kind](raw)
                    except (ValueError, ZeroDivisionError):
                        raise IngestError(
                            f"cannot parse {raw.strip()!r} as {kind}", path=str(path), line=line_no
                        ) from None
                raise
    return header, tuple(rows)


# --- owner-table manifest (gen output) -----------------------------------------

def write_assignment(
    assignment: Assignment,
    outdir: str | Path,
    *,
    types: Mapping[str, Mapping[str, str]] | None = None,
) -> Path:
    """Write per-owner CSV files plus a manifest describing them; each cell is
    written as its ``str``, and ``None`` as an empty field."""
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
            csv.writer(fh).writerows([t.schema, *t.rows])
    manifest_path = outdir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest_path


def load_assignment(
    manifest_path: str | Path, *, plan: PlanNode | None = None
) -> tuple[list[OwnedTable], int, AssignmentScenario | None]:
    """Load the owner tables written by :func:`write_assignment`.

    A manifest that is not JSON, or lacks an integer ``n_owners`` or a
    ``tables`` object whose entries each hold a ``schema`` list, an optional
    ``types`` object and an ``owners`` object from owner indices to file
    names, or holds a ``scenario`` that is not a valid scenario object,
    raises :class:`IngestError` naming the manifest.

    With ``plan``, the plan is checked against the manifest's schemas before
    any owner file is opened, and only the cells it reads
    (:func:`~assemblage_shapley.plans.required_columns`) are parsed. Every
    other cell is still checked, and is stored as ``None``, so each table
    keeps its schema and row width and the plan's output is unchanged.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, "manifest")
    _check_manifest(manifest, manifest_path)
    scenario = None
    if manifest.get("scenario"):
        scenario = decoded(
            manifest_path, "scenario", AssignmentScenario.from_dict, manifest["scenario"]
        )
    reads = None
    if plan is not None:
        catalog = {name: tuple(entry["schema"]) for name, entry in manifest["tables"].items()}
        reads = required_columns(plan, catalog)
    base = manifest_path.parent
    tables: list[OwnedTable] = []
    for name, entry in sorted(manifest["tables"].items()):
        schema = tuple(entry["schema"])
        types = entry.get("types", {})
        read = None if reads is None else reads.get(name, ())
        for owner_str, fname in sorted(entry["owners"].items(), key=lambda kv: int(kv[0])):
            _, rows = _read_csv(base / fname, types, schema=schema, read=read)
            tables.append(OwnedTable(table=name, owner=int(owner_str), schema=schema, rows=rows))
    return tables, manifest["n_owners"], scenario


def _check_manifest(manifest: Any, path: Path) -> None:
    tables = manifest.get("tables") if isinstance(manifest, dict) else None
    # type(...) is int: a JSON true is a bool, which isinstance takes as an int
    if not (isinstance(tables, dict) and type(manifest.get("n_owners")) is int):
        raise IngestError(
            'manifest needs an integer "n_owners" and a "tables" object', path=str(path)
        )
    for name, entry in tables.items():
        entry = entry if isinstance(entry, dict) else {}
        owners = entry.get("owners")
        if not (
            isinstance(entry.get("schema"), list)
            and isinstance(entry.get("types", {}), dict)
            and isinstance(owners, dict)
            and all(k.isdecimal() and isinstance(f, str) for k, f in owners.items())
        ):
            raise IngestError(
                f'manifest table {name!r} needs a "schema" list, an optional "types" '
                'object and an "owners" object from owner indices to file names',
                path=str(path),
            )


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
    return exact_sum(abs(a - b) for a, b in zip(exact.shares, approx.shares)) / denom


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
    child around the call, excluding process overhead. An exception in ``fn``
    is an ``error`` whose payload names it, and a child that dies without
    sending a result is an ``error`` whose payload names its exit code or
    signal. ``timeout_s=None`` sets no time limit; ``fn`` still runs in the
    forked child.
    """
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
#: How a run ended, as :func:`run_with_timeout` reports it.
STATUSES = ("ok", "timeout", "error")


@dataclass(frozen=True)
class RunConfig:
    """One method execution: which algorithm, its knobs, and its timeout.

    The class attributes hold the defaults, which the CLI flags share. Every
    knob is checked here, for every method, by the raiser of the library
    function that reads it, so a bad value is refused before any input is
    read."""

    method: str
    gamma: float = DEFAULT_GAMMA
    samples: int = 16
    seed: int = 0
    timeout_s: float | None = 7200.0
    label: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        _check_gamma(self.gamma)
        _check_samples(self.samples)
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
        return cls(status=status, **asdict(config), **fields)

    def exact_allocation(self) -> Allocation | None:
        """``allocation_exact``, which must be a list of strings of non-negative fractions."""
        shares = self.allocation_exact
        if shares is None:
            return None
        if not (isinstance(shares, list) and all(isinstance(v, str) for v in shares)):
            raise TypeError(f"allocation_exact must be a list of strings, got {shares!r}")
        return Allocation(shares=tuple(Fraction(v) for v in shares))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        """The report :meth:`to_dict` wrote as ``data``; a ``status`` not in
        ``STATUSES``, a ``metrics`` or ``histogram`` that is not an object of
        numbers, or a malformed ``allocation_exact`` raises."""
        report = cls(**data)
        if report.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {report.status!r}")
        for name in ("metrics", "histogram"):
            value = getattr(report, name)
            if not isinstance(value, dict) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in value.values()
            ):
                raise TypeError(f"{name} must be an object of numbers, got {value!r}")
        report.exact_allocation()
        return report

    def without_runtimes(self) -> "RunReport":
        return replace(self, runtime_seconds=None, assemble_seconds=None)


def _run(
    config: RunConfig, d: CoalitionSet, reference: Allocation | None, fn: Callable, *args, **kwargs
) -> RunReport:
    """Run ``fn(*args, **kwargs)`` under ``config``'s timeout and report on it.

    ``fn`` returns an :class:`Allocation`, or for iusv an ``IusvResult``, whose
    case rates, shape cache hit rate over general-case tuples and
    ``CaseStats`` (as the histogram) are reported too. With ``reference`` an
    ok run also reports its error rate.
    """
    report = RunReport.for_config(
        config,
        n_owners=d.n_owners,
        n_tuples=len(d),
        total_utility=float(d.total_utility()),
        rng=PRNG_NAME if config.method == "perm" else None,
    )
    report.status, payload, report.runtime_seconds = run_with_timeout(
        fn, config.timeout_s, *args, **kwargs
    )
    if report.status == "error":
        report.error = payload
    if report.status != "ok":
        return report

    if config.method == "iusv":
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
    reference: Allocation | None = None,
) -> RunReport:
    """Execute one configured method and report allocation, runtime, metrics."""
    assemble_start = time.perf_counter()
    d = evaluate_plan(plan, tables, n_owners=n_owners)
    assemble_seconds = time.perf_counter() - assemble_start
    if config.method == "iusv":
        report = run_coalition(config, d, reference=reference)
    else:
        ev = UtilityEvaluator(plan, tables, n_owners=d.n_owners)
        if config.method == "trad":
            report = _run(config, d, reference, trad_shapley, ev)
        else:
            report = _run(
                config, d, reference, perm_shapley, ev, samples=config.samples, seed=config.seed
            )
    report.assemble_seconds = assemble_seconds
    return report


def run_coalition(
    config: RunConfig, d: CoalitionSet, *, reference: Allocation | None = None
) -> RunReport:
    """Run the iusv method on an already assembled coalition set.

    The run is timed and killed like :func:`run_method`'s; the report has no
    assemble time.
    """
    if config.method != "iusv":
        raise ValueError(f"a coalition set can only be run with iusv, not {config.method!r}")
    return _run(config, d, reference, iusv_all, d, config.gamma)


def run_cell(
    knobs: Mapping[str, Any],
    load: Callable[[], tuple[PlanNode, Sequence[OwnedTable], int | None]],
) -> RunReport:
    """Run one benchmark cell; whatever goes wrong is that cell's report.

    ``knobs`` are all of :class:`RunConfig`'s fields, and ``load`` returns the
    cell's plan, owner tables and owner count. Building the config, loading
    and running all happen inside the boundary, so an invalid config or a
    missing file gives this cell status ``error`` and the next cell still runs.
    """
    try:
        config = RunConfig(**knobs)
        plan, tables, n_owners = load()
        return run_method(config, plan, tables, n_owners=n_owners)
    except Exception as exc:  # noqa: BLE001 - matrix isolation
        return RunReport(status="error", error=f"{type(exc).__name__}: {exc}", **knobs)


# --- report serialization -----------------------------------------------------------

def _cell_parser(hint) -> Callable[[str], Any]:
    for scalar in (str, int, float):
        if hint is scalar or scalar in get_args(hint):
            return scalar
    return json.loads


#: The report CSV's columns, :class:`RunReport`'s fields in order, each with
#: how its cell parses: a ``str``, ``int`` or ``float`` field (or ``None``) as
#: such, and every other field as JSON.
_CSV_PARSERS = {name: _cell_parser(hint) for name, hint in get_type_hints(RunReport).items()}
#: The plain ``str`` fields, whose empty cell is the empty string.
_TEXT = {name for name, hint in get_type_hints(RunReport).items() if hint is str}


def reports_to_json(reports: Sequence[RunReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=1, sort_keys=True)


def reports_from_json(path: str | Path) -> list[RunReport]:
    """The reports :func:`reports_to_json` wrote; a file that is not JSON or
    not a list of valid reports is an :class:`IngestError` naming it."""
    return read_json(path, "report file", _reports)


def _reports(data: Any) -> list[RunReport]:
    """The reports in ``data``, which must be a list of their field dicts."""
    if not isinstance(data, list):
        raise TypeError(f"expected a list of reports, got {type(data).__name__}")
    return [RunReport.from_dict(d) for d in data]


def reports_to_csv(reports: Sequence[RunReport], path: str | Path) -> None:
    """Write ``reports`` as CSV: JSON cells for the JSON fields, an empty cell
    for any other field that is ``None``, and the value as text otherwise."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(_CSV_PARSERS))
        writer.writeheader()
        for r in reports:
            row = {}
            for col, parse in _CSV_PARSERS.items():
                v = getattr(r, col)
                row[col] = json.dumps(v) if parse is json.loads else "" if v is None else v
            writer.writerow(row)


def reports_from_csv(path: str | Path) -> list[RunReport]:
    """Read the reports :func:`reports_to_csv` wrote. Text that is not UTF-8,
    a cell that does not parse, or a report that is not valid, is an
    :class:`IngestError` naming the file, as in :func:`reports_from_json`."""
    with utf8_text(path, "report file") as fh:
        rows = list(csv.DictReader(fh))
    return decoded(path, "report file", lambda: _reports(list(map(_csv_fields, rows))))


def _csv_fields(row: Mapping[str, str]) -> dict:
    """The report fields in one CSV row, each cell parsed as its field's type;
    an empty cell is ``""`` in a ``str`` field and ``None`` in any other."""
    return {
        col: None if raw == "" and col not in _TEXT else _CSV_PARSERS.get(col, str)(raw)
        for col, raw in row.items()
    }
