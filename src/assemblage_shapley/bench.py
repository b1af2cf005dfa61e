"""Benchmark harness: CSV ingestion, metrics, timed method runs, reports.

A run executes one allocation method over one (plan, owner tables) pair under
a wall-clock timeout, and produces a :class:`RunReport` that serializes to
JSON (canonical) and CSV (tabular). Assembling the coalition set is timed
separately from the Shapley computation itself; the exact-baseline and
sampling methods pay for their plan re-executions inside the timed section,
which is what makes them slow.

Each decision is stated once: ``CELL_PARSERS`` says how a CSV cell of each
manifest type parses, and so which cells are valid, whether a plan reads
them or not; ``_run`` runs every method in the fork child and fills its
report in; the report CSV's columns and cell parsers come from
:class:`RunReport`'s fields; and which values a field of :class:`RunConfig`
or :class:`RunReport` accepts is its annotation, checked by
:func:`~assemblage_shapley.model.check_fields` when the record is built.
"""

from __future__ import annotations

import csv
import gc
import json
import multiprocessing
import re
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import filterfalse, repeat
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

from .baselines import PRNG_NAME, UtilityEvaluator, _check_samples, perm_shapley, trad_shapley
from .datagen import Assignment, AssignmentScenario
from .engine import CoalitionSet, OwnedTable, SourceTable, evaluate_plan
from .errors import IngestError, UndefinedMetricError, csv_records, decoded, read_json
from .model import Allocation, check_fields, exact_sum, field_types, has_type, json_object
from .plans import PlanNode, required_columns
from .shapley import DEFAULT_GAMMA, CaseStats, _check_gamma, iusv_all

#: How a CSV cell of each type parses. Each ignores surrounding whitespace.
#: It is the one rule for which text is a valid cell of its type: a cell that
#: no plan column reads is checked by it too (see :func:`_check_column`).
CELL_PARSERS: dict[str, Callable[[str], Any]] = {
    "string": str.strip,
    "integer": int,
    "decimal": Fraction,
}

#: Decimal text that is plainly a ``Fraction``: an optional sign, digits, and
#: optionally ``/`` and a nonzero denominator, as :func:`write_assignment` writes.
#: Each run of digits is shorter than 640, the lowest limit
#: ``sys.set_int_max_str_digits`` accepts, so ``Fraction`` accepts every text
#: this matches whatever that limit is; a longer run is left to ``Fraction``.
#: The runs are bounded by counted repeats, which cost less than a look-ahead.
_PLAIN_DECIMAL = re.compile(r"[+-]?[0-9]{1,600}(?:/0{0,300}[1-9][0-9]{0,299})?")


def _check_column(kind: str, column: Iterable[str]) -> None:
    """Raise exactly where ``CELL_PARSERS[kind]`` raises on a cell of
    ``column``, keeping no parsed value."""
    if kind == "decimal":
        # only a cell that is not plainly a Fraction pays for the parse
        column = filterfalse(_PLAIN_DECIMAL.fullmatch, column)
    deque(map(CELL_PARSERS[kind], column), maxlen=0)


# --- ingestion ----------------------------------------------------------------

def ingest_csv(
    paths: Sequence[str | Path],
    schema_config: Mapping[str, Mapping] | None = None,
) -> list[SourceTable]:
    """Read CSV files into typed, deduplicated tables.

    The file stem names the table and the header row names its attributes;
    two files with one stem raise :class:`IngestError` naming both, before
    either is read. ``schema_config`` optionally maps table names to
    ``{"types": {attr: "integer" | "decimal" | "string"}}``; unspecified
    attributes are strings. Strings are trimmed and numerics normalized, so
    ``1.50`` and ``1.5`` join.
    """
    paths = [Path(path) for path in paths]
    stems: dict[str, Path] = {}
    for path in paths:
        if path.stem in stems:
            first = stems[path.stem]
            raise IngestError(
                f"CSV files {str(first)!r} and {str(path)!r} both name table {path.stem!r}",
                path=str(path),
            )
        stems[path.stem] = path
    schema_config = schema_config or {}
    tables = []
    for path in paths:
        types = dict(schema_config.get(path.stem, {}).get("types", {}))
        schema, rows = _read_csv(path, types)
        tables.append(SourceTable(name=path.stem, schema=schema, rows=rows))
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
    only the cells at those positions are kept; every other cell is checked
    by its parser too, and stored as ``None``. An unknown type, a missing
    header, a typed attribute not in the header, a row with the wrong number
    of fields, a bad cell, read or not, or text the ``csv`` module refuses
    raises :class:`IngestError` naming the file and line; a file that is not
    UTF-8 raises one naming the file. No field is refused for its length.

    Cells are parsed and checked a column at a time. Only once that has
    failed are the rows walked one at a time, to name the first bad row in
    file order."""
    for attr, kind in types.items():
        if not (isinstance(kind, str) and kind in CELL_PARSERS):
            raise IngestError(f"unknown type {kind!r} for attribute {attr!r}", path=str(path))
    with csv_records(path, "CSV file") as reader:
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise IngestError(
                "file is empty (missing header row)", path=str(path), line=1
            ) from None
        if schema is not None and header != schema:
            raise IngestError("owner file header disagrees with manifest", path=str(path), line=1)
        unknown = [attr for attr in types if attr not in header]
        if unknown:
            raise IngestError(f"types {unknown} are not in the header", path=str(path), line=1)
        records = list(reader)
    kinds = [types.get(a, "string") for a in header]
    reads = [read is None or i in read for i in range(len(header))]
    body = list(filter(None, records))  # a blank line is an empty record
    if set(map(len, body)) - {len(header)}:
        _raise_first_bad_row(path, records, kinds)
    columns: list[Iterable] = []
    try:
        for kind, parse, column in zip(kinds, reads, zip(*body)):
            if parse:
                columns.append(list(map(CELL_PARSERS[kind], column)))
            else:
                _check_column(kind, column)
                columns.append(repeat(None, len(body)))
    except (ValueError, ZeroDivisionError):
        _raise_first_bad_row(path, records, kinds)
        raise
    return header, tuple(zip(*columns))


def _raise_first_bad_row(path: Path, records: list[list[str]], kinds: list[str]) -> None:
    """Raise :class:`IngestError` for the first of ``records``, in file
    order, that has the wrong number of fields or a cell that does not parse
    as its type in ``kinds``, read or not; return if none has."""
    for line_no, record in enumerate(records, start=2):
        if not record:
            continue
        if len(record) != len(kinds):
            raise IngestError(
                f"row has {len(record)} fields, expected {len(kinds)}", path=str(path), line=line_no
            )
        for raw, kind in zip(record, kinds):
            try:
                CELL_PARSERS[kind](raw)
            except (ValueError, ZeroDivisionError):
                raise IngestError(
                    f"cannot parse {raw.strip()!r} as {kind}", path=str(path), line=line_no
                ) from None


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

    A manifest that is not JSON, or not an object of an integer ``n_owners``,
    a ``tables`` object and an optional ``scenario`` (see
    :func:`_manifest_tables`), or whose ``scenario`` is not a valid scenario
    object, raises :class:`IngestError` naming the manifest.

    With ``plan``, the plan is checked against the manifest's schemas before
    any owner file is opened, and only the cells it reads
    (:func:`~assemblage_shapley.plans.required_columns`) are parsed. Every
    other cell is still checked, and is stored as ``None``, so each table
    keeps its schema and row width and the plan's output is unchanged.
    """
    manifest_path = Path(manifest_path)
    n_owners, entries, scenario_data = read_json(manifest_path, "manifest", _manifest_tables)
    scenario = None
    if scenario_data:
        scenario = decoded(manifest_path, "scenario", AssignmentScenario.from_dict, scenario_data)
    reads = None
    if plan is not None:
        reads = required_columns(plan, {name: entry[0] for name, entry in entries.items()})
    base = manifest_path.parent
    tables: list[OwnedTable] = []
    for name, (schema, types, owners) in sorted(entries.items()):
        read = None if reads is None else reads.get(name, ())
        for owner_str, fname in sorted(owners.items(), key=lambda kv: int(kv[0])):
            _, rows = _read_csv(base / fname, types, schema=schema, read=read)
            tables.append(OwnedTable(table=name, owner=int(owner_str), schema=schema, rows=rows))
    return tables, n_owners, scenario


def _manifest_tables(manifest: Any) -> tuple[int, dict[str, tuple], Any]:
    """The ``n_owners``, the tables (each as its schema, types and owners) and
    the ``scenario`` of ``manifest``, which holds only the keys
    :func:`write_assignment` writes, each of its JSON type."""
    json_object(manifest, "manifest", n_owners=int, tables=dict, scenario=Any)
    tables = {}
    for name, entry in manifest["tables"].items():
        json_object(entry, "manifest table", schema=list[str], types=dict[str, str],
                    owners=dict[str, str])
        schema, types, owners = tuple(entry["schema"]), entry.get("types", {}), entry["owners"]
        if not all(key.isdecimal() for key in owners):
            raise ValueError(f"manifest table {name!r} has owner keys that are not owner indices")
        unknown = [attr for attr in types if attr not in schema]
        if unknown:
            raise ValueError(f"manifest table {name!r} types {unknown}, not in its schema")
        tables[name] = (schema, types, owners)
    return manifest["n_owners"], tables, manifest.get("scenario")


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

#: The longest timeout in seconds: ``Connection.poll`` waits through poll(2),
#: which takes its timeout as a C ``int`` of milliseconds, so 2^31 - 1 ms
#: (about 24.8 days) is the longest wait it can express.
MAX_TIMEOUT_S = (2**31 - 1) / 1000


def _check_timeout(timeout_s: float | None) -> None:
    """Raise ``ValueError`` unless ``timeout_s`` is ``None`` (no limit) or
    positive and at most :data:`MAX_TIMEOUT_S`; NaN and infinity are not."""
    if timeout_s is None:
        return
    if not timeout_s > 0:
        raise ValueError(f"timeout must be positive, got {timeout_s}")
    if timeout_s > MAX_TIMEOUT_S:
        raise ValueError(f"timeout must be at most {MAX_TIMEOUT_S} seconds, got {timeout_s}")


def _timed_child(conn, fn, args, kwargs):
    # The collector then tracks only what the child allocates: it never walks
    # the heap inherited from the parent, so those pages stay shared.
    gc.freeze()
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
    forked child. An invalid ``timeout_s`` raises ``ValueError`` before the
    fork.
    """
    _check_timeout(timeout_s)
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
    knob is checked here, for every method: its type against its annotation
    (:func:`~assemblage_shapley.model.check_fields`), then its value by the
    raiser of the library function that reads it, so a bad value is refused
    before any input is read."""

    method: str
    gamma: float = DEFAULT_GAMMA
    samples: int = 16
    seed: int = 0
    timeout_s: float | None = 7200.0
    label: str = ""

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        _check_gamma(self.gamma)
        _check_samples(self.samples)
        _check_timeout(self.timeout_s)


@dataclass
class RunReport:
    """Everything observed about one run, in serializable form. Each field's
    type is checked against its annotation when the report is built."""

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
    metrics: dict[str, float] = field(default_factory=dict)
    histogram: dict[str, float] = field(default_factory=dict)
    rng: str | None = None
    error: str | None = None

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def for_config(cls, config: RunConfig, *, status: str = "ok", **fields) -> "RunReport":
        """A report on a run of ``config``, with the config's knobs filled in."""
        return cls(status=status, **asdict(config), **fields)

    def exact_allocation(self) -> Allocation | None:
        """``allocation_exact``, whose strings must be non-negative fractions."""
        shares = self.allocation_exact
        if shares is None:
            return None
        return Allocation(shares=tuple(Fraction(v) for v in shares))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        """The report :meth:`to_dict` wrote as ``data``; a field of the wrong
        type, a ``status`` not in ``STATUSES``, or an ``allocation_exact`` share
        that is not a non-negative fraction raises."""
        report = cls(**data)
        if report.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {report.status!r}")
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
    The error report keeps each knob of its field's type; any other knob
    takes ``RunConfig``'s default, and ``method``, which has none, is ``""``.
    """
    try:
        config = RunConfig(**knobs)
        plan, tables, n_owners = load()
        return run_method(config, plan, tables, n_owners=n_owners)
    except Exception as exc:  # noqa: BLE001 - matrix isolation
        hints = field_types(RunConfig)
        kept = {
            name: value if has_type(value, hints[name]) else getattr(RunConfig, name, "")
            for name, value in knobs.items()
        }
        return RunReport(status="error", error=f"{type(exc).__name__}: {exc}", **kept)


# --- report serialization -----------------------------------------------------------

def _cell_parser(hint) -> Callable[[str], Any]:
    for scalar in (str, int, float):
        if hint in (scalar, scalar | None):
            return scalar
    return json.loads


#: The report CSV's columns, :class:`RunReport`'s fields in order, each with
#: how its cell parses: a ``str``, ``int`` or ``float`` field (or ``None``) as
#: such, and every other field as JSON.
_CSV_PARSERS = {name: _cell_parser(hint) for name, hint in field_types(RunReport).items()}
#: The plain ``str`` fields, whose empty cell is the empty string.
_TEXT = {name for name, hint in field_types(RunReport).items() if hint is str}


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
    """Read the reports :func:`reports_to_csv` wrote, whatever their length.
    Text that is not UTF-8 or not CSV, a row whose width is not the header's,
    a cell that does not parse, or a report that is not valid, is an
    :class:`IngestError` naming the file, as in :func:`reports_from_json`."""
    with csv_records(path, "report file") as reader:
        header = next(reader, [])
        records = list(filter(None, reader))  # a blank line is an empty record
    return decoded(path, "report file", lambda: _reports([_csv_fields(header, r) for r in records]))


def _csv_fields(header: Sequence[str], record: Sequence[str]) -> dict:
    """The report fields in one CSV record, named by ``header`` and each
    parsed as its field's type; an empty cell is ``""`` in a ``str`` field
    and ``None`` in any other. A record of another width raises."""
    return {
        col: None if raw == "" and col not in _TEXT else _CSV_PARSERS.get(col, str)(raw)
        for col, raw in zip(header, record, strict=True)
    }
