import csv
import gc
import io
import json
import math
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from dataclasses import asdict, replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from assemblage_shapley import (
    Allocation,
    Assignment,
    AssignmentScenario,
    CaseStats,
    IngestError,
    OwnedTable,
    OwnerSet,
    RunConfig,
    RunReport,
    Scan,
    UndefinedMetricError,
    bench,
    compute_case_rates,
    compute_error_rate,
    generate_assignment,
    ingest_csv,
    load_assignment,
    minimalize,
    plan_to_json,
    run_coalition,
    run_method,
    run_with_timeout,
    write_assignment,
)
from assemblage_shapley.cli import main
from assemblage_shapley.engine import CoalitionSet, CoalitionTuple
from assemblage_shapley.bench import (
    _CSV_PARSERS, reports_from_csv, reports_from_json, reports_to_csv, reports_to_json, run_cell,
)

from helpers import example_counter_tables


# --- ingestion ------------------------------------------------------------------

def test_ingest_miniworld_bundle(miniworld):
    counts = {t.name: len(t) for t in miniworld.tables}
    assert counts == {"customers": 120, "orders": 180, "items": 40}
    orders = next(t for t in miniworld.tables if t.name == "orders")
    assert isinstance(orders.rows[0][0], int)
    items = next(t for t in miniworld.tables if t.name == "items")
    assert isinstance(items.rows[0][2], F)


def test_ingest_empty_file_with_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b\n")
    (t,) = ingest_csv([p])
    assert t.schema == ("a", "b")
    assert t.rows == ()


def test_ingest_missing_header_is_an_error(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("")
    with pytest.raises(IngestError):
        ingest_csv([p])


def test_ingest_malformed_row_names_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(IngestError, match="bad.csv:3") as exc_info:
        ingest_csv([p])
    assert exc_info.value.line == 3
    # owner files go through the same reader: an extra field, a short row and
    # an empty file each name the file and line, and CLI shapley exits 2
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"n_owners": 1, "tables": {"t": {"schema": ["a", "b"], "owners": {"0": "t0.csv"}}}}
    ))
    plan = tmp_path / "plan.json"
    plan.write_text(plan_to_json(Scan("t")))
    argv = ["shapley", "--method", "iusv", "--manifest", str(manifest), "--plan", str(plan)]
    for text, line in [("a,b\n1,2,3\n", 2), ("a,b\n1,2\n3\n", 3), ("", 1)]:
        (tmp_path / "t0.csv").write_text(text)
        with pytest.raises(IngestError, match=f"t0.csv:{line}]") as exc_info:
            load_assignment(manifest)
        assert exc_info.value.line == line
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {exc_info.value}")


def test_ingest_bad_integer_names_line(tmp_path):
    p = tmp_path / "nums.csv"
    p.write_text("a\n1\nx\n")
    with pytest.raises(IngestError) as exc_info:
        ingest_csv([p], {"nums": {"types": {"a": "integer"}}})
    assert exc_info.value.line == 3
    # a decimal that is not a number or divides by zero fails at its line too
    for bad in ["x", "1/0"]:
        p.write_text(f"a,b\n1/2,s\n2,s\n {bad} ,s\n")
        message = rf"cannot parse '{bad}' as decimal \[.*nums.csv:4\]$"
        with pytest.raises(IngestError, match=message):
            ingest_csv([p], {"nums": {"types": {"a": "decimal"}}})


def test_ingest_normalizes_decimals_and_strings(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("w,s\n1.50, padded \n1.5,other\n")
    (t,) = ingest_csv([p], {"vals": {"types": {"w": "decimal"}}})
    assert t.rows[0] == (F(3, 2), "padded")
    # 1.50 and 1.5 normalize to the same rational; dedup may apply downstream
    assert t.rows[1][0] == F(3, 2)


def test_an_owner_file_header_must_equal_its_manifest_schema(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"n_owners": 1, "tables": {"t": {"schema": ["a", "b"], "owners": {"0": "t0.csv"}}}}
    ))
    for header in ("a,c", "b,a", "a"):
        (tmp_path / "t0.csv").write_text(f"{header}\n1,2\n")
        with pytest.raises(IngestError) as exc_info:
            load_assignment(manifest)
        expected = f"owner file header disagrees with manifest [{tmp_path / 't0.csv'}:1]"
        assert str(exc_info.value) == expected


def test_ingest_rejects_unknown_type(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a\n1\n")
    with pytest.raises(IngestError):
        ingest_csv([p], {"x": {"types": {"a": "floaty"}}})
    # a manifest's types are checked too, not read as strings
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"n_owners": 1, "tables": {"x": {
        "schema": ["a"], "types": {"a": "floaty"}, "owners": {"0": "x.csv"}
    }}}))
    with pytest.raises(IngestError, match="unknown type 'floaty'"):
        load_assignment(manifest)


def _read_rows_one_at_a_time(path, types, read):
    """The header and rows of the CSV file ``path`` as a reader that parses
    one row at a time gives them, or the :class:`IngestError` it raises on
    the first bad row, at the physical line the reader had reached. It parses
    every cell and keeps the ``read`` ones."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(h.strip() for h in next(reader))
        # each record with the physical line the reader had reached
        records = [(record, reader.line_num) for record in reader]
    kinds = [types.get(attr, "string") for attr in header]
    rows = []
    for record, line in records:
        if not record:  # a blank line
            continue
        if len(record) != len(header):
            message = f"row has {len(record)} fields, expected {len(header)}"
            return IngestError(message, path=str(path), line=line)
        row = []
        for i, (raw, kind) in enumerate(zip(record, kinds)):
            try:
                value = bench.CELL_PARSERS[kind](raw)
            except (ValueError, ZeroDivisionError):
                message = f"cannot parse {raw.strip()!r} as {kind}"
                return IngestError(message, path=str(path), line=line)
            row.append(value if read is None or i in read else None)
        rows.append(tuple(row))
    return header, tuple(rows)


_PAD = st.sampled_from(["", " ", "  "])
_GOOD_CELLS = {
    # commas, quotes and line breaks: quoted by csv.writer, or new records
    "string": st.text(alphabet=' ab,"\n\r', max_size=4),
    "integer": st.tuples(_PAD, st.integers(-10**6, 10**6).map(str), _PAD).map("".join),
    "decimal": st.tuples(
        _PAD,
        st.sampled_from(["3/2", "-7", "1.50", "1.5", "007/010", "2e1", "+4/1", "0", " 9 / 3"]),
        _PAD,
    ).map("".join),
}
_BAD_CELLS = {
    "string": st.nothing(),
    "integer": st.sampled_from(["x", "", " ", "1.5", "1/2", "--1"]),
    "decimal": st.sampled_from(["x", "", "1/0", "1/-2", "1..5", " 3/0 "]),
}
#: Decimals of 590 to 4 310 digits, drawn most often near the plain-decimal
#: pre-check's bound of 600 digits and ``int``'s default limit of 4 300: some
#: parse and some do not.
_LONG_DECIMALS = st.builds(
    lambda shape, n: shape.format("9" * n, "0" * n),
    st.sampled_from(["{0}", "-{0}", "1/{0}", "{0}/7", "3/{1}7", " {1} "]),
    st.integers(590, 610) | st.integers(4290, 4310) | st.integers(590, 4310),
)


@st.composite
def _csv_files(draw):
    """CSV text of a header and random lines, the types of its columns and
    the positions read; a line may be blank, short, long or hold a bad cell."""
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(sorted(_GOOD_CELLS)), min_size=width, max_size=width))
    header = [f"{draw(_PAD)}c{i}{draw(_PAD)}" for i in range(width)]
    # a string column may be typed or left to the default
    types = {f"c{i}": k for i, k in enumerate(kinds) if k != "string" or draw(st.booleans())}
    read = draw(st.none() | st.sets(st.integers(0, width - 1)))
    bad_share = draw(st.sampled_from([0.0, 0.02, 0.2]))
    long_share = draw(st.sampled_from([0.0, 0.1, 0.5]))

    def cell(kind):
        if kind == "decimal" and draw(st.floats(0, 1)) < long_share:
            return draw(_LONG_DECIMALS)
        bad = bad_share and draw(st.floats(0, 1)) < bad_share
        return draw(_BAD_CELLS[kind] if bad and kind != "string" else _GOOD_CELLS[kind])

    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 8 + ["blank", "ragged"]))
        if shape == "blank":
            lines.append([])
        elif shape == "ragged" and bad_share:
            fields = draw(st.integers(1, width + 1).filter(lambda n: n != width))
            lines.append([draw(_GOOD_CELLS["integer"]) for _ in range(fields)])
        else:
            lines.append([cell(kind) for kind in kinds])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *lines]
    )
    return out.getvalue(), types, read


@given(_csv_files())
@example(("a,b\n1,x\n2\n", {"a": "integer", "b": "integer"}, None))  # a bad cell, then a short row
@example(("a,b\n1\n2,x\n", {"a": "integer", "b": "integer"}, None))  # a short row, then a bad cell
@example(("a,b\n1,x\n2\n", {"a": "integer", "b": "decimal"}, {0}))  # the bad cell is not read
@example(('a,b\n"x\ny",1\nz,q\n', {"b": "integer"}, None))  # a line break in a cell
def test_ingest_by_column_equals_a_row_at_a_time_reader(case):
    text, types, read = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _read_rows_one_at_a_time(path, types, read)
        if isinstance(expected, IngestError):
            with pytest.raises(IngestError) as exc_info:
                bench._read_csv(path, types, read=read)
            got = exc_info.value
            assert (str(got), got.path, got.line) == (str(expected), expected.path, expected.line)
        else:
            assert bench._read_csv(path, types, read=read) == expected


def test_ingest_names_the_first_bad_row_in_file_order(tmp_path):
    # a bad cell before a short row is reported, not the short row
    p = tmp_path / "t.csv"
    types = {"t": {"types": {"a": "integer", "b": "integer"}}}
    for text, line, message in [
        ("a,b\n1,2\n\n1,x\n2\n", 4, "cannot parse 'x' as integer"),
        ("a,b\n1,2\n2\n1,x\n", 3, "row has 1 fields, expected 2"),
    ]:
        p.write_text(text)
        with pytest.raises(IngestError) as exc_info:
            ingest_csv([p], types)
        assert str(exc_info.value) == f"{message} [{p}:{line}]"


@pytest.mark.parametrize("text, message", [
    ('a,b\n"x\ny",1\nz,q\n', "cannot parse 'q' as integer"),
    ('a,b\n"x\ny",1\nz\n', "row has 1 fields, expected 2"),
])
def test_ingest_names_a_bad_row_by_its_line_after_a_line_break_in_a_cell(
    tmp_path, text, message
):
    # the quoted cell spans lines 2 and 3, so the bad row is on line 4
    p = tmp_path / "ml.csv"
    p.write_text(text)
    with pytest.raises(IngestError) as exc_info:
        ingest_csv([p], {"ml": {"types": {"b": "integer"}}})
    assert str(exc_info.value) == f"{message} [{p}:4]"


def test_ingest_refuses_no_field_for_its_length(tmp_path):
    # over the csv module's default field limit of 131 072 characters
    cell = "x" * 200_000
    p = tmp_path / "long.csv"
    types = {"long": {"types": {"b": "integer"}}}
    limit = csv.field_size_limit()
    p.write_text(f"a,b\n{cell},1\n")
    (t,) = ingest_csv([p], types)
    assert t.rows == ((cell, 1),)
    assert csv.field_size_limit() == limit
    p.write_text(f"a,b\n{cell},1\n2,y\n")
    with pytest.raises(IngestError) as exc_info:
        ingest_csv([p], types)
    assert str(exc_info.value) == f"cannot parse 'y' as integer [{p}:3]"
    assert csv.field_size_limit() == limit


def test_a_nul_byte_is_a_cell_or_an_ingest_error(tmp_path):
    # the csv module reads a NUL from Python 3.11 on, and refuses it before
    p = tmp_path / "nul.csv"
    p.write_text("a\nx\x00y\n")
    limit = csv.field_size_limit()
    if sys.version_info >= (3, 11):
        (t,) = ingest_csv([p])
        assert t.rows == (("x\x00y",),)
    else:
        with pytest.raises(IngestError) as exc_info:
            ingest_csv([p])
        assert str(exc_info.value) == f"malformed CSV file: line contains NUL [{p}:2]"
    assert csv.field_size_limit() == limit


# --- assignment manifest round trip -------------------------------------------------

def test_assignment_write_load_roundtrip(tmp_path, miniworld):
    manifest = write_assignment(
        miniworld.assignment,
        tmp_path / "owners",
        types={name: cfg.get("types", {}) for name, cfg in miniworld.schema.items()},
    )
    tables, n_owners, scenario = load_assignment(manifest)
    assert n_owners == miniworld.assignment.n_owners
    assert scenario == miniworld.scenario
    assert sorted(tables, key=lambda t: (t.table, t.owner)) == sorted(
        miniworld.assignment.tables, key=lambda t: (t.table, t.owner)
    )


def test_assignment_cells_are_written_as_pinned_bytes(tmp_path):
    owned = OwnedTable("t", 0, ("n", "s", "d"), (
        (1, "a,b", F(3)),
        (-2, 'say "hi"', F(-3, 4)),
        (30, "plain", F(5, 2)),
    ))
    assignment = Assignment((owned,), 1, {"t": (0,)}, AssignmentScenario())
    types = {"t": {"n": "integer", "d": "decimal"}}
    manifest = write_assignment(assignment, tmp_path, types=types)
    assert (tmp_path / "t__owner0000.csv").read_bytes() == (
        b'n,s,d\r\n1,"a,b",3\r\n-2,"say ""hi""",-3/4\r\n30,plain,5/2\r\n'
    )
    (loaded,), _, _ = load_assignment(manifest)
    assert loaded == owned


# --- metrics -------------------------------------------------------------------------

def test_error_rate_zero_when_equal():
    a = Allocation(shares=(F(1), F(1)))
    assert compute_error_rate(a, a) == 0


def test_error_rate_direct_formula():
    exact = Allocation(shares=(F(1), F(1)))
    approx = Allocation(shares=(F(1, 2), F(3, 2)))
    assert compute_error_rate(exact, approx) == F(1, 2)


def test_error_rate_over_mixed_denominators_is_pinned():
    exact = Allocation(shares=(F(1, 3), F(1, 6), F(1, 2)))
    approx = Allocation(shares=(F(1, 4), F(1, 5), F(11, 20)))
    # (1/12 + 1/30 + 1/20) / 1
    assert compute_error_rate(exact, approx) == F(1, 6)


def test_error_rate_undefined_for_zero_total():
    zero = Allocation(shares=(F(0), F(0)))
    other = Allocation(shares=(F(0), F(0)))
    with pytest.raises(UndefinedMetricError):
        compute_error_rate(zero, other)


def test_error_rate_rejects_mismatched_universes():
    with pytest.raises(ValueError):
        compute_error_rate(Allocation(shares=(F(1),)), Allocation(shares=(F(1), F(0))))


def test_case_rates_all_single_owner():
    stats = CaseStats(single_owner_only=10)
    rates = compute_case_rates(stats)
    assert (rates.umos_rate, rates.sc_rate, rates.sl_rate) == (0.0, 0.0, 0.0)


def test_case_rates_worked_example():
    stats = CaseStats(unique_multi=80, general=20, sc_calls=15, sl_calls=5)
    rates = compute_case_rates(stats)
    assert rates.umos_rate == pytest.approx(0.8)
    assert rates.sc_rate == pytest.approx(0.75)
    assert rates.sl_rate == pytest.approx(0.25)
    assert rates.sc_rate + rates.sl_rate == pytest.approx(1.0)


# --- timeout harness -------------------------------------------------------------------

def _sleep_forever():
    time.sleep(60)
    return "never"


def _quick():
    return 41 + 1


def test_run_with_timeout_ok_path():
    status, payload, elapsed = run_with_timeout(_quick, 5.0)
    assert (status, payload) == ("ok", 42)
    assert elapsed is not None and elapsed < 1.0


def test_run_with_timeout_kills_within_slack():
    timeout = 2.0
    start = time.perf_counter()
    status, payload, elapsed = run_with_timeout(_sleep_forever, timeout)
    wall = time.perf_counter() - start
    assert status == "timeout" and payload is None and elapsed is None
    assert wall < timeout * 1.1


def _boom():
    raise RuntimeError("kaput")


def test_run_with_timeout_reports_child_error():
    status, payload, elapsed = run_with_timeout(_boom, 5.0)
    assert status == "error"
    assert "kaput" in payload


def _exit_3():
    os._exit(3)


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_run_with_timeout_reports_child_death():
    assert run_with_timeout(_exit_3, 5.0) == ("error", "child exited with code 3", None)
    assert run_with_timeout(_sigkill_self, 5.0) == ("error", "killed by signal 9", None)


def test_run_with_timeout_child_collects_only_what_it_allocates():
    # the child freezes the heap it inherits; the parent's collector is untouched
    before = gc.get_freeze_count(), gc.isenabled()
    status, frozen, _ = run_with_timeout(gc.get_freeze_count, 5.0)
    assert status == "ok" and frozen > before[0]
    assert run_with_timeout(_boom, 5.0) == ("error", "RuntimeError: kaput", None)
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_with_timeout_without_a_limit_still_runs_in_a_child():
    status, payload, elapsed = run_with_timeout(os.getpid, None)
    assert status == "ok" and payload != os.getpid() and elapsed is not None
    assert run_with_timeout(_boom, None) == ("error", "RuntimeError: kaput", None)


@pytest.mark.parametrize("timeout_s", [0.0, float("nan"), float("inf"), 1e7])
def test_run_with_timeout_refuses_an_invalid_timeout_before_forking(timeout_s):
    # poll(2) takes at most 2^31 - 1 ms; past it, or at NaN, poll raises
    with pytest.raises(ValueError, match=r"^timeout must be "):
        run_with_timeout(time.sleep, timeout_s, 0.5)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "knob",
    [{"gamma": True}, {"seed": "x"}, {"samples": 2.5}, {"label": 3}, {"timeout_s": "9"},
     {"method": None}],
    ids=["gamma-true", "seed-text", "samples-float", "label-int", "timeout-text", "no-method"],
)
def test_run_config_refuses_a_knob_of_the_wrong_type(knob):
    (name,) = knob
    with pytest.raises(TypeError, match=f"^{name} must be "):
        RunConfig(**{"method": "iusv", **knob})
    # an int is a float
    assert RunConfig(method="iusv", gamma=1, timeout_s=30).gamma == 1


# --- run_method / run_cell ----------------------------------------------------------------

def test_run_method_iusv_report_fields():
    plan, tables = example_counter_tables()
    report = run_method(RunConfig(method="iusv", label="demo"), plan, tables)
    assert report.status == "ok"
    assert report.n_owners == 3 and report.n_tuples == 1
    assert report.allocation_exact == ["2/3", "1/6", "1/6"]
    assert report.histogram["general"] == 1
    assert report.metrics["umos_rate"] == 0.0
    assert report.metrics["sc_rate"] + report.metrics["sl_rate"] == pytest.approx(1.0)
    assert report.runtime_seconds is not None and report.assemble_seconds is not None
    assert report.metrics["shape_cache_hit_rate"] == 0.0


def test_run_coalition_reports_shape_cache_hit_rate():
    # one bridging shape on owners {0,1,2} and {3,4,5}: one miss, one hit
    d = CoalitionSet(
        schema=("i",),
        tuples=tuple(
            CoalitionTuple((i,), F(1), minimalize(OwnerSet.from_indices(6, g) for g in groups))
            for i, groups in enumerate([([0, 1], [0, 2]), ([3, 4], [3, 5])])
        ),
        n_owners=6,
    )
    report = run_coalition(RunConfig(method="iusv", timeout_s=30.0), d)
    assert report.status == "ok" and report.assemble_seconds is None
    assert report.allocation_exact == ["2/3", "1/6", "1/6"] * 2
    assert report.metrics["shape_cache_hit_rate"] == 0.5
    assert report.histogram == {
        "single_owner_only": 0, "unique_multi": 0, "general": 2,
        "sc_calls": 6, "sl_calls": 0, "fallbacks": 0,
    }


def test_run_method_trad_and_perm_with_reference():
    plan, tables = example_counter_tables()
    exact = run_method(RunConfig(method="trad"), plan, tables).exact_allocation()
    report = run_method(
        RunConfig(method="perm", samples=8, seed=2), plan, tables, reference=exact
    )
    assert report.status == "ok"
    assert "error_rate" in report.metrics
    assert report.rng is not None


def test_run_method_timeout_status():
    plan, tables = example_counter_tables()
    config = RunConfig(method="perm", samples=50_000_000, timeout_s=0.3)
    report = run_method(config, plan, tables)
    assert report.status == "timeout"
    assert report.allocation is None


def test_run_method_error_status_from_child():
    tables = [OwnedTable("t", o, ("x",), ((o,),)) for o in range(21)]
    report = run_method(RunConfig(method="trad", timeout_s=10.0), Scan("t"), tables)
    assert report.status == "error"
    assert "cap" in report.error


def test_run_cell_isolates_failing_cells():
    plan, tables = example_counter_tables()
    wide = [OwnedTable("t", o, ("x",), ((o,),)) for o in range(21)]
    cells = [
        (RunConfig(method="iusv", label="good"), plan, tables),
        (RunConfig(method="trad", label="bad", timeout_s=5.0), Scan("t"), wide),
        (RunConfig(method="perm", label="also-good", samples=4), plan, tables),
    ]
    reports = [
        run_cell(asdict(config), lambda plan=plan, tables=tables: (plan, tables, None))
        for config, plan, tables in cells
    ]
    assert [r.status for r in reports] == ["ok", "error", "ok"]
    assert [r.label for r in reports] == ["good", "bad", "also-good"]


# --- report serialization -------------------------------------------------------------------

def _sample_reports():
    plan, tables = example_counter_tables()
    exact = run_method(RunConfig(method="trad", label="t"), plan, tables)
    approx = run_method(
        RunConfig(method="perm", label="p", samples=4, seed=1),
        plan,
        tables,
        reference=exact.exact_allocation(),
    )
    timed_out = run_method(
        RunConfig(method="perm", label="to", samples=50_000_000, timeout_s=0.2),
        plan,
        tables,
    )
    fast = run_method(RunConfig(method="iusv", label="i"), plan, tables)
    return [exact, approx, timed_out, fast]


def test_reports_csv_roundtrip_lossless_modulo_runtimes(tmp_path):
    reports = _sample_reports()
    path = tmp_path / "reports.csv"
    reports_to_csv(reports, path)
    loaded = reports_from_csv(path)
    assert [r.without_runtimes() for r in loaded] == [r.without_runtimes() for r in reports]


_JOINT_SHARES = (
    '"[0.6666666666666666, 0.16666666666666666, 0.16666666666666666]",'
    '"[""2/3"", ""1/6"", ""1/6""]",'
)
_PRNG = '"random.Random (Mersenne Twister, sha512 string seeding)",'

#: ``_golden_reports()`` as CSV, generated before the report columns were
#: taken from ``RunReport``'s fields: JSON cells, ``null`` for a missing
#: allocation, ``nan``/``inf`` for a non-finite gamma, empty for ``None``.
_GOLDEN_CSV = "\r\n".join([
    "label,method,status,gamma,samples,seed,timeout_s,n_owners,n_tuples,total_utility,"
    "runtime_seconds,assemble_seconds,allocation,allocation_exact,metrics,histogram,rng,error",
    "t,trad,ok,1.0,16,0,7200.0,3,1,1.0,,0.125," + _JOINT_SHARES + "{},{},,",
    'p,perm,ok,1.0,4,1,7200.0,3,1,1.0,,0.125,"[1.0, 0.0, 0.0]","[""1"", ""0"", ""0""]",'
    '"{""error_rate"": 0.6666666666666666}",{},' + _PRNG,
    "to,perm,timeout,1.0,50000000,0,0.2,3,1,1.0,,0.125,null,null,{},{}," + _PRNG,
    "i,iusv,ok,1.0,16,0,7200.0,3,1,1.0,,0.125," + _JOINT_SHARES
    + '"{""umos_rate"": 0.0, ""sc_rate"": 1.0, ""sl_rate"": 0.0, ""shape_cache_hit_rate"": 0.0}",'
    '"{""single_owner_only"": 0, ""unique_multi"": 0, ""general"": 1, ""sc_calls"": 3, '
    '""sl_calls"": 0, ""fallbacks"": 0}",,',
    "inf,iusv,ok,inf,16,0,7200.0,3,1,1.0,,0.125," + _JOINT_SHARES
    + '"{""umos_rate"": 0.0, ""sc_rate"": 0.0, ""sl_rate"": 1.0, ""shape_cache_hit_rate"": 0.0}",'
    '"{""single_owner_only"": 0, ""unique_multi"": 0, ""general"": 1, ""sc_calls"": 0, '
    '""sl_calls"": 3, ""fallbacks"": 0}",,',
    "nan,iusv,error,nan,16,0,7200.0,3,1,1.0,,0.125,null,null,{},{},,"
    '"ValueError: gamma must be positive, got nan"',
    "",
])


def _golden_reports():
    """The sample reports, an iusv run with an infinite gamma and the error
    report of one with a NaN gamma, with fixed runtimes. ``RunConfig``
    refuses a NaN gamma, so that report is built from its field values."""
    plan, tables = example_counter_tables()
    reports = _sample_reports() + [
        run_method(RunConfig(method="iusv", label="inf", gamma=float("inf")), plan, tables),
        RunReport(
            label="nan", method="iusv", status="error", gamma=float("nan"), samples=16, seed=0,
            timeout_s=7200.0, n_owners=3, n_tuples=1, total_utility=1.0,
            error="ValueError: gamma must be positive, got nan",
        ),
    ]
    return [replace(r, runtime_seconds=None, assemble_seconds=0.125) for r in reports]


def _write_malformed(path, report: RunReport, bad: dict) -> None:
    """Write ``report`` to the ``.json`` or ``.csv`` file ``path``, then put
    the fields in ``bad`` into the file as the report writers would have
    written them: a report that holds them cannot be built."""
    if path.suffix == ".json":
        reports_to_json([report], path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data[0].update(bad)
        path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
        return
    reports_to_csv([report], path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name, value in bad.items():
        rows[0][name] = json.dumps(value) if _CSV_PARSERS[name] is json.loads else str(value)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_reports_csv_roundtrip_holds_for_any_owner_count(tmp_path):
    # 4 000 shares over 40!: an allocation_exact cell of about 300 000
    # characters, over the csv module's default field limit
    denominator = math.factorial(40)
    shares = [F(i, denominator) for i in range(1, 4001)]
    report = RunReport.for_config(
        RunConfig(method="iusv"),
        n_owners=len(shares),
        allocation=[float(v) for v in shares],
        allocation_exact=[str(v) for v in shares],
    )
    path = tmp_path / "reports.csv"
    reports_to_csv([report], path)
    assert path.stat().st_size > 300_000
    limit = csv.field_size_limit()
    assert reports_from_csv(path) == [report]
    assert csv.field_size_limit() == limit


def test_reports_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "reports.csv"
    reports_to_csv(_golden_reports(), path)
    assert path.read_bytes() == _GOLDEN_CSV.encode()
    # what it reads back writes the same bytes again, NaN included
    again = tmp_path / "again.csv"
    reports_to_csv(reports_from_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "bad",
    [
        {"allocation_exact": ["x", "-1"]},
        {"allocation_exact": ["1/0"]},
        {"allocation_exact": [1, 2]},
        {"samples": "many"},
    ],
    ids=["share-x", "zero-denominator", "int-shares", "samples-text"],
)
def test_reports_from_csv_checks_reports_like_json(tmp_path, bad):
    path = tmp_path / "reports.csv"
    _write_malformed(path, _golden_reports()[0], bad)
    with pytest.raises(IngestError, match=r"^malformed report file: ") as exc_info:
        reports_from_csv(path)
    assert exc_info.value.path == str(path)


def test_reports_from_csv_refuses_a_row_of_another_width(tmp_path):
    # a short row must not read its missing text fields as "None"
    path = tmp_path / "reports.csv"
    reports_to_csv([RunReport.for_config(RunConfig(method="iusv"))], path)
    header, row = path.read_text(encoding="utf-8").splitlines()
    for bad in [row.rsplit(",", 1)[0], row + ",x"]:
        path.write_text(f"{header}\n{bad}\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"^malformed report file: ValueError: ") as exc_info:
            reports_from_csv(path)
        assert exc_info.value.path == str(path)


@pytest.mark.parametrize(
    "bad",
    [
        {"status": "done"},
        {"metrics": "{"},
        {"metrics": {"error_rate": "0.5"}},
        {"histogram": {"general": True}},
        {"histogram": None},
        {"n_owners": "x"},
        {"gamma": "g"},
        {"n_tuples": [1]},
    ],
    ids=["status-text", "metrics-text", "metric-text", "histogram-bool", "histogram-null",
         "n-owners-text", "gamma-text", "n-tuples-list"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_files_check_status_metrics_and_histogram(tmp_path, bad, fmt):
    read = {"csv": reports_from_csv, "json": reports_from_json}[fmt]
    path = tmp_path / f"reports.{fmt}"
    _write_malformed(path, RunReport.for_config(RunConfig(method="iusv")), bad)
    with pytest.raises(IngestError, match=r"^malformed report file: ") as exc_info:
        read(path)
    assert exc_info.value.path == str(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_files_that_are_not_utf8_are_refused(tmp_path, fmt):
    write, read = {"csv": (reports_to_csv, reports_from_csv),
                   "json": (reports_to_json, reports_from_json)}[fmt]
    path = tmp_path / f"reports.{fmt}"
    write([RunReport.for_config(RunConfig(method="iusv"))], path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())  # a UTF-16 byte order mark
    message = r"^report file is not UTF-8 text: cannot decode byte 0xff: invalid start byte \["
    with pytest.raises(IngestError, match=message) as exc_info:
        read(path)
    assert exc_info.value.path == str(path)


def test_reports_json_roundtrip(tmp_path):
    reports = _sample_reports()
    path = tmp_path / "reports.json"
    reports_to_json(reports, path)
    loaded = reports_from_json(path)
    assert loaded == reports
