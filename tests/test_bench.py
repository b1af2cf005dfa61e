import os
import signal
import time
from fractions import Fraction as F

import pytest

from assemblage_shapley import (
    Allocation,
    CaseStats,
    IngestError,
    OwnedTable,
    OwnerSet,
    RunConfig,
    Scan,
    UndefinedMetricError,
    compute_case_rates,
    compute_error_rate,
    generate_assignment,
    ingest_csv,
    load_assignment,
    minimalize,
    run_benchmark,
    run_coalition,
    run_method,
    run_with_timeout,
    write_assignment,
)
from assemblage_shapley.engine import CoalitionSet, CoalitionTuple
from assemblage_shapley.bench import reports_from_csv, reports_from_json, reports_to_csv, reports_to_json

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


def test_ingest_malformed_row_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(IngestError, match="bad.csv:3") as exc_info:
        ingest_csv([p])
    assert exc_info.value.line == 3


def test_ingest_bad_integer_names_line(tmp_path):
    p = tmp_path / "nums.csv"
    p.write_text("a\n1\nx\n")
    with pytest.raises(IngestError) as exc_info:
        ingest_csv([p], {"nums": {"types": {"a": "integer"}}})
    assert exc_info.value.line == 3


def test_ingest_normalizes_decimals_and_strings(tmp_path):
    p = tmp_path / "vals.csv"
    p.write_text("w,s\n1.50, padded \n1.5,other\n")
    (t,) = ingest_csv([p], {"vals": {"types": {"w": "decimal"}}})
    assert t.rows[0] == (F(3, 2), "padded")
    # 1.50 and 1.5 normalize to the same rational; dedup may apply downstream
    assert t.rows[1][0] == F(3, 2)


def test_ingest_rejects_unknown_type(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a\n1\n")
    with pytest.raises(IngestError):
        ingest_csv([p], {"x": {"types": {"a": "floaty"}}})


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


# --- metrics -------------------------------------------------------------------------

def test_error_rate_zero_when_equal():
    a = Allocation(shares=(F(1), F(1)))
    assert compute_error_rate(a, a) == 0


def test_error_rate_direct_formula():
    exact = Allocation(shares=(F(1), F(1)))
    approx = Allocation(shares=(F(1, 2), F(3, 2)))
    assert compute_error_rate(exact, approx) == F(1, 2)


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


def test_run_with_timeout_inline_mode():
    status, payload, elapsed = run_with_timeout(_quick, None)
    assert (status, payload) == ("ok", 42)


# --- run_method / run_benchmark -----------------------------------------------------------

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


def test_run_benchmark_isolates_failing_cells():
    plan, tables = example_counter_tables()
    wide = [OwnedTable("t", o, ("x",), ((o,),)) for o in range(21)]
    cells = [
        (RunConfig(method="iusv", label="good"), plan, tables),
        (RunConfig(method="trad", label="bad", timeout_s=5.0), Scan("t"), wide),
        (RunConfig(method="perm", label="also-good", samples=4), plan, tables),
    ]
    reports = run_benchmark(cells)
    assert [r.status for r in reports] == ["ok", "error", "ok"]
    assert [r.label for r in reports] == ["good", "bad", "also-good"]


def test_run_benchmark_parallel_mode():
    plan, tables = example_counter_tables()
    cells = [
        (RunConfig(method="iusv", label="a"), plan, tables),
        (RunConfig(method="iusv", label="b", gamma=2.0), plan, tables),
    ]
    reports = run_benchmark(cells, parallel=True)
    assert [r.status for r in reports] == ["ok", "ok"]
    assert reports[0].allocation_exact == reports[1].allocation_exact


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


def test_reports_json_roundtrip(tmp_path):
    reports = _sample_reports()
    path = tmp_path / "reports.json"
    reports_to_json(reports, path)
    loaded = reports_from_json(path)
    assert loaded == reports
