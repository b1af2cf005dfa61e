import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from assemblage_shapley import (
    AssignmentScenario, IngestError, RunConfig, bench, cli, evaluate_plan, shapley,
)
from assemblage_shapley.cli import build_parser, main
from assemblage_shapley.engine import dump_coalition

from helpers import example_counter_tables

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "mini-world"


def _gen(tmp_path, k=2, seed=3):
    outdir = tmp_path / "owners"
    rc = main(
        [
            "gen",
            str(DATA / "customers.csv"),
            str(DATA / "orders.csv"),
            str(DATA / "items.csv"),
            "--schema",
            str(DATA / "schema.json"),
            "--k",
            str(k),
            "--seed",
            str(seed),
            "--out",
            str(outdir),
        ]
    )
    assert rc == 0
    return outdir


def test_gen_writes_manifest_and_owner_csvs(tmp_path, capsys):
    outdir = _gen(tmp_path)
    manifest = json.loads((outdir / "manifest.json").read_text())
    # customers 120 and orders 180 rows get k=2 owners; items (40 < 100) gets 1
    assert manifest["n_owners"] == 5
    assert set(manifest["tables"]) == {"customers", "orders", "items"}
    assert len(manifest["tables"]["items"]["owners"]) == 1
    owner_files = list(outdir.glob("*__owner*.csv"))
    assert len(owner_files) == 5
    out = capsys.readouterr().out
    assert "'customers': 120" in out and "'orders': 180" in out and "'items': 40" in out


def test_gen_over_the_owner_cap_reports_cleanly(tmp_path, capsys):
    csvs = [str(DATA / f"{name}.csv") for name in ("customers", "orders", "items")]
    # customers and orders get 5000 owners each, items 1
    assert main(["gen", *csvs, "--k", "5000", "--out", str(tmp_path / "owners")]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot assign owners: 10001 owners exceeds the cap of 4096\n"
    assert not (tmp_path / "owners").exists()


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path / "a")
    b = _gen(tmp_path / "b")
    for fa in sorted(a.iterdir()):
        fb = b / fa.name
        assert fb.exists()
        assert fa.read_bytes() == fb.read_bytes()


#: The sha256 of every file that ``gen`` writes for mini-world with its
#: scenario file, so that any change to the bytes of an owner CSV or of the
#: manifest fails a test.
_MINI_WORLD_SHA256 = {
    "customers__owner0000.csv": "2a2581aeba16d673efc936e0a24a9b7921c76ed0ec0fda15fef8b4c5623c6c09",
    "customers__owner0001.csv": "cc68ed18cd0711adec115bfe1a2221f9e50de0bc3a695409d416f8ea35abacfb",
    "customers__owner0002.csv": "800a007288e79ed8cc9814fb5916dfa02df8a32e2cdf217a8172c1a1099abced",
    "customers__owner0003.csv": "82cc61623f9e37c608cc82dce41c05d1ba95a7a2055502d5925f698e78ef7a65",
    "customers__owner0004.csv": "fcb7e18df6313ef878c76ad46ab896a28224840331bc5a9d440f540876a4f0e6",
    "items__owner0010.csv": "8759d8e86582f07e301ee886ac27e911952ec37c7318bd0ab1ab5d711f157d56",
    "manifest.json": "611ede985c15183243361854ed11a48b23eaac4d79b74659b788c3686554ff7a",
    "orders__owner0005.csv": "4655eb3de4e55e96585b5ee1408fdd849819584bd719d2daee731273cc1dbfc1",
    "orders__owner0006.csv": "6d2a3d81b369e6566a06ae8776bebabeeddcd9f6a672f270efed69023323fa2d",
    "orders__owner0007.csv": "2f739a4aff949d81888d06f34dac0d59ce7d29a7d0d7e19a3693ca0c16bfe19b",
    "orders__owner0008.csv": "972b352e6914aeba8e71542af9421c86906404e4b732eaeaab87058a9230ffdc",
    "orders__owner0009.csv": "563d0e62fef59192d80fd2e9c36f5c8484a509497187380299722c1c2029222a",
}


def test_gen_accepts_scenario_file(tmp_path):
    outdir = tmp_path / "owners"
    rc = main(
        [
            "gen",
            str(DATA / "customers.csv"),
            str(DATA / "orders.csv"),
            str(DATA / "items.csv"),
            "--schema",
            str(DATA / "schema.json"),
            "--scenario",
            str(DATA / "scenario.json"),
            "--out",
            str(outdir),
        ]
    )
    assert rc == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["n_owners"] == 11
    assert manifest["scenario"]["seed"] == 7
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}
    assert written == _MINI_WORLD_SHA256


def test_gen_without_scenario_flags_builds_the_default_scenario():
    args = build_parser().parse_args(["gen", "t.csv", "--out", "owners"])
    assert cli._scenario_from_args(args) == AssignmentScenario()


def test_assemble_and_shapley_pipeline(tmp_path):
    outdir = _gen(tmp_path)
    coalition = tmp_path / "coalition.json"
    rc = main(
        [
            "assemble",
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(DATA / "plan.json"),
            "--out",
            str(coalition),
        ]
    )
    assert rc == 0
    dump = json.loads(coalition.read_text())
    assert dump["n_owners"] == 5
    assert len(dump["tuples"]) > 50

    # exact run over the manifest
    exact_report = tmp_path / "exact.json"
    rc = main(
        [
            "shapley",
            "--method",
            "iusv",
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(DATA / "plan.json"),
            "--out",
            str(exact_report),
        ]
    )
    assert rc == 0
    exact = json.loads(exact_report.read_text())[0]
    assert exact["status"] == "ok"
    assert exact["metrics"]["umos_rate"] >= 0

    # iusv again from the pre-assembled coalition dump: same allocation
    from_dump = tmp_path / "from_dump.json"
    rc = main(
        [
            "shapley",
            "--method",
            "iusv",
            "--coalition",
            str(coalition),
            "--out",
            str(from_dump),
        ]
    )
    assert rc == 0
    again = json.loads(from_dump.read_text())[0]
    assert again["allocation_exact"] == exact["allocation_exact"]
    assert again["metrics"] == exact["metrics"]
    assert "shape_cache_hit_rate" in again["metrics"]

    # trad agrees exactly on this 5-owner instance
    trad_report = tmp_path / "trad.json"
    rc = main(
        [
            "shapley",
            "--method",
            "trad",
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(DATA / "plan.json"),
            "--out",
            str(trad_report),
        ]
    )
    assert rc == 0
    trad = json.loads(trad_report.read_text())[0]
    assert trad["allocation_exact"] == exact["allocation_exact"]

    # perm with a reference reports an error rate
    perm_report = tmp_path / "perm.json"
    perm_csv = tmp_path / "perm.csv"
    rc = main(
        [
            "shapley",
            "--method",
            "perm",
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(DATA / "plan.json"),
            "--samples",
            "8",
            "--seed",
            "1",
            "--reference",
            str(exact_report),
            "--out",
            str(perm_report),
            "--csv-out",
            str(perm_csv),
        ]
    )
    assert rc == 0
    perm = json.loads(perm_report.read_text())[0]
    assert "error_rate" in perm["metrics"]
    assert perm_csv.exists()


def test_bench_matrix(tmp_path):
    outdir = _gen(tmp_path)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps(
            {
                "cells": [
                    {"label": "iusv-g1", "method": "iusv", "gamma": 1.0},
                    {"label": "iusv-g2", "method": "iusv", "gamma": 2.0},
                    {"label": "perm-4", "method": "perm", "samples": 4},
                ]
            }
        )
    )
    report_json = tmp_path / "bench.json"
    report_csv = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--matrix",
            str(matrix),
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(DATA / "plan.json"),
            "--timeout",
            "120",
            "--out",
            str(report_json),
            "--csv-out",
            str(report_csv),
        ]
    )
    assert rc == 0
    reports = json.loads(report_json.read_text())
    assert [r["label"] for r in reports] == ["iusv-g1", "iusv-g2", "perm-4"]
    assert all(r["status"] == "ok" for r in reports)
    # gamma only affects routing, not values
    assert reports[0]["allocation_exact"] == reports[1]["allocation_exact"]
    # a knob the cell leaves out takes RunConfig's default
    assert (reports[2]["gamma"], reports[2]["seed"]) == (RunConfig.gamma, RunConfig.seed)
    assert report_csv.exists()


def _bench(tmp_path, outdir, cells):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"cells": cells}))
    return main(
        [
            "bench", "--matrix", str(matrix),
            "--manifest", str(outdir / "manifest.json"), "--plan", str(DATA / "plan.json"),
            "--timeout", "120",
            "--out", str(tmp_path / "bench.json"), "--csv-out", str(tmp_path / "bench.csv"),
        ]
    )


def test_bench_keeps_finished_cells_when_a_cell_cannot_load_or_configure(tmp_path):
    outdir = _gen(tmp_path)
    rc = _bench(
        tmp_path,
        outdir,
        [
            {"label": "done", "method": "iusv"},
            {"label": "lost", "method": "iusv", "manifest": str(tmp_path / "nope/manifest.json")},
            {"label": "bad-plan", "method": "iusv", "plan": str(tmp_path / "nope.json")},
            {"method": "bogus"},
            {"label": "after", "method": "iusv", "gamma": 2.0},
        ],
    )
    assert rc == 0
    reports = json.loads((tmp_path / "bench.json").read_text())
    assert [r["label"] for r in reports] == ["done", "lost", "bad-plan", "bogus", "after"]
    assert [r["status"] for r in reports] == ["ok", "error", "error", "error", "ok"]
    assert reports[1]["error"].startswith("FileNotFoundError")
    assert reports[2]["error"].startswith("FileNotFoundError")
    assert reports[3]["error"].startswith("ValueError: method must be one of")
    assert reports[3]["method"] == "bogus" and reports[3]["timeout_s"] == 120.0
    assert reports[0]["allocation_exact"] == reports[4]["allocation_exact"]
    assert len(bench.reports_from_csv(tmp_path / "bench.csv")) == 5


def test_bench_refuses_unknown_cell_keys_and_invalid_knobs_per_cell(tmp_path):
    outdir = _gen(tmp_path)
    rc = _bench(
        tmp_path,
        outdir,
        [
            {"label": "typo", "method": "iusv", "gama": 0, "timeout_s": 0.001},
            {"label": "g0", "method": "iusv", "gamma": 0, "plan": str(tmp_path / "nope.json")},
            {"label": "s0", "method": "perm", "samples": 0},
            {"label": "after", "method": "iusv"},
        ],
    )
    assert rc == 0
    reports = json.loads((tmp_path / "bench.json").read_text())
    assert [r["status"] for r in reports] == ["error", "error", "error", "ok"]
    assert reports[0]["error"].startswith("ValueError: unknown cell keys ['gama', 'timeout_s']")
    # the knobs are checked before the missing plan is read
    assert reports[1]["error"] == "ValueError: gamma must be positive, got 0"
    assert reports[2]["error"] == "ValueError: need at least one sample, got 0"
    assert reports[0]["gamma"] == 1.0 and reports[1]["gamma"] == 0


def test_bench_writes_reports_after_every_cell(tmp_path, monkeypatch):
    outdir = _gen(tmp_path)
    real_run_method = bench.run_method
    calls = []

    def interrupted_second_cell(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_run_method(*args, **kwargs)

    monkeypatch.setattr(bench, "run_method", interrupted_second_cell)
    with pytest.raises(KeyboardInterrupt):
        _bench(tmp_path, outdir, [{"label": label, "method": "iusv"} for label in "ab"])
    reports = json.loads((tmp_path / "bench.json").read_text())
    assert [(r["label"], r["status"]) for r in reports] == [("a", "ok")]
    assert len(bench.reports_from_csv(tmp_path / "bench.csv")) == 1


def test_bench_empty_matrix_writes_empty_reports(tmp_path):
    outdir = _gen(tmp_path)
    assert _bench(tmp_path, outdir, []) == 0
    assert json.loads((tmp_path / "bench.json").read_text()) == []


@pytest.mark.parametrize(
    "text",
    ['{}', '{"cells": ["iusv"]}', '[{"method": "iusv"}]', '{"cells": {"method": "iusv"}}', "{"],
)
def test_bench_rejects_a_malformed_matrix(tmp_path, capsys, text):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(text)
    out = tmp_path / "bench.json"
    rc = main(["bench", "--matrix", str(matrix), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix ") and "Traceback" not in err
    assert not out.exists()


def test_shapley_coalition_honours_timeout(tmp_path, monkeypatch):
    plan, tables = example_counter_tables()
    coalition = tmp_path / "coalition.json"
    dump_coalition(evaluate_plan(plan, tables), coalition)
    monkeypatch.setattr(bench, "iusv_all", lambda *args, **kwargs: time.sleep(60))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    rc = main(
        [
            "shapley", "--method", "iusv", "--coalition", str(coalition),
            "--timeout", "1", "--out", str(out),
        ]
    )
    assert time.perf_counter() - start < 30
    assert rc == 1
    report = json.loads(out.read_text())[0]
    assert report["status"] == "timeout"
    assert report["allocation_exact"] is None and report["n_tuples"] == 1


def test_shapley_requires_inputs(tmp_path, capsys):
    rc = main(["shapley", "--method", "trad", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # the flags' defaults are RunConfig's, whose gamma is the allocator's
    parser = build_parser()
    args = parser.parse_args(["shapley", "--method", "trad", "--out", "r.json"])
    defaults = RunConfig(method="trad")
    assert (args.gamma, args.samples, args.seed, args.timeout_s) == (
        defaults.gamma, defaults.samples, defaults.seed, defaults.timeout_s
    )
    assert defaults.gamma == shapley.DEFAULT_GAMMA
    args = parser.parse_args(["bench", "--matrix", "m.json", "--out", "r.json"])
    assert args.timeout == defaults.timeout_s


@pytest.mark.parametrize(
    "manifest",
    [
        "{}",
        "[]",
        "{",
        '{"n_owners": "3", "tables": {}}',
        '{"n_owners": 1, "tables": {"t": {"owners": {"0": "t.csv"}}}}',
        '{"n_owners": 1, "tables": {"t": {"schema": ["a"], "owners": ["t.csv"]}}}',
        '{"n_owners": 1, "tables": {"t": null}}',
        '{"n_owners": true, "tables": {}}',
    ],
    ids=["empty", "array", "not-json", "text-n-owners", "no-schema", "owners-list", "null-table",
         "bool-n-owners"],
)
def test_cli_reports_a_malformed_manifest_cleanly(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    plan = DATA / "plan.json"
    with pytest.raises(IngestError) as exc_info:
        bench.load_assignment(path)
    assert exc_info.value.path == str(path)
    for argv in [
        ["assemble", "--manifest", str(path), "--plan", str(plan), "--out", str(tmp_path / "c")],
        ["shapley", "--method", "iusv", "--manifest", str(path), "--plan", str(plan),
         "--out", str(tmp_path / "r.json")],
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {exc_info.value}\n"


def test_cli_reports_plan_errors_cleanly(tmp_path, capsys):
    outdir = _gen(tmp_path)
    bad_plan = tmp_path / "bad_plan.json"
    bad_plan.write_text(json.dumps({"op": "scan", "table": "nope"}))
    rc = main(
        [
            "assemble",
            "--manifest",
            str(outdir / "manifest.json"),
            "--plan",
            str(bad_plan),
            "--out",
            str(tmp_path / "c.json"),
        ]
    )
    assert rc == 2
    assert "unknown table" in capsys.readouterr().err


def test_shapley_json_and_csv_reports_read_back_equal(tmp_path):
    # without --label the report's label is "", which its CSV must keep
    outdir = _gen(tmp_path)
    out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
    rc = main(
        [
            "shapley", "--method", "iusv", "--manifest", str(outdir / "manifest.json"),
            "--plan", str(DATA / "plan.json"), "--out", str(out), "--csv-out", str(csv_out),
        ]
    )
    assert rc == 0
    (report,) = bench.reports_from_json(out)
    assert report.label == ""
    assert bench.reports_from_csv(csv_out) == [report]


@pytest.mark.parametrize(
    "schema, named",
    [
        ("{", "schema.json"),
        ('{"items": []}', "schema.json"),
        ('{"items": {"types": []}}', "schema.json"),
        ('{"items": {"types": {"weight": "float"}}}', "items.csv"),  # checked on ingest
    ],
    ids=["not-json", "table-list", "types-list", "unknown-type"],
)
def test_gen_reports_a_malformed_schema_config_cleanly(tmp_path, capsys, schema, named):
    path = tmp_path / "schema.json"
    path.write_text(schema)
    out = tmp_path / "owners"
    rc = main(["gen", str(DATA / "items.csv"), "--schema", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{named}]" in err and "Traceback" not in err
    assert not out.exists()


_MANIFEST_OWNER_X = '{"n_owners": 1, "tables": {"t": {"schema": ["a"], "owners": {"x": "t.csv"}}}}'
_MANIFEST_TYPES_LIST = (
    '{"n_owners": 1, "tables": {"t": {"schema": ["a"], "types": [], "owners": {"0": "t.csv"}}}}'
)


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--plan", '{"op": "scan"}'),
        ("--plan", "not json"),
        ("--coalition", "{}"),
        ("--manifest", _MANIFEST_OWNER_X),
        ("--manifest", _MANIFEST_TYPES_LIST),
    ],
    ids=["plan-missing-field", "plan-not-json", "coalition-empty", "owner-key", "types-list"],
)
def test_cli_reports_malformed_json_inputs_cleanly(tmp_path, capsys, flag, text):
    outdir = _gen(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    inputs = {"--manifest": str(outdir / "manifest.json"), "--plan": str(DATA / "plan.json")}
    if flag == "--coalition":
        argv = ["shapley", "--method", "iusv", "--coalition", str(bad)]
    else:
        inputs[flag] = str(bad)
        argv = ["assemble", "--manifest", inputs["--manifest"], "--plan", inputs["--plan"]]
    rc = main(argv + ["--out", str(tmp_path / "out.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["{", '{"nope": 1}', "[]", '{"k": 0}', '{"k": "five"}', '{"max_copies": 1.5}',
     '{"small_table_threshold": "5"}', '{"k": true}', '{"alpha": true}'],
    ids=["not-json", "unknown-field", "array", "bad-k", "k-text", "m-float", "threshold-text",
         "k-bool", "alpha-bool"],
)
def test_gen_reports_a_malformed_scenario_cleanly(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "owners"
    rc = main(["gen", str(DATA / "items.csv"), "--scenario", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--k", "0"], ["--alpha", "-1"], ["--m", "0"]])
def test_gen_reports_invalid_scenario_flags_cleanly(tmp_path, capsys, flags):
    out = tmp_path / "owners"
    assert main(["gen", str(DATA / "items.csv"), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid scenario flags: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "case", ["gen-csv", "manifest", "owner-csv", "coalition", "reference", "matrix"]
)
def test_cli_reports_a_missing_input_file_cleanly(tmp_path, capsys, case):
    outdir = _gen(tmp_path)
    capsys.readouterr()
    manifest, plan = str(outdir / "manifest.json"), str(DATA / "plan.json")
    missing = tmp_path / "missing.json"
    out = ["--out", str(tmp_path / "out.json")]
    if case == "gen-csv":
        missing = tmp_path / "missing.csv"
        argv = ["gen", str(DATA / "items.csv"), str(missing), "--out", str(tmp_path / "o")]
    elif case == "manifest":
        argv = ["assemble", "--manifest", str(missing), "--plan", plan, *out]
    elif case == "owner-csv":
        missing = outdir / "orders__owner0002.csv"
        missing.unlink()
        argv = ["assemble", "--manifest", manifest, "--plan", plan, *out]
    elif case == "coalition":
        argv = ["shapley", "--method", "iusv", "--coalition", str(missing), *out]
    elif case == "reference":
        argv = ["shapley", "--method", "iusv", "--manifest", manifest, "--plan", plan,
                "--reference", str(missing), *out]
    else:
        argv = ["bench", "--matrix", str(missing), *out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case", ["plan", "coalition", "manifest", "owner-csv", "gen-csv", "reference"]
)
def test_cli_reports_a_non_utf8_input_file_cleanly(tmp_path, capsys, case):
    outdir = _gen(tmp_path)
    capsys.readouterr()
    manifest, plan = str(outdir / "manifest.json"), str(DATA / "plan.json")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
    out = ["--out", str(tmp_path / "out.json")]
    if case == "plan":
        argv = ["assemble", "--manifest", manifest, "--plan", str(bad), *out]
    elif case == "coalition":
        argv = ["shapley", "--method", "iusv", "--coalition", str(bad), *out]
    elif case == "manifest":
        argv = ["assemble", "--manifest", str(bad), "--plan", plan, *out]
    elif case == "owner-csv":
        bad = outdir / "orders__owner0002.csv"
        bad.write_bytes(bad.read_bytes() + b"9,\xff,1\n")
        argv = ["assemble", "--manifest", manifest, "--plan", plan, *out]
    elif case == "gen-csv":
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,name\n1,caf\xff\n")
        argv = ["gen", str(bad), "--out", str(tmp_path / "o")]
    else:
        argv = ["shapley", "--method", "iusv", "--manifest", manifest, "--plan", plan,
                "--reference", str(bad), *out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not UTF-8 text: cannot decode byte 0xff" in err
    assert f"[{bad}]" in err and "Traceback" not in err


def test_shapley_refuses_a_coalition_utility_of_true(tmp_path, capsys):
    path = tmp_path / "coalition.json"
    path.write_text(json.dumps({
        "schema": ["x"], "n_owners": 1,
        "tuples": [{"values": [1], "utility": True, "syntheses": [[0]]}],
    }))
    out = tmp_path / "r.json"
    rc = main(["shapley", "--method", "iusv", "--coalition", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: malformed coalition set: TypeError: True is not a utility [{path}]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--timeout", "0", "timeout must be positive, got 0.0"),
        ("--timeout", "-1", "timeout must be positive, got -1.0"),
        ("--gamma", "0", "gamma must be positive, got 0.0"),
        ("--gamma", "-1", "gamma must be positive, got -1.0"),
        ("--gamma", "nan", "gamma must be positive, got nan"),
        ("--samples", "0", "need at least one sample, got 0"),
    ],
    ids=["0", "-1", "gamma-0", "gamma--1", "gamma-nan", "samples-0"],
)
def test_shapley_reports_an_invalid_timeout_cleanly(tmp_path, capsys, flag, value, message):
    # every knob is checked for every method, iusv's samples too, and before
    # any input is read: the manifest does not exist
    manifest, out = tmp_path / "nope" / "manifest.json", tmp_path / "r.json"
    argv = ["shapley", "--method", "iusv", "--manifest", str(manifest), flag, value]
    assert main(argv + ["--plan", str(DATA / "plan.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid run flags: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario",
    [{"nope": 1}, [1], {"k": 0}, {"k": "five"}, "EO", {"max_copies": 1.5}, {"k": True}],
    ids=["unknown-field", "array", "bad-k", "k-text", "text", "m-float", "k-bool"],
)
def test_assemble_reports_a_malformed_manifest_scenario_cleanly(tmp_path, capsys, scenario):
    outdir = _gen(tmp_path)
    capsys.readouterr()
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["scenario"] = scenario
    path.write_text(json.dumps(manifest))
    with pytest.raises(IngestError) as exc_info:
        bench.load_assignment(path)
    assert exc_info.value.path == str(path)
    assert str(exc_info.value).startswith("malformed scenario: ")
    argv = ["assemble", "--manifest", str(path), "--plan", str(DATA / "plan.json")]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == f"error: {exc_info.value}\n"


@pytest.mark.parametrize(
    "n_owners",
    [4097, -1, 2.0, "3", True, None],
    ids=["over-cap", "negative", "float", "text", "bool", "null"],
)
def test_shapley_rejects_a_coalition_n_owners_off_the_cap(tmp_path, capsys, n_owners):
    # one tuple, so that an unchecked n_owners of a million would allocate
    # per-owner state across the whole universe
    path = tmp_path / "coalition.json"
    path.write_text(json.dumps({
        "schema": ["x"], "n_owners": n_owners,
        "tuples": [{"values": [1], "utility": "1", "syntheses": [[0]]}],
    }))
    out = tmp_path / "r.json"
    rc = main(["shapley", "--method", "iusv", "--coalition", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed coalition set: ") and f"{path}]" in err
    assert "n_owners must be an integer from 0 to 4096" in err and "Traceback" not in err
    assert not out.exists()


def test_shapley_accepts_a_coalition_at_the_owner_cap(tmp_path):
    path = tmp_path / "coalition.json"
    path.write_text(json.dumps({
        "schema": ["x"], "n_owners": 4096,
        "tuples": [{"values": [1], "utility": "1", "syntheses": [[4095]]}],
    }))
    out = tmp_path / "r.json"
    assert main(["shapley", "--method", "iusv", "--coalition", str(path), "--out", str(out)]) == 0
    (report,) = bench.reports_from_json(out)
    assert report.n_owners == 4096 and report.allocation_exact[4095] == "1"


def _report_text(allocation_exact) -> str:
    """A report file of one iusv report with ``allocation_exact``."""
    report = bench.RunReport.for_config(RunConfig(method="iusv"), allocation_exact=allocation_exact)
    return json.dumps([report.to_dict()])


@pytest.mark.parametrize(
    "text",
    ["{", "{}", '[{"nope": 1}]', "[1]", _report_text(["1", "x"]), _report_text(["1", "-1"]),
     _report_text("12"), _report_text([1, 2]), _report_text(["1/0"])],
    ids=["not-json", "object", "unknown-field", "not-a-report", "share-x", "negative-share",
         "string-allocation", "int-shares", "zero-denominator"],
)
def test_shapley_reports_a_malformed_reference_cleanly(tmp_path, capsys, text):
    outdir = _gen(tmp_path)
    capsys.readouterr()
    path = tmp_path / "reference.json"
    path.write_text(text)
    with pytest.raises(IngestError) as exc_info:
        bench.reports_from_json(path)
    assert exc_info.value.path == str(path)
    rc = main(
        [
            "shapley", "--method", "iusv", "--manifest", str(outdir / "manifest.json"),
            "--plan", str(DATA / "plan.json"), "--reference", str(path),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {exc_info.value}\n"


@pytest.mark.parametrize("route", ["manifest", "coalition"])
def test_shapley_refuses_a_reference_over_another_owner_count_before_the_run(
    tmp_path, capsys, monkeypatch, route
):
    outdir = _gen(tmp_path)  # 5 owners
    inputs = ["--manifest", str(outdir / "manifest.json"), "--plan", str(DATA / "plan.json")]
    if route == "coalition":
        coalition = tmp_path / "coalition.json"
        assert main(["assemble", *inputs, "--out", str(coalition)]) == 0
        inputs = ["--coalition", str(coalition)]
    reference = tmp_path / "reference.json"
    reference.write_text(_report_text(["1"] * 4))
    for name in ("run_method", "run_coalition"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("the run started"))
    capsys.readouterr()
    rc = main(
        ["shapley", "--method", "iusv", *inputs, "--reference", str(reference),
         "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: reference {reference} allocates to 4 owners, but the run has 5\n"
    )


def test_quickstart_script_passes(tmp_path):
    """scripts/quickstart.sh, as CI runs it on the console script, here through
    ``python -m`` with this interpreter first on ``PATH`` for its checks."""
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["bash", str(ROOT / "scripts" / "quickstart.sh"),
         f"{sys.executable} -m assemblage_shapley.cli", str(tmp_path / "quickstart")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("quickstart: all checks passed\n")
