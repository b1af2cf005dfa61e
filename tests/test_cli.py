import json
import time
from pathlib import Path

import pytest

from assemblage_shapley import bench, evaluate_plan
from assemblage_shapley.cli import main
from assemblage_shapley.engine import dump_coalition

from helpers import example_counter_tables

DATA = Path(__file__).resolve().parent.parent / "data" / "mini-world"


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


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path / "a")
    b = _gen(tmp_path / "b")
    for fa in sorted(a.iterdir()):
        fb = b / fa.name
        assert fb.exists()
        assert fa.read_bytes() == fb.read_bytes()


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
    assert report_csv.exists()


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
