"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The end-to-end tests start ``run.py`` as its own process with a short
``--seconds``, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from harness import setup_seconds, tail_percentile
from tracing import _sc_terms, _shape

from assemblage_shapley import OwnerSet, SynthesisSet, SynthesisSplit

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_second_seed_passes_the_allocation_and_oracle_checks():
    proc = _run("--workload", "join-uo-ea", "--seed", "2", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "recorded=none recorded for this seed recorded_allocation=checked" in proc.stdout
    assert "check oracle_tuples=16 problems=0 failed_requests=0" in proc.stdout
    assert "failed_share = 0 ratio" in proc.stdout


def test_traced_run_reports_every_layer_metric_and_the_counts():
    proc = _run("--workload", "join-uo-ea", "--seed", "1", "--seconds", "1", "--trace", "1")
    result = _result(proc)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["shapley.unique_multi"] == 10320
    assert values["engine.tuples"] == 12000
    assert values["shapley.sc_calls"] + values["shapley.sl_calls"] == 5232
    record = json.loads((ROOT / ".perfbench_out" / "join-uo-ea-seed1-trace1.json").read_text())
    names = {s["name"] for s in record["spans"]}
    assert {"cli.main", "bench.run_method", "shapley.iusv_all", "probe.shapley"} <= names
    traced = [s for s in record["spans"] if s["name"] == "cli.main"]
    assert traced and all(s["request"] is not None for s in traced)
    by_id = {s["id"]: s for s in record["spans"]}
    assembled = [
        s for s in record["spans"] if s["name"] == "engine.evaluate_plan" and s["request"] is not None
    ]
    assert assembled and all(by_id[s["parent"]]["name"] == "bench.run_method" for s in assembled)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("--workload", "join-uo-ea", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_setup_seconds_averages_over_bimodal_samples():
    # fast and slow set-ups alternate; every group holds one of each
    assert setup_seconds([1.0, 3.0] * 5) == 2.0
    assert setup_seconds([5.0, 1.0, 4.0, 2.0, 3.0]) == 3.0
    assert setup_seconds([2.0, 1.0]) == 1.5


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    assert tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


def test_shape_relabels_owners_to_their_rank_in_the_tuple():
    # owners {3, 9} and {9, 20} become positions {0, 1} and {1, 2}
    assert _shape((1 << 3 | 1 << 9, 1 << 9 | 1 << 20)) == (0b011, 0b110)


def test_sc_terms_count_both_inclusion_exclusions():
    s = SynthesisSet.from_sets(
        [OwnerSet.from_indices(6, ix) for ix in ((0, 1), (0, 2), (3, 4))]
    )
    split = SynthesisSplit.for_owner(s, 0)
    # two syntheses with owner 0: 3 terms; their unions with {3, 4}: 2 sets, 3 terms
    assert _sc_terms(split) == 6
