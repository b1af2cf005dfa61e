"""Alternating parent/change pairs of the benchmark, written as one JSON file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent REV \\
        --claim join-uo-ea:request_s.p50 --what "..." --out BENCH_<n>.json

The parent side is ``git archive REV``, unpacked under ``.perfbench_work/``;
the change side is this checkout, as it stands. Both sides must hold the same
``perfbench/`` and ``BENCHMARK.json``, so each runs the same benchmark on its
own ``src/``. Each of ten pairs runs ``perfbench/run.py --workload W --seed 1
--seconds T --trace 0``, T being ``BENCHMARK.json``'s ``run_seconds``, once
on each side, one run at a time, and the side that runs first alternates pair
by pair. Every workload runs at seed 1; the ``--claim`` workload also runs at
seed 7. For every end-to-end metric of ``BENCHMARK.json`` the file records
each side's runs, median and quartiles, the pairs the change won and a
verdict against the metric's bound.

It also records ``same_answers``: per side, hashes of the coalition set, of
the ``iusv_all`` shares with their case counts and of the ``shapley --method
iusv`` report without its runtimes, on every workload and on the mini-world
data, at seeds 1 and 7.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("join-uo-ea", "join-eo-ua", "union-eo-ea")
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")
PAIRS = 10
#: a gain needs at least 9 of the 10 pairs, and a median gain past the parent's IQR
WINS_NEEDED = 9
SEED, CLAIM_SEED = 1, 7


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def _export(rev: str, dest: Path) -> Path:
    """``git archive rev`` unpacked into a fresh ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest)
    return dest


def _same_benchmark(parent: Path) -> bool:
    """Whether ``parent`` holds the same benchmark files as this checkout."""
    for name in BENCHMARK_FILES:
        diff = subprocess.run(
            ["diff", "-r", "-q", "-x", "__pycache__", str(parent / name), str(ROOT / name)],
            stdout=subprocess.DEVNULL, check=False,
        )
        if diff.returncode != 0:
            return False
    return True


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the tree ``root``: its summary and digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}")
    summary = json.loads(lines[-1])
    record = json.loads(
        (root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {**summary, "digest": record["digest"], "recorded_digest": record["recorded_digest"],
            "environment": record["environment"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _verdict(spec: dict, parent: list[float], change: list[float], wins: int) -> dict:
    """Both sides' spread, the change's relative move and its verdict."""
    sign = 1 if spec["better"] == "lower" else -1
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    move = (cmed - pmed) / pmed
    if wins >= WINS_NEEDED and sign * (pmed - cmed) > p3 - p1:
        verdict = (f"better: wins >= {WINS_NEEDED}/{PAIRS} pairs and the median gain exceeds "
                   "the parent's IQR")
    elif sign * move > spec["bound"]:
        verdict = "worse: beyond the bound"
    elif (p3 - p1) / pmed > spec["bound"] and not (
        max(sign * v for v in change) < min(sign * v for v in parent)
    ):
        verdict = "unresolved: the parent's quartile spread is wider than the bound"
    else:
        verdict = "within the bound"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": {"median": pmed, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cmed, "q1": c1, "q3": c3, "runs": change},
        "change_over_parent": move,
        "parent_iqr": p3 - p1,
        "parent_iqr_over_median": (p3 - p1) / pmed,
        "pairs_won_by_change": wins,
        "verdict": verdict,
    }


def _pairs(parent_root: Path, workload: str, seed: int, seconds: float,
           metrics: list[dict]) -> tuple[dict, dict]:
    """``PAIRS`` alternating pairs of runs of ``workload`` at ``seed``, summed
    up per metric, and the change side's environment."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = [("parent", parent_root), ("change", ROOT)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            run = _run(root, workload, seed, seconds)
            runs[side].append(run)
            print(f"{workload}@seed{seed} pair {i + 1}/{PAIRS} {side}: "
                  f"correct={run['correct']} failed={run['failed']} "
                  + " ".join(f"{m['name']}={run['metrics'][m['name']]['value']:.6g}"
                             for m in metrics), file=sys.stderr, flush=True)
    out = {
        "seed": seed,
        "pairs": PAIRS,
        **{key: {side: [r[key] for r in rs] for side, rs in runs.items()}
           for key in ("correct", "failed", "attempted")},
        "digests": {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()},
        "recorded_digest": runs["change"][0]["recorded_digest"],
        "metrics": {},
    }
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = _verdict(spec, values["parent"], values["change"], wins)
    return out, runs["change"][0]["environment"]


# --- same answers -------------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _answers(root: Path) -> dict:
    """The answer hashes of the tree ``root``, computed in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from assemblage_shapley import cli, evaluate_plan, iusv_all, load_assignment, load_plan
    from assemblage_shapley.engine import coalition_to_dict
    from workloads import WORKLOADS as BENCH_WORKLOADS, set_up

    def hashes(manifest: Path, plan_path: Path, tmp: Path) -> dict:
        plan = load_plan(plan_path)
        tables, n_owners, _ = load_assignment(manifest, plan=plan)
        d = evaluate_plan(plan, tables, n_owners=n_owners)
        r = iusv_all(d, 1.0)
        report = tmp / "report.json"
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["shapley", "--method", "iusv", "--gamma", "1.0", "--manifest",
                           str(manifest), "--plan", str(plan_path), "--out", str(report)])
        if rc != 0:
            raise SystemExit(f"{root}: shapley exited {rc} on {manifest}")
        reports = json.loads(report.read_text())
        for rep in reports:
            for key in ("runtime_seconds", "assemble_seconds"):
                rep.pop(key)
        return {
            "coalition_to_dict": _digest(json.dumps(coalition_to_dict(d))),
            "iusv_all_shares_and_case_stats": _digest(repr(
                (r.allocation.shares, r.stats, r.shape_cache_hits, r.shape_cache_misses)
            )),
            "shapley_report_without_runtimes": _digest(json.dumps(reports, sort_keys=True)),
        }

    data = root / "data" / "mini-world"
    out = {}
    for seed in (SEED, CLAIM_SEED):
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                s = set_up(BENCH_WORKLOADS[name], seed, Path(tmp))
                out[f"{name}@seed{seed}"] = hashes(s.manifest, s.plan, Path(tmp))
        with tempfile.TemporaryDirectory() as tmp:
            owners = Path(tmp) / "owners"
            csvs = [str(data / f"{t}.csv") for t in ("customers", "orders", "items")]
            with redirect_stdout(io.StringIO()):
                rc = cli.main(["gen", *csvs, "--schema", str(data / "schema.json"),
                               "--seed", str(seed), "--out", str(owners)])
            if rc != 0:
                raise SystemExit(f"{root}: gen exited {rc}")
            out[f"mini-world@seed{seed}"] = hashes(
                owners / "manifest.json", data / "plan.json", Path(tmp)
            )
    return out


def _side_answers(root: Path) -> dict:
    cmd = [sys.executable, __file__, "--answers-of", str(root)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


# --- main -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="the parent revision")
    p.add_argument("--claim", help=f"WORKLOAD:METRIC, also run at seed {CLAIM_SEED}")
    p.add_argument("--what", default="", help="what the change does, for the record")
    p.add_argument("--out", type=Path)
    p.add_argument("--answers-of", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.answers_of is not None:
        print(json.dumps(_answers(args.answers_of)))
        return 0
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    jobs = [(w, SEED) for w in WORKLOADS]
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in WORKLOADS or metric not in {m["name"] for m in metrics}:
            p.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC of BENCHMARK.json")
        claim = {"workload": workload, "metric": metric, "seeds": [SEED, CLAIM_SEED],
                 "rule": f"the change wins at least {WINS_NEEDED} of {PAIRS} pairs and its "
                         "median gain exceeds the parent's interquartile distance"}
        jobs.append((workload, CLAIM_SEED))

    parent_rev = _git("rev-parse", "--short", args.parent).decode().strip()
    parent_root = _export(parent_rev, ROOT / ".perfbench_work" / f"pairs-{parent_rev}")
    if not _same_benchmark(parent_root):
        print(f"the benchmark differs between {parent_rev} and this checkout", file=sys.stderr)
        return 2
    answers = {side: _side_answers(root)
               for side, root in (("parent", parent_root), ("change", ROOT))}
    results, environment = {}, None
    for workload, seed in jobs:
        results[f"{workload}@seed{seed}"], environment = _pairs(
            parent_root, workload, seed, seconds, metrics
        )
    record = {
        "what": args.what,
        "parent": parent_rev,
        "change": "the commit that adds this file",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "method": "alternating parent/change pairs, the first side alternating pair by pair; "
                  "each side ran from its own copy of the tree, with identical perfbench/ and "
                  "BENCHMARK.json, one run at a time on the same host",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over each side's runs",
        "claim": claim,
        "environment": environment,
        "workloads": results,
        "same_answers": {
            "how": "first 16 hex digits of sha256 over json.dumps of "
                   "coalition_to_dict(evaluate_plan(...)); of repr((allocation.shares, stats, "
                   "shape_cache_hits, shape_cache_misses)) of iusv_all(d, 1.0); and of the "
                   "shapley --method iusv --gamma 1.0 JSON report with its runtime fields "
                   "removed; inputs are perfbench's set-up for each workload and seed, and "
                   "gen --seed over the mini-world data",
            "identical": answers["parent"] == answers["change"],
            "hashes": answers["change"] if answers["parent"] == answers["change"] else answers,
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
