"""Allocation benchmark for assemblage-shapley.

Run from the repository root:

    python3 perfbench/run.py --workload join-eo-ua --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process so that its
peak memory is its own. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record of the run, with its spans when traced, is written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("join-uo-ea", "join-eo-ua", "union-eo-ea")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="seconds the request loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_result(result: dict) -> None:
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={_fmt(result['seconds'])}")
    env = result["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    props = result["input_properties"]
    print(f"input tuples={props['tuples']} case_mix={json.dumps(props['case_mix'])}")
    print(f"input witness_count_hist={json.dumps(props['witness_count_hist'])}")
    print(f"input owners_per_tuple_hist={json.dumps(props['owners_per_tuple_hist'])}")
    print(f"input distinct_witness_lists={props['distinct_witness_lists']} "
          f"distinct_shapes={props['distinct_shapes']} "
          f"shape_repeat_share={props['shape_repeat_share']:.4f}")
    digest = result["recorded_digest"] or "none recorded for this seed"
    exact = "checked" if result["recorded_allocation"] else "none recorded"
    print(f"check digest={result['digest']} recorded={digest} recorded_allocation={exact}")
    print(f"check oracle_tuples={result['oracle_tuples_checked']} "
          f"problems={len(result['problems'])} failed_requests={result['failed']}")
    for line in result["problems"] + result["failures"]:
        print(f"FAIL {line}")
    if not result["trace"]:
        lat = result["latencies"]
        print(f"requests={result['attempted']} samples={len(lat)} measured_s={result['measured_s']:.3f} "
              f"set-ups={len(result['setup_seconds'])}")
        tail = result["tail"]
        if tail is None:
            print(f"request_s.tail: {len(lat)} samples, too few for a percentile above p50 "
                  "with ten samples beyond it")
        else:
            print(f"request_s.p{tail[0]} = {tail[1]:.6g} s (n={len(lat)})")
        print(f"failed_share = {result['failed_share']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {_fmt(value)} {unit}")


def _summary(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def _run_all(args: argparse.Namespace) -> int:
    summaries = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        summaries[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, s in summaries.items()
            for metric, value in s["metrics"].items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "assemblage_shapley" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing: {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    harness.write_record(
        result,
        ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    _print_result(result)
    print(json.dumps(_summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
