"""One benchmark run: set-up, a closed request loop, checks, metrics.

One client sends one request at a time, each an in-process call of
``assemblage_shapley.cli.main(["shapley", "--method", "iusv", ...])``, the
path a market operator runs. The only other process is the harness's own
fork child that each request starts. Set-up runs once before the first
request and again between requests, outside the loop's time, so that
``setup_s`` samples the same stretch of the host's time as the requests.
Untraced runs give the end-to-end metrics; a traced run alternates untraced
and traced requests (for the tracing overhead) and then runs the per-layer
probes.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

from assemblage_shapley import cli, evaluate_plan, load_assignment, load_plan
from assemblage_shapley.bench import reports_from_json

import checks
from tracing import Tracer, input_properties, probe_engine, probe_shapley, traced_request
from workloads import Workload, set_up

#: Set-up is repeated between requests for this share of the loop's time,
#: and at least ``SETUP_REPEATS`` times in all; see :func:`setup_seconds`.
SETUP_SHARE = 0.1
SETUP_REPEATS = 5
#: Requests are given the rest of this budget as their ``--timeout``, so a
#: stuck request is killed in time for the run to end within its limit.
REQUEST_BUDGET_S = 150.0
GAMMA = 1.0


@dataclass
class Outcome:
    """One request: its wall time and what it returned."""

    seconds: float
    traced: bool
    n_tuples: int | None = None
    allocation_exact: list[str] | None = None
    error: str | None = None
    layers: dict | None = None
    histogram: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _request(setup, work: Path, timeout: float, tracer: Tracer | None, request_id: int) -> Outcome:
    out, csv_out = work / "report.json", work / "report.csv"
    out.unlink(missing_ok=True)
    csv_out.unlink(missing_ok=True)
    argv = [
        "shapley", "--method", "iusv", "--gamma", str(GAMMA),
        "--manifest", str(setup.manifest), "--plan", str(setup.plan),
        "--timeout", f"{timeout:.0f}", "--out", str(out), "--csv-out", str(csv_out),
    ]
    layers = None
    # Start every request from a collected heap, as a fresh CLI process would.
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc, layers = traced_request(tracer, request_id, argv)
    except Exception:  # noqa: BLE001 - a failed request is counted, the run goes on
        return Outcome(
            seconds=time.perf_counter() - start,
            traced=tracer is not None,
            error=traceback.format_exc(limit=3).strip().splitlines()[-1],
        )
    seconds = time.perf_counter() - start
    if layers is not None:
        # the traced request's own span, without the bookkeeping after it
        seconds = layers["request_s"]
    outcome = Outcome(seconds=seconds, traced=tracer is not None, layers=layers)
    if not out.exists():
        outcome.error = f"exit {rc} and no report: {sink.getvalue().strip()[-200:]}"
        return outcome
    report = reports_from_json(out)[0]
    if rc != 0 or report.status != "ok":
        outcome.error = f"exit {rc}, status {report.status}: {report.error}"
        return outcome
    outcome.n_tuples = report.n_tuples
    outcome.allocation_exact = report.allocation_exact
    outcome.histogram = report.histogram
    outcome.metrics = report.metrics
    return outcome


def _input_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. The fork children share most of their pages
    # with this process, so the larger of the two peaks is reported, not the sum.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def setup_seconds(samples: list[float], groups: int = SETUP_REPEATS) -> float:
    """The median over ``groups`` round-robin groups of each group's mean set-up time.

    A join set-up takes under 0.2 s and falls wholly in a fast or a slow
    phase of the host, so single set-up times are bimodal (about 0.065 s
    against 0.12 s on ``join-uo-ea``) and their median jumps between the two
    from run to run. Group ``g`` takes every ``groups``-th set-up from the
    ``g``-th on, so each group spans the whole loop and its mean averages
    over the phases, as a request does.
    """
    means = [statistics.fmean(samples[g::groups]) for g in range(min(groups, len(samples)))]
    return statistics.median(means)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if above p50."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, measure for ``seconds``, check every request, and report."""
    run_start = time.perf_counter()
    work = root / ".perfbench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    try:
        setups: list = []
        input_digests = set()

        def repeat_set_up() -> float:
            start = time.perf_counter()
            gc.collect()
            s = set_up(workload, seed, work / f"inputs{len(setups)}")
            setups.append(s)
            input_digests.add(_input_digest(s.manifest.parent))
            if len(setups) > 1:
                shutil.rmtree(s.manifest.parent)
            return time.perf_counter() - start

        repeat_set_up()
        setup = setups[0]

        outcomes: list[Outcome] = []
        loop_start = time.perf_counter()
        paused_s = 0.0  # set-ups repeated inside the loop are not its time

        def measured() -> float:
            return time.perf_counter() - loop_start - paused_s

        min_requests = 2 if trace else 1
        while len(outcomes) < min_requests or measured() < seconds:
            timeout = max(5.0, REQUEST_BUDGET_S - (time.perf_counter() - run_start))
            traced = trace and len(outcomes) % 2 == 1
            outcomes.append(
                _request(setup, work, timeout, tracer if traced else None, len(outcomes))
            )
            # The host's speed changes from second to second, so set-up is
            # sampled all through the loop, as the requests are.
            while paused_s < SETUP_SHARE * measured():
                paused_s += repeat_set_up()
        measured_s = measured()
        peak_rss_mb = _peak_rss_mb()
        while len(setups) < SETUP_REPEATS:
            repeat_set_up()
        if len(input_digests) != 1:
            problems.append("set-up wrote different inputs for the same seed")

        # Everything below is outside the timed sections.
        tables, n_owners, _ = load_assignment(setup.manifest)
        plan = load_plan(setup.plan)
        layers: dict = {}
        if tracer is not None:
            layers, d = probe_engine(tracer, plan, tables, n_owners)
        else:
            d = evaluate_plan(plan, tables, n_owners=n_owners)
        props = input_properties(d)
        digest, expected = checks.recorded(workload.name, seed, setup.owner_ids)
        first_digest = None
        for o in outcomes:
            if o.error is None:
                o.error = checks.check_allocation(
                    o.allocation_exact, o.n_tuples, d, digest, expected
                )
            if o.error is None and first_digest is None:
                first_digest = checks.allocation_digest(o.allocation_exact)
        n_oracle, oracle_errors = checks.check_oracle_sample(d)
        problems.extend(oracle_errors)
        miniworld_error = checks.check_miniworld(root / "data" / "mini-world")
        if miniworld_error:
            problems.append(miniworld_error)
        if tracer is not None:
            shapley_layers, shares, stats = probe_shapley(tracer, d, GAMMA)
            layers.update(shapley_layers)
            ok = [o for o in outcomes if o.error is None]
            if ok and [str(v) for v in shares] != ok[0].allocation_exact:
                problems.append("per-tuple probe allocation differs from the requests'")
            if ok and asdict(stats) != ok[0].histogram:
                problems.append(f"per-tuple probe counted {asdict(stats)}, requests {ok[0].histogram}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if o.error is not None]
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "scenario": workload.scenario.to_dict(),
        "input_properties": props,
        "digest": first_digest,
        "recorded_digest": digest,
        "recorded_allocation": expected is not None,
        "oracle_tuples_checked": n_oracle,
        "problems": problems,
        "failures": [o.error for o in failed],
        "attempted": len(outcomes),
        "failed": len(failed),
        "measured_s": measured_s,
        "setup_seconds": [s.seconds for s in setups],
        "request_seconds": [o.seconds for o in outcomes],
        "request_traced": [o.traced for o in outcomes],
    }
    result["correct"] = not failed and not problems
    setup_s = setup_seconds([s.seconds for s in setups])
    untraced = [o for o in outcomes if not o.traced]
    if not trace:
        lat = [o.seconds for o in untraced if o.error is None] or [o.seconds for o in untraced]
        done = sum(o.n_tuples for o in untraced if o.error is None)
        result["latencies"] = lat
        result["tail"] = tail_percentile(lat)
        result["failed_share"] = len(failed) / len(outcomes)
        result["metrics"] = {
            "request_s.p50": (statistics.median(lat), "s"),
            "tuples_per_s": (done / sum(o.seconds for o in untraced), "tuples/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return result

    result["spans"] = tracer
    result["metrics"] = _layer_metrics(outcomes, layers, props, setups)
    return result


_TRACED_LAYERS = (
    "bench.load_assignment_s",
    "engine.evaluate_plan_s",
    "shapley.iusv_all_s",
    "bench.harness_s",
    "bench.report_s",
    "request.remainder_s",
)


def _median(values: list[float]) -> float:
    # A run whose requests all failed is reported as incorrect; its
    # metrics still need a number.
    return statistics.median(values) if values else 0.0


def _layer_metrics(outcomes, layers, props, setups) -> dict:
    traced = [o for o in outcomes if o.traced and o.layers is not None]
    m: dict[str, tuple[float, str]] = {}
    for name in _TRACED_LAYERS:
        m[name] = (_median([o.layers[name] for o in traced]), "s")
    m["bench.rows_loaded"] = (traced[0].layers["bench.rows_loaded"] if traced else 0, "count")
    traced_p50 = _median([o.seconds for o in traced])
    untraced_p50 = _median([o.seconds for o in outcomes if not o.traced and o.error is None])
    m["trace.request_s.p50"] = (traced_p50, "s")
    m["trace.untraced_request_s.p50"] = (untraced_p50, "s")
    m["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    m["trace.traced_requests"] = (len(traced), "count")
    for name in ("scan", "join", "project", "union"):
        m[f"engine.{name}_s"] = (layers[f"engine.{name}_s"], "s")
    for name in (
        "tuples", "witnesses", "witnesses_max", "owners_per_tuple_max",
        "distinct_witness_lists", "distinct_shapes",
    ):
        m[f"engine.{name}"] = (props[name], "count")
    m["engine.shape_repeat_share"] = (props["shape_repeat_share"], "ratio")
    for name, value in layers.items():
        if name.startswith("shapley."):
            m[name] = (value, "s" if name.endswith("_s") else "count")
    ok = next((o for o in outcomes if o.error is None), Outcome(0.0, False))
    for name in ("single_owner_only", "unique_multi", "general", "sc_calls", "sl_calls", "fallbacks"):
        m[f"shapley.{name}"] = (ok.histogram.get(name, 0), "count")
    for name in ("umos_rate", "sc_rate", "sl_rate"):
        m[f"shapley.{name}"] = (ok.metrics.get(name, 0.0), "ratio")
    m["datagen.generate_s"] = (statistics.median(s.generate_s for s in setups), "s")
    m["datagen.write_s"] = (statistics.median(s.write_s for s in setups), "s")
    return m


def write_record(result: dict, path: Path) -> None:
    """Write everything the run observed, spans included, as one JSON file."""
    record = dict(result)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    if "spans" in result:
        record["spans"] = result["spans"].records()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str))
