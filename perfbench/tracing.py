"""Spans recorded from outside the program, and the per-layer probes.

Nothing here changes the program under test. A traced request is the same
``cli.main`` call as an untraced one, with the layer functions that ``cli``
calls, and the ``evaluate_plan`` that ``bench.run_method`` calls before it
forks, wrapped in spans. ``iusv_all`` runs inside the harness's fork child,
which the parent cannot see, so its time is taken from the ``RunReport``
the child sends back. The finer engine and shapley layers are timed by
separate probes that call each layer's public functions in this process.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator
from unittest import mock

from assemblage_shapley import (
    CoalitionSet,
    EquiJoin,
    General,
    NaturalJoin,
    PlanNode,
    Project,
    Scan,
    SingleOwnerOnly,
    UniqueMultiOwner,
    Union,
    bench,
    classify_tuple,
    cli,
    evaluate_plan,
    iusv_tuple,
    shapley,
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)
    #: What the wrapped call returned; kept in memory, not written out.
    result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; the run writes :meth:`records` out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        rec = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._open[-1] if self._open else None,
            request=self.request,
            attrs=attrs,
        )
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: Span, **attrs) -> None:
        """Record a span measured elsewhere, such as in the fork child."""
        self.spans.append(Span(len(self.spans), name, start, end, parent.id, parent.request, attrs))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                rec.result = fn(*args, **kwargs)
                return rec.result

        return traced

    def records(self) -> list[dict]:
        return [
            {k: v for k, v in vars(s).items() if k != "result"} for s in self.spans
        ]


# --- the traced request --------------------------------------------------------

#: Functions that ``cli.main`` calls in the parent process, by layer.
_CLI_LAYERS = {
    "load_assignment": "bench.load_assignment",
    "load_plan": "plans.load_plan",
    "run_method": "bench.run_method",
    "reports_to_json": "bench.reports_to_json",
    "reports_to_csv": "bench.reports_to_csv",
}


def traced_request(tracer: Tracer, request_id: int, argv: list[str]) -> tuple[int, dict | None]:
    """Run one ``cli.main`` request with its layer calls wrapped in spans.

    Returns the exit code and, if the request succeeded, its layer times in
    seconds. ``engine.evaluate_plan_s`` is the wrapped ``evaluate_plan``
    call; the ``RunReport``'s ``assemble_seconds`` is kept on its span as a
    cross-check. ``shapley.iusv_all_s`` is the ``RunReport``'s
    ``runtime_seconds``, and ``bench.harness_s`` is the rest of
    ``run_method`` (fork, pipe, join).
    """
    tracer.request = request_id
    try:
        with ExitStack() as stack:
            for attr, name in _CLI_LAYERS.items():
                wrapped = tracer.wrap(name, getattr(cli, attr))
                stack.enter_context(mock.patch.object(cli, attr, wrapped))
            wrapped = tracer.wrap("engine.evaluate_plan", bench.evaluate_plan)
            stack.enter_context(mock.patch.object(bench, "evaluate_plan", wrapped))
            with tracer.span("cli.main") as root:
                rc = cli.main(argv)
    finally:
        tracer.request = None
    by_name = {s.name: s for s in tracer.spans if s.request == request_id}
    load, run = by_name.get("bench.load_assignment"), by_name.get("bench.run_method")
    tables, report = (load.result[0] if load else ()), (run.result if run else None)
    for span in by_name.values():
        span.result = None  # do not keep each request's tables alive
    if rc != 0:
        return rc, None
    assemble = by_name["engine.evaluate_plan"]
    assemble.attrs["assemble_seconds"] = report.assemble_seconds
    runtime = report.runtime_seconds
    tracer.add("shapley.iusv_all", run.end - runtime, run.end, run, derived=True, fork_child=True)
    layers = {
        "request_s": root.seconds,
        "bench.load_assignment_s": load.seconds,
        "bench.rows_loaded": sum(len(t) for t in tables),
        "engine.evaluate_plan_s": assemble.seconds,
        "shapley.iusv_all_s": runtime,
        "bench.harness_s": run.seconds - assemble.seconds - runtime,
        "bench.report_s": (
            by_name["bench.reports_to_json"].seconds + by_name["bench.reports_to_csv"].seconds
        ),
    }
    accounted = sum(v for k, v in layers.items() if k not in ("request_s", "bench.rows_loaded"))
    layers["request.remainder_s"] = root.seconds - accounted
    return rc, layers


# --- engine probe: plan evaluation per operator ---------------------------------

_OPERATOR = {Scan: "scan", Project: "project", NaturalJoin: "join", EquiJoin: "join", Union: "union"}


def _children(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, Project):
        return (node.child,)
    if isinstance(node, (NaturalJoin, EquiJoin)):
        return (node.left, node.right)
    if isinstance(node, Union):
        return tuple(node.children)
    return ()


def probe_engine(
    tracer: Tracer, plan: PlanNode, tables, n_owners: int, repeats: int = 3
) -> tuple[dict, CoalitionSet]:
    """Self time per operator: ``evaluate_plan`` on every sub-plan, minus children.

    Each sub-plan is evaluated ``repeats`` times and its median taken. Each
    evaluation ends with its own final witness pass and ``CoalitionSet``
    construction, so every operator's figure includes one such pass over its
    own output.
    """
    totals = {f"engine.{op}_s": 0.0 for op in sorted(set(_OPERATOR.values()))}
    root_result: list[CoalitionSet] = []

    def subtree(node: PlanNode) -> float:
        child_seconds = sum(subtree(c) for c in _children(node))
        op = _OPERATOR[type(node)]
        runs = []
        for _ in range(repeats):
            with tracer.span("engine.evaluate_plan", operator=op) as rec:
                d = evaluate_plan(node, tables, n_owners=n_owners)
            runs.append(rec.seconds)
        if node is plan:
            root_result.append(d)
        seconds = statistics.median(runs)
        totals[f"engine.{op}_s"] += seconds - child_seconds
        return seconds

    with tracer.span("probe.engine"):
        subtree(plan)
    return totals, root_result[0]


# --- shapley probe: per-tuple routes, SC/SL, aggregation --------------------------

_CASE_KEYS = {
    SingleOwnerOnly: "single_owner_only",
    UniqueMultiOwner: "unique_multi",
    General: "general",
}


def _minimal_masks(masks) -> list[int]:
    """Subset-minimal, deduplicated masks.

    A copy of the engine's private helper, so that a change to the engine
    cannot change how SC terms are counted.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _sc_terms(split) -> int:
    # shapley_sc runs one inclusion-exclusion over the owner's syntheses and,
    # if any synthesis lacks the owner, one over the pairwise unions.
    wu = [s.bits for s in split.w_u]
    terms = (1 << len(_minimal_masks(wu))) - 1
    if split.w_not_u:
        pairs = _minimal_masks(a | b.bits for a in wu for b in split.w_not_u)
        terms += (1 << len(pairs)) - 1
    return terms


def probe_shapley(
    tracer: Tracer, d: CoalitionSet, gamma: float = 1.0
) -> tuple[dict, tuple, shapley.CaseStats]:
    """Time ``classify_tuple`` and ``iusv_tuple`` per tuple, bucketed by case.

    ``shapley_sc`` and ``shapley_sl`` are wrapped at module level, so their
    time is also inside ``general_s``. ``aggregate_s`` times the per-owner
    ``Fraction`` additions that ``iusv_all`` does around ``iusv_tuple``.
    SC terms and SL subsets are computed from each successful call's inputs
    after the loop, not counted inside the program. Returns the layer
    metrics, the allocation and the case counts, for checking against the
    requests'.
    """
    seconds: Counter = Counter()
    routed: dict[str, list] = {"sc": [], "sl": []}
    real_sc, real_sl = shapley.shapley_sc, shapley.shapley_sl

    def sc(owner, split, utility, **kw):
        start = time.perf_counter()
        try:
            value = real_sc(owner, split, utility, **kw)
        finally:
            seconds["shapley.sc_s"] += time.perf_counter() - start
        routed["sc"].append(split)
        return value

    def sl(owner, s, utility, **kw):
        start = time.perf_counter()
        try:
            value = real_sl(owner, s, utility, **kw)
        finally:
            seconds["shapley.sl_s"] += time.perf_counter() - start
        routed["sl"].append(len(s.owners()))
        return value

    shares = [Fraction(0)] * d.n_owners
    stats = shapley.CaseStats()
    clock = time.perf_counter
    with tracer.span("probe.shapley") as rec, mock.patch.object(
        shapley, "shapley_sc", sc
    ), mock.patch.object(shapley, "shapley_sl", sl):
        for t in d.tuples:
            t0 = clock()
            case = classify_tuple(t.syntheses)
            t1 = clock()
            values = iusv_tuple(t.syntheses, t.utility, gamma, stats=stats)
            t2 = clock()
            for owner, v in values.items():
                shares[owner] += v
            t3 = clock()
            seconds["shapley.classify_s"] += t1 - t0
            seconds[f"shapley.{_CASE_KEYS[type(case)]}_s"] += t2 - t1
            seconds["shapley.aggregate_s"] += t3 - t2
    rec.attrs.update(seconds)

    sc_terms = [_sc_terms(split) for split in routed["sc"]]
    sl_subsets = [1 << (n - 1) for n in routed["sl"]]
    out = {
        name: float(seconds[name])
        for name in (
            "shapley.classify_s",
            "shapley.single_owner_only_s",
            "shapley.unique_multi_s",
            "shapley.general_s",
            "shapley.sc_s",
            "shapley.sl_s",
            "shapley.aggregate_s",
        )
    }
    out.update(
        {
            "shapley.sc_terms": sum(sc_terms),
            "shapley.sc_terms_max": max(sc_terms, default=0),
            "shapley.sl_subsets": sum(sl_subsets),
            "shapley.sl_subsets_max": max(sl_subsets, default=0),
        }
    )
    return out, tuple(shares), stats


# --- input properties -------------------------------------------------------------

def _shape(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Witness masks with owners relabelled to their rank within the tuple."""
    union = 0
    for m in masks:
        union |= m
    owners = [b for b in range(union.bit_length()) if union >> b & 1]
    return tuple(sorted(sum(1 << i for i, b in enumerate(owners) if m >> b & 1) for m in masks))


def input_properties(d: CoalitionSet) -> dict:
    """What the allocation's cost depends on: witness and owner counts, case mix,
    and how often general-case witness lists repeat."""
    witnesses: Counter = Counter()
    owners: Counter = Counter()
    cases: Counter = Counter()
    lists = set()
    shapes = set()
    for t in d.tuples:
        masks = t.syntheses.masks()
        witnesses[len(masks)] += 1
        owners[len(t.syntheses.owners())] += 1
        case = _CASE_KEYS[type(classify_tuple(t.syntheses))]
        cases[case] += 1
        if case == "general":
            lists.add(masks)
            shapes.add(_shape(masks))
    general = cases["general"]
    return {
        "tuples": len(d),
        "witness_count_hist": dict(sorted(witnesses.items())),
        "owners_per_tuple_hist": dict(sorted(owners.items())),
        "case_mix": {k: cases[k] for k in _CASE_KEYS.values()},
        "witnesses": sum(k * v for k, v in witnesses.items()),
        "witnesses_max": max(witnesses, default=0),
        "owners_per_tuple_max": max(owners, default=0),
        "distinct_witness_lists": len(lists),
        "distinct_shapes": len(shapes),
        "shape_repeat_share": 1 - len(shapes) / general if general else 0.0,
    }
