"""Correctness checks, all made outside the timed sections.

Every request's exact allocation must sum to the coalition set's total
utility and, at a workload's default seed, hash to the digest recorded in
``digests.json``. At every seed it must also equal the recorded allocation
with owners relabelled as set-up relabelled them. Independently of those
records, a fixed sample of tuples is checked against the brute-force oracle,
and the whole of the bundled mini-world against the subset-sum baseline.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from assemblage_shapley import (
    AssignmentScenario,
    CoalitionSet,
    UtilityEvaluator,
    brute_force_tuple_oracle,
    classify_tuple,
    evaluate_plan,
    generate_assignment,
    ingest_csv,
    iusv_all,
    iusv_tuple,
    load_plan,
    trad_shapley,
)

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Tuples per case checked against the oracle, and the owner count above
#: which a tuple is too costly for it (its cost is n * 2^(n-1) subsets).
ORACLE_SAMPLE = 8
ORACLE_MAX_OWNERS = 12


def allocation_digest(allocation_exact: list[str]) -> str:
    return hashlib.sha256(json.dumps(allocation_exact).encode()).hexdigest()


def recorded(workload: str, seed: int, owner_ids: list[int]) -> tuple[str | None, list[str] | None]:
    """The recorded digest (at the default seed only) and the exact allocation.

    ``digests.json`` holds each workload's allocation in the owner ids of the
    base assignment; ``owner_ids`` maps them to this seed's relabelled ids.
    """
    entry = json.loads(DIGESTS.read_text()).get(workload)
    if entry is None:
        return None, None
    expected: list[str] = [""] * len(entry["base_allocation"])
    for owner, share in enumerate(entry["base_allocation"]):
        expected[owner_ids[owner]] = share
    return (entry["sha256"] if seed == entry["seed"] else None), expected


def check_allocation(
    allocation_exact: list[str],
    n_tuples: int,
    d: CoalitionSet,
    digest: str | None,
    expected: list[str] | None,
) -> str | None:
    """Return why a request's allocation is wrong, or None if it is right."""
    if n_tuples != len(d):
        return f"report has {n_tuples} tuples, expected {len(d)}"
    if len(allocation_exact) != d.n_owners:
        return f"allocation covers {len(allocation_exact)} owners, expected {d.n_owners}"
    total = sum((Fraction(s) for s in allocation_exact), Fraction(0))
    if total != d.total_utility():
        return f"shares sum to {total}, expected {d.total_utility()}"
    if digest is not None and allocation_digest(allocation_exact) != digest:
        return f"allocation digest {allocation_digest(allocation_exact)} != recorded {digest}"
    if expected is not None and allocation_exact != expected:
        return "allocation differs from the recorded one, relabelled for this seed"
    return None


def oracle_sample(d: CoalitionSet) -> list[int]:
    """Evenly spaced tuple indices, up to ``ORACLE_SAMPLE`` per case."""
    by_case: dict[str, list[int]] = {}
    for i, t in enumerate(d.tuples):
        if len(t.syntheses.owners()) <= ORACLE_MAX_OWNERS:
            by_case.setdefault(type(classify_tuple(t.syntheses)).__name__, []).append(i)
    picked = []
    for idxs in by_case.values():
        step = max(1, len(idxs) // ORACLE_SAMPLE)
        picked.extend(idxs[::step][:ORACLE_SAMPLE])
    return sorted(picked)


def check_oracle_sample(d: CoalitionSet) -> tuple[int, list[str]]:
    """``iusv_tuple`` against ``brute_force_tuple_oracle`` on the sample."""
    errors = []
    picked = oracle_sample(d)
    for i in picked:
        t = d.tuples[i]
        got = iusv_tuple(t.syntheses, t.utility)
        want = brute_force_tuple_oracle(t.syntheses, t.utility)
        if got != want:
            errors.append(f"tuple {i} {t.values!r}: iusv {got} != oracle {want}")
    return len(picked), errors


def check_miniworld(data_dir: Path) -> str | None:
    """``iusv_all`` against ``trad_shapley`` on the bundled mini-world."""
    schema = json.loads((data_dir / "schema.json").read_text())
    tables = ingest_csv(
        [data_dir / f"{name}.csv" for name in ("customers", "orders", "items")], schema
    )
    assignment = generate_assignment(tables, AssignmentScenario.load(data_dir / "scenario.json"))
    plan = load_plan(data_dir / "plan.json")
    n = assignment.n_owners
    d = evaluate_plan(plan, assignment.tables, n_owners=n)
    fast = iusv_all(d).allocation.shares
    slow = trad_shapley(UtilityEvaluator(plan, assignment.tables, n_owners=n)).shares
    if fast != slow:
        return f"mini-world: iusv {fast} != trad {slow}"
    return None
