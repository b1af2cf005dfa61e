"""Reference Shapley implementations.

These are the slow, trustworthy routes: the textbook subset-sum formula over
re-executions of the coalition plan, permutation-based Monte-Carlo sampling,
and a per-tuple brute-force oracle used throughout the test suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from random import Random
from typing import Callable, Sequence

from .engine import CoalitionSet, OwnedTable, SynthesisSet, evaluate_plan, infer_n_owners, restrict_tables
from .errors import CostLimitError
from .model import Allocation, OwnerSet
from .plans import PlanNode

#: The subset-sum baseline refuses owner universes above this size.
DEFAULT_TRAD_MAX_OWNERS = 20
#: Named PRNG used for permutation sampling, recorded in report metadata.
PRNG_NAME = "random.Random (Mersenne Twister, sha512 string seeding)"


class UtilityEvaluator:
    """Total coalition utility as a function of the participating owner set.

    ``evaluate(S)`` re-runs the coalition plan over the tables restricted to
    the owners in ``S`` and sums the per-tuple utilities. Results are memoized
    by owner bit pattern: restricting to the same owners always yields the
    same coalition set.
    """

    def __init__(
        self,
        plan: PlanNode,
        tables: Sequence[OwnedTable],
        *,
        utility_fn: Callable[[tuple], Fraction] | None = None,
        n_owners: int | None = None,
    ):
        self.plan = plan
        self.tables = list(tables)
        self.utility_fn = utility_fn
        self.n_owners = infer_n_owners(tables) if n_owners is None else n_owners
        self.memo: dict[int, Fraction] = {0: Fraction(0)}
        self.calls = 0

    def evaluate(self, owners: OwnerSet | int) -> Fraction:
        bits = owners.bits if isinstance(owners, OwnerSet) else owners
        cached = self.memo.get(bits)
        if cached is not None:
            return cached
        self.calls += 1
        subset = OwnerSet(self.n_owners, bits)
        d = evaluate_plan(
            self.plan,
            restrict_tables(self.tables, subset),
            utility_fn=self.utility_fn,
            n_owners=self.n_owners,
        )
        value = d.total_utility()
        self.memo[bits] = value
        return value


def trad_shapley(ev: UtilityEvaluator) -> Allocation:
    """Exact Shapley values by subset enumeration over the whole owner set.

    For each owner u this averages the marginal ``evaluate(S + u) -
    evaluate(S)`` over all subsets S of the other owners, weighted by
    ``1 / (n * C(n-1, |S|))``. Exponentially many evaluator calls; refuses
    more than ``DEFAULT_TRAD_MAX_OWNERS`` owners.
    """
    n = ev.n_owners
    if n > DEFAULT_TRAD_MAX_OWNERS:
        raise CostLimitError(
            f"{n} owners exceeds the exact-baseline cap of {DEFAULT_TRAD_MAX_OWNERS}"
        )
    full = (1 << n) - 1
    shares = [Fraction(0)] * n
    for u in range(n):
        ubit = 1 << u
        others = full & ~ubit
        total = Fraction(0)
        # iterate all submasks of `others`, including 0
        sub = others
        while True:
            marginal = ev.evaluate(sub | ubit) - ev.evaluate(sub)
            if marginal:
                total += Fraction(marginal, comb(n - 1, sub.bit_count()))
            if sub == 0:
                break
            sub = (sub - 1) & others
        shares[u] = total / n
    return Allocation(shares=tuple(shares))


def _check_samples(samples: int) -> None:
    """Raise ``ValueError`` unless ``samples`` is at least one."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def perm_shapley(
    ev: UtilityEvaluator,
    samples: int = 16,
    seed: int = 0,
    *,
    exhaustive: bool = False,
) -> Allocation:
    """Monte-Carlo Shapley estimate from sampled owner permutations.

    Each sample draws one uniform permutation and walks its prefixes,
    charging every owner its marginal utility when appended. Sample ``i``
    uses an independent PRNG seeded from ``(seed, i)``, so a run is
    reproducible and parallelizable sample-by-sample. With
    ``exhaustive=True`` all permutations are enumerated instead, which
    recovers the exact value.
    """
    member_list = list(range(ev.n_owners))
    sums = [Fraction(0)] * ev.n_owners

    def walk(perm: Sequence[int]) -> None:
        prefix = 0
        prev = Fraction(0)
        for u in perm:
            prefix |= 1 << u
            cur = ev.evaluate(prefix)
            sums[u] += cur - prev
            prev = cur

    if exhaustive:
        count = 0
        for perm in itertools.permutations(member_list):
            walk(perm)
            count += 1
        assert count == factorial(len(member_list))
    else:
        _check_samples(samples)
        count = samples
        for i in range(samples):
            rng = Random(f"perm-shapley:{seed}:{i}")
            perm = member_list[:]
            rng.shuffle(perm)
            walk(perm)
    return Allocation(shares=tuple(v / count for v in sums))


def brute_force_tuple_oracle(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Per-tuple exact Shapley by direct subset enumeration.

    The owner universe shrinks to the owners mentioned by the minimal
    syntheses; a subset has the tuple's utility iff it covers some synthesis.
    This is the independent oracle the fast per-tuple routes are tested
    against. More than ``DEFAULT_TRAD_MAX_OWNERS`` synthesis owners raises
    :class:`CostLimitError`.
    """
    universe = s.owners()
    n = len(universe)
    if n > DEFAULT_TRAD_MAX_OWNERS:
        raise CostLimitError(
            f"{n} synthesis owners exceeds the oracle cap of {DEFAULT_TRAD_MAX_OWNERS}"
        )
    members = list(universe)
    pos = {o: i for i, o in enumerate(members)}
    local_masks = []
    for syn in s:
        m = 0
        for o in syn:
            m |= 1 << pos[o]
        local_masks.append(m)

    def covered(subset: int) -> bool:
        return any(subset & m == m for m in local_masks)

    out: dict[int, Fraction] = {}
    for u in members:
        ubit = 1 << pos[u]
        others = ((1 << n) - 1) & ~ubit
        counts = [0] * n
        sub = others
        while True:
            if covered(sub | ubit) and not covered(sub):
                counts[sub.bit_count()] += 1
            if sub == 0:
                break
            sub = (sub - 1) & others
        total = sum(
            (Fraction(c, comb(n - 1, size)) for size, c in enumerate(counts) if c),
            Fraction(0),
        )
        out[u] = utility * total / n
    return out
