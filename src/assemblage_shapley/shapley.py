"""Per-tuple exact Shapley computation and the dispatching driver.

Because utility is additive over coalition tuples, each owner's Shapley value
is the sum of independent per-tuple values, and for one tuple only the owners
appearing in its minimal syntheses matter. Per tuple there are four routes:

* every minimal synthesis is a single owner: each of the ``m`` owners gets
  ``utility / m``;
* exactly one multi-owner synthesis of size ``m`` plus ``k`` single-owner
  syntheses: closed form via one binomial coefficient;
* otherwise, per owner, either the synthesis-combination (SC) route — an
  inclusion–exclusion over combinations of minimal syntheses, exponential in
  the synthesis counts — or the synthesis-look-up (SL) route — a look-up in
  a table of which subsets of the tuple's owners cover a synthesis,
  exponential in how many owners the minimal syntheses mention. One table
  (a bitset over the 2**n owner subsets) serves every SL-routed owner of a
  tuple. A hyper-parameter ``gamma`` picks between the routes.

Every route runs in one private core, :func:`_unit_values`, which reads a
tuple's masks with its owners relabelled to their rank among them and
returns each rank's value at utility 1. The public per-tuple functions are
thin wrappers over it. The driver :func:`iusv_all` computes each distinct
witness list (a tuple's antichain of minimal syntheses, the normal form of
its why-provenance) once: values are linear in the utility, so the tuples
that share a list contribute their utility sum times the list's unit values.
A shape cache further shares the core's result between lists that differ
only by an owner relabelling.

All arithmetic is exact (``Fraction``); binomials are exact integers. The
driver sums each owner's share as integer numerators keyed by denominator
and builds one ``Fraction`` per owner at the end, with
:func:`~assemblage_shapley.model.sum_parts`, as every exact total is built.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .engine import CoalitionSet, SynthesisSet, _minimal_masks
from .errors import CostLimitError
from .model import Allocation, OwnerSet, bit_indices, sum_parts

logger = logging.getLogger(__name__)

# The two caps are read where they are checked, when the check runs.
#: SC refuses inclusion-exclusion enumerations beyond this many terms.
DEFAULT_SC_MAX_TERMS = 2**24
#: SL refuses tuples whose minimal syntheses mention more owners than this.
DEFAULT_SL_MAX_OWNERS = 30
DEFAULT_GAMMA = 1.0


# --- tuple case classification ----------------------------------------------

@dataclass(frozen=True)
class SingleOwnerOnly:
    """All minimal syntheses are single owners; m counts them."""

    m: int


@dataclass(frozen=True)
class UniqueMultiOwner:
    """Exactly one multi-owner minimal synthesis of size m, plus k singles."""

    m: int
    k: int


@dataclass(frozen=True)
class General:
    """Two or more multi-owner minimal syntheses."""


TupleCase = SingleOwnerOnly | UniqueMultiOwner | General


def classify_tuple(s: SynthesisSet) -> TupleCase:
    return _classify(s.masks())


def _classify(masks: Sequence[int]) -> TupleCase:
    multi = [m for m in masks if m & (m - 1)]
    if not multi:
        return SingleOwnerOnly(m=len(masks))
    if len(multi) == 1:
        return UniqueMultiOwner(m=multi[0].bit_count(), k=len(masks) - 1)
    return General()


# --- closed forms -------------------------------------------------------------

def shapley_single_owner_only(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Closed form when every minimal synthesis is a single owner.

    The first of the ``m`` holders to appear in a random owner ordering
    contributes the tuple, so each holder gets ``utility / m``.
    """
    return _closed_form(s, utility, SingleOwnerOnly, "tuple is not single-owner-only")


def shapley_unique_multi(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Closed form for one multi-owner synthesis of size m plus k singles.

    A member of the multi-owner synthesis only contributes when it completes
    exactly that synthesis with no single holder already present, which pins
    both the subset size and count; balance and symmetry give the singles'
    share.
    """
    return _closed_form(s, utility, UniqueMultiOwner, "tuple has no unique multi-owner synthesis")


def _closed_form(
    s: SynthesisSet, utility: Fraction, case_type: type, refusal: str
) -> dict[int, Fraction]:
    """The per-owner values of a tuple of ``case_type``; any other tuple is a
    ``ValueError`` that starts with ``refusal``."""
    case = classify_tuple(s)
    if not isinstance(case, case_type):
        raise ValueError(f"{refusal}: {case}")
    return iusv_tuple(s, utility)


# --- synthesis-combination (SC) ----------------------------------------------

@dataclass(frozen=True)
class SynthesisSplit:
    """One owner's view of a tuple's minimal syntheses: with u vs without u."""

    owner: int
    w_u: tuple[OwnerSet, ...]
    w_not_u: tuple[OwnerSet, ...]

    @classmethod
    def for_owner(cls, s: SynthesisSet, owner: int) -> "SynthesisSplit":
        w_u = tuple(syn for syn in s if owner in syn)
        w_not_u = tuple(syn for syn in s if owner not in syn)
        return cls(owner=owner, w_u=w_u, w_not_u=w_not_u)

    @property
    def m_u(self) -> int:
        return len(self.w_u)

    @property
    def m_not_u(self) -> int:
        return len(self.w_not_u)


def _union_probability(masks: Sequence[int]) -> Fraction:
    """Inclusion-exclusion sum over non-empty subsets X of ``masks``:
    ``sum (-1)^(|X|+1) / popcount(union of X)``.

    This equals the probability that, in a uniformly random owner ordering,
    at least one of the given owner sets fully precedes a distinguished member
    they all contain -- which is why dropping supersets of other masks (and
    duplicates) first is sound: it leaves the union of events unchanged.

    Enumeration walks subsets in Gray-code order, maintaining per-owner
    membership counts so the union cardinality updates incrementally.
    """
    items = _minimal_masks(masks)
    w = len(items)
    if w == 0:
        return Fraction(0)
    terms = (1 << w) - 1
    if terms > DEFAULT_SC_MAX_TERMS:
        raise CostLimitError(
            f"inclusion-exclusion over {w} sets needs {terms} terms (cap {DEFAULT_SC_MAX_TERMS})"
        )
    universe = 0
    for m in items:
        universe |= m
    owner_pos = {o: i for i, o in enumerate(bit_indices(universe))}
    item_bits = [tuple(owner_pos[o] for o in bit_indices(m)) for m in items]

    counts = [0] * len(owner_pos)
    # coeff[c] = signed number of subsets whose union has cardinality c
    coeff = [0] * (len(owner_pos) + 1)
    card = 0
    size = 0
    prev_gray = 0
    for g in range(1, 1 << w):
        gray = g ^ (g >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        if gray >> bit & 1:
            size += 1
            for b in item_bits[bit]:
                counts[b] += 1
                if counts[b] == 1:
                    card += 1
        else:
            size -= 1
            for b in item_bits[bit]:
                counts[b] -= 1
                if counts[b] == 0:
                    card -= 1
        coeff[card] += 1 if size & 1 else -1
    return sum_parts({n: c for n, c in enumerate(coeff) if c and n})


def _sc(w_u: Sequence[int], w_not_u: Sequence[int]) -> Fraction:
    """SC value at utility 1 of an owner held by the syntheses ``w_u`` and
    missing from ``w_not_u`` (all masks)."""
    if not w_u:
        return Fraction(0)
    value = _union_probability(w_u)
    if w_not_u:
        value -= _union_probability([a | b for a in w_u for b in w_not_u])
    return value


def shapley_sc(owner: int, split: SynthesisSplit, utility: Fraction) -> Fraction:
    """Synthesis-combination value of ``owner`` for one tuple.

    The positive part sums, by inclusion-exclusion over subsets of the
    syntheses containing the owner, the probability that the owner completes
    one of them; the correction subtracts orderings where a synthesis without
    the owner is already complete, enumerated over pairs from both families.
    Cost is exponential in ``max(m_u, m_u * m_not_u)``; an enumeration over
    more than ``DEFAULT_SC_MAX_TERMS`` terms raises :class:`CostLimitError`
    so the driver can fall back to SL.
    """
    w_u = [s.bits for s in split.w_u]
    return utility * _sc(w_u, [s.bits for s in split.w_not_u])


# --- synthesis-look-up (SL) ---------------------------------------------------

#: The SL table keeps the subsets of at most this many owner ranks in one
#: Python int (2**16 bits, 8 KB); ranks above it are enumerated outside.
_SL_BLOCK_BITS = 16


@lru_cache(maxsize=None)
def _sl_masks(width: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2**width subsets of ``width`` ranks, bit S meaning
    subset S: for each rank b the subsets without b and those with b, and for
    each size k the subsets of size k."""
    # Adding rank b doubles the subsets: the new ones are the old shifted up
    # by 2**b, with b added.
    with_rank: list[int] = []
    layers = [1]
    for b in range(width):
        shift = 1 << b
        with_rank = [w | w << shift for w in with_rank] + [((1 << shift) - 1) << shift]
        layers = [
            (layers[k] if k <= b else 0) | (layers[k - 1] << shift if k else 0)
            for k in range(b + 2)
        ]
    full = (1 << (1 << width)) - 1
    return tuple(full ^ w for w in with_rank), tuple(with_rank), tuple(layers)


def _sl_table(local: Sequence[int]) -> tuple[Fraction, ...]:
    """SL values at utility 1 of every rank of a rank-relabelled tuple.

    Bit S of ``win`` says that the owner subset S covers some synthesis: set
    the bit of each synthesis mask, then close upwards one rank b at a time
    with ``win |= (win & without[b]) << 2**b``. Rank b completes the tuple on
    S (b not in S) iff S + b wins and S does not. Winning is monotone, so the
    number of such S of size k is ``c_k = with_counts[b][k + 1] +
    with_counts[b][k] - wins[k]``, where ``wins[k]`` counts the winning
    subsets of size k and ``with_counts[b][k]`` those of them that contain b.
    The value of b is ``1/n * sum_k c_k / C(n-1, k)``, summed exactly as
    integers over the common denominator ``n!``.

    Both counts are popcounts against the size layers, so the table is
    counted one block at a time: the lowest ``_SL_BLOCK_BITS`` ranks index
    the bits of a block, each subset H of the higher ranks is one block, and
    the block's sizes are offset by |H|. No int exceeds 2**_SL_BLOCK_BITS
    bits. Closing takes about n * 2**n bit operations and counting about
    n**2 popcounts over the same bits. More than ``DEFAULT_SL_MAX_OWNERS``
    owners raises :class:`CostLimitError` before any of it is built.
    """
    union = 0
    for m in local:
        union |= m
    n = union.bit_length()
    if n > DEFAULT_SL_MAX_OWNERS:
        raise CostLimitError(
            f"{n} synthesis owners exceeds the SL cap of {DEFAULT_SL_MAX_OWNERS}"
        )
    low_n = min(n, _SL_BLOCK_BITS)
    low_mask = (1 << low_n) - 1
    without, with_rank, layers = _sl_masks(low_n)
    wins = [0] * (n + 1)
    with_counts = [[0] * (n + 1) for _ in range(n)]
    for high in range(1 << (n - low_n)):
        win = 0
        for m in local:
            if not (m >> low_n) & ~high:
                win |= 1 << (m & low_mask)
        if not win:
            continue
        for b in range(low_n):
            win |= (win & without[b]) << (1 << b)
        high_ranks = [low_n + r for r in bit_indices(high)]
        for k, layer in enumerate(layers, start=high.bit_count()):
            x = win & layer
            if not x:
                continue
            count = x.bit_count()
            wins[k] += count
            for r in high_ranks:
                with_counts[r][k] += count
            for b in range(low_n):
                with_counts[b][k] += (x & with_rank[b]).bit_count()
    # 1 / (n * C(n-1, k)) = k! (n-1-k)! / n!
    weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
    return tuple(
        Fraction(
            sum(w * (counts[k + 1] + counts[k] - wins[k]) for k, w in enumerate(weights)),
            factorial(n),
        )
        for counts in with_counts
    )


def shapley_sl(owner: int, s: SynthesisSet, utility: Fraction) -> Fraction:
    """Synthesis-look-up value of ``owner`` for one tuple.

    Looks the owner's marginal contributions up in the tuple's coverage table
    over all subsets of its synthesis owners (:func:`_sl_table`): the owner
    completes the tuple on a subset S of the others iff some synthesis is
    covered by ``S + owner`` and none by ``S`` alone. The table serves every
    owner of the tuple at once; this returns one owner's entry. Cost is
    exponential in the number of synthesis owners; above
    ``DEFAULT_SL_MAX_OWNERS`` raises :class:`CostLimitError`.
    """
    owners, local = _rank_relabel(s)
    if owner not in owners:
        return Fraction(0)
    return utility * _sl_table(local)[owners.index(owner)]


# --- IUSV driver ---------------------------------------------------------------

@dataclass
class CaseStats:
    """Per-tuple case and per-owner algorithm counters for one driver run."""

    single_owner_only: int = 0
    unique_multi: int = 0
    general: int = 0
    sc_calls: int = 0
    sl_calls: int = 0
    fallbacks: int = 0

    @property
    def tuples(self) -> int:
        return self.single_owner_only + self.unique_multi + self.general

    @property
    def general_calls(self) -> int:
        return self.sc_calls + self.sl_calls

    def merge(self, other: "CaseStats", times: int = 1) -> None:
        """Add ``other``'s counts, ``times`` over."""
        self.single_owner_only += times * other.single_owner_only
        self.unique_multi += times * other.unique_multi
        self.general += times * other.general
        self.sc_calls += times * other.sc_calls
        self.sl_calls += times * other.sl_calls
        self.fallbacks += times * other.fallbacks


def iusv_tuple(
    s: SynthesisSet,
    utility: Fraction,
    gamma: float = DEFAULT_GAMMA,
    *,
    stats: CaseStats | None = None,
) -> dict[int, Fraction]:
    """Exact per-tuple Shapley values for every owner in a minimal synthesis.

    Dispatches to the closed forms when they apply; otherwise routes each
    owner to SC when the tuple's owner count exceeds
    ``gamma * max(m_u, m_u * m_not_u)`` and to SL when it does not. The
    tuple's SL table is built once, on its first SL-routed owner, and read for
    every other one. If the preferred route exceeds its budget (more than
    ``DEFAULT_SC_MAX_TERMS`` inclusion-exclusion terms for SC, more than
    ``DEFAULT_SL_MAX_OWNERS`` owners for SL) the other one is used
    silently; only a double failure raises, and a ``gamma`` that is
    not positive (NaN included) raises ``ValueError``. Owners outside every
    synthesis are omitted (their value is zero), and the returned values sum
    to ``utility`` exactly.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    owners, local = _rank_relabel(s)
    by_rank, delta = _unit_values(owners, local, gamma)
    if stats is not None:
        stats.merge(delta)
    return {owner: utility * v for owner, v in zip(owners, by_rank)}


def _unit_values(
    owners: Sequence[int], local: Sequence[int], gamma: float
) -> tuple[tuple[Fraction, ...], CaseStats]:
    """The values at utility 1 of every rank of a tuple, and its case counts.

    ``local`` is the tuple's witness list with each owner relabelled to its
    rank in ``owners`` (:func:`_rank_relabel`), so everything here depends on
    the list's shape alone; ``owners`` only names the global owner in a
    double budget failure.
    """
    stats = CaseStats()
    n_t = len(owners)
    case = _classify(local)
    if isinstance(case, SingleOwnerOnly):
        stats.single_owner_only = 1
        return (Fraction(1, n_t),) * n_t, stats
    if isinstance(case, UniqueMultiOwner):
        stats.unique_multi = 1
        m, k = case.m, case.k
        multi_share = Fraction(1, (m + k) * comb(m + k - 1, m - 1))
        single_share = (1 - m * multi_share) / k if k else None
        multi = local[-1]  # canonical order puts the one multi-owner mask last
        return tuple(multi_share if multi >> r & 1 else single_share for r in range(n_t)), stats

    stats.general = 1
    m_us = [0] * n_t  # by rank: how many syntheses hold the owner
    for m in local:
        for rank in bit_indices(m):
            m_us[rank] += 1
    sl_table = None  # built on the first SL-routed owner, then shared
    values = []
    for rank, m_u in enumerate(m_us):
        m_not_u = len(local) - m_u
        if n_t > gamma * max(m_u, m_u * m_not_u):
            routes = ("sc", "sl")
        else:
            routes = ("sl", "sc")
        for i, route in enumerate(routes):
            try:
                if route == "sc":
                    bit = 1 << rank
                    w_u = [m for m in local if m & bit]
                    value = _sc(w_u, [m for m in local if not m & bit])
                    stats.sc_calls += 1
                else:
                    if sl_table is None:
                        sl_table = _sl_table(local)
                    value = sl_table[rank]
                    stats.sl_calls += 1
            except CostLimitError:
                if i == 1:
                    raise CostLimitError(
                        f"both SC and SL exceed their budgets for owner {owners[rank]} "
                        f"(m_u={m_u}, m_not_u={m_not_u}, owners={n_t})"
                    ) from None
                continue
            stats.fallbacks += i  # the second route ran: the first was over budget
            break
        values.append(value)
    return tuple(values), stats


def _rank_relabel(s: SynthesisSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tuple's owners in ascending order, and its synthesis masks with each
    owner relabelled to its rank among them.

    Relabelling by rank is monotone, so it keeps both the cardinality and the
    bit order of the masks: the local masks are already in the engine's
    canonical (cardinality, bits) order and need no sort.
    """
    union = 0
    for m in s.masks():
        union |= m
    owners = tuple(bit_indices(union))
    rank_bit = {1 << owner: 1 << r for r, owner in enumerate(owners)}
    local = []
    for m in s.masks():  # one pass per mask, one step per member
        x = 0
        while m:
            low = m & -m
            x |= rank_bit[low]
            m ^= low
        local.append(x)
    return owners, tuple(local)


@dataclass(frozen=True)
class IusvResult:
    """The allocation of one :func:`iusv_all` run, its case counts, and how
    often a general-case tuple's shape was already in the run's cache."""

    allocation: Allocation
    stats: CaseStats
    shape_cache_hits: int = 0
    shape_cache_misses: int = 0


@dataclass(slots=True)
class _WitnessGroup:
    """The tuples of one :func:`iusv_all` run that share a witness list."""

    syntheses: SynthesisSet  # the first of them
    count: int = 0
    #: their utilities' numerators summed by denominator, so that grouping
    #: does no ``Fraction`` arithmetic
    utility_sums: defaultdict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: the list's owners, ascending, and their values at utility 1
    owners: tuple[int, ...] = ()
    unit: tuple[Fraction, ...] = ()


def iusv_all(
    d: CoalitionSet,
    gamma: float = DEFAULT_GAMMA,
    *,
    per_tuple: bool = False,
) -> IusvResult:
    """Exact Shapley allocation for a whole coalition set.

    Per-owner totals are sums of the independent per-tuple values. Per-tuple
    case statistics are collected for reporting. With ``per_tuple=True`` the
    allocation also carries every (tuple index, owner) contribution.

    A tuple's values depend only on its antichain of minimal syntheses (its
    witness list), and linearly on its utility. So the tuples are first
    grouped by witness list, in first-seen order, and each list is computed
    once, at utility 1. Since ``sum_t u_t * v = (sum_t u_t) * v``, an owner's
    share from a group is the group's utility sum times the owner's unit
    value; both are kept as integer numerators keyed by denominator, and each
    share becomes one ``Fraction`` at the end.

    Each list is relabelled once, and its shape (masks with owners relabelled
    to their rank in the tuple) is looked up in a cache that lives for this
    call. By the symmetry axiom, two antichains that differ by an owner
    relabelling get the same values, relabelled. So :func:`_unit_values` runs
    once per shape, on the first list that has it, and every list of that
    shape maps the per-rank values back to its owners. A list's case counts
    are replayed once per tuple, so ``stats`` are the same as computing tuple
    by tuple. The cache's hits and misses count general-case tuples only.
    Routing and both budgets depend only on the shape, and lists are visited
    in first-seen order, so a double budget failure still raises on the first
    tuple over both budgets, naming that tuple's owner. With ``per_tuple``, a
    second pass scales each tuple's unit values by its own utility.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    groups: dict[tuple[int, ...], _WitnessGroup] = {}
    for t in d.tuples:
        group = groups.get(key := t.syntheses.masks())
        if group is None:
            group = groups[key] = _WitnessGroup(t.syntheses)
        group.count += 1
        group.utility_sums[t.utility.denominator] += t.utility.numerator

    stats = CaseStats()
    # shape -> (values at utility 1 by owner rank, the shape's CaseStats)
    cache: dict[tuple[int, ...], tuple[tuple[Fraction, ...], CaseStats]] = {}
    # per owner: numerators of its share keyed by denominator
    parts: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(d.n_owners)]
    for group in groups.values():
        group.owners, key = _rank_relabel(group.syntheses)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = _unit_values(group.owners, key, gamma)
        group.unit, delta = entry
        stats.merge(delta, group.count)
        for owner, v in zip(group.owners, group.unit):
            vn, vd = v.numerator, v.denominator
            owner_parts = parts[owner]
            for ud, un in group.utility_sums.items():
                owner_parts[ud * vd] += un * vn
    shares = tuple(sum_parts(p) for p in parts)
    # each general shape's first tuple is a miss, every later one a hit
    misses = sum(shape_stats.general for _, shape_stats in cache.values())
    hits = stats.general - misses

    breakdown: dict[tuple[int, int], Fraction] | None = None
    if per_tuple:
        breakdown = {}
        for i, t in enumerate(d.tuples):
            group = groups[t.syntheses.masks()]
            for owner, v in zip(group.owners, group.unit):
                breakdown[(i, owner)] = t.utility * v
    logger.debug(
        "iusv_all: %d general tuples, shape cache %d hits, %d misses (one per distinct shape)",
        stats.general, hits, misses,
    )
    allocation = Allocation(shares=shares, per_tuple=breakdown)
    return IusvResult(
        allocation=allocation,
        stats=stats,
        shape_cache_hits=hits,
        shape_cache_misses=misses,
    )

