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
  the synthesis counts — or the synthesis-look-up (SL) route — a subset
  enumeration over the tuple's owners, exponential in how many owners the
  minimal syntheses mention. A hyper-parameter ``gamma`` picks between them.

All arithmetic is exact (``Fraction``); binomials are exact integers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .engine import CoalitionSet, SynthesisSet, _minimal_masks
from .errors import CostLimitError
from .model import Allocation, OwnerSet

logger = logging.getLogger(__name__)

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
    multi = [syn for syn in s if len(syn) >= 2]
    if not multi:
        return SingleOwnerOnly(m=len(s))
    if len(multi) == 1:
        return UniqueMultiOwner(m=len(multi[0]), k=len(s) - 1)
    return General()


# --- closed forms -------------------------------------------------------------

def shapley_single_owner_only(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Closed form when every minimal synthesis is a single owner.

    The first of the ``m`` holders to appear in a random owner ordering
    contributes the tuple, so each holder gets ``utility / m``.
    """
    case = classify_tuple(s)
    if not isinstance(case, SingleOwnerOnly):
        raise ValueError(f"tuple is not single-owner-only: {case}")
    return _single_owner_only(s, case, utility)


def _single_owner_only(
    s: SynthesisSet, case: SingleOwnerOnly, utility: Fraction
) -> dict[int, Fraction]:
    share = utility / case.m
    return {next(iter(syn)): share for syn in s}


def shapley_unique_multi(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Closed form for one multi-owner synthesis of size m plus k singles.

    A member of the multi-owner synthesis only contributes when it completes
    exactly that synthesis with no single holder already present, which pins
    both the subset size and count; balance and symmetry give the singles'
    share.
    """
    case = classify_tuple(s)
    if not isinstance(case, UniqueMultiOwner):
        raise ValueError(f"tuple has no unique multi-owner synthesis: {case}")
    return _unique_multi(s, case, utility)


def _unique_multi(
    s: SynthesisSet, case: UniqueMultiOwner, utility: Fraction
) -> dict[int, Fraction]:
    m, k = case.m, case.k
    multi_share = utility / ((m + k) * comb(m + k - 1, m - 1))
    out: dict[int, Fraction] = {}
    single_share = (utility - m * multi_share) / k if k else None
    for syn in s:
        if len(syn) >= 2:
            for owner in syn:
                out[owner] = multi_share
        else:
            out[next(iter(syn))] = single_share
    return out


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


def _union_probability(masks: Sequence[int], max_terms: int) -> Fraction:
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
    if terms > max_terms:
        raise CostLimitError(
            f"inclusion-exclusion over {w} sets needs {terms} terms (cap {max_terms})"
        )
    universe = 0
    for m in items:
        universe |= m
    owner_pos = {o: i for i, o in enumerate(_bit_indices(universe))}
    item_bits = [tuple(owner_pos[o] for o in _bit_indices(m)) for m in items]

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
    return sum((Fraction(c, n) for n, c in enumerate(coeff) if c and n), Fraction(0))


def _bit_indices(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def shapley_sc(
    owner: int,
    split: SynthesisSplit,
    utility: Fraction,
    *,
    max_terms: int = DEFAULT_SC_MAX_TERMS,
) -> Fraction:
    """Synthesis-combination value of ``owner`` for one tuple.

    The positive part sums, by inclusion-exclusion over subsets of the
    syntheses containing the owner, the probability that the owner completes
    one of them; the correction subtracts orderings where a synthesis without
    the owner is already complete, enumerated over pairs from both families.
    Cost is exponential in ``max(m_u, m_u * m_not_u)``; exceeding ``max_terms``
    raises :class:`CostLimitError` so the driver can fall back to SL.
    """
    if split.m_u == 0:
        return Fraction(0)
    wu = [s.bits for s in split.w_u]
    value = _union_probability(wu, max_terms)
    if split.m_not_u:
        pairs = [a | b.bits for a in wu for b in split.w_not_u]
        value -= _union_probability(pairs, max_terms)
    return utility * value


# --- synthesis-look-up (SL) ---------------------------------------------------

def shapley_sl(
    owner: int,
    s: SynthesisSet,
    utility: Fraction,
    *,
    max_owners: int = DEFAULT_SL_MAX_OWNERS,
) -> Fraction:
    """Synthesis-look-up value of ``owner`` for one tuple.

    Enumerates the subsets S of the tuple's other synthesis owners and checks
    the owner's marginal contribution against the materialized syntheses: the
    owner completes the tuple iff some synthesis containing it is covered by
    ``S + owner`` while no synthesis without it is covered by ``S`` alone.
    Cost is exponential in the number of synthesis owners; above
    ``max_owners`` raises :class:`CostLimitError`.
    """
    universe = s.owners()
    if owner not in universe:
        return Fraction(0)
    n = len(universe)
    if n > max_owners:
        raise CostLimitError(f"{n} synthesis owners exceeds the SL cap of {max_owners}")
    others = [o for o in universe if o != owner]
    pos = {o: i for i, o in enumerate(others)}

    def remap(bits: int) -> int:
        out = 0
        for o in _bit_indices(bits):
            out |= 1 << pos[o]
        return out

    with_owner = [remap(syn.bits & ~(1 << owner)) for syn in s if owner in syn]
    without_owner = [remap(syn.bits) for syn in s if owner not in syn]

    # counts[c] = number of qualifying subsets S with |S| = c
    counts = [0] * n
    for smask in range(1 << (n - 1)):
        ok = False
        for wmask in with_owner:
            if smask & wmask == wmask:
                ok = True
                break
        if not ok:
            continue
        for wmask in without_owner:
            if smask & wmask == wmask:
                ok = False
                break
        if ok:
            counts[smask.bit_count()] += 1
    total = sum(
        (Fraction(c, comb(n - 1, size)) for size, c in enumerate(counts) if c),
        Fraction(0),
    )
    return utility * total / n


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

    def merge(self, other: "CaseStats") -> None:
        self.single_owner_only += other.single_owner_only
        self.unique_multi += other.unique_multi
        self.general += other.general
        self.sc_calls += other.sc_calls
        self.sl_calls += other.sl_calls
        self.fallbacks += other.fallbacks


def iusv_tuple(
    s: SynthesisSet,
    utility: Fraction,
    gamma: float = DEFAULT_GAMMA,
    *,
    stats: CaseStats | None = None,
    sc_max_terms: int = DEFAULT_SC_MAX_TERMS,
    sl_max_owners: int = DEFAULT_SL_MAX_OWNERS,
) -> dict[int, Fraction]:
    """Exact per-tuple Shapley values for every owner in a minimal synthesis.

    Dispatches to the closed forms when they apply; otherwise routes each
    owner to SC when the tuple's owner count exceeds
    ``gamma * max(m_u, m_u * m_not_u)`` and to SL when it does not. If the
    preferred route exceeds its budget the other one is used silently; only a
    double failure raises. Owners outside every synthesis are omitted (their
    value is zero), and the returned values sum to ``utility`` exactly.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _tuple_values(
        s, classify_tuple(s), utility, gamma, stats, sc_max_terms, sl_max_owners
    )


def _tuple_values(
    s: SynthesisSet,
    case: TupleCase,
    utility: Fraction,
    gamma: float,
    stats: CaseStats | None,
    sc_max_terms: int,
    sl_max_owners: int,
) -> dict[int, Fraction]:
    """:func:`iusv_tuple` for a tuple already classified as ``case``."""
    if isinstance(case, SingleOwnerOnly):
        if stats is not None:
            stats.single_owner_only += 1
        return _single_owner_only(s, case, utility)
    if isinstance(case, UniqueMultiOwner):
        if stats is not None:
            stats.unique_multi += 1
        return _unique_multi(s, case, utility)

    if stats is not None:
        stats.general += 1
    n_t = len(s.owners())
    out: dict[int, Fraction] = {}
    for owner in s.owners():
        split = SynthesisSplit.for_owner(s, owner)
        prefer_sc = n_t > gamma * max(split.m_u, split.m_u * split.m_not_u)
        if prefer_sc:
            routes = ("sc", "sl")
        else:
            routes = ("sl", "sc")
        value = None
        for i, route in enumerate(routes):
            try:
                if route == "sc":
                    value = shapley_sc(owner, split, utility, max_terms=sc_max_terms)
                else:
                    value = shapley_sl(owner, s, utility, max_owners=sl_max_owners)
            except CostLimitError:
                if i == 1:
                    raise CostLimitError(
                        f"both SC and SL exceed their budgets for owner {owner} "
                        f"(m_u={split.m_u}, m_not_u={split.m_not_u}, owners={n_t})"
                    ) from None
                continue
            if stats is not None:
                if route == "sc":
                    stats.sc_calls += 1
                else:
                    stats.sl_calls += 1
                if i == 1:
                    stats.fallbacks += 1
            break
        out[owner] = value
    return out


def _shape_key(s: SynthesisSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tuple's owners in ascending order, and its synthesis masks with each
    owner relabelled to its rank among them.

    Relabelling by rank is monotone, so it keeps both the cardinality and the
    bit order of the masks: the local masks are already in the engine's
    canonical (cardinality, bits) order and need no sort.
    """
    masks = s.masks()
    union = 0
    for m in masks:
        union |= m
    owners = []
    local = [0] * len(masks)
    rank_bit = 1
    while union:
        low = union & -union
        for j, m in enumerate(masks):
            if m & low:
                local[j] |= rank_bit
        owners.append(low.bit_length() - 1)
        union ^= low
        rank_bit <<= 1
    return tuple(owners), tuple(local)


@dataclass(frozen=True)
class IusvResult:
    """The allocation of one :func:`iusv_all` run, its case counts, and how
    often a general-case tuple's shape was already in the run's cache."""

    allocation: Allocation
    stats: CaseStats
    shape_cache_hits: int = 0
    shape_cache_misses: int = 0


def iusv_all(
    d: CoalitionSet,
    gamma: float = DEFAULT_GAMMA,
    *,
    per_tuple: bool = False,
    sc_max_terms: int = DEFAULT_SC_MAX_TERMS,
    sl_max_owners: int = DEFAULT_SL_MAX_OWNERS,
) -> IusvResult:
    """Exact Shapley allocation for a whole coalition set.

    Per-owner totals are sums of the independent per-tuple values. Per-tuple
    case statistics are collected for reporting. With ``per_tuple=True`` the
    allocation also carries every (tuple index, owner) contribution.

    General-case tuples go through a shape cache that lives for this call. A
    tuple's values depend only on its antichain of minimal syntheses, and
    linearly on its utility; by the symmetry axiom, two antichains that differ
    by an owner relabelling get the same values, relabelled. So each shape
    (masks with owners relabelled to their rank in the tuple) is computed once,
    at utility 1, on the first tuple that has it; every tuple of that shape
    then scales the per-rank values by its utility and maps ranks back to its
    owners. The shape's case counts are replayed per tuple, so ``stats`` is
    the same as without the cache. Routing and both budgets depend only on
    the shape, so a double budget failure still raises on the first tuple of
    a shape, naming that tuple's owner.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    shares = [Fraction(0)] * d.n_owners
    breakdown: dict[tuple[int, int], Fraction] | None = {} if per_tuple else None
    stats = CaseStats()
    # shape -> (values at utility 1 by owner rank, the shape's CaseStats)
    cache: dict[tuple[int, ...], tuple[tuple[Fraction, ...], CaseStats]] = {}
    hits = 0
    for i, t in enumerate(d.tuples):
        s = t.syntheses
        case = classify_tuple(s)
        if isinstance(case, General):
            owners, key = _shape_key(s)
            entry = cache.get(key)
            if entry is None:
                delta = CaseStats()
                unit = _tuple_values(
                    s, case, Fraction(1), gamma, delta, sc_max_terms, sl_max_owners
                )
                entry = cache[key] = (tuple(unit[o] for o in owners), delta)
            else:
                hits += 1
            by_rank, delta = entry
            stats.merge(delta)
            values = {o: t.utility * v for o, v in zip(owners, by_rank)}
        else:
            values = _tuple_values(
                s, case, t.utility, gamma, stats, sc_max_terms, sl_max_owners
            )
        for owner, v in values.items():
            shares[owner] += v
            if breakdown is not None:
                breakdown[(i, owner)] = v
    logger.debug(
        "iusv_all: %d general tuples, shape cache %d hits, %d misses (one per distinct shape)",
        stats.general, hits, len(cache),
    )
    allocation = Allocation(shares=tuple(shares), per_tuple=breakdown)
    return IusvResult(
        allocation=allocation,
        stats=stats,
        shape_cache_hits=hits,
        shape_cache_misses=len(cache),
    )
