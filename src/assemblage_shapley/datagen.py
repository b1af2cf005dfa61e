"""Synthetic owner/record assignment for benchmark scenarios.

Splits a relational dataset among data owners in three steps: decide how many
owners each table gets (equal per table, or concentrated on the largest),
decide how many copies of each record exist (Zipf-distributed with a hard
cap), then deal the copies out to owners (uniformly, or Zipf-weighted so a
few owners hold most records). Everything is a pure function of the scenario
and its seed.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from random import Random
from typing import Mapping, Sequence

from . import model
from .engine import OwnedTable, SourceTable
from .errors import read_json

OWNER_MODES = ("EO", "UO")
ASSIGN_MODES = ("EA", "UA")

#: The values a scenario field of each annotated type accepts; never a ``bool``.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}


@dataclass(frozen=True)
class AssignmentScenario:
    """Configuration of the synthetic owner/record assignment generator.

    ``k`` is the owner count for the governing table(s); ``alpha`` shapes the
    copy-count distribution (larger = fewer copies), truncated at
    ``max_copies``; ``beta`` shapes the owner weights in UA mode. Tables with
    fewer than ``small_table_threshold`` rows get a single owner in EO mode.
    """

    owner_mode: str = "EO"
    assign_mode: str = "EA"
    k: int = 5
    alpha: float = 4.0
    max_copies: int = 3
    beta: float = 3.0
    small_table_threshold: int = 100
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        if self.owner_mode not in OWNER_MODES:
            raise ValueError(f"owner_mode must be one of {OWNER_MODES}, got {self.owner_mode!r}")
        if self.assign_mode not in ASSIGN_MODES:
            raise ValueError(f"assign_mode must be one of {ASSIGN_MODES}, got {self.assign_mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {self.max_copies}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "AssignmentScenario":
        return cls(**data)

    @classmethod
    def load(cls, path) -> "AssignmentScenario":
        """The scenario in the JSON file ``path``; a file that is not JSON or
        not a valid scenario is an :class:`IngestError` naming it."""
        return read_json(path, "scenario", cls.from_dict)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def assign_owner_counts(
    tables: Sequence[SourceTable], scenario: AssignmentScenario
) -> dict[str, int]:
    """Number of owners per logical table.

    EO gives every table ``k`` owners, except tables below the small-table
    threshold, which get one. UO gives ``k`` to the largest table and 2 to
    every other.
    """
    if not tables:
        raise ValueError("no tables to assign")
    if scenario.owner_mode == "EO":
        return {
            t.name: 1 if len(t) < scenario.small_table_threshold else scenario.k
            for t in tables
        }
    largest = max(tables, key=len)
    return {t.name: scenario.k if t.name == largest.name else 2 for t in tables}


@lru_cache(maxsize=64)
def _copy_count_cdf(alpha: float, max_copies: int) -> tuple[float, ...]:
    weights = [c ** -alpha for c in range(1, max_copies + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


def sample_copy_count(alpha: float, max_copies: int, rng: Random) -> int:
    """Draw a copy count c in 1..max_copies with P(c) proportional to c^-alpha."""
    if max_copies == 1:
        return 1
    cdf = _copy_count_cdf(alpha, max_copies)
    return bisect_right(cdf, rng.random()) + 1


def _weighted_sample_without_replacement(
    population: Sequence[int], weights: Sequence[float], count: int, rng: Random
) -> list[int]:
    remaining = list(population)
    w = list(weights)
    picked = []
    for _ in range(count):
        total = sum(w)
        x = rng.random() * total
        acc = 0.0
        idx = len(remaining) - 1
        for i, wi in enumerate(w):
            acc += wi
            if x < acc:
                idx = i
                break
        picked.append(remaining.pop(idx))
        w.pop(idx)
    return picked


def assign_records(
    table: SourceTable,
    owner_ids: Sequence[int],
    copies: Sequence[int],
    assign_mode: str,
    beta: float,
    rng: Random,
) -> list[OwnedTable]:
    """Deal each row's copies out to distinct owners.

    EA picks uniformly; UA picks by rank weights proportional to
    ``(rank+1)^-beta`` over the table's owner list, so earlier owners hold
    most records. Copy counts above the owner count are clamped: an owner
    never holds two copies of one row.
    """
    if assign_mode not in ASSIGN_MODES:
        raise ValueError(f"assign_mode must be one of {ASSIGN_MODES}, got {assign_mode!r}")
    k = len(owner_ids)
    rows_by_owner: dict[int, list[tuple]] = {o: [] for o in owner_ids}
    ua_weights = [(rank + 1) ** -beta for rank in range(k)]
    for row, c in zip(table.rows, copies):
        c = min(c, k)
        if c == k:
            holders = list(owner_ids)
        elif assign_mode == "EA":
            holders = rng.sample(owner_ids, c)
        else:
            holders = _weighted_sample_without_replacement(owner_ids, ua_weights, c, rng)
        for o in holders:
            rows_by_owner[o].append(row)
    return [
        OwnedTable(table=table.name, owner=o, schema=table.schema, rows=tuple(rows))
        for o, rows in rows_by_owner.items()
    ]


@dataclass(frozen=True)
class Assignment:
    """The owned tables produced for one scenario, plus owner bookkeeping."""

    tables: tuple[OwnedTable, ...]
    n_owners: int
    owners_by_table: dict[str, tuple[int, ...]]
    scenario: AssignmentScenario


def generate_assignment(tables: Sequence[SourceTable], scenario: AssignmentScenario) -> Assignment:
    """Run the full three-step protocol over ``tables``.

    Owner ids are dense and contiguous, blocked per table in input order.
    Each table uses an RNG derived from the scenario seed and the table name,
    so results do not depend on processing order. More than
    ``model.DEFAULT_MAX_OWNERS`` owners in all raises ``ValueError``.
    """
    counts = assign_owner_counts(tables, scenario)
    n_owners = sum(counts.values())
    if n_owners > (cap := model.DEFAULT_MAX_OWNERS):
        raise ValueError(f"{n_owners} owners exceeds the cap of {cap}")
    owned: list[OwnedTable] = []
    owners_by_table: dict[str, tuple[int, ...]] = {}
    next_owner = 0
    for t in tables:
        k = counts[t.name]
        owner_ids = tuple(range(next_owner, next_owner + k))
        next_owner += k
        owners_by_table[t.name] = owner_ids
        rng = Random(f"assign:{scenario.seed}:{t.name}")
        copies = [
            sample_copy_count(scenario.alpha, scenario.max_copies, rng) for _ in t.rows
        ]
        owned.extend(
            assign_records(t, owner_ids, copies, scenario.assign_mode, scenario.beta, rng)
        )
    return Assignment(
        tables=tuple(owned),
        n_owners=n_owners,
        owners_by_table=owners_by_table,
        scenario=scenario,
    )
