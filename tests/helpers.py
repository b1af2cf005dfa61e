"""Shared test fixtures: independent oracles and random instance builders."""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from assemblage_shapley import (
    AssignmentScenario,
    EquiJoin,
    NaturalJoin,
    OwnedTable,
    OwnerSet,
    PlanError,
    PlanNode,
    Project,
    Scan,
    SourceTable,
    SynthesisSet,
    Union,
    generate_assignment,
    minimalize,
)
from assemblage_shapley.plans import plan_layout


def permutation_oracle(s: SynthesisSet, utility: Fraction) -> dict[int, Fraction]:
    """Exact per-tuple Shapley by enumerating every permutation of the
    tuple's synthesis owners and averaging marginal contributions.

    Completely independent of the subset-form implementations: it walks
    prefixes and evaluates coverage directly.
    """
    members = list(s.owners())
    masks = s.masks()

    def covered(bits: int) -> bool:
        return any(bits & m == m for m in masks)

    totals = {u: Fraction(0) for u in members}
    count = 0
    for perm in itertools.permutations(members):
        bits = 0
        for u in perm:
            before = covered(bits)
            bits |= 1 << u
            if not before and covered(bits):
                totals[u] += utility
        count += 1
    return {u: v / count for u, v in totals.items()}


def random_synthesis_set(
    rng: Random, max_owners: int = 10, max_syntheses: int = 6
) -> SynthesisSet:
    """A random minimal (antichain) synthesis set over a small universe."""
    width = rng.randint(2, max_owners)
    count = rng.randint(1, max_syntheses)
    masks = []
    for _ in range(count):
        size = rng.randint(1, min(4, width))
        masks.append(OwnerSet.from_indices(width, rng.sample(range(width), size)))
    return minimalize(masks)


def example_counter_tables() -> tuple:
    """Three owners where one row bridges two interchangeable partners.

    Owner 0 holds (a, b); owners 1 and 2 hold identical (b, c) tables. The
    plan joins owner 0's table with each partner table and unions the
    results, so the only coalition tuple (a, b, c) has two minimal
    syntheses {0,1} and {0,2}.
    """
    t_left = OwnedTable("left", 0, ("A", "B"), (("a", "b"),))
    t_mid = OwnedTable("mid", 1, ("B", "C"), (("b", "c"),))
    t_right = OwnedTable("right", 2, ("B", "C"), (("b", "c"),))
    plan = Union(
        (
            NaturalJoin(Scan("left"), Scan("mid")),
            NaturalJoin(Scan("left"), Scan("right")),
        )
    )
    return plan, [t_left, t_mid, t_right]


def example_mapping_tables() -> tuple:
    """Two interest tables bridged by a shared mapping table (three owners)."""
    t1 = OwnedTable("interest_products", 0, ("cpi", "product"), ((10093, "911 Targa"),))
    t2 = OwnedTable("interest_brands", 1, ("cpi", "brand"), ((10093, "Audi"),))
    t3 = OwnedTable(
        "mapping",
        2,
        ("product", "brand", "company"),
        (("A6", "Audi", "Volkswagen"), ("911 Targa", "Porsche", "Volkswagen")),
    )
    plan = Union(
        (
            Project(NaturalJoin(Scan("interest_products"), Scan("mapping")), ("cpi", "company")),
            Project(NaturalJoin(Scan("interest_brands"), Scan("mapping")), ("cpi", "company")),
        )
    )
    return plan, [t1, t2, t3]


def random_mini_dataset(rng: Random, max_owners: int = 8) -> tuple:
    """A small random two-table instance split among at most ``max_owners``.

    Returns (plan, owned_tables, n_owners). Join keys are drawn from a small
    domain so the join actually produces output; owner assignment reuses the
    synthetic protocol with a scenario seeded from ``rng``.
    """
    n_keys = rng.randint(2, 5)
    keys = [f"k{i}" for i in range(n_keys)]
    t1_rows = tuple(
        (f"p{i}", rng.choice(keys)) for i in range(rng.randint(4, 14))
    )
    t2_rows = tuple(
        (k, f"v{rng.randint(0, 2)}") for k in keys for _ in range(rng.randint(1, 2))
    )
    facts = SourceTable("facts", ("pk", "fk"), t1_rows)
    dims = SourceTable("dims", ("fk", "attr"), t2_rows)
    k1 = rng.randint(1, max_owners - 2)
    k2 = rng.randint(1, max_owners - k1 - 1) if max_owners - k1 - 1 >= 1 else 1
    scenario = AssignmentScenario(
        owner_mode="EO",
        assign_mode=rng.choice(["EA", "UA"]),
        k=max(k1, k2),
        alpha=rng.choice([2.0, 4.0]),
        max_copies=rng.randint(1, 3),
        beta=3.0,
        small_table_threshold=0,
        seed=rng.randint(0, 10**6),
    )
    # per-table owner counts: reuse the protocol but shrink by hand so the
    # two tables can have different counts while staying under max_owners
    scenario_a = AssignmentScenario(**{**scenario.to_dict(), "k": k1})
    scenario_b = AssignmentScenario(**{**scenario.to_dict(), "k": k2})
    part_a = generate_assignment([facts], scenario_a)
    part_b = generate_assignment([dims], scenario_b)
    shifted = [
        OwnedTable(t.table, t.owner + part_a.n_owners, t.schema, t.rows)
        for t in part_b.tables
    ]
    tables = list(part_a.tables) + shifted
    n_owners = part_a.n_owners + part_b.n_owners
    join = NaturalJoin(Scan("facts"), Scan("dims"))
    if rng.random() < 0.5:
        plan = Project(join, ("pk", "attr"))
    else:
        plan = Project(join, ("fk", "attr"))
    return plan, tables, n_owners


#: The tables of :func:`random_owned_tables`: schemas, manifest cell types and
#: the small domain each attribute draws from, so that joins and filters match.
RANDOM_SCHEMAS = {"a": ("k", "v", "p"), "b": ("k", "w", "p"), "c": ("v", "w")}
RANDOM_TYPES = {"a": {"k": "integer", "p": "decimal"}, "b": {"k": "integer", "p": "decimal"}}
RANDOM_DOMAINS = {
    "k": (0, 1, 2, 3),
    "v": ("v0", "v1", "v2"),
    "w": ("w0", "w1"),
    "p": (Fraction(0), Fraction(1, 2), Fraction(3, 2)),
}


def random_owned_tables(rng: Random, n_owners: int = 5) -> list[OwnedTable]:
    """Small random tables ``a``, ``b`` and ``c`` of :data:`RANDOM_SCHEMAS`,
    each row held by one or two of ``n_owners`` owners."""
    held: dict[tuple[str, int], list[tuple]] = {}
    for name, schema in RANDOM_SCHEMAS.items():
        for _ in range(rng.randint(1, 8)):
            row = tuple(rng.choice(RANDOM_DOMAINS[a]) for a in schema)
            for owner in rng.sample(range(n_owners), rng.randint(1, 2)):
                held.setdefault((name, owner), []).append(row)
    return [
        OwnedTable(name, owner, RANDOM_SCHEMAS[name], tuple(rows))
        for (name, owner), rows in sorted(held.items())
    ]


def random_plan(rng: Random, depth: int = 3) -> PlanNode:
    """A random plan over :data:`RANDOM_SCHEMAS` that type-checks: filtered
    scans, projections, natural joins, equi-joins and unions, in which a
    table may be scanned more than once."""
    while True:
        try:
            plan = _random_node(rng, depth)
            plan_layout(plan, RANDOM_SCHEMAS)
            return plan
        except PlanError:
            continue


def _random_node(rng: Random, depth: int) -> PlanNode:
    ops = ("scan", "project", "natural_join", "equi_join", "union")
    op = rng.choice(ops if depth else ("scan",))
    if op == "scan":
        table = rng.choice(sorted(RANDOM_SCHEMAS))
        where = ()
        if rng.random() < 0.3:
            attr = rng.choice(RANDOM_SCHEMAS[table])
            where = ((attr, rng.choice(RANDOM_DOMAINS[attr])),)
        return Scan(table, where)
    if op == "project":
        child = _random_node(rng, depth - 1)
        schema = plan_layout(child, RANDOM_SCHEMAS).schema
        return Project(child, tuple(rng.sample(schema, rng.randint(1, len(schema)))))
    left, right = _random_node(rng, depth - 1), _random_node(rng, depth - 1)
    if op == "natural_join":
        return NaturalJoin(left, right)
    lschema, rschema = (plan_layout(n, RANDOM_SCHEMAS).schema for n in (left, right))
    if op == "equi_join":
        return EquiJoin(left, right, ((rng.choice(lschema), rng.choice(rschema)),))
    # a union of two projections onto columns renamed alike
    width = rng.randint(1, min(len(lschema), len(rschema)))
    names = tuple(f"u{i}" for i in range(width))
    return Union((
        Project(left, tuple(rng.sample(lschema, width)), names),
        Project(right, tuple(rng.sample(rschema, width)), names),
    ))
