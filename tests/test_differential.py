"""Differential net: the IUSV allocation of a random plan's coalition set
equals the subset-sum baseline over the same plan, owner tables and utility.

Each instance is a :func:`helpers.random_plan` over
:func:`helpers.random_owned_tables`, with owners shared between tables or
blocked per table. It is checked four ways: at the default utility, at a
non-unit ``Fraction`` utility read from each output row, at several γ, and
after a JSON round trip of the coalition set.
"""

import json
from fractions import Fraction
from random import Random

from assemblage_shapley import UtilityEvaluator, evaluate_plan, iusv_all, trad_shapley
from assemblage_shapley.engine import coalition_from_dict, coalition_to_dict

from helpers import random_owned_tables, random_plan

INSTANCES = 300
GAMMAS = (0.5, 1.0, 2.0)


def _row_utility(row: tuple) -> Fraction:
    """A non-unit utility that depends on the row's values."""
    return Fraction(1 + sum(len(str(v)) for v in row), 3)


def _instance(rng: Random):
    plan = random_plan(rng, depth=rng.randint(1, 4))
    if rng.random() < 0.5:
        n_owners = rng.randint(2, 7)
        tables = random_owned_tables(rng, n_owners)
    else:
        block = rng.randint(1, 2)
        n_owners = 3 * block
        tables = random_owned_tables(rng, block, blocked=True)
    return plan, tables, n_owners


def test_iusv_equals_trad_on_random_plans():
    rng = Random("differential")
    tuples = 0
    for _ in range(INSTANCES):
        plan, tables, n_owners = _instance(rng)
        d = evaluate_plan(plan, tables, n_owners=n_owners)
        trad = trad_shapley(UtilityEvaluator(plan, tables, n_owners=n_owners)).shares
        for gamma in GAMMAS:
            assert iusv_all(d, gamma).allocation.shares == trad, (plan, gamma)

        weighted = evaluate_plan(plan, tables, utility_fn=_row_utility, n_owners=n_owners)
        ev = UtilityEvaluator(plan, tables, utility_fn=_row_utility, n_owners=n_owners)
        trad_weighted = trad_shapley(ev).shares
        assert iusv_all(weighted).allocation.shares == trad_weighted, plan

        again = coalition_from_dict(json.loads(json.dumps(coalition_to_dict(weighted))))
        assert iusv_all(again).allocation.shares == trad_weighted, plan
        tuples += len(d)
    # the instances are not all empty
    assert tuples > INSTANCES
