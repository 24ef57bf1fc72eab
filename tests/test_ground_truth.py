"""Every solving tier against brute-force ground truth.

The oracle (:mod:`oracles.brute_force`) shares no code with the engine:
its own nested-loop evaluator, its own subset search.  For each of the
paper's 48 named queries, six random tiny databases, unit and skewed
costs, and the three solving modes, this module checks that

* exact values equal the brute-force minimum cost;
* approx and anytime intervals contain it;
* every returned contingency set holds only endogenous facts,
  falsifies the query under the oracle's evaluator, and costs exactly
  the exact value or the interval's upper bound;
* :class:`~repro.witness.UnbreakableQueryError` is raised exactly when
  the oracle finds no contingency set (Definition 1).  The databases
  carry the query's own exogenous flags, and no zoo query is all
  exogenous, so here this guards against spurious raises.

A second matrix marks one relation exogenous *on the database* that the
query uses as endogenous.  Dispatch must honour that flag too: the
bespoke PTIME solvers assume their query's own flags, so such instances
are dispatched as if the query marked the relation exogenous.  Here
unbreakable instances do occur, and the raise is checked both ways.

Domain size 4 keeps the subset search fast; at domain size 5 the same
matrix takes minutes.
"""

import pytest

from oracles import brute_force as oracle

from repro.query.zoo import ALL_QUERIES, PAPER_VERDICTS
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import UnbreakableQueryError
from repro.workloads import assign_skewed_costs, random_database_for_query

SEEDS = range(6)
MODES = ("exact", "approx", "anytime")
# A deterministic anytime budget: node limits replay exactly.
ANYTIME_BUDGET = Budget(node_limit=64)


def _instances(query, exogenous_first=False):
    """(database, weighted) pairs: each seed with unit and skewed costs.

    ``exogenous_first`` marks the alphabetically first relation
    exogenous on each database.
    """
    for seed in SEEDS:
        for weighted in (False, True):
            db = random_database_for_query(
                query, domain_size=4, density=0.35, seed=seed
            )
            if weighted:
                assign_skewed_costs(db, seed=seed + 1)
            if exogenous_first:
                db.set_exogenous(sorted(db.relations)[0])
            yield db, weighted


@pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
def test_every_mode_agrees_with_brute_force(name):
    _check_against_brute_force(name, _instances(ALL_QUERIES[name]))


@pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
def test_database_exogenous_flags_agree_with_brute_force(name):
    _check_against_brute_force(
        name, _instances(ALL_QUERIES[name], exogenous_first=True)
    )


def _check_against_brute_force(name, instances):
    query = ALL_QUERIES[name]
    for db, weighted in instances:
        cost = db.cost if weighted else (lambda fact: 1)
        minimum = oracle.minimum_contingency_cost(db, query, cost)
        exogenous = oracle.exogenous_relations(db, query)
        for mode in MODES:
            context = (name, mode, weighted, sorted(db, key=repr))
            budget = ANYTIME_BUDGET if mode == "anytime" else None
            if minimum is None:
                with pytest.raises(UnbreakableQueryError):
                    solve(db, query, mode=mode, budget=budget, weighted=weighted)
                continue
            result = solve(db, query, mode=mode, budget=budget, weighted=weighted)
            if mode == "exact":
                assert result.value == minimum, context
                charged = result.value
            else:
                assert result.lower_bound <= minimum <= result.upper_bound, context
                charged = result.upper_bound
            chosen = result.contingency_set
            assert all(f.relation not in exogenous for f in chosen), context
            assert not oracle.satisfied(db, query, chosen), context
            assert sum(cost(f) for f in chosen) == charged, context
