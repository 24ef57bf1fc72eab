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

The certified bounds solve their LP by HiGHS dual simplex or interior
point, by the LP's shape.  The first matrix runs again under each
method forced through :func:`oracles.engines.forced_engines`: both must
certify the brute-force minimum and agree on the lower bound, though
the upper bound may differ with the optimal LP solution each returns.
A failed LP falls back to the packing bound and the greedy set.

Domain size 4 keeps the subset search fast; at domain size 5 the same
matrix takes minutes.
"""

from types import SimpleNamespace

import pytest

from oracles import brute_force as oracle
from oracles.engines import forced_engines

from repro.query.zoo import ALL_QUERIES, PAPER_VERDICTS
from repro.resilience import approx
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import UnbreakableQueryError, witness_structure
from repro.workloads import assign_skewed_costs, random_database_for_query

SEEDS = range(6)
MODES = ("exact", "approx", "anytime")
# A deterministic anytime budget: node limits replay exactly.
ANYTIME_BUDGET = Budget(node_limit=64)
LP_METHODS = ("simplex", "ipm")
LP_ANYTIME_BUDGET = Budget(node_limit=200)


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
            _check_contingency_set(context, db, query, cost, result, charged)


def _check_contingency_set(context, db, query, cost, result, charged):
    """``result``'s contingency set holds only endogenous facts,
    falsifies the query under the oracle's evaluator and costs
    ``charged``."""
    chosen = result.contingency_set
    exogenous = oracle.exogenous_relations(db, query)
    assert all(f.relation not in exogenous for f in chosen), context
    assert not oracle.satisfied(db, query, chosen), context
    assert sum(cost(f) for f in chosen) == charged, context


def _check_certified(context, db, query, cost, result, minimum):
    """``result``'s interval contains ``minimum`` and its contingency
    set certifies the upper bound."""
    assert result.lower_bound <= minimum <= result.upper_bound, context
    _check_contingency_set(context, db, query, cost, result, result.upper_bound)


def _recorded_linprog(monkeypatch):
    """Route the bounds' LP solves through a recorder of their methods."""
    methods = []
    linprog = approx._linprog()

    def recorded(**kwargs):
        methods.append(kwargs["method"])
        return linprog(**kwargs)

    monkeypatch.setattr(approx, "_linprog", lambda: recorded)
    return methods


@pytest.mark.parametrize("name", sorted(PAPER_VERDICTS))
def test_forced_lp_methods_agree_with_brute_force(name, monkeypatch):
    query = ALL_QUERIES[name]
    methods = _recorded_linprog(monkeypatch)
    for db, weighted in _instances(query):
        cost = db.cost if weighted else (lambda fact: 1)
        minimum = oracle.minimum_contingency_cost(db, query, cost)
        for mode in ("approx", "anytime"):
            budget = LP_ANYTIME_BUDGET if mode == "anytime" else None
            lower_bounds = set()
            for lp in LP_METHODS:
                context = (name, mode, lp, weighted, sorted(db, key=repr))
                before = len(methods)
                with forced_engines(lp=lp):
                    result = solve(
                        db, query, mode=mode, budget=budget, weighted=weighted
                    )
                forced = "highs" if lp == "simplex" else "highs-ipm"
                assert set(methods[before:]) <= {forced}, context
                _check_certified(context, db, query, cost, result, minimum)
                lower_bounds.add(result.lower_bound)
            assert len(lower_bounds) == 1, (name, mode, weighted, lower_bounds)


def test_forced_lp_methods_reach_both_solvers(monkeypatch):
    # The matrix above is not vacuous: its NP-hard instances do reach
    # the LP, under each forced method.
    methods = _recorded_linprog(monkeypatch)
    query = ALL_QUERIES["q_3chain"]
    for lp in LP_METHODS:
        with forced_engines(lp=lp):
            for db, weighted in _instances(query):
                solve(db, query, mode="approx", weighted=weighted)
    assert set(methods) == {"highs", "highs-ipm"}


@pytest.mark.parametrize("name", ["q_chain", "q_cfp", "q_triangle_sj2"])
def test_failed_lp_falls_back_to_packing_and_greedy(name, monkeypatch):
    failed = SimpleNamespace(success=False, status=4, message="forced failure")
    calls = []

    def failing_linprog(**kwargs):
        calls.append(kwargs["method"])
        return failed

    monkeypatch.setattr(approx, "_linprog", lambda: failing_linprog)
    query = ALL_QUERIES[name]
    for db, weighted in _instances(query):
        context = (name, weighted, sorted(db, key=repr))
        structure = witness_structure(db, query, weighted=weighted)
        costs = structure.costs if weighted else None
        lower = approx._ids_cost(structure.forced_ids, costs)
        chosen = set(structure.forced_ids)
        for component in structure.components:
            lower += approx.disjoint_witness_lower_bound(
                component.sets, costs=costs
            )
            index = approx._Incidence(component.sets)
            chosen |= approx._local_search(
                index, approx._greedy(index, costs), costs=costs
            )
        result = solve(db, query, mode="approx", weighted=weighted)
        assert result.lower_bound == lower, context
        assert result.contingency_set == structure.tuples(chosen), context
        cost = db.cost if weighted else (lambda fact: 1)
        minimum = oracle.minimum_contingency_cost(db, query, cost)
        _check_certified(context, db, query, cost, result, minimum)
    assert calls, "no instance reached the LP"
