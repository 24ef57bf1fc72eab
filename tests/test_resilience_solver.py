"""Tests for the dispatching solver (repro.resilience.solver)."""

import pytest

from repro.db import Database
from repro.query import parse_query
from repro.query.zoo import (
    q_ABperm,
    q_ACconf,
    q_Aperm,
    q_chain,
    q_comp,
    q_lin,
    q_perm,
    q_vc,
    q_z3,
)
from repro.resilience import resilience, resilience_exact, solve
from repro.resilience.solver import in_res
from repro.workloads import random_database_for_query


class TestDispatch:
    def test_special_solver_used_for_named_queries(self):
        db = random_database_for_query(q_ACconf, domain_size=4, density=0.5, seed=0)
        assert solve(db, q_ACconf).method == "flow:q_ACconf"

    def test_linear_flow_used_for_linear_sjfree(self):
        db = random_database_for_query(q_lin, domain_size=4, density=0.5, seed=0)
        assert solve(db, q_lin).method == "linear-flow"

    def test_exact_fallback_for_hard_queries(self):
        db = random_database_for_query(q_chain, domain_size=4, density=0.5, seed=0)
        assert solve(db, q_chain).method in ("branch-and-bound", "ilp")

    def test_unsatisfied_short_circuit(self):
        db = Database()
        db.declare("R", 2)
        res = solve(db, q_chain)
        assert res.value == 0 and res.method == "unsatisfied"

    def test_forced_methods(self, chain_db):
        assert solve(chain_db, q_chain, method="exact").value == 2
        with pytest.raises(ValueError):
            solve(chain_db, q_chain, method="nope")

    def test_explicit_method_kwarg_beats_everything(self):
        """method='exact' forces the hitting-set path even for a
        PTIME-dispatched query."""
        db = random_database_for_query(q_perm, domain_size=5, density=0.4, seed=1)
        assert solve(db, q_perm).method.startswith("flow:")
        assert solve(db, q_perm, method="exact").method in (
            "branch-and-bound",
            "ilp",
        )

    def test_resilience_helper(self, chain_db):
        assert resilience(chain_db, q_chain) == 2


class TestDispatchCorrectness:
    """Automatic dispatch always agrees with exact computation."""

    @pytest.mark.parametrize(
        "query",
        [q_ACconf, q_Aperm, q_perm, q_z3, q_lin, q_chain, q_vc, q_ABperm, q_comp],
        ids=lambda q: q.name,
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_equals_exact(self, query, seed):
        db = random_database_for_query(query, domain_size=4, density=0.45, seed=seed)
        assert solve(db, query).value == resilience_exact(db, query).value


class TestDecisionProblem:
    def test_in_res_definition(self, chain_db):
        """Definition 1: (D, k) in RES(q) iff D |= q and rho <= k."""
        assert not in_res(chain_db, q_chain, 1)
        assert in_res(chain_db, q_chain, 2)
        assert in_res(chain_db, q_chain, 3)

    def test_in_res_requires_satisfaction(self):
        db = Database()
        db.declare("R", 2)
        assert not in_res(db, q_chain, 100)
