"""Tests for the linear-flow solver and the bespoke flow algorithms."""

import pytest

from repro.db import Database
from repro.query import parse_query
from repro.query.zoo import (
    ALL_QUERIES,
    q_A3perm_R,
    q_ACconf,
    q_Aperm,
    q_Swx3perm_R,
    q_TS3conf,
    q_lin,
    q_perm,
    q_rats,
    q_z3,
)
from repro.resilience import (
    LinearFlowSolver,
    resilience_exact,
    resilience_linear_flow,
)
from repro.resilience.flow_special import (
    solve_qACconf,
    solve_qAperm,
    solve_qA3perm_R,
    solve_qSwx3perm_R,
    solve_qTS3conf,
    solve_qperm,
    solve_qz3,
)
from repro.resilience.flownet import FlowNetwork
from repro.workloads import assign_skewed_costs, random_database_for_query

SEEDS = range(25)


def _pairwise_network(solver, database, weighted):
    """The oracle for :meth:`LinearFlowSolver.build_network`: the same
    network, with every fact pair of adjacent layers tested for
    agreement on the variables its two atoms share."""
    net = FlowNetwork()
    atoms = [solver.query.atoms[i] for i in solver.order]
    layers = [solver._facts_at(database, a) for a in atoms]
    for pos, (atom, facts) in enumerate(zip(atoms, layers)):
        exo = solver._exogenous(database, atom)
        for fact in facts:
            u, v = ("in", pos, fact), ("out", pos, fact)
            if exo:
                net.add_inf_edge(u, v)
            else:
                cap = database.cost(fact) if weighted else 1
                net.add_unit_edge(u, v, payload=fact, capacity=cap)
    for fact in layers[0]:
        net.source_edge(("in", 0, fact))
    last = len(atoms) - 1
    for fact in layers[last]:
        net.sink_edge(("out", last, fact))
    for pos in range(last):
        a, b = atoms[pos], atoms[pos + 1]
        for fa in layers[pos]:
            for fb in layers[pos + 1]:
                values = dict(zip(a.args, fa.values))
                if all(
                    values.get(var, val) == val
                    for var, val in zip(b.args, fb.values)
                ):
                    net.add_inf_edge(("out", pos, fa), ("in", pos + 1, fb))
    return net


def _linear_zoo():
    names = []
    for name, query in ALL_QUERIES.items():
        try:
            LinearFlowSolver(query)
        except ValueError:
            continue
        names.append(name)
    return names


class TestLinearFlow:
    def test_rejects_nonlinear_query(self):
        from repro.query.zoo import q_triangle

        with pytest.raises(ValueError):
            LinearFlowSolver(q_triangle)

    def test_unsatisfied_gives_zero(self):
        db = Database()
        db.declare("A", 1)
        db.declare("R", 3)
        db.declare("S", 2)
        assert resilience_linear_flow(db, q_lin).value == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qlin_flow_equals_exact(self, seed):
        db = random_database_for_query(q_lin, domain_size=4, density=0.4, seed=seed)
        flow = resilience_linear_flow(db, q_lin)
        exact = resilience_exact(db, q_lin)
        assert flow.value == exact.value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_sjfree_with_exogenous(self, seed):
        q = parse_query("A(x), H^x(x,y), B(y)")
        db = random_database_for_query(q, domain_size=5, density=0.5, seed=seed)
        from repro.query.evaluation import witness_tuple_sets

        if any(not s for s in witness_tuple_sets(db, q)):
            return  # unbreakable instance
        assert (
            resilience_linear_flow(db, q).value == resilience_exact(db, q).value
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_confluence_duplicated_layers(self, seed):
        """Proposition 31: standard flow handles the 2-confluence."""
        db = random_database_for_query(
            q_ACconf, domain_size=5, density=0.4, seed=seed
        )
        flow = resilience_linear_flow(db, q_ACconf)
        exact = resilience_exact(db, q_ACconf)
        assert flow.value == exact.value

    @pytest.mark.parametrize("name", _linear_zoo())
    def test_network_equals_the_pairwise_construction(self, name):
        """Same nodes and edges, in the same insertion order, with unit
        and with skewed costs."""
        query = ALL_QUERIES[name]
        solver = LinearFlowSolver(query)
        for seed in range(3):
            db = random_database_for_query(
                query, domain_size=5, density=0.4, seed=seed
            )
            assign_skewed_costs(db, seed=seed)
            for weighted in (False, True):
                net = solver.build_network(db, weighted=weighted)
                oracle = _pairwise_network(solver, db, weighted)
                assert list(net._nodes.items()) == list(oracle._nodes.items())
                assert list(net._edges.items()) == list(oracle._edges.items())

    def test_flow_contingency_set_valid(self):
        db = random_database_for_query(q_ACconf, domain_size=5, density=0.5, seed=3)
        from repro.resilience import is_contingency_set

        res = resilience_linear_flow(db, q_ACconf)
        if res.value:
            assert is_contingency_set(db, q_ACconf, set(res.contingency_set))


class TestSpecialFlows:
    """Every bespoke PTIME algorithm agrees with exact search."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qperm(self, seed):
        db = random_database_for_query(q_perm, domain_size=5, density=0.4, seed=seed)
        assert solve_qperm(db).value == resilience_exact(db, q_perm).value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qAperm(self, seed):
        db = random_database_for_query(q_Aperm, domain_size=5, density=0.4, seed=seed)
        assert solve_qAperm(db).value == resilience_exact(db, q_Aperm).value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qACconf(self, seed):
        db = random_database_for_query(q_ACconf, domain_size=5, density=0.4, seed=seed)
        assert solve_qACconf(db).value == resilience_exact(db, q_ACconf).value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qA3perm_R(self, seed):
        db = random_database_for_query(
            q_A3perm_R, domain_size=5, density=0.35, seed=seed
        )
        assert solve_qA3perm_R(db).value == resilience_exact(db, q_A3perm_R).value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qSwx3perm_R(self, seed):
        db = random_database_for_query(
            q_Swx3perm_R, domain_size=5, density=0.3, seed=seed
        )
        assert (
            solve_qSwx3perm_R(db).value
            == resilience_exact(db, q_Swx3perm_R).value
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qz3(self, seed):
        db = random_database_for_query(q_z3, domain_size=5, density=0.45, seed=seed)
        assert solve_qz3(db).value == resilience_exact(db, q_z3).value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qTS3conf(self, seed):
        db = random_database_for_query(
            q_TS3conf, domain_size=4, density=0.4, seed=seed
        )
        assert (
            solve_qTS3conf(db, q_TS3conf).value
            == resilience_exact(db, q_TS3conf).value
        )

    def test_special_contingency_sets_valid(self):
        from repro.resilience import is_contingency_set

        for q, solver in [
            (q_perm, lambda db: solve_qperm(db)),
            (q_Aperm, lambda db: solve_qAperm(db)),
            (q_A3perm_R, lambda db: solve_qA3perm_R(db)),
        ]:
            db = random_database_for_query(q, domain_size=5, density=0.5, seed=7)
            res = solver(db)
            if res.value:
                assert is_contingency_set(db, q, set(res.contingency_set)), q.name
