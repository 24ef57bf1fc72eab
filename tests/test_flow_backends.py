"""The csgraph min cut against the networkx reference oracle.

The paper's PTIME algorithms (Propositions 12, 13, 31, 33, 36, 41, 44)
reduce resilience to s-t min cut, which :class:`FlowNetwork` computes
with scipy's C-backed :func:`~scipy.sparse.csgraph.maximum_flow`.
Each check here runs a construction twice, once as shipped
(``"csgraph"``) and once with :func:`oracles.flow.networkx_min_cut` in
place of ``FlowNetwork.min_cut`` (``"networkx"``).  The contract: equal
cut *values* everywhere, and every returned cut is a valid,
inclusion-minimal contingency set (the Lemma 55 property) — the
concrete sets may differ, since the two extract different (equally
minimal) residual cuts.
"""

from contextlib import nullcontext

import pytest

from oracles.flow import patched_min_cut
from repro.query.zoo import ALL_QUERIES
from repro.resilience.exact import is_contingency_set, resilience_exact
from repro.resilience.flow_linear import LinearFlowSolver
from repro.resilience.flow_special import (
    solve_qA3perm_R,
    solve_qACconf,
    solve_qAperm,
    solve_qperm,
    solve_qSwx3perm_R,
    solve_qTS3conf,
    solve_qz3,
)
from repro.resilience.flownet import FlowNetwork
from repro.witness import clear_witness_cache
from repro.workloads import random_database_for_query

BACKENDS = ("csgraph", "networkx")

# The full zoo of bespoke special-case solvers (name -> callable).
SPECIAL_SOLVERS = {
    "q_perm": lambda db, q: solve_qperm(db),
    "q_Aperm": lambda db, q: solve_qAperm(db),
    "q_ACconf": lambda db, q: solve_qACconf(db),
    "q_A3perm_R": lambda db, q: solve_qA3perm_R(db),
    "q_Swx3perm_R": lambda db, q: solve_qSwx3perm_R(db),
    "q_TS3conf": solve_qTS3conf,
    "q_z3": lambda db, q: solve_qz3(db),
}

# Flow-safe linear queries solved through LinearFlowSolver (the zoo's
# q_lin plus two parsed sj-free chains).
LINEAR_QUERIES = (
    "q_lin",
    "q() :- A(x), R(x,y), B(y)",
    "q() :- A(x), R(x,y), S(y,z), B(z)",
)


def _backend(name):
    """The shipped cut, or the oracle patched over it."""
    return patched_min_cut() if name == "networkx" else nullcontext()


def _assert_minimal_contingency(database, query, result):
    """The cut is feasible, optimal-sized, and inclusion-minimal."""
    gamma = set(result.contingency_set)
    assert len(gamma) == result.value
    if result.value == 0:
        return
    assert is_contingency_set(database, query, gamma)
    for fact in sorted(gamma):
        assert not is_contingency_set(database, query, gamma - {fact}), (
            f"{fact!r} is redundant in the returned cut"
        )


class TestSpecialSolverZoo:
    @pytest.mark.parametrize("name", sorted(SPECIAL_SOLVERS))
    def test_backends_agree_and_cuts_are_minimal(self, name):
        query = ALL_QUERIES[name]
        fn = SPECIAL_SOLVERS[name]
        for seed in range(6):
            database = random_database_for_query(
                query, domain_size=6, density=0.4, seed=seed
            )
            results = {}
            for backend in BACKENDS:
                with _backend(backend):
                    results[backend] = fn(database, query)
            assert results["csgraph"].value == results["networkx"].value
            clear_witness_cache()
            assert (
                resilience_exact(database, query).value
                == results["csgraph"].value
            )
            for backend in BACKENDS:
                _assert_minimal_contingency(database, query, results[backend])


class TestLinearFlow:
    @pytest.mark.parametrize("name", LINEAR_QUERIES)
    def test_backends_agree_and_cuts_are_minimal(self, name):
        from repro.query.parser import parse_query

        query = ALL_QUERIES[name] if name in ALL_QUERIES else parse_query(name)
        solver = LinearFlowSolver(query)
        for seed in range(6):
            database = random_database_for_query(
                query, domain_size=5, density=0.4, seed=seed
            )
            results = {}
            for backend in BACKENDS:
                with _backend(backend):
                    results[backend] = solver.solve(database)
            assert results["csgraph"].value == results["networkx"].value
            clear_witness_cache()
            assert (
                resilience_exact(database, query).value
                == results["csgraph"].value
            )
            for backend in BACKENDS:
                _assert_minimal_contingency(database, query, results[backend])


class TestFlowNetworkBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bottleneck(self, backend):
        with _backend(backend):
            net = FlowNetwork()
            for name in ("a", "b"):
                net.source_edge(f"{name}_in")
                net.add_unit_edge(f"{name}_in", f"{name}_out", payload=name)
                net.add_inf_edge(f"{name}_out", "mid_in")
            net.add_unit_edge("mid_in", "mid_out", payload="mid")
            net.sink_edge("mid_out")
            value, payloads = net.min_cut()
        assert value == 1 and payloads == ["mid"]
        assert isinstance(value, int)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinite_path_raises(self, backend):
        """Big-M detection: an all-infinite s-t path is a construction
        bug and must raise, in the engine and the oracle alike."""
        with _backend(backend):
            net = FlowNetwork()
            net.source_edge("a")
            net.sink_edge("a")
            with pytest.raises(RuntimeError):
                net.min_cut()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_capacities_no_rounding(self, backend):
        """Unit edges carry int capacity 1; the value comes back as an
        exact int with no rounding repair."""
        with _backend(backend):
            net = FlowNetwork()
            for i in range(5):
                net.source_edge(f"{i}_in")
                net.add_unit_edge(f"{i}_in", f"{i}_out", payload=i)
                net.sink_edge(f"{i}_out")
            value, payloads = net.min_cut()
        assert value == 5 and type(value) is int
        assert sorted(payloads) == [0, 1, 2, 3, 4]
        for capacity, payload in net._edges.values():
            if payload is not None:
                assert capacity == 1 and type(capacity) is int

    def test_csgraph_cut_is_source_minimal(self):
        """csgraph extracts the cut closest to the source (the unique
        minimal source side of the residual partition)."""
        with _backend("csgraph"):
            net = FlowNetwork()
            net.source_edge("x_in")
            net.add_unit_edge("x_in", "x_out", payload="near")
            net.add_inf_edge("x_out", "y_in")
            net.add_unit_edge("y_in", "y_out", payload="far")
            net.sink_edge("y_out")
            assert net.min_cut() == (1, ["near"])

    def test_oracle_cut_is_sink_minimal(self):
        """The oracle's partition yields the cut closest to the sink, so
        the two cuts can differ while agreeing in value."""
        with _backend("networkx"):
            net = FlowNetwork()
            net.source_edge("x_in")
            net.add_unit_edge("x_in", "x_out", payload="near")
            net.add_inf_edge("x_out", "y_in")
            net.add_unit_edge("y_in", "y_out", payload="far")
            net.sink_edge("y_out")
            assert net.min_cut() == (1, ["far"])
