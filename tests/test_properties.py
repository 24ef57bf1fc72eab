"""Property-based tests (hypothesis) for core invariants.

These check laws the paper relies on implicitly:

* resilience is the minimum hitting set of the witness structure;
* deleting a contingency set falsifies the query; deleting fewer than
  rho tuples cannot;
* resilience is monotone under tuple insertion (more tuples, more
  witnesses, never smaller rho);
* the component rule rho(q, D) = min_i rho(q_i, D) (Lemma 14);
* solvers agree pairwise;
* the metamorphic update laws the incremental engine certifies from
  (``TestMetamorphicUpdateLaws``): one endogenous insert/delete moves
  rho by at most 1 in the right direction, exogenous inserts that
  create no new witnesses leave rho unchanged, and rho is invariant
  under active-domain renaming and relation declaration/insertion
  order;
* the metamorphic cost laws of the weighted objective
  (``TestMetamorphicCostLaws``): cost scaling scales the optimum and
  preserves argmins, the cost-1 floor sandwiches the weighted optimum,
  all-unit weighted solves are bit-identical to the unweighted path,
  and exogenous tuples are never charged;
* the sizes the engine layers decide by (``TestSizeRuleInputs``): the
  endogenous tuple count (admission, the parallel split), the witness
  estimate (LPT sharding) and the dispatch kind (flow or hitting set)
  are pure, invariant under active-domain renaming and declaration or
  insertion order, and monotone under endogenous insertion.

Effort (``max_examples``) comes from the hypothesis profile registered
in ``conftest.py`` — the CI ``tests-properties`` leg runs the deeper
``ci`` profile; do not pin ``max_examples`` here.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.db import Database, DBTuple, endogenous_tuple_count
from repro.query import parse_query, satisfies, witness_tuple_sets
from repro.query.evaluation import WITNESS_ESTIMATE_CAP, witness_estimate
from repro.query.zoo import (
    q_ACconf,
    q_Aperm,
    q_a_chain,
    q_chain,
    q_comp,
    q_perm,
    q_vc,
)
from repro.resilience import (
    resilience_branch_and_bound,
    resilience_exact,
    resilience_ilp,
    solve,
)
from repro.resilience.flow_special import solve_qACconf, solve_qAperm, solve_qperm
from repro.resilience.solver import dispatch_plan_for
from repro.witness import clear_witness_cache

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Strategy: small edge sets over a 5-element domain.
edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    min_size=0,
    max_size=12,
    unique=True,
)
nodes = st.lists(st.integers(0, 4), min_size=0, max_size=5, unique=True)


def chain_db(edge_list):
    db = Database()
    db.declare("R", 2)
    for (u, v) in edge_list:
        db.add("R", u, v)
    return db


class TestHittingSetSemantics:
    @given(edges)
    @SETTINGS
    def test_gamma_falsifies_query(self, edge_list):
        db = chain_db(edge_list)
        res = resilience_branch_and_bound(db, q_chain)
        assert not satisfies(db.minus(res.contingency_set), q_chain)

    @given(edges)
    @SETTINGS
    def test_zero_iff_unsatisfied(self, edge_list):
        db = chain_db(edge_list)
        res = resilience_branch_and_bound(db, q_chain)
        assert (res.value == 0) == (not satisfies(db, q_chain))

    @given(edges)
    @SETTINGS
    def test_backends_agree(self, edge_list):
        db = chain_db(edge_list)
        assert (
            resilience_branch_and_bound(db, q_chain).value
            == resilience_ilp(db, q_chain).value
        )


class TestMonotonicity:
    @given(edges, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @SETTINGS
    def test_adding_tuples_never_decreases_resilience(self, edge_list, extra):
        db = chain_db(edge_list)
        before = resilience_branch_and_bound(db, q_chain).value
        db.add("R", *extra)
        after = resilience_branch_and_bound(db, q_chain).value
        assert after >= before

    @given(edges)
    @SETTINGS
    def test_resilience_bounded_by_endogenous_size(self, edge_list):
        db = chain_db(edge_list)
        res = resilience_branch_and_bound(db, q_chain)
        assert res.value <= len(db.endogenous_tuples())


class TestComponentRule:
    @given(edges, nodes, nodes)
    @SETTINGS
    def test_lemma_14_min_rule(self, edge_list, a_nodes, b_nodes):
        """rho(q_comp, D) = min(rho(q1, D), rho(q2, D)) for the
        disconnected q_comp :- A(x), R(x,y), R(z,w), B(w)."""
        db = Database()
        db.declare("A", 1)
        db.declare("B", 1)
        db.declare("R", 2)
        for (u, v) in edge_list:
            db.add("R", u, v)
        for a in a_nodes:
            db.add("A", a)
        for b in b_nodes:
            db.add("B", b)
        q1 = parse_query("A(x), R(x,y)")
        q2 = parse_query("R(z,w), B(w)")
        whole = resilience_branch_and_bound(db, q_comp).value
        parts = []
        for q in (q1, q2):
            if satisfies(db, q):
                parts.append(resilience_branch_and_bound(db, q).value)
        if satisfies(db, q_comp):
            assert whole == min(parts)
        else:
            assert whole == 0


class TestSpecialSolversRandomized:
    @given(edges)
    @SETTINGS
    def test_qperm_counting(self, edge_list):
        db = chain_db(edge_list)
        assert (
            solve_qperm(db).value
            == resilience_branch_and_bound(db, q_perm).value
        )

    @given(edges, nodes)
    @SETTINGS
    def test_qAperm_flow(self, edge_list, a_nodes):
        db = chain_db(edge_list)
        db.declare("A", 1)
        for a in a_nodes:
            db.add("A", a)
        assert (
            solve_qAperm(db).value
            == resilience_branch_and_bound(db, q_Aperm).value
        )

    @given(edges, nodes, nodes)
    @SETTINGS
    def test_qACconf_flow(self, edge_list, a_nodes, c_nodes):
        db = chain_db(edge_list)
        db.declare("A", 1)
        db.declare("C", 1)
        for a in a_nodes:
            db.add("A", a)
        for c in c_nodes:
            db.add("C", c)
        assert (
            solve_qACconf(db).value
            == resilience_branch_and_bound(db, q_ACconf).value
        )


class TestVCCorrespondence:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1]), max_size=8, unique=True))
    @SETTINGS
    def test_qvc_resilience_is_vertex_cover(self, edge_list):
        """Proposition 9 as a law: rho(q_vc, D_G) == VC(G)."""
        from repro.workloads import Graph

        vertices = {v for e in edge_list for v in e}
        graph = Graph.make(vertices, edge_list)
        db = Database()
        db.declare("R", 1)
        db.declare("S", 2)
        for v in graph.vertices:
            db.add("R", v)
        for (u, v) in graph.edges:
            db.add("S", u, v)
        rho = resilience_branch_and_bound(db, q_vc).value
        assert rho == (graph.vertex_cover_number() if graph.edges else 0)


class TestMetamorphicUpdateLaws:
    """The single-tuple delta laws :mod:`repro.incremental` certifies
    from: |rho(D ± t) - rho(D)| <= 1 with the right direction for
    endogenous t, exogenous no-new-witness inserts are invisible, and
    rho only depends on database *content*, never on naming or
    declaration order."""

    @given(edges, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @SETTINGS
    def test_endogenous_insert_moves_rho_up_by_at_most_one(
        self, edge_list, extra
    ):
        db = chain_db(edge_list)
        before = resilience_branch_and_bound(db, q_chain).value
        db.add("R", *extra)
        after = resilience_branch_and_bound(db, q_chain).value
        assert before <= after <= before + 1

    @given(edges)
    @SETTINGS
    def test_endogenous_delete_moves_rho_down_by_at_most_one(self, edge_list):
        db = chain_db(edge_list)
        before = resilience_branch_and_bound(db, q_chain).value
        for fact in sorted(db):
            after = resilience_branch_and_bound(
                db.minus([fact]), q_chain
            ).value
            assert before - 1 <= after <= before

    @given(edges, nodes, st.integers(5, 9))
    @SETTINGS
    def test_exogenous_insert_without_new_witnesses_keeps_rho(
        self, edge_list, a_nodes, fresh
    ):
        """A(x), R(x,y), R(y,z) with A exogenous at the instance level:
        inserting A(c) for a constant outside the R graph creates no
        witness, so rho must not move (the paper's monotonicity only
        bounds it from below)."""
        db = chain_db(edge_list)
        db.declare("A", 1, exogenous=True)
        for a in a_nodes:
            db.add("A", a)
        witnesses_before = set(witness_tuple_sets(db, q_a_chain))
        rho_before = resilience_branch_and_bound(db, q_a_chain).value
        db.add("A", fresh)  # R edges live on 0..4, so no witness appears
        assert set(witness_tuple_sets(db, q_a_chain)) == witnesses_before
        rho_after = resilience_branch_and_bound(db, q_a_chain).value
        assert rho_after == rho_before

    @given(edges)
    @SETTINGS
    def test_rho_invariant_under_active_domain_renaming(self, edge_list):
        db = chain_db(edge_list)
        before = resilience_branch_and_bound(db, q_chain).value
        renamed = Database()
        renamed.declare("R", 2)
        for (u, v) in edge_list:
            renamed.add("R", f"n{u}", f"n{v}")  # injective renaming
        after = resilience_branch_and_bound(renamed, q_chain).value
        assert after == before

    @given(edges, nodes)
    @SETTINGS
    def test_result_invariant_under_declaration_and_insertion_order(
        self, edge_list, a_nodes
    ):
        """Full result equality — value, contingency set, and method —
        when the same content is declared and inserted in different
        orders (determinism is part of the solver contract)."""
        forward = Database()
        forward.declare("A", 1)
        forward.declare("R", 2)
        for (u, v) in edge_list:
            forward.add("R", u, v)
        for a in a_nodes:
            forward.add("A", a)
        backward = Database()
        for a in reversed(a_nodes):
            backward.add("A", a)
        backward.declare("R", 2)
        for (u, v) in reversed(edge_list):
            backward.add("R", u, v)
        backward.declare("A", 1)
        r1 = resilience_exact(forward, q_a_chain)
        r2 = resilience_exact(backward, q_a_chain)
        assert r1.value == r2.value
        assert r1.contingency_set == r2.contingency_set
        assert r1.method == r2.method


# Edge lists paired with positive tuple costs, for the weighted laws.
weighted_edges = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(1, 9),
    ),
    min_size=0,
    max_size=12,
    unique_by=lambda pair: pair[0],
)


def weighted_chain_db(weighted_edge_list, scale=1):
    db = Database()
    db.declare("R", 2)
    for (u, v), c in weighted_edge_list:
        db.add("R", u, v, cost=c * scale)
    return db


class TestMetamorphicCostLaws:
    """Metamorphic laws of the weighted (min-cost) objective.

    Weighted resilience is the minimum total *cost* of a contingency
    set, with every tuple's cost a positive integer defaulting to 1.
    The laws: scaling every cost by ``k`` scales the optimum by ``k``
    and preserves optimal sets in both directions; the cost-1 floor
    sandwiches the weighted optimum between the cardinality optimum and
    its max-cost multiple (uniform costs collapse the sandwich to
    equality); all-unit instances are *bit-identical* to the unweighted
    path in all three modes (value, contingency set, interval, and
    method — the delegation contract of
    :func:`repro.resilience.solver.solve`); and exogenous tuples are
    never charged, so their costs are invisible to the optimum.
    """

    @given(weighted_edges, st.integers(2, 5))
    @SETTINGS
    def test_scaling_costs_scales_optimum_and_preserves_argmins(
        self, wedges, k
    ):
        base_db = weighted_chain_db(wedges)
        scaled_db = weighted_chain_db(wedges, scale=k)
        base = solve(base_db, q_chain, weighted=True)
        scaled = solve(scaled_db, q_chain, weighted=True)
        assert scaled.value == k * base.value
        # Each optimum stays optimal under the other cost map.
        assert scaled_db.total_cost(base.contingency_set) == scaled.value
        assert base_db.total_cost(scaled.contingency_set) == base.value

    @given(weighted_edges)
    @SETTINGS
    def test_cost_floor_sandwiches_weighted_optimum(self, wedges):
        """Costs >= 1 force rho <= rho_w <= rho * max_cost; uniform
        costs make both bounds tight."""
        db = weighted_chain_db(wedges)
        rho = solve(db, q_chain).value
        rho_w = solve(db, q_chain, weighted=True).value
        max_cost = max((c for _, c in wedges), default=1)
        assert rho <= rho_w <= rho * max_cost
        uniform = Database()
        uniform.declare("R", 2)
        for (u, v), _ in wedges:
            uniform.add("R", u, v, cost=3)
        res = solve(uniform, q_chain, weighted=True)
        assert res.value == 3 * rho
        assert len(res.contingency_set) == rho

    @given(edges)
    @SETTINGS
    def test_unit_cost_weighted_bit_identical_in_all_modes(self, edge_list):
        db = chain_db(edge_list)
        for mode in ("exact", "approx", "anytime"):
            assert solve(db, q_chain, mode=mode) == solve(
                db, q_chain, mode=mode, weighted=True
            )

    @given(edges)
    @SETTINGS
    def test_unit_cost_weighted_bit_identical_on_flow_special(self, edge_list):
        """The delegation contract on a flow-special query (q_perm)."""
        db = chain_db(edge_list)
        assert solve(db, q_perm, weighted=True) == solve(db, q_perm)

    @given(weighted_edges, nodes, st.integers(1, 9))
    @SETTINGS
    def test_exogenous_tuples_never_charged(self, wedges, a_nodes, exo_cost):
        """q_a_chain with A exogenous: A's costs are invisible to the
        weighted optimum and A never enters a contingency set."""
        db = weighted_chain_db(wedges)
        db.declare("A", 1, exogenous=True)
        for a in a_nodes:
            db.add("A", a)
        before = solve(db, q_a_chain, weighted=True)
        for a in a_nodes:
            db.set_cost(DBTuple("A", (a,)), exo_cost)
        after = solve(db, q_a_chain, weighted=True)
        assert after == before
        assert all(t.relation != "A" for t in after.contingency_set)
        assert db.total_cost(after.contingency_set) == after.value

    @given(weighted_edges)
    @SETTINGS
    def test_weighted_certificate_pays_its_value(self, wedges):
        db = weighted_chain_db(wedges)
        res = solve(db, q_chain, weighted=True)
        assert db.total_cost(res.contingency_set) == res.value
        assert not satisfies(db.minus(res.contingency_set), q_chain)


def size_inputs(db, query):
    """What the engine layers size an instance by, read without building
    or enumerating anything: total and endogenous tuple counts, the
    witness estimate, and the dispatch kind."""
    return (
        len(db),
        endogenous_tuple_count(db),
        witness_estimate(db, query),
        dispatch_plan_for(db, query).kind,
    )


class TestSizeRuleInputs:
    @given(edges)
    @SETTINGS
    def test_features_are_pure(self, edge_list):
        """Same pair, same cache state -> the very same sizes."""
        db = chain_db(edge_list)
        assert size_inputs(db, q_chain) == size_inputs(db, q_chain)

    @given(edges)
    @SETTINGS
    def test_features_invariant_under_domain_renaming(self, edge_list):
        db = chain_db(edge_list)
        renamed = Database()
        renamed.declare("R", 2)
        for (u, v) in edge_list:
            renamed.add("R", f"n{u}", f"n{v}")  # injective renaming
        clear_witness_cache()
        assert size_inputs(db, q_chain) == size_inputs(renamed, q_chain)

    @given(edges, nodes)
    @SETTINGS
    def test_features_invariant_under_declaration_and_insertion_order(
        self, edge_list, a_nodes
    ):
        forward = Database()
        forward.declare("A", 1)
        forward.declare("R", 2)
        for (u, v) in edge_list:
            forward.add("R", u, v)
        for a in a_nodes:
            forward.add("A", a)
        backward = Database()
        for a in reversed(a_nodes):
            backward.add("A", a)
        backward.declare("R", 2)
        for (u, v) in reversed(edge_list):
            backward.add("R", u, v)
        backward.declare("A", 1)
        clear_witness_cache()
        assert size_inputs(forward, q_a_chain) == size_inputs(
            backward, q_a_chain
        )

    @given(edges, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @SETTINGS
    def test_size_features_monotone_under_endogenous_insert(
        self, edge_list, extra
    ):
        db = chain_db(edge_list)
        before = size_inputs(db, q_chain)
        db.add("R", *extra)
        after = size_inputs(db, q_chain)
        assert all(a >= b for a, b in zip(after[:3], before[:3]))

    @given(edges)
    @SETTINGS
    def test_witness_estimate_bounds(self, edge_list):
        db = chain_db(edge_list)
        # q_chain has two R atoms: the estimate is |R|^2, capped.
        assert witness_estimate(db, q_chain) == min(
            len(edge_list) ** 2, WITNESS_ESTIMATE_CAP
        )
