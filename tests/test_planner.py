"""Tests for ``repro planner explain`` and the sizing it reports.

:func:`repro.planner.plan_instance` reads each engine layer's own
decision function for one instance; :func:`repro.planner.extract_features`
reports the instance's size features.  This module pins

* hypothesis property suites for feature extraction — purity,
  invariance under active-domain renaming and declaration order (the
  machinery of ``tests/test_properties.py``), and monotonicity of the
  size features under endogenous insertion;
* that a plan does not depend on whether a witness structure is
  cached, and explicit ``method`` precedence;
* that serving admission sizes requests by the same endogenous tuple
  count (Definition 1) the features report;
* the ``repro planner explain`` CLI.

The backend-equivalence matrix lives in ``tests/test_backend_matrix.py``.
Effort (``max_examples``) comes from the hypothesis profile registered
in ``conftest.py``; do not pin ``max_examples`` here.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.db import Database, endogenous_tuple_count
from repro.planner import extract_features, plan_instance
from repro.query.evaluation import WITNESS_ESTIMATE_CAP
from repro.query.zoo import ALL_QUERIES, q_chain, q_a_chain
from repro.resilience.solver import solve
from repro.serving.admission import DEFAULT_MAX_EXACT_TUPLES, AdmissionPolicy
from repro.serving.wire import SolveRequest
from repro.witness import clear_witness_cache, witness_structure
from repro.workloads import random_database_for_queries

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(family, seed):
    query = ALL_QUERIES[family]
    db = random_database_for_queries([query], domain_size=5, density=0.4, seed=seed)
    return db, query


# ---------------------------------------------------------------------------
# Feature-extraction properties (hypothesis)
# ---------------------------------------------------------------------------

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


class TestFeatureProperties:
    @given(edges)
    @SETTINGS
    def test_features_are_pure(self, edge_list):
        """Same pair, same cache state -> the very same features."""
        db = chain_db(edge_list)
        assert extract_features(db, q_chain) == extract_features(db, q_chain)

    @given(edges)
    @SETTINGS
    def test_plans_are_pure(self, edge_list):
        db = chain_db(edge_list)
        assert plan_instance(db, q_chain) == plan_instance(db, q_chain)

    @given(edges)
    @SETTINGS
    def test_features_invariant_under_domain_renaming(self, edge_list):
        db = chain_db(edge_list)
        renamed = Database()
        renamed.declare("R", 2)
        for (u, v) in edge_list:
            renamed.add("R", f"n{u}", f"n{v}")  # injective renaming
        clear_witness_cache()
        before = extract_features(db, q_chain)
        after = extract_features(renamed, q_chain)
        assert before == after
        assert plan_instance(db, q_chain).signature() == plan_instance(
            renamed, q_chain
        ).signature()

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
        assert extract_features(forward, q_a_chain) == extract_features(
            backward, q_a_chain
        )

    @given(edges, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @SETTINGS
    def test_size_features_monotone_under_endogenous_insert(
        self, edge_list, extra
    ):
        db = chain_db(edge_list)
        before = extract_features(db, q_chain)
        db.add("R", *extra)
        after = extract_features(db, q_chain)
        assert after.total_tuples >= before.total_tuples
        assert after.endogenous_tuples >= before.endogenous_tuples
        assert after.witness_estimate >= before.witness_estimate

    @given(edges)
    @SETTINGS
    def test_witness_estimate_bounds(self, edge_list):
        db = chain_db(edge_list)
        features = extract_features(db, q_chain)
        # q_chain has two R atoms: the estimate is |R|^2, capped.
        assert features.witness_estimate == min(
            len(edge_list) ** 2, WITNESS_ESTIMATE_CAP
        )

    def test_cache_peek_does_not_disturb_cache_telemetry(self):
        from repro.witness import witness_cache_info

        db, query = _instance("q_chain", seed=6)
        clear_witness_cache()
        before = witness_cache_info()
        plan_instance(db, query)
        assert witness_cache_info() == before


# ---------------------------------------------------------------------------
# Precedence: an explicit kwarg beats the layer's rule
# ---------------------------------------------------------------------------

class TestPrecedence:
    def test_explicit_method_kwarg_beats_everything(self):
        """method='exact' forces the hitting-set path even for a
        PTIME-dispatched query."""
        db, query = _instance("q_perm", seed=1)
        clear_witness_cache()
        result = solve(db, query, method="exact")
        assert result.method in ("branch-and-bound", "ilp")


# ---------------------------------------------------------------------------
# Admission sizes requests by the endogenous tuple count
# ---------------------------------------------------------------------------

class TestAdmissionSizing:
    def _oversized_db(self):
        db = Database()
        db.declare("R", 2)
        for i in range(DEFAULT_MAX_EXACT_TUPLES + 100):
            db.add("R", i, i + 1)
        return db

    def test_rerouted_request_is_oversized(self):
        policy = AdmissionPolicy()
        db = self._oversized_db()
        request = SolveRequest(db, q_chain, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and decision.rerouted
        assert decision.mode == "anytime"
        assert policy.oversized(request)
        assert extract_features(db, q_chain).endogenous_tuples > (
            DEFAULT_MAX_EXACT_TUPLES
        )

    def test_small_request_is_interactive(self):
        policy = AdmissionPolicy()
        db, query = _instance("q_chain", seed=2)
        request = SolveRequest(db, query, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and not decision.rerouted
        assert not policy.oversized(request)

    def test_instance_size_is_the_endogenous_count(self):
        policy = AdmissionPolicy()
        db, query = _instance("q_a_chain", seed=3)
        db.set_exogenous("A")
        request = SolveRequest(db, query)
        assert policy.instance_size(request) == endogenous_tuple_count(db)
        assert policy.instance_size(request) == len(db.relations["R"])
        assert policy.instance_size(request) == extract_features(
            db, query
        ).endogenous_tuples

    def test_custom_threshold_drives_the_reroute(self):
        policy = AdmissionPolicy(max_exact_tuples=10)
        db, query = _instance("q_chain", seed=4)
        request = SolveRequest(db, query, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.rerouted == policy.oversized(request)
        assert decision.rerouted == (len(db) > 10)


# ---------------------------------------------------------------------------
# Plan shape and the explain CLI
# ---------------------------------------------------------------------------

class TestPlanShape:
    def test_plan_signature_and_features_are_stable(self):
        db, query = _instance("q_chain", seed=10)
        clear_witness_cache()
        plan = plan_instance(db, query)
        assert plan.signature() == "join=reference,split=no"
        payload = plan.features.as_dict()
        assert payload["endogenous_tuples"] == len(db)
        json.dumps(payload)

    def test_plan_does_not_depend_on_a_cached_structure(self):
        for family in ("q_chain", "q_3chain", "q_sj1_rats"):
            for seed in (0, 3, 11):
                db, query = _instance(family, seed)
                clear_witness_cache()
                cold = plan_instance(db, query)
                witness_structure(db, query)
                assert plan_instance(db, query) == cold

    def test_cli_explain_smoke(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serving.wire import database_to_spec

        db, query = _instance("q_chain", seed=8)
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(database_to_spec(db)))
        assert main(["planner", "explain", "q_chain", str(db_path)]) == 0
        output = capsys.readouterr().out
        assert "plan: join=" in output
        assert "endogenous_tuples" in output
