"""Tests for ``repro planner explain`` and the plan it prints.

:func:`repro.planner.plan_instance` reads each engine layer's own
decision function for one instance; :func:`repro.planner.extract_features`
reports the instance's size features.  This module pins

* that a plan is pure, leaves the witness-structure cache alone, and
  does not depend on whether a structure is cached;
* the plan signature and the ``repro planner explain`` CLI.

The sizes the features report are property-tested where the layers
read them (``TestSizeRuleInputs`` in ``tests/test_properties.py``), and
the decisions a plan collects at their own decision points
(``tests/test_backend_matrix.py``).  Effort (``max_examples``) comes
from the hypothesis profile registered in ``conftest.py``; do not pin
``max_examples`` here.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.db import Database
from repro.planner import plan_instance
from repro.query.zoo import ALL_QUERIES, q_chain
from repro.witness import clear_witness_cache, witness_cache_info, witness_structure
from repro.workloads import random_database_for_queries

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(family, seed):
    query = ALL_QUERIES[family]
    db = random_database_for_queries([query], domain_size=5, density=0.4, seed=seed)
    return db, query


edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    min_size=0,
    max_size=12,
    unique=True,
)


def chain_db(edge_list):
    db = Database()
    db.declare("R", 2)
    for (u, v) in edge_list:
        db.add("R", u, v)
    return db


class TestFeatureProperties:
    @given(edges)
    @SETTINGS
    def test_plans_are_pure(self, edge_list):
        db = chain_db(edge_list)
        assert plan_instance(db, q_chain) == plan_instance(db, q_chain)

    def test_cache_peek_does_not_disturb_cache_telemetry(self):
        db, query = _instance("q_chain", seed=6)
        clear_witness_cache()
        before = witness_cache_info()
        plan_instance(db, query)
        assert witness_cache_info() == before


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
