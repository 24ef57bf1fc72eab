"""E20 — weighted resilience, gated against the ILP oracle and recorded.

Weighted resilience charges each endogenous tuple its ``cost`` (a
positive integer, default 1) instead of counting deletions; the optimum
is the minimum-*cost* hitting set of the witness structure.  This
benchmark drives the full randomized matrix the ISSUE/E20 contract
names and gates on exact agreement everywhere:

* **PTIME weighted flow vs the ILP oracle** — every query the weighted
  dispatcher routes to min-cost flow (the cost-sound specials
  ``q_perm``/``q_Aperm`` plus repeat-free linear queries) must match
  :func:`repro.resilience.exact.resilience_ilp` *and*
  :func:`~repro.resilience.exact.resilience_branch_and_bound` on value,
  and its certificate must pay exactly that value and destroy every
  witness;
* **weighted kernel + BnB vs the ILP oracle** — on the NP-hard zoo
  queries the cost-aware kernelization + branch-and-bound must agree
  with the ILP on every skewed-cost instance;
* **unit-cost delegation** — with every cost 1, ``weighted=True``
  returns results *bit-identical* (value, contingency set, interval,
  method) to the unweighted path in all three modes;
* **certified weighted intervals** — the approx/anytime tier's bounds
  must enclose the weighted optimum.

``REPRO_BENCH_E20_SEEDS`` shrinks the matrix for CI smoke runs.  The
measured numbers are written to ``BENCH_e20_weighted.json`` at the
repository root (the same machine-readable trajectory format as
``BENCH_e18_hotpaths.json``; see ``docs/performance.md``).
"""

import json
import os
import time
from pathlib import Path

from repro.db.tuples import DBTuple
from repro.query.zoo import ALL_QUERIES
from repro.resilience.exact import (
    _milp_tools,
    is_contingency_set,
    resilience_branch_and_bound,
    resilience_ilp,
)
from repro.resilience.solver import dispatch_plan, solve
from repro.resilience.types import Budget, UnbreakableQueryError
from repro.witness import clear_witness_cache
from repro.workloads import assign_skewed_costs, random_database_for_query

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_e20_weighted.json"

SEEDS = max(1, int(os.environ.get("REPRO_BENCH_E20_SEEDS", "6")))

# Density/domain tuned so instances carry real witness structure while
# the ILP oracle stays fast enough to run the whole matrix.
DOMAIN = 6
DENSITY = 0.4
MAX_COST = 9

# NP-hard zoo queries for the kernel+BnB-vs-ILP leg (weighted dispatch
# routes all of these to the exact tier).
HARD_QUERIES = (
    "q_chain",
    "q_3chain",
    "q_sj1_rats",
    "q_triangle_sj1",
    "q_conf",
)

# Results accumulated across the gate tests; the final test writes the
# BENCH record from whatever ran.
RESULTS = {}


def _weighted_flow_queries():
    """Every zoo query the *weighted* dispatcher keeps polynomial."""
    names = []
    for name in sorted(ALL_QUERIES):
        if dispatch_plan(ALL_QUERIES[name], weighted=True).kind in (
            "special",
            "flow",
        ):
            names.append(name)
    return names


def _skewed_instance(query, seed):
    db = random_database_for_query(
        query, domain_size=DOMAIN, density=DENSITY, seed=seed
    )
    assign_skewed_costs(db, seed=seed + 101, max_cost=MAX_COST)
    return db


def _endogenous_cost(db, gamma):
    assert all(isinstance(t, DBTuple) for t in gamma)
    return db.total_cost(gamma)


def _check_certificate(db, query, result):
    """The contingency set pays exactly the value and kills every witness."""
    assert _endogenous_cost(db, result.contingency_set) == result.value
    assert is_contingency_set(db, query, result.contingency_set)


def test_gate_weighted_flow_matches_ilp_oracle():
    """Gate: every weighted-PTIME query agrees with ILP + BnB on the
    full randomized skewed-cost matrix."""
    names = _weighted_flow_queries()
    assert "q_perm" in names and "q_Aperm" in names, names
    clear_witness_cache()
    # Resolve HiGHS (the scipy.optimize import) before the clock starts:
    # the recorded seconds time the solves, not a first import.
    _milp_tools()
    cases = unbreakable = 0
    t0 = time.perf_counter()
    per_query = {}
    for name in names:
        query = ALL_QUERIES[name]
        agreed = 0
        for seed in range(SEEDS):
            db = _skewed_instance(query, 1 + seed)
            try:
                flow = solve(db, query, weighted=True)
            except UnbreakableQueryError:
                # Some witness is all-exogenous: no deletion set exists.
                # Every solver must refuse identically.
                for oracle in (resilience_ilp, resilience_branch_and_bound):
                    try:
                        oracle(db, query, weighted=True)
                        raise AssertionError(
                            f"{name} seed {seed}: {oracle.__name__} solved "
                            "an unbreakable instance"
                        )
                    except UnbreakableQueryError:
                        pass
                unbreakable += 1
                continue
            ilp = resilience_ilp(db, query, weighted=True)
            bnb = resilience_branch_and_bound(db, query, weighted=True)
            assert flow.value == ilp.value == bnb.value, (
                f"{name} seed {seed}: flow {flow.value} vs "
                f"ilp {ilp.value} vs bnb {bnb.value}"
            )
            _check_certificate(db, query, flow)
            _check_certificate(db, query, ilp)
            _check_certificate(db, query, bnb)
            cases += 1
            agreed += 1
        per_query[name] = agreed
    elapsed = time.perf_counter() - t0
    assert cases > 0
    RESULTS["flow_vs_ilp"] = {
        "queries": names,
        "seeds": SEEDS,
        "cases_agreed": cases,
        "unbreakable_skipped": unbreakable,
        "per_query": per_query,
        "seconds": round(elapsed, 3),
    }


def test_gate_weighted_kernel_bnb_matches_ilp_oracle():
    """Gate: cost-aware kernel + BnB equals the ILP oracle on the
    NP-hard leg of the matrix."""
    clear_witness_cache()
    cases = 0
    t0 = time.perf_counter()
    for name in HARD_QUERIES:
        query = ALL_QUERIES[name]
        assert dispatch_plan(query, weighted=True).kind == "exact", name
        for seed in range(SEEDS):
            db = _skewed_instance(query, 1 + seed)
            bnb = resilience_branch_and_bound(db, query, weighted=True)
            ilp = resilience_ilp(db, query, weighted=True)
            assert bnb.value == ilp.value, (
                f"{name} seed {seed}: bnb {bnb.value} vs ilp {ilp.value}"
            )
            _check_certificate(db, query, bnb)
            _check_certificate(db, query, ilp)
            cases += 1
    elapsed = time.perf_counter() - t0
    RESULTS["kernel_bnb_vs_ilp"] = {
        "queries": list(HARD_QUERIES),
        "seeds": SEEDS,
        "cases_agreed": cases,
        "seconds": round(elapsed, 3),
    }


def test_gate_unit_cost_delegation_bit_identical():
    """Gate: all-unit ``weighted=True`` solves are bit-identical to the
    unweighted path in every mode."""
    clear_witness_cache()
    cases = 0
    queries = list(HARD_QUERIES) + ["q_perm", "q_Aperm"]
    for name in queries:
        query = ALL_QUERIES[name]
        for seed in range(min(SEEDS, 3)):
            db = random_database_for_query(
                query, domain_size=DOMAIN, density=DENSITY, seed=1 + seed
            )
            try:
                plain = solve(db, query)
            except UnbreakableQueryError:
                continue
            assert solve(db, query, weighted=True) == plain
            budget = Budget(node_limit=50)
            for mode, kwargs in (
                ("approx", {}),
                ("anytime", {"budget": budget}),
            ):
                a = solve(db, query, mode=mode, **kwargs)
                b = solve(db, query, mode=mode, weighted=True, **kwargs)
                assert a == b, f"{name} seed {seed} mode {mode}: {a} != {b}"
            cases += 1
    assert cases > 0
    RESULTS["unit_cost_delegation"] = {"cases": cases, "modes": 3}


def test_gate_weighted_intervals_certified():
    """Gate: weighted approx/anytime intervals enclose the weighted
    optimum, and anytime closure reports the exact value."""
    clear_witness_cache()
    cases = 0
    for name in HARD_QUERIES:
        query = ALL_QUERIES[name]
        for seed in range(min(SEEDS, 3)):
            db = _skewed_instance(query, 1 + seed)
            exact = resilience_ilp(db, query, weighted=True)
            bounds = solve(db, query, mode="approx", weighted=True)
            assert bounds.lower_bound <= exact.value <= bounds.upper_bound
            _check_certificate_interval(db, query, bounds)
            anytime = solve(db, query, mode="anytime", weighted=True)
            assert anytime.is_exact and anytime.value == exact.value
            cases += 1
    RESULTS["certified_intervals"] = {"cases": cases}


def _check_certificate_interval(db, query, bounded):
    """A bounded result's witness set pays its upper bound and is a
    valid contingency set."""
    assert _endogenous_cost(db, bounded.contingency_set) == bounded.upper_bound
    assert is_contingency_set(db, query, bounded.contingency_set)


def test_write_bench_record():
    """Persist the measured trajectory entry (runs last in this file)."""
    import repro

    flow = RESULTS.get("flow_vs_ilp", {})
    hard = RESULTS.get("kernel_bnb_vs_ilp", {})
    record = {
        "schema": 1,
        "bench": "e20_weighted",
        "version": repro.__version__,
        "matrix": {
            "seeds": SEEDS,
            "domain_size": DOMAIN,
            "density": DENSITY,
            "max_cost": MAX_COST,
        },
        "gates": {
            "flow_vs_ilp_cases": flow.get("cases_agreed"),
            "kernel_bnb_vs_ilp_cases": hard.get("cases_agreed"),
            "unit_cost_delegation_cases": RESULTS.get(
                "unit_cost_delegation", {}
            ).get("cases"),
            "certified_interval_cases": RESULTS.get(
                "certified_intervals", {}
            ).get("cases"),
        },
        "flow_vs_ilp": flow,
        "kernel_bnb_vs_ilp": hard,
        "unit_cost_delegation": RESULTS.get("unit_cost_delegation"),
        "certified_intervals": RESULTS.get("certified_intervals"),
        "all_agreed": bool(flow) and bool(hard),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert RECORD_PATH.exists()
