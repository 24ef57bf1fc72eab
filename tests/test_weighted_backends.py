"""Differential suite for the weighted (min-cost) objective.

One randomized matrix of 200 skewed-cost instances — PTIME and NP-hard
zoo queries alike — cross-checked every way the engine can disagree
with itself:

* **kernels** — the frozenset reference and the bitset matrix kernel
  (forced through ``oracles.engines.forced_engines``) must produce
  identical weighted results (value, contingency set, method) in every
  mode;
* **min cut** — the scipy csgraph cut and the networkx oracle
  (:func:`oracles.flow.networkx_min_cut`, patched over
  ``FlowNetwork.min_cut``) must produce equal weighted *values* with
  valid, inclusion-minimal certificates paying exactly that value
  (minimum cuts are not unique, so the sets may legitimately differ —
  the same caveat as the unweighted tier, see
  ``tests/test_flow_backends.py``);
* **solver tiers** — branch-and-bound and the ILP oracle must agree
  exactly, and the LP/greedy approx bounds must enclose the optimum;
* **execution plans** — ``solve_batch`` over the matrix must return
  identical results serial and with ``workers=2``, cold-cache and
  warm-cache (and the warm run must actually hit the cache);
* **greedy determinism** — the weighted greedy tie-break (best
  cost-ratio, then smallest id) is pinned by regression so identical
  picks come back run after run and worker count after worker count.
"""

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from oracles.engines import forced_engines
from oracles.flow import patched_min_cut
from repro.core.analyzer import solve_batch
from repro.query.zoo import ALL_QUERIES
from repro.resilience.approx import greedy_hitting_set
from repro.resilience.exact import (
    is_contingency_set,
    resilience_branch_and_bound,
    resilience_ilp,
)
from repro.resilience.solver import dispatch_plan, solve
from repro.resilience.types import UnbreakableQueryError
from repro.witness import clear_witness_cache
from repro.workloads import assign_skewed_costs, random_database_for_query

# 8 queries x 25 seeds = the 200-instance matrix.  The PTIME rows cover
# both weighted-sound specials and (via q_lin) the linear min-cost-flow
# path; the NP-hard rows exercise the cost-aware kernel and the
# weighted branch-and-bound.
PTIME_QUERIES = ("q_perm", "q_Aperm", "q_lin")
HARD_QUERIES = ("q_chain", "q_3chain", "q_sj1_rats", "q_conf", "q_triangle_sj1")
SEEDS_PER_QUERY = 25


def _matrix_queries():
    names = [n for n in PTIME_QUERIES if n in ALL_QUERIES] + list(HARD_QUERIES)
    assert len(names) * SEEDS_PER_QUERY >= 200
    return names


def _instance(name, seed):
    """One deterministic skewed-cost instance of the matrix (seeded from
    a CRC of the name: ``hash`` of a str differs per process)."""
    query = ALL_QUERIES[name]
    rng = random.Random(zlib.crc32(name.encode()) * 1000 + seed)
    db = random_database_for_query(
        query,
        domain_size=rng.randint(4, 5),
        density=rng.uniform(0.3, 0.5),
        rng=rng,
    )
    assign_skewed_costs(db, rng=rng, max_cost=9)
    return db, query


def _weighted_exact(db, query):
    try:
        return solve(db, query, weighted=True)
    except UnbreakableQueryError:
        return None


def _digests_in_fresh_interpreter(hash_seed):
    """Content digests of instances of this matrix and of the storage
    suite's (same recipe), built by a fresh interpreter."""
    import repro

    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(repro.__file__).resolve().parent.parent
    script = (
        "import test_storage, test_weighted_backends\n"
        "for module in (test_weighted_backends, test_storage):\n"
        "    for name in ('q_perm', 'q_chain', 'q_triangle_sj1'):\n"
        "        for seed in (0, 5):\n"
        "            db, _ = module._instance(name, seed)\n"
        "            print(db.content_digest())\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join((str(src_dir), str(tests_dir))),
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tests_dir,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_instances_do_not_depend_on_the_hash_seed():
    """A failing matrix id names the same instance in every process."""
    first = _digests_in_fresh_interpreter(1)
    assert len(first) == 12
    assert _digests_in_fresh_interpreter(2) == first
    here = [
        _instance(name, seed)[0].content_digest()
        for name in ("q_perm", "q_chain", "q_triangle_sj1")
        for seed in (0, 5)
    ]
    assert here == first[:6]


class TestKernelBackendsAgreeWeighted:
    @pytest.mark.parametrize("name", _matrix_queries())
    def test_reference_and_bitset_kernels_identical(self, name):
        for seed in range(SEEDS_PER_QUERY):
            db, query = _instance(name, seed)
            answers = {}
            for kernel in ("reference", None):
                with forced_engines(kernel=kernel):
                    clear_witness_cache()
                    res = _weighted_exact(db, query)
                answers[kernel] = (
                    res
                    if res is None
                    else (res.value, res.contingency_set, res.method)
                )
            clear_witness_cache()
            assert answers["reference"] == answers[None], (name, seed)


class TestFlowBackendsAgreeWeighted:
    def test_networkx_and_csgraph_values_equal(self):
        """Every flow-routed instance of the matrix: equal min-cost
        values, both certificates valid, inclusion-minimal and paying
        exactly the value."""
        flow_cases = 0
        for name in _matrix_queries():
            query = ALL_QUERIES[name]
            if dispatch_plan(query, weighted=True).kind == "exact":
                continue
            for seed in range(SEEDS_PER_QUERY):
                db, query = _instance(name, seed)
                clear_witness_cache()
                b = _weighted_exact(db, query)
                with patched_min_cut():
                    clear_witness_cache()
                    a = _weighted_exact(db, query)
                if a is None or b is None:
                    assert a is None and b is None, (name, seed)
                    continue
                assert a.value == b.value, (name, seed)
                for res in (a, b):
                    gamma = res.contingency_set
                    assert db.total_cost(gamma) == res.value
                    assert is_contingency_set(db, query, gamma)
                    for fact in gamma:
                        assert not is_contingency_set(
                            db, query, gamma - {fact}
                        ), (name, seed, fact)
                flow_cases += 1
        assert flow_cases > 0


class TestSolverTiersAgreeWeighted:
    @pytest.mark.parametrize("name", _matrix_queries())
    def test_bnb_ilp_and_lp_bounds_agree(self, name):
        clear_witness_cache()
        for seed in range(SEEDS_PER_QUERY):
            db, query = _instance(name, seed)
            try:
                bnb = resilience_branch_and_bound(db, query, weighted=True)
            except UnbreakableQueryError:
                with pytest.raises(UnbreakableQueryError):
                    resilience_ilp(db, query, weighted=True)
                continue
            ilp = resilience_ilp(db, query, weighted=True)
            assert bnb.value == ilp.value, (name, seed)
            auto = _weighted_exact(db, query)
            assert auto is not None and auto.value == bnb.value, (name, seed)
            bounds = solve(db, query, mode="approx", weighted=True)
            assert bounds.lower_bound <= bnb.value <= bounds.upper_bound
            assert (
                db.total_cost(bounds.contingency_set) == bounds.upper_bound
            )


class TestExecutionPlansAgreeWeighted:
    def _pairs(self):
        return [
            _instance(name, seed)
            for name in _matrix_queries()
            for seed in range(3)
        ]

    @staticmethod
    def _key(results):
        return [(r.value, r.contingency_set, r.method) for r in results]

    def test_serial_and_two_workers_identical(self):
        pairs = self._pairs()
        clear_witness_cache()
        serial = solve_batch(pairs, weighted=True, workers=1)
        clear_witness_cache()
        pooled = solve_batch(pairs, weighted=True, workers=2)
        assert self._key(serial.results) == self._key(pooled.results)

    def test_cold_and_warm_cache_identical(self, tmp_path):
        pairs = self._pairs()
        cache_dir = tmp_path / "cache"
        clear_witness_cache()
        cold = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert cold.stats.cache_hits == 0
        clear_witness_cache()
        warm = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert warm.stats.cache_hits == len(pairs)
        assert self._key(cold.results) == self._key(warm.results)

    def test_weighted_and_unweighted_cache_keys_disjoint(self, tmp_path):
        """A cached unweighted answer must never serve a weighted
        request over the same database (and vice versa)."""
        pairs = [_instance("q_chain", 0)]
        cache_dir = tmp_path / "cache"
        clear_witness_cache()
        unweighted = solve_batch(pairs, cache_dir=cache_dir)
        clear_witness_cache()
        weighted = solve_batch(pairs, weighted=True, cache_dir=cache_dir)
        assert weighted.stats.cache_hits == 0
        db, _ = pairs[0]
        assert weighted.results[0].value == db.total_cost(
            weighted.results[0].contingency_set
        )
        assert unweighted.results[0].value == len(
            unweighted.results[0].contingency_set
        )


class TestWeightedGreedyTieBreak:
    """Regression: the weighted greedy pick is (best cost-ratio,
    smallest id) — integer cross-multiplication, no float ratios — so
    identical picks come back across runs and worker counts."""

    def test_equal_ratio_tie_picks_smallest_id(self):
        # Tuples 2 and 7 both hit two sets at cost 4 (ratio 1/2 each);
        # the tie must go to id 2.
        sets = [
            frozenset({2, 7}),
            frozenset({2, 9}),
            frozenset({7, 9}),
        ]
        costs = {2: 4, 7: 4, 9: 9}
        chosen = greedy_hitting_set(sets, costs=costs)
        assert 2 in chosen
        assert chosen == greedy_hitting_set(sets, costs=costs)

    def test_cheaper_ratio_beats_smaller_id(self):
        # Tuple 9 covers one set at cost 1 (ratio 1) vs tuple 1 at
        # cost 5 (ratio 5): the ratio decides, not the id.
        sets = [frozenset({1, 9})]
        assert greedy_hitting_set(sets, costs={1: 5, 9: 1}) == {9}

    def test_picks_stable_across_repeated_runs(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 20)
            ids = rng.sample(range(60), n)
            sets = [
                frozenset(rng.sample(ids, rng.randint(1, min(4, n))))
                for _ in range(rng.randint(1, 30))
            ]
            costs = {t: rng.randint(1, 9) for t in ids}
            first = greedy_hitting_set(sets, costs=costs)
            assert all(
                greedy_hitting_set(sets, costs=costs) == first
                for _ in range(3)
            )

    def test_picks_stable_across_worker_counts(self):
        pairs = [_instance("q_chain", s) for s in range(4)]
        outcomes = []
        for workers in (1, 2):
            clear_witness_cache()
            batch = solve_batch(pairs, mode="approx", weighted=True,
                                workers=workers)
            outcomes.append(
                [
                    (r.lower_bound, r.upper_bound, r.contingency_set, r.method)
                    for r in batch.results
                ]
            )
        assert outcomes[0] == outcomes[1]
