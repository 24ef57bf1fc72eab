"""Tests for parallel sharded batch execution and the result cache.

The contract under test (docs/parallelism.md): ``solve_batch`` with any
worker count returns exactly the serial results — values, contingency
sets, methods, and every ``BatchStats`` counter — and the persistent
``ResultCache`` round-trips results across invocations, surviving
corrupted entries.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from oracles.engines import forced_engines
from repro.core import solve_batch
from repro.core.analyzer import ResilienceAnalyzer
from repro.db import Database, DBTuple
from repro.parallel import (
    ComponentTask,
    PairTask,
    Shard,
    build_shards,
    group_by_database,
)
from repro.query.zoo import ALL_QUERIES
from repro.resilience.types import Budget
from repro.witness import (
    ResultCache,
    clear_witness_cache,
    pair_cache_key,
)
from repro.workloads import (
    large_random_database,
    random_database_for_queries,
    random_database_for_query,
)

# The parallel worker count exercised by this suite; the CI matrix leg
# raises it via REPRO_TEST_WORKERS.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))

SHARED_VOCAB_QUERIES = (
    "q_chain",
    "q_conf",
    "q_perm",
    "q_Aperm",
    "q_ACconf",
    "q_z3",
    "q_sj1_rats",
    "q_a_chain",
)


def _shared_workload(n_dbs, domain_size=4, density=0.45):
    queries = [ALL_QUERIES[n] for n in SHARED_VOCAB_QUERIES]
    dbs = [
        random_database_for_queries(
            queries, domain_size=domain_size, density=density, seed=seed
        )
        for seed in range(n_dbs)
    ]
    return [(db, q) for db in dbs for q in queries]


def _assert_batches_identical(a, b, compare_shard_fields=False):
    """Results and every reproducible BatchStats counter must match."""
    assert a.values() == b.values()
    assert [r.contingency_set for r in a] == [r.contingency_set for r in b]
    assert [r.method for r in a] == [r.method for r in b]
    sa, sb = a.stats, b.stats
    assert sa.pairs == sb.pairs
    assert sa.unique_pairs == sb.unique_pairs
    assert sa.methods == sb.methods
    assert sa.structures == sb.structures
    assert sa.intervals_exact == sb.intervals_exact
    assert sa.gap_total == sb.gap_total
    ra, rb = sa.reductions, sb.reductions
    for field in (
        "witnesses_raw",
        "witnesses_distinct",
        "witnesses_minimal",
        "witnesses_final",
        "tuples_raw",
        "tuples_final",
        "forced_tuples",
        "dominated_tuples",
        "components",
        "rounds",
    ):
        assert getattr(ra, field) == getattr(rb, field), field
    if compare_shard_fields:
        assert sa.shards == sb.shards
        assert sa.workers == sb.workers


class TestPickling:
    def test_dbtuple_round_trips(self):
        t = DBTuple("R", (1, ("composite", 2)))
        t2 = pickle.loads(pickle.dumps(t))
        assert t2 == t and hash(t2) == hash(t)

    def test_database_round_trips(self):
        db = Database()
        db.add_all("R", [(1, 2), (2, 3)])
        db.declare("A", 1, exogenous=True)
        db.add("A", 1)
        db2 = pickle.loads(pickle.dumps(db))
        assert db2 == db
        assert db2.relations["A"].exogenous


class TestSerialParallelEquivalence:
    def test_200_randomized_pairs_exact(self):
        """Acceptance: >= 200 randomized pairs, parallel == serial."""
        pairs = _shared_workload(25)
        assert len(pairs) == 200
        clear_witness_cache()
        serial = solve_batch(pairs, workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, workers=WORKERS)
        _assert_batches_identical(serial, parallel)
        assert parallel.stats.workers == WORKERS
        assert parallel.stats.shards >= 1

    @pytest.mark.parametrize("mode", ["approx", "anytime"])
    def test_bounded_modes_match_serial(self, mode):
        # A node budget (not a wall-clock one) keeps anytime runs
        # deterministic, so serial and parallel must agree exactly.
        budget = Budget(node_limit=50) if mode == "anytime" else None
        pairs = _shared_workload(6)
        clear_witness_cache()
        serial = solve_batch(pairs, mode=mode, budget=budget, workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, mode=mode, budget=budget, workers=WORKERS)
        assert serial.intervals() == parallel.intervals()
        _assert_batches_identical(serial, parallel)

    def test_component_sharding_matches_serial(self):
        """Large exact instances split per component, same answers."""
        vocab = [ALL_QUERIES[n] for n in ("q_chain", "q_a_chain", "q_ac_chain")]
        q = ALL_QUERIES["q_ac_chain"]
        pairs = [
            (large_random_database(vocab, n_tuples=250, seed=s), q)
            for s in (0, 1)
        ]
        clear_witness_cache()
        serial = solve_batch(pairs, workers=1)
        clear_witness_cache()
        # Forced split: every exact instance goes component-granular.
        with forced_engines(split=True):
            parallel = solve_batch(pairs, workers=WORKERS)
        _assert_batches_identical(serial, parallel)

    def test_workers_1_is_the_serial_fast_path(self, monkeypatch):
        # Pin the env-driven default to serial: under the CI parallel
        # leg (REPRO_TEST_WORKERS -> REPRO_WORKERS) the bare call would
        # otherwise run on the pool by design.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        pairs = _shared_workload(3)
        clear_witness_cache()
        default = solve_batch(pairs)
        clear_witness_cache()
        explicit = solve_batch(pairs, workers=1)
        _assert_batches_identical(default, explicit, compare_shard_fields=True)
        assert explicit.stats.workers == 1
        assert explicit.stats.shards == 0  # no pool, no shards

    def test_method_forcing_in_parallel(self):
        pairs = _shared_workload(3)
        clear_witness_cache()
        serial = solve_batch(pairs, method="exact", workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, method="exact", workers=WORKERS)
        _assert_batches_identical(serial, parallel)

    def test_duplicate_and_content_equal_pairs_dedupe(self):
        """Content-equal databases are one unit — the counter fix that
        makes stats worker-count-invariant."""
        q = ALL_QUERIES["q_chain"]
        db1 = Database()
        db1.add_all("R", [(1, 2), (2, 3), (3, 3)])
        db2 = Database()
        db2.add_all("R", [(1, 2), (2, 3), (3, 3)])
        assert db1 is not db2 and db1 == db2
        batch = solve_batch([(db1, q), (db2, q), (db1, q)], workers=WORKERS)
        assert batch.stats.pairs == 3
        assert batch.stats.unique_pairs == 1
        assert len({id(r) for r in batch}) == 1

    def test_analyzer_solve_many(self):
        q = ALL_QUERIES["q_chain"]
        queries = [ALL_QUERIES[n] for n in SHARED_VOCAB_QUERIES]
        dbs = [
            random_database_for_queries(queries, domain_size=4, seed=s)
            for s in range(4)
        ]
        analyzer = ResilienceAnalyzer(q)
        batch = analyzer.solve_many(dbs, workers=WORKERS)
        assert batch.values() == [analyzer.solve(db).value for db in dbs]


class TestResultCache:
    def _pairs(self):
        return _shared_workload(4)

    def test_cold_then_warm_round_trip(self, tmp_path):
        pairs = self._pairs()
        clear_witness_cache()
        cold = solve_batch(pairs, cache_dir=tmp_path)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == cold.stats.unique_pairs
        clear_witness_cache()
        warm = solve_batch(pairs, cache_dir=tmp_path)
        assert warm.stats.cache_hits == warm.stats.unique_pairs
        assert warm.stats.cache_misses == 0
        assert warm.stats.structures == 0  # nothing rebuilt
        assert cold.values() == warm.values()
        assert [r.contingency_set for r in cold] == [
            r.contingency_set for r in warm
        ]

    def test_open_time_limited_intervals_are_not_stored(self, tmp_path):
        """An interval a wall-clock limit left open depends on the load,
        so a warm rerun solves again instead of serving it."""
        # Every directed edge on three vertices: the polynomial bounds
        # give [3, 4] for q_chain and the optimum is 4, so a deadline
        # that passes before the search's first node leaves it open.
        db = Database()
        db.declare("R", 2)
        for a, b in [(0, 2), (0, 3), (2, 0), (2, 3), (3, 0), (3, 2)]:
            db.add("R", a, b)
        pairs = [(db, ALL_QUERIES["q_chain"])]
        budget = Budget(time_limit=1e-9)
        cold = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        assert [r.interval for r in cold] == [(3, 4)]
        warm = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        assert warm.stats.cache_hits == 0
        assert warm.stats.cache_misses == warm.stats.unique_pairs
        # A bare number of seconds is the same wall-clock budget.
        again = solve_batch(
            pairs, mode="anytime", budget=1e-9, cache_dir=tmp_path
        )
        assert again.stats.cache_hits == 0

    def test_closed_time_limited_intervals_are_stored(self, tmp_path):
        """A closed interval is the unlimited answer whatever the clock,
        so a time limit does not keep it out of the cache."""
        pairs = self._pairs()
        budget = Budget(time_limit=5)
        cold = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        assert all(r.is_exact for r in cold)
        warm = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        assert warm.stats.cache_hits == warm.stats.unique_pairs
        assert [r.interval for r in warm] == [r.interval for r in cold]

    def test_node_limited_anytime_results_are_stored(self, tmp_path):
        pairs = self._pairs()
        budget = Budget(node_limit=50)
        cold = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        warm = solve_batch(
            pairs, mode="anytime", budget=budget, cache_dir=tmp_path
        )
        assert warm.stats.cache_hits == warm.stats.unique_pairs
        assert [r.interval for r in warm] == [r.interval for r in cold]

    def test_warm_parallel_run_matches(self, tmp_path):
        pairs = self._pairs()
        clear_witness_cache()
        cold = solve_batch(pairs, cache_dir=tmp_path, workers=WORKERS)
        clear_witness_cache()
        warm = solve_batch(pairs, cache_dir=tmp_path, workers=WORKERS)
        assert warm.stats.cache_hits == warm.stats.unique_pairs
        assert cold.values() == warm.values()

    def test_former_backend_pins_do_not_reach_the_cache(self, tmp_path):
        """A cache written by a process that sets the removed
        ``REPRO_*_BACKEND`` variables holds what an unforced solve
        computes, so a later run serves the fresh answer and method (a
        pinned HiGHS run once stored this instance as ``"ilp"``)."""
        args = "ALL_QUERIES['q_3chain'], domain_size=6, density=0.5, seed=1"
        script = (
            "import sys\n"
            "from repro.core import solve_batch\n"
            "from repro.query.zoo import ALL_QUERIES\n"
            "from repro.workloads import random_database_for_query\n"
            f"db = random_database_for_query({args})\n"
            "solve_batch([(db, ALL_QUERIES['q_3chain'])], cache_dir=sys.argv[1])\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
            REPRO_SOLVER_BACKEND="ilp",
            REPRO_KERNEL_BACKEND="reference",
            REPRO_JOIN_BACKEND="reference",
        )
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, check=True
        )
        query = ALL_QUERIES["q_3chain"]
        db = random_database_for_query(query, domain_size=6, density=0.5, seed=1)
        clear_witness_cache()
        cached = solve_batch([(db, query)], cache_dir=tmp_path)
        assert cached.stats.cache_hits == 1
        clear_witness_cache()
        (fresh,) = solve_batch([(db, query)])
        (served,) = cached
        assert (served.value, served.contingency_set, served.method) == (
            fresh.value,
            fresh.contingency_set,
            fresh.method,
        )

    def test_key_separates_modes_and_budgets(self):
        (db, q) = self._pairs()[0]
        base = pair_cache_key(db, q)
        assert base == pair_cache_key(db, q)  # deterministic
        assert base != pair_cache_key(db, q, mode="approx")
        assert base != pair_cache_key(db, q, method="exact")
        assert pair_cache_key(
            db, q, mode="anytime", budget=Budget(node_limit=10)
        ) != pair_cache_key(db, q, mode="anytime", budget=Budget(node_limit=20))
        # Bare-number budgets normalize like the solvers normalize them:
        # seconds == Budget(time_limit=seconds), distinct from unlimited.
        assert pair_cache_key(
            db, q, mode="anytime", budget=2.5
        ) == pair_cache_key(db, q, mode="anytime", budget=Budget(time_limit=2.5))
        assert pair_cache_key(db, q, mode="anytime", budget=2.5) != pair_cache_key(
            db, q, mode="anytime"
        )

    def test_key_tracks_content(self):
        q = ALL_QUERIES["q_chain"]
        db = Database()
        db.add_all("R", [(1, 2), (2, 3)])
        before = pair_cache_key(db, q)
        db.add("R", 3, 3)
        assert pair_cache_key(db, q) != before
        # equal contents => equal keys, even for distinct objects
        twin = Database()
        twin.add_all("R", [(1, 2), (2, 3), (3, 3)])
        assert pair_cache_key(twin, q) == pair_cache_key(db, q)

    def test_corrupted_entry_recovers(self, tmp_path):
        pairs = self._pairs()
        clear_witness_cache()
        cold = solve_batch(pairs, cache_dir=tmp_path)
        entries = sorted(tmp_path.glob("*.pkl"))
        assert len(entries) == cold.stats.unique_pairs
        # Corrupt one entry with garbage and truncate another.
        entries[0].write_bytes(b"not a pickle at all")
        entries[1].write_bytes(entries[1].read_bytes()[:7])
        clear_witness_cache()
        recovered = solve_batch(pairs, cache_dir=tmp_path)
        assert recovered.stats.cache_misses == 2
        assert recovered.stats.cache_hits == recovered.stats.unique_pairs - 2
        assert recovered.values() == cold.values()
        # The bad entries were rewritten: a third run is all hits.
        clear_witness_cache()
        healed = solve_batch(pairs, cache_dir=tmp_path)
        assert healed.stats.cache_hits == healed.stats.unique_pairs

    def test_mismatched_key_payload_is_rejected(self, tmp_path):
        """An entry whose embedded key disagrees with its filename is a
        miss (guards against files copied between stores)."""
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, ("whatever",))
        wrong = cache.cache_dir / ("b" * 64 + ".pkl")
        (cache.cache_dir / ("a" * 64 + ".pkl")).rename(wrong)
        assert cache.get("b" * 64) is None
        assert not wrong.exists()  # evicted
        assert cache.info()[:2] == (0, 1)


class TestSharding:
    def test_deterministic_and_balanced(self):
        q = ALL_QUERIES["q_chain"]
        dbs = []
        for size in (8, 1, 5, 3, 2, 7):
            db = Database()
            db.add_all("R", [(i, i + 1) for i in range(size)])
            dbs.append(db)
        tasks = [PairTask(i, db, q) for i, db in enumerate(dbs)]
        shards = build_shards(group_by_database(tasks), 3)
        again = build_shards(group_by_database(tasks), 3)
        assert shards == again
        assert sorted(t.task_id for s in shards for t in s.tasks) == list(
            range(len(tasks))
        )
        loads = sorted(s.cost_estimate for s in shards)
        # LPT keeps the spread within the largest task weight.
        assert loads[-1] <= loads[0] + max(t.cost_estimate for t in tasks)

    def test_database_affinity_when_balance_allows(self):
        """Each database's tasks stay together when shards can still
        balance (index sharing)."""
        q1, q2 = ALL_QUERIES["q_chain"], ALL_QUERIES["q_conf"]
        dbs = []
        for offset in (0, 10):
            db = Database()
            db.add_all("R", [(offset + 1, offset + 2), (offset + 2, offset + 3)])
            dbs.append(db)
        tasks = [
            PairTask(i * 2 + j, db, q)
            for i, db in enumerate(dbs)
            for j, q in enumerate((q1, q2))
        ]
        shards = build_shards(group_by_database(tasks), 2)
        assert len(shards) == 2
        for shard in shards:
            assert len({id(t.database) for t in shard.tasks}) == 1

    def test_one_hot_database_still_fans_out(self):
        """A single shared database must not serialize the batch: its
        group is split once it exceeds an even share."""
        q1, q2 = ALL_QUERIES["q_chain"], ALL_QUERIES["q_conf"]
        db = Database()
        db.add_all("R", [(i, i + 1) for i in range(6)])
        tasks = [PairTask(i, db, q1 if i % 2 else q2) for i in range(8)]
        shards = build_shards(group_by_database(tasks), 4)
        assert len(shards) == 4
        assert build_shards(group_by_database(tasks), 4) == shards
        assert sorted(t.task_id for s in shards for t in s.tasks) == list(
            range(8)
        )

    def test_many_queries_one_database_matches_serial(self):
        queries = [ALL_QUERIES[n] for n in SHARED_VOCAB_QUERIES]
        db = random_database_for_queries(queries, domain_size=4, seed=7)
        pairs = [(db, q) for q in queries]
        clear_witness_cache()
        serial = solve_batch(pairs, workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, workers=WORKERS)
        _assert_batches_identical(serial, parallel)
        assert parallel.stats.shards > 1  # the hot database was split

    def test_component_tasks_are_singleton_groups(self):
        tasks = [
            ComponentTask(0, (0, 1), (frozenset({0, 1}),)),
            ComponentTask(1, (2, 3), (frozenset({2, 3}),)),
        ]
        groups = group_by_database(tasks)
        assert [len(g) for g in groups] == [1, 1]
        shards = build_shards(groups, 2)
        assert len(shards) == 2

    def test_empty_and_invalid(self):
        assert build_shards([], 4) == []
        with pytest.raises(ValueError):
            build_shards([], 0)
        assert isinstance(
            Shard(0, ()), Shard
        )  # empty shard object is constructible


class TestEnvDefault:
    def test_repro_workers_env_sets_default(self, monkeypatch):
        from repro.core.analyzer import _default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert _default_workers() == 1
