"""Out-of-core storage: layout, read-only handles, and backend equivalence.

Three layers of protection for :mod:`repro.storage`:

* **layout** — the on-disk format is versioned, atomic, and validating:
  partial snapshots are never observable, incompatible layouts and
  malformed inputs (duplicate rows, non-int/str constants, unordered
  relations) are refused loudly, and the ingest digest equals the
  source database's :meth:`~repro.db.database.Database.content_digest`
  bit for bit;
* **handles** — :class:`~repro.storage.StoredDatabase` is read-only
  (in-place mutation raises), pickles by path (task payloads stay O(1)
  in the database size), and ``minus`` materializes;
* **equivalence** — across the same 8-family × seed matrix the
  weighted differential suite uses, the memmap-backed and in-memory
  backends must produce bit-identical witness incidence matrices,
  bit-identical kernels (universe, forced set, surviving witness
  sets), and equal resilience values (Definition 1) in both weighted
  and unweighted modes — plus an RSS-ceiling harness proving the
  out-of-core path actually bounds memory (skipped where
  ``resource`` is unavailable).
"""

import json
import os
import pickle
import random
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.columnar import columnar_witness_incidence
from repro.query.zoo import ALL_QUERIES
from repro.resilience.exact import is_contingency_set
from repro.resilience.solver import solve
from repro.resilience.types import UnbreakableQueryError
from repro.storage import (
    LAYOUT_VERSION,
    ReadOnlyStorageError,
    SnapshotLayoutError,
    SnapshotWriter,
    ingest_database,
    open_snapshot,
    open_stored_database,
)
from repro.witness import clear_witness_cache, witness_structure
from repro.workloads import assign_skewed_costs, random_database_for_query

# The same 8 zoo families the weighted differential matrix runs
# (tests/test_weighted_backends.py); fewer seeds since every instance
# is ingested to disk and solved four ways.
FAMILIES = (
    "q_perm",
    "q_Aperm",
    "q_lin",
    "q_chain",
    "q_3chain",
    "q_sj1_rats",
    "q_conf",
    "q_triangle_sj1",
)
SEEDS_PER_FAMILY = 6


def _instance(name, seed):
    """One deterministic skewed-cost instance (same recipe as the
    weighted matrix, so the two suites cover the same population)."""
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


def _stored(db, tmp_path, tag):
    return open_stored_database(ingest_database(db, tmp_path / tag))


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

class TestLayout:
    def test_ingest_digest_matches_content_digest(self, tmp_path):
        for name, seed in (("q_chain", 0), ("q_Aperm", 1)):
            db, _ = _instance(name, seed)
            stored = _stored(db, tmp_path, f"{name}-{seed}")
            assert stored.content_digest() == db.content_digest()
            assert stored.canonical_text() == db.canonical_text()

    def test_streaming_writer_digest_matches_ingest(self, tmp_path):
        db, _ = _instance("q_chain", 2)
        writer = SnapshotWriter(tmp_path / "streamed")
        for name in sorted(db.relations):
            rel = db.relations[name]
            costs = (
                {t.values: rel.cost(t) for t in rel}
                if rel.has_weighted_costs
                else None
            )
            writer.add_relation(
                name,
                rel.arity,
                (t.values for t in rel),
                exogenous=rel.exogenous,
                costs=costs,
            )
        writer.commit()
        stored = open_stored_database(tmp_path / "streamed")
        assert stored.content_digest() == db.content_digest()

    def test_target_exists_is_refused_without_overwrite(self, tmp_path):
        db, _ = _instance("q_chain", 0)
        ingest_database(db, tmp_path / "snap")
        with pytest.raises(SnapshotLayoutError):
            ingest_database(db, tmp_path / "snap")
        ingest_database(db, tmp_path / "snap", overwrite=True)

    def test_abort_leaves_no_staging_directory(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "aborted")
        writer.add_relation("R", 2, [(1, 2)])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_failed_add_is_not_observable(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "bad")
        with pytest.raises(SnapshotLayoutError):
            writer.add_relation("R", 2, [(1, 2), (3,)])
        writer.abort()
        assert not (tmp_path / "bad").exists()

    def test_incompatible_layout_version_is_refused(self, tmp_path):
        db, _ = _instance("q_chain", 0)
        path = ingest_database(db, tmp_path / "snap")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["layout"] = LAYOUT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotLayoutError, match="layout"):
            open_snapshot(path)

    def test_non_snapshot_directory_is_refused(self, tmp_path):
        with pytest.raises(SnapshotLayoutError):
            open_snapshot(tmp_path)

    def test_duplicate_rows_are_rejected(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "dup")
        with pytest.raises(SnapshotLayoutError, match="duplicate"):
            writer.add_relation("R", 2, [(1, 2), (1, 2)])
        writer.abort()

    def test_relations_must_arrive_in_name_order(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "order")
        writer.add_relation("S", 1, [(1,)])
        with pytest.raises(SnapshotLayoutError, match="ascending"):
            writer.add_relation("R", 1, [(1,)])
        writer.abort()

    def test_non_int_str_constants_are_rejected(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "const")
        with pytest.raises(SnapshotLayoutError, match="int or str"):
            writer.add_relation("R", 1, [(1.5,)])
        writer.abort()

    def test_mixed_and_all_int_constant_tables_round_trip(self, tmp_path):
        mixed = Database()
        mixed.add("R", "a", 1)
        mixed.add("R", "b", 2)
        ints = Database()
        ints.add("R", 1, 2)
        ints.add("R", 3, 4)
        for tag, db in (("mixed", mixed), ("ints", ints)):
            stored = _stored(db, tmp_path, tag)
            assert set(stored) == set(db)

    def test_costs_and_exogenous_flags_round_trip(self, tmp_path):
        db = Database()
        fact = db.add("R", 1, 2, cost=5)
        db.add("R", 2, 3)
        db.add("H", 1, 3, cost=7)
        db.set_exogenous("H")
        stored = _stored(db, tmp_path, "costs")
        assert stored.relations["H"].exogenous
        assert not stored.relations["R"].exogenous
        assert stored.cost(fact) == 5
        assert stored.cost(DBTuple("R", (2, 3))) == 1
        # Exogenous costs are preserved too (served, never charged).
        assert stored.cost(DBTuple("H", (1, 3))) == 7
        assert stored.has_weighted_costs() == db.has_weighted_costs()


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class TestStoredHandles:
    def test_in_place_mutation_raises(self, tmp_path):
        db, _ = _instance("q_chain", 0)
        stored = _stored(db, tmp_path, "ro")
        for attempt in (
            lambda: stored.add("R", 1, 2),
            lambda: stored.declare("Z", 1),
            lambda: stored.set_cost(next(iter(stored)), 3),
            lambda: stored.set_exogenous("R"),
            lambda: stored.copy(),
        ):
            with pytest.raises(ReadOnlyStorageError):
                attempt()

    def test_minus_materializes_a_mutable_copy(self, tmp_path):
        db = Database()
        db.add("R", 1, 2)
        db.add("R", 2, 3)
        stored = _stored(db, tmp_path, "minus")
        gone = DBTuple("R", (1, 2))
        reduced = stored.minus({gone})
        assert isinstance(reduced, Database)
        assert gone not in reduced
        assert DBTuple("R", (2, 3)) in reduced
        assert gone in stored  # the snapshot itself is untouched

    def test_pickle_is_by_path_and_o1_sized(self, tmp_path):
        small, _ = _instance("q_chain", 0)
        big = Database()
        big.add_all("R", ((i, i + 1) for i in range(20_000)))
        payloads = []
        for tag, db in (("small", small), ("big", big)):
            stored = _stored(db, tmp_path, tag)
            blob = pickle.dumps(stored)
            payloads.append(len(blob))
            reopened = pickle.loads(blob)
            assert reopened.content_digest() == stored.content_digest()
        # 20k tuples vs ~40: the payload must not scale with content.
        assert abs(payloads[0] - payloads[1]) < 64

    def test_equality_and_hash_are_content_keyed(self, tmp_path):
        db, _ = _instance("q_chain", 1)
        a = _stored(db, tmp_path, "eq-a")
        b = _stored(db, tmp_path, "eq-b")
        assert a == b and hash(a) == hash(b)
        other, _ = _instance("q_chain", 2)
        c = _stored(other, tmp_path, "eq-c")
        assert a != c

    def test_to_database_round_trips_content(self, tmp_path):
        db, _ = _instance("q_3chain", 3)
        stored = _stored(db, tmp_path, "roundtrip")
        assert stored.to_database() == db


# ---------------------------------------------------------------------------
# Backend equivalence (the 8-family matrix)
# ---------------------------------------------------------------------------

def _kernel_fingerprint(ws):
    """The kernel at fact level: universe, forced facts, surviving sets."""
    return (
        ws.universe,
        ws.forced,
        sorted(
            sorted(t.sort_key() for t in ws.tuples(s)) for s in ws.sets
        ),
        ws.stats.tuples_final,
        ws.stats.witnesses_final,
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_witness_incidence_is_bit_identical(self, name, tmp_path):
        for seed in range(SEEDS_PER_FAMILY):
            db, query = _instance(name, seed)
            stored = _stored(db, tmp_path, f"wi-{seed}")
            mem = columnar_witness_incidence(db, query)
            out = columnar_witness_incidence(stored, query)
            assert (mem is None) == (out is None), (name, seed)
            if mem is None:
                continue
            assert out[0] == mem[0], (name, seed)
            assert np.array_equal(out[1], mem[1]), (name, seed)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_kernels_are_bit_identical(self, name, tmp_path):
        for seed in range(SEEDS_PER_FAMILY):
            for weighted in (False, True):
                db, query = _instance(name, seed)
                stored = _stored(db, tmp_path, f"k-{seed}-{weighted}")
                clear_witness_cache()
                mem = witness_structure(db, query, weighted=weighted)
                clear_witness_cache()
                out = witness_structure(stored, query, weighted=weighted)
                clear_witness_cache()
                assert _kernel_fingerprint(out) == _kernel_fingerprint(mem), (
                    name,
                    seed,
                    weighted,
                )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_resilience_values_are_identical(self, name, tmp_path):
        for seed in range(SEEDS_PER_FAMILY):
            db, query = _instance(name, seed)
            stored = _stored(db, tmp_path, f"r-{seed}")
            for weighted in (False, True):
                clear_witness_cache()
                try:
                    mem = solve(db, query, weighted=weighted)
                except UnbreakableQueryError:
                    mem = None
                clear_witness_cache()
                try:
                    out = solve(stored, query, weighted=weighted)
                except UnbreakableQueryError:
                    out = None
                clear_witness_cache()
                assert (mem is None) == (out is None), (name, seed, weighted)
                if mem is None:
                    continue
                assert out.value == mem.value, (name, seed, weighted)
                # The certificate from the stored solve must be valid
                # against the *in-memory* instance (same content).
                assert is_contingency_set(db, query, out.contingency_set)
                if weighted:
                    assert db.total_cost(out.contingency_set) == out.value
                else:
                    assert len(out.contingency_set) == out.value


# ---------------------------------------------------------------------------
# RSS ceiling (reduced-scale harness; the full gate is bench E22)
# ---------------------------------------------------------------------------

_RSS_CHILD = """\
import json, os, resource, sys
from repro.resilience.solver import solve
from repro.storage import open_stored_database
from repro.workloads import chain_query, write_chain_snapshot

path = os.environ["E22_SNAPSHOT_PATH"]
tuples = int(os.environ["E22_TUPLES"])
write_chain_snapshot(path, tuples)
result = solve(open_stored_database(path), chain_query(), method="exact")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak //= 1024
print(json.dumps({"value": result.value, "ru_maxrss_kb": int(peak)}))
"""


class TestRSSCeiling:
    def test_reduced_scale_build_and_solve_stays_under_ceiling(self, tmp_path):
        """A fresh interpreter streams, opens, and solves a 100k-tuple
        chain instance under a 512 MB lifetime-RSS ceiling."""
        pytest.importorskip("resource")
        tuples = int(os.environ.get("REPRO_TEST_RSS_TUPLES", "100000"))
        ceiling_mb = int(os.environ.get("REPRO_TEST_RSS_MB", "512"))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else f"{src}{os.pathsep}{existing}"
        )
        env["E22_SNAPSHOT_PATH"] = str(tmp_path / "rss-snapshot")
        env["E22_TUPLES"] = str(tuples)
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["value"] == 512
        assert report["ru_maxrss_kb"] / 1024.0 <= ceiling_mb, report


# ---------------------------------------------------------------------------
# Zero-copy worker sharing
# ---------------------------------------------------------------------------

class TestWorkerSharing:
    def test_workers_reopen_the_snapshot_by_path(self, tmp_path):
        from repro.parallel import PairTask, build_shards, execute_shards, group_by_database
        from repro.workloads import chain_database, chain_query

        db = chain_database(4_000, hot_pairs=64)
        stored = _stored(db, tmp_path, "pool")
        query = chain_query()
        tasks = [
            PairTask(0, stored, query, method="exact"),
            PairTask(1, db, query, method="exact"),
        ]
        shards = build_shards(group_by_database(tasks), 2)
        results, _telemetry = execute_shards(shards, workers=2)
        assert results[0].value == results[1].value == 64
