"""E22 — out-of-core storage: million-tuple PTIME instances under a
fixed RSS ceiling.

The storage engine (:mod:`repro.storage`) keeps a database as memmap'd
int64 column files and hands the columnar join the on-disk matrices
directly, so witness enumeration over ``D |= q`` (Section 2) — the
whole cost of a resilience solve on the PTIME chain workload
(Proposition 31's tractable side) — runs without ever materializing
the instance as Python objects.

**Gates.**

* *RSS ceiling* — a fresh subprocess streams a
  ``REPRO_BENCH_E22_TUPLES``-tuple chain instance (default 10^6)
  straight into a snapshot, reopens it, and solves exact resilience;
  its lifetime peak RSS (``ru_maxrss``) must stay under
  ``REPRO_BENCH_E22_RSS_MB`` (default 1024), and the value must equal
  the workload's known ground truth (the hot-pair count).
* *Bit-identity* — at an overlapping scale
  (``REPRO_BENCH_E22_OVERLAP``, default 50k tuples) the snapshot-backed
  and in-memory backends must agree bit-for-bit: equal content
  digests, identical witness incidence matrices (universe order and
  all), and equal resilience values.
* *Columnar pick* — a snapshot-backed instance joins columnar at any
  size, even below the in-memory size rule: the join rule says so, the
  backend counters show that the columnar join ran, and the value
  equals the in-memory one.

Results are written to ``BENCH_e22_outofcore.json`` at the repository
root (same trajectory format as ``BENCH_e18_hotpaths.json``; see
``docs/performance.md``).  CI's ``tests-storage`` job shrinks the
scale through ``REPRO_BENCH_E22_TUPLES`` for a smoke run and uploads
the record as an artifact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.query.columnar import (
    MIN_TUPLES_DEFAULT,
    _use_columnar,
    backend_counters,
    columnar_witness_incidence,
    reset_backend_counters,
)
from repro.resilience.solver import solve
from repro.storage import ingest_database, open_stored_database
from repro.workloads import (
    DEFAULT_HOT_PAIRS,
    chain_database,
    chain_query,
    write_chain_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_e22_outofcore.json"

TUPLES = max(2_000, int(os.environ.get("REPRO_BENCH_E22_TUPLES", "1000000")))
HOT_PAIRS = max(1, int(os.environ.get("REPRO_BENCH_E22_HOT", str(DEFAULT_HOT_PAIRS))))
RSS_CEILING_MB = max(128, int(os.environ.get("REPRO_BENCH_E22_RSS_MB", "1024")))
OVERLAP_TUPLES = min(
    TUPLES, max(2_000, int(os.environ.get("REPRO_BENCH_E22_OVERLAP", "50000")))
)

RESULTS = {}

# The ceiling gate runs build+solve in a *fresh* interpreter:
# ru_maxrss is a lifetime peak, so measuring in the long-lived pytest
# process would charge E22 for every previously-run benchmark.
_CHILD_SCRIPT = """\
import json, os, resource, sys, time
from repro.query.columnar import backend_counters
from repro.resilience.solver import solve
from repro.storage import open_stored_database
from repro.workloads import chain_query, write_chain_snapshot

path = os.environ["E22_SNAPSHOT_PATH"]
tuples = int(os.environ["E22_TUPLES"])
hot = int(os.environ["E22_HOT"])
t0 = time.time()
write_chain_snapshot(path, tuples, hot)
t1 = time.time()
stored = open_stored_database(path)
result = solve(stored, chain_query(), method="exact")
t2 = time.time()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak //= 1024  # macOS reports bytes, Linux kilobytes
print(json.dumps({
    "value": result.value,
    "method": result.method,
    "digest": stored.content_digest(),
    "build_seconds": round(t1 - t0, 3),
    "solve_seconds": round(t2 - t1, 3),
    "ru_maxrss_kb": int(peak),
    "counters": backend_counters(),
}))
"""


def _run_child(path: Path) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    env["E22_SNAPSHOT_PATH"] = str(path)
    env["E22_TUPLES"] = str(TUPLES)
    env["E22_HOT"] = str(HOT_PAIRS)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.returncode == 0, f"E22 child failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gate_build_and_solve_under_rss_ceiling(tmp_path):
    """Gate: a fresh process builds and solves the full-scale instance
    with peak RSS under the ceiling, and gets the known answer."""
    pytest.importorskip("resource")
    report = _run_child(tmp_path / "e22-snapshot")
    peak_mb = report["ru_maxrss_kb"] / 1024.0
    assert report["value"] == HOT_PAIRS, report
    assert peak_mb <= RSS_CEILING_MB, (
        f"peak RSS {peak_mb:.0f} MB exceeds the {RSS_CEILING_MB} MB ceiling"
    )
    # The solve must actually have run the columnar join (never the
    # reference evaluator, which would materialize every fact).
    assert report["counters"]["columnar"] >= 1, report["counters"]
    assert report["counters"]["fallback"] == 0, report["counters"]
    RESULTS["ceiling"] = {
        "tuples": TUPLES,
        "hot_pairs": HOT_PAIRS,
        "rss_ceiling_mb": RSS_CEILING_MB,
        "peak_rss_mb": round(peak_mb, 1),
        "build_seconds": report["build_seconds"],
        "solve_seconds": report["solve_seconds"],
        "value": report["value"],
        "digest": report["digest"],
    }


def test_gate_bit_identical_to_in_memory_at_overlap(tmp_path):
    """Gate: snapshot-backed and in-memory backends agree bit-for-bit
    at an overlapping scale — digests, witness incidence, values."""
    db = chain_database(OVERLAP_TUPLES, HOT_PAIRS)
    path = ingest_database(db, tmp_path / "overlap")
    stored = open_stored_database(path)
    query = chain_query()

    assert stored.content_digest() == db.content_digest()
    streamed = write_chain_snapshot(
        tmp_path / "overlap-streamed", OVERLAP_TUPLES, HOT_PAIRS
    )
    assert open_stored_database(streamed).content_digest() == db.content_digest()

    mem_universe, mem_matrix = columnar_witness_incidence(db, query)
    st_universe, st_matrix = columnar_witness_incidence(stored, query)
    assert st_universe == mem_universe
    assert np.array_equal(st_matrix, mem_matrix)

    r_mem = solve(db, query, method="exact")
    r_st = solve(stored, query, method="exact")
    assert r_st.value == r_mem.value == HOT_PAIRS
    RESULTS["overlap"] = {
        "tuples": OVERLAP_TUPLES,
        "witnesses": int(mem_matrix.shape[0]),
        "value": r_mem.value,
        "digest_match": True,
    }


def test_gate_snapshot_joins_columnar(tmp_path):
    """Gate: a snapshot smaller than the in-memory size rule still joins
    columnar — by the rule and in the run — with the in-memory value."""
    db = chain_database(MIN_TUPLES_DEFAULT // 2, 8)
    stored = open_stored_database(ingest_database(db, tmp_path / "small"))
    assert not _use_columnar(db)
    assert _use_columnar(stored)
    reset_backend_counters()
    r_st = solve(stored, chain_query(), method="exact")
    counters = backend_counters()
    assert counters["columnar"] >= 1, counters
    assert r_st.value == solve(db, chain_query(), method="exact").value
    RESULTS["columnar"] = {"tuples": len(db), "counters": counters}


def test_write_bench_record():
    """Persist the measured trajectory entry (runs last in this file)."""
    ceiling = RESULTS.get("ceiling", {})
    record = {
        "schema": 1,
        "bench": "e22_outofcore",
        "version": repro.__version__,
        "matrix": {
            "tuples": TUPLES,
            "hot_pairs": HOT_PAIRS,
            "overlap_tuples": OVERLAP_TUPLES,
        },
        "gates": {
            "rss_ceiling_mb": RSS_CEILING_MB,
            "peak_rss_mb": ceiling.get("peak_rss_mb"),
            "under_ceiling": (
                ceiling.get("peak_rss_mb") is not None
                and ceiling["peak_rss_mb"] <= RSS_CEILING_MB
            ),
            "value_matches_ground_truth": ceiling.get("value") == HOT_PAIRS,
            "bit_identical_at_overlap": "overlap" in RESULTS,
            "columnar_out_of_core": "columnar" in RESULTS,
        },
        "ceiling": ceiling,
        "overlap": RESULTS.get("overlap"),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert RECORD_PATH.exists()
