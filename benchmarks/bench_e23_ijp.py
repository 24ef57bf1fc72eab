"""E23 — distributed IJP certificate search: throughput, determinism,
rediscovery, resume.

The Appendix C.2 search (:mod:`repro.ijp`) enumerates set partitions of
``k`` canonical query copies and runs the Definition 48 checker over
each merged database.  The distributed engine replaces the recursive
one-partition-at-a-time walk (kept as the test oracle
``ijp_search_reference`` in ``tests/oracles/ijp.py``) with
restricted-growth-string batches over numpy, sound prefix pruning,
vectorized leaf screens, and an exact hitting-set prescreen for
condition 5 — then shards the space into worker-independent
lexicographic ranges with per-shard checkpoints.  The screens do not
shrink this space much: at the default 3 copies no prefix is pruned,
and 17,539 of the 21,147 leaves reach the per-database check
(``PartitionSpace.evaluate_leaf``), so the speedup comes from checking
a leaf faster, not from checking fewer.

**Gates** (all on the Example 62 space: the triangle query at
``REPRO_BENCH_E23_COPIES`` copies, B(9) = 21147 partitions at the
default 3).

* *Speedup* — covered partitions/second of the full engine sweep must
  beat the reference walk (timed on a
  ``REPRO_BENCH_E23_BASELINE_SLICE``-partition slice, default 200) by
  ≥ 10×.  Each side is timed ``TIMING_RUNS`` (3) times, alternating
  which side goes first, and the gate is the ratio of the two medians;
  every run is recorded.
* *Parallel bit-identity* — a serial sweep and a
  ``REPRO_BENCH_E23_WORKERS``-worker sweep (default 2) must produce
  identical certificates, near misses, and statistics.
* *Example 62 rediscovery* — the triangle IJP (a proper certificate
  partitioning the 9 constants into 5 blocks) must be among the found
  certificates and re-check as an IJP through the independent serial
  checker on its rebuilt database.
* *Resume* — a second cache-backed sweep must replay every shard from
  its checkpoint (``shards_resumed`` equal to the shard count) and
  return identical results.

Results are written to ``BENCH_e23_ijp.json`` at the repository root
(same trajectory format as ``BENCH_e22_outofcore.json``; see
``docs/ijp.md``).  CI's ``tests-ijp`` job shrinks the scale through
``REPRO_BENCH_E23_COPIES=2`` for a smoke run and uploads the record as
an artifact.
"""

import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.ijp.checker import check_ijp, find_ijp_pair
from repro.ijp.rgs import bell_number
from repro.ijp.sweep import certificate_is_proper, sweep_range
from repro.query.evaluation import satisfies
from repro.query.zoo import q_triangle

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_e23_ijp.json"

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.ijp import merge_copies, set_partitions  # noqa: E402

COPIES = max(2, int(os.environ.get("REPRO_BENCH_E23_COPIES", "3")))
WORKERS = max(2, int(os.environ.get("REPRO_BENCH_E23_WORKERS", "2")))
BASELINE_SLICE = max(
    20, int(os.environ.get("REPRO_BENCH_E23_BASELINE_SLICE", "200"))
)
SPEEDUP_GATE = 10.0 if COPIES >= 3 else 1.0
# Runs per side of the speedup gate.  One shot of each side moved their
# ratio by about ±20% on a shared 2-core host.
TIMING_RUNS = 3

RESULTS = {}


def _reference_partitions_per_second(k: int, limit: int) -> dict:
    """Time the pre-vectorization per-partition check — exactly
    :func:`ijp_search_reference`'s loop body, minus the early exit —
    on a slice strided uniformly across the space.  A lexicographic
    *prefix* would flatter the baseline: early RGS codes merge most
    constants into few blocks, so their databases are small and cheap
    to check.  Only check time is measured (the recursive enumeration
    rides along for free), which also favors the baseline."""
    constants = [
        (tag, v) for tag in range(k) for v in sorted(q_triangle.variables())
    ]
    step = max(1, bell_number(len(constants)) // limit)
    checked = 0
    seconds = 0.0
    for partition in itertools.islice(
        set_partitions(constants), 0, None, step
    ):
        checked += 1
        started = time.perf_counter()
        db = merge_copies(q_triangle, k, partition)
        if satisfies(db, q_triangle):
            find_ijp_pair(db, q_triangle)
        seconds += time.perf_counter() - started
    return {
        "partitions": checked,
        "stride": step,
        "seconds": round(seconds, 3),
        "partitions_per_second": checked / seconds,
    }


def _engine_sweep() -> dict:
    """Time one full engine sweep of the space."""
    started = time.perf_counter()
    sweep = sweep_range(q_triangle, COPIES, query_name="q_triangle")
    seconds = time.perf_counter() - started
    assert sweep.stats.exhausted
    return {
        "sweep": sweep,
        "seconds": seconds,
        "partitions_per_second": sweep.stats.covered / seconds,
    }


def test_gate_speedup_vs_reference():
    """Gate: the engine covers ≥ 10× more partitions/second than the
    recursive reference walk on the triangle space.

    Both sides run ``TIMING_RUNS`` times, alternating which goes first
    so that drift in the host's load lands on both; the gate divides
    the median rates, never a best run.  The 10× claim amortizes batch
    setup over the B(9) = 21147-partition space; the reduced CI smoke
    (``REPRO_BENCH_E23_COPIES=2``, a 203-partition space dominated by
    fixed overhead) measures and records the ratio but gates only on
    the engine not being *slower*.
    """
    runs = []
    sweeps = []
    for run in range(TIMING_RUNS):
        first = "reference" if run % 2 == 0 else "engine"
        if first == "reference":
            baseline = _reference_partitions_per_second(COPIES, BASELINE_SLICE)
            engine = _engine_sweep()
        else:
            engine = _engine_sweep()
            baseline = _reference_partitions_per_second(COPIES, BASELINE_SLICE)
        sweeps.append(engine["sweep"])
        runs.append(
            {
                "first": first,
                "engine_seconds": round(engine["seconds"], 3),
                "engine_partitions_per_second": round(
                    engine["partitions_per_second"], 1
                ),
                "baseline_partitions": baseline["partitions"],
                "baseline_seconds": baseline["seconds"],
                "baseline_partitions_per_second": round(
                    baseline["partitions_per_second"], 1
                ),
            }
        )
    assert all(_identical(sweeps[0], other) for other in sweeps[1:])
    engine_pps = statistics.median(r["engine_partitions_per_second"] for r in runs)
    baseline_pps = statistics.median(
        r["baseline_partitions_per_second"] for r in runs
    )
    speedup = engine_pps / baseline_pps

    RESULTS["serial"] = sweeps[-1]
    RESULTS["speedup"] = {
        "copies": COPIES,
        "space": sweeps[-1].stats.covered,
        "baseline_stride": baseline["stride"],
        "runs": runs,
        "engine_partitions_per_second_median": engine_pps,
        "baseline_partitions_per_second_median": baseline_pps,
        "speedup": round(speedup, 1),
    }
    assert speedup >= SPEEDUP_GATE, RESULTS["speedup"]


def _identical(a, b) -> bool:
    return (
        a.certificates == b.certificates
        and a.near_misses == b.near_misses
        and a.stats.to_dict() == b.stats.to_dict()
        and a.shards == b.shards
    )


def test_gate_parallel_bit_identical():
    """Gate: a multi-worker sweep equals the serial one bit for bit."""
    serial = RESULTS.get("serial") or sweep_range(
        q_triangle, COPIES, query_name="q_triangle"
    )
    parallel = sweep_range(
        q_triangle, COPIES, query_name="q_triangle", workers=WORKERS
    )
    assert _identical(serial, parallel), (
        serial.stats.to_dict(),
        parallel.stats.to_dict(),
    )
    RESULTS["parallel"] = {
        "workers": WORKERS,
        "shards": parallel.shards,
        "certificates": len(parallel.certificates),
        "identical": True,
    }


def test_gate_triangle_rediscovered():
    """Gate: Example 62's triangle IJP — a proper certificate whose
    partition has 5 blocks — is found and re-checks independently."""
    if COPIES != 3:
        pytest.skip("Example 62 lives in the k=3 triangle space")
    sweep = RESULTS.get("serial") or sweep_range(
        q_triangle, COPIES, query_name="q_triangle"
    )
    example_62 = [
        cert
        for cert in sweep.certificates
        if cert.k == 3
        and certificate_is_proper(cert)
        and len(cert.blocks(q_triangle)) == 5
    ]
    assert example_62, "no proper 5-block triangle certificate at k=3"
    cert = example_62[0]
    report = check_ijp(cert.database(q_triangle), q_triangle, *cert.pair)
    assert report.is_ijp, report
    assert report.resilience == cert.resilience
    RESULTS["triangle"] = {
        "k": cert.k,
        "blocks": len(cert.blocks(q_triangle)),
        "pair": [repr(t) for t in cert.pair],
        "resilience": cert.resilience,
        "proper_5_block_certificates": len(example_62),
        "rechecked": True,
    }


def test_gate_resume_without_recompute(tmp_path):
    """Gate: the second cache-backed sweep replays every shard from its
    checkpoint and returns identical results."""
    cache_dir = tmp_path / "e23-cache"
    cold_started = time.perf_counter()
    cold = sweep_range(
        q_triangle, COPIES, query_name="q_triangle", cache_dir=cache_dir
    )
    cold_seconds = time.perf_counter() - cold_started
    assert cold.shards_resumed == 0
    warm_started = time.perf_counter()
    warm = sweep_range(
        q_triangle, COPIES, query_name="q_triangle", cache_dir=cache_dir
    )
    warm_seconds = time.perf_counter() - warm_started
    assert warm.shards_resumed == warm.shards > 0
    assert _identical(cold, warm)
    RESULTS["resume"] = {
        "shards": warm.shards,
        "shards_resumed": warm.shards_resumed,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "identical": True,
    }


def test_write_bench_record():
    """Persist the measured trajectory entry (runs last in this file)."""
    speedup = RESULTS.get("speedup", {})
    serial = RESULTS.get("serial")
    record = {
        "schema": 1,
        "bench": "e23_ijp",
        "version": repro.__version__,
        "matrix": {
            "query": "q_triangle",
            "copies": COPIES,
            "workers": WORKERS,
            "baseline_slice": BASELINE_SLICE,
        },
        "gates": {
            "speedup_vs_reference": {
                "value": speedup.get("speedup"),
                "gate": SPEEDUP_GATE,
            },
            "parallel_bit_identical": RESULTS.get("parallel", {}).get(
                "identical", False
            ),
            "triangle_rediscovered": RESULTS.get("triangle", {}).get(
                "rechecked", False
            ),
            "resume_without_recompute": RESULTS.get("resume", {}).get(
                "identical", False
            ),
        },
        "speedup": speedup,
        "sweep": serial.to_dict() if serial is not None else None,
        "parallel": RESULTS.get("parallel"),
        "triangle": RESULTS.get("triangle"),
        "resume": RESULTS.get("resume"),
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert RECORD_PATH.exists()
