"""Worker-pool execution of batch shards.

Executes the :class:`~repro.parallel.shards.Shard` layout produced by
:mod:`repro.parallel.shards` across a ``concurrent.futures``
process pool.  Each worker process solves its shard with the very same
code paths a serial batch uses — :func:`repro.resilience.solver.solve`
for pair tasks, the per-component hitting-set backends of
:mod:`repro.resilience.exact` (the Section 2 view: resilience is a
minimum hitting set over witness sets, solved per connected component
and summed) for component tasks — so parallel results are the serial
results, merely computed elsewhere.

Determinism contract (the batch merge relies on it):

* outcomes are keyed by ``task_id`` and collected **in shard order**,
  never in completion order;
* per-worker telemetry (:class:`WorkerTelemetry`) is likewise merged in
  shard order, so accumulated counters — and even float sums — are
  reproducible for a fixed worker count;
* workers inherit the parent's interpreter state via the ``fork`` start
  method where available (so hash seeds, and therefore every
  hash-order-sensitive tie-break, match the coordinator process
  exactly); elsewhere the default start method is used.

Each worker process keeps its own in-memory structure cache (the
module-global LRU of :mod:`repro.witness.cache` is per process), so
repeated structures within a shard are built once per worker.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.evaluation import DatabaseIndex
from repro.witness import ReductionStats, witness_cache_info, witness_structure
from repro.witness.structure import WitnessComponent
from repro.parallel.shards import ComponentTask, PairTask, Shard


@dataclass
class WorkerTelemetry:
    """What one worker (or the serial fallback) did to its shard."""

    structures: int = 0
    reductions: ReductionStats = field(default_factory=ReductionStats)

    def merge(self, other: "WorkerTelemetry") -> None:
        self.structures += other.structures
        self.reductions.merge(other.reductions)


@dataclass
class ShardOutcome:
    """One shard's results: ``task_id -> outcome`` plus telemetry.

    Pair-task outcomes are result objects
    (:class:`~repro.resilience.types.ResilienceResult` or
    :class:`~repro.resilience.types.BoundedResilienceResult`);
    component-task outcomes are ``(chosen global tuple ids, ran_ilp)``
    pairs, the frozenset and whether HiGHS solved the component.
    """

    shard_id: int
    outcomes: Dict[int, object]
    telemetry: WorkerTelemetry


def run_shard(shard: Shard) -> ShardOutcome:
    """Solve every task of one shard (runs inside a worker process).

    Also the ``workers=1`` in-process fallback, which is what makes the
    fast path bit-identical to pool execution by construction.
    """
    # Imported here (not at module top) to keep worker start-up lean and
    # to avoid an import cycle through repro.resilience.solver.
    from repro.resilience.exact import _solve_component
    from repro.resilience.solver import dispatch_plan_for, solve

    telemetry = WorkerTelemetry()
    outcomes: Dict[int, object] = {}
    indexes: Dict[int, DatabaseIndex] = {}
    for task in shard.tasks:
        if isinstance(task, ComponentTask):
            costs = dict(task.costs) if task.costs is not None else None
            ids, ran_ilp = _solve_component(
                WitnessComponent(task.tuple_ids, task.sets), costs=costs
            )
            outcomes[task.task_id] = (frozenset(ids), ran_ilp)
            continue
        index = indexes.get(id(task.database))
        if index is None:
            index = DatabaseIndex(task.database)
            indexes[id(task.database)] = index
        # A weighted task over an all-unit database is the unweighted
        # task — the same delegation solve() itself applies, done here
        # too so the structure prefetch keys match the solve.
        weighted = task.weighted and task.database.has_weighted_costs()
        if (
            task.method is None
            and dispatch_plan_for(task.database, task.query, weighted).kind
            == "exact"
        ):
            _, misses_before, _ = witness_cache_info()
            ws = witness_structure(
                task.database, task.query, index=index, weighted=weighted
            )
            _, misses_after, _ = witness_cache_info()
            if misses_after > misses_before:
                telemetry.structures += 1
                telemetry.reductions.merge(ws.stats)
            outcomes[task.task_id] = solve(
                task.database,
                task.query,
                structure=ws,
                index=index,
                mode=task.mode,
                budget=task.budget,
                weighted=weighted,
            )
        else:
            outcomes[task.task_id] = solve(
                task.database,
                task.query,
                method=task.method,
                index=index,
                mode=task.mode,
                budget=task.budget,
                weighted=weighted,
            )
    return ShardOutcome(shard.shard_id, outcomes, telemetry)


def _pool_context():
    """Prefer ``fork``: children inherit the parent's hash seed (so
    every sorted/hash-order tie-break matches the coordinator) and its
    warm caches.  Platforms without it use their default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """A reusable process pool for repeated :func:`execute_shards` calls.

    :func:`execute_shards` normally creates and tears down a
    ``ProcessPoolExecutor`` per batch — fine for one-shot CLI runs, but
    a long-lived serving tier (:mod:`repro.serving`) pays worker
    start-up (fork + module imports) on every request.  A ``WorkerPool``
    keeps one executor alive across calls; pass it to
    :func:`execute_shards` (or ``solve_batch(pool=...)``) to reuse it.

    The underlying executor is created lazily and replaced
    transparently if it breaks (a worker killed mid-task marks the pool
    broken): the *failing* call still raises — its results are gone —
    but the next call gets a fresh pool instead of inheriting a wedged
    one.  Thread-safe; per-worker warm caches (the witness-structure
    LRU) survive across calls, which is the second half of the reuse
    win.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, creating or replacing it as needed."""
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_pool_context()
                )
            return self._executor

    def reset(self) -> None:
        """Discard the current executor (the next use creates a new one)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def shutdown(self) -> None:
        """Tear the pool down for good (idempotent)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"WorkerPool(workers={self.workers}, {state})"


def execute_shards(
    shards: Sequence[Shard], workers: int, pool: Optional[WorkerPool] = None
) -> Tuple[Dict[int, object], List[WorkerTelemetry]]:
    """Run shards on ``workers`` processes; merge deterministically.

    Returns the combined ``task_id -> outcome`` map and the per-shard
    telemetry **in shard order** (callers accumulate it in that order,
    which keeps merged counters independent of completion timing).
    With one shard or one worker the pool is skipped entirely and the
    shard runs in-process.

    ``pool`` substitutes a persistent :class:`WorkerPool` for the
    per-call executor; if the pool breaks mid-batch the error
    propagates (after marking the pool for replacement) — outcomes are
    all-or-nothing either way.
    """
    shards = list(shards)
    if not shards:
        return {}, []
    if workers <= 1 or len(shards) == 1:
        results = [run_shard(shard) for shard in shards]
    elif pool is not None:
        executor = pool.executor()
        try:
            futures = [executor.submit(run_shard, shard) for shard in shards]
            # Collect in submission (= shard) order, not completion order.
            results = [f.result() for f in futures]
        except BrokenExecutor:
            pool.reset()
            raise
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(shards)), mp_context=_pool_context()
        ) as executor:
            futures = [executor.submit(run_shard, shard) for shard in shards]
            # Collect in submission (= shard) order, not completion order.
            results = [f.result() for f in futures]
    outcomes: Dict[int, object] = {}
    telemetry: List[WorkerTelemetry] = []
    for res in results:
        outcomes.update(res.outcomes)
        telemetry.append(res.telemetry)
    return outcomes, telemetry
