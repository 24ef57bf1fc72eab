"""Deterministic shard partitioning for parallel batch solving.

A batch of (database, query) pairs decomposes into independent work
units twice over: distinct pairs share nothing but in-memory indexes
(resilience instances are independent, Definition 1), and within one
exact instance the kernelized witness structure splits into connected
components whose minimum hitting sets are solved separately and summed
(the Section 2 hitting-set view; see
:func:`repro.witness.structure._decompose`).  This module turns both
granularities into :class:`PairTask` / :class:`ComponentTask` objects
and packs them into :class:`Shard` s with a deterministic
longest-processing-time (LPT) assignment, so that

* the shard layout is a pure function of the task list and the shard
  count — re-running the same batch with the same ``workers`` produces
  the same shards, which is what makes the merge step (and therefore
  :class:`~repro.core.analyzer.BatchStats`) reproducible;
* tasks touching the same database stay in the same shard whenever
  balance allows (oversized groups are split so one hot database
  cannot serialize the batch), and each worker builds one
  :class:`~repro.query.evaluation.DatabaseIndex` per database it
  actually sees.

Nothing here executes anything: see :mod:`repro.parallel.executor` for
the worker pool that consumes the shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import witness_estimate
from repro.resilience.types import Budget


@dataclass(frozen=True)
class PairTask:
    """Solve one whole (database, query) pair in a worker.

    ``task_id`` indexes the batch's task table (assignment of outcomes
    back to work units is by id, never by completion order).  The
    database and query are shipped to the worker by pickle; ``method``,
    ``mode`` and ``budget`` pass through to
    :func:`repro.resilience.solver.solve` unchanged.

    A snapshot-backed handle (:class:`repro.storage.StoredDatabase`)
    pickles as its snapshot *path* only — the worker reopens the
    snapshot and ``mmap``s the same on-disk columns, so out-of-core
    task payloads stay O(1) in the database size and the pool shares
    pages instead of holding per-worker fact copies.
    """

    task_id: int
    database: Database
    query: ConjunctiveQuery
    method: Optional[str] = None
    mode: str = "exact"
    budget: Optional[Budget] = None
    weighted: bool = False

    @property
    def cost_estimate(self) -> int:
        """Relative cost proxy for LPT packing, floor 1: the witness
        estimate (:func:`repro.query.evaluation.witness_estimate`).

        Witness count tracks structure-build and search cost far better
        than raw instance size.
        """
        return max(witness_estimate(self.database, self.query), 1)


@dataclass(frozen=True)
class ComponentTask:
    """Solve one witness-structure component's minimum hitting set.

    Used for large exact instances whose structure was already built
    (and kernelized) by the coordinator: instead of shipping the whole
    database, only the component's witness sets — frozensets of global
    tuple ids — cross the process boundary, and only the chosen ids
    come back, with whether HiGHS ran.  The worker runs the exact
    tier's per-component rule, as a serial solve does, so the assembled
    result is identical to a serial solve.
    """

    task_id: int
    tuple_ids: Tuple[int, ...]
    sets: Tuple[FrozenSet[int], ...]
    # (global_id, cost) pairs for the weighted objective; None solves
    # the plain cardinality problem.
    costs: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def cost_estimate(self) -> int:
        """Relative cost proxy: incidence size of the component."""
        return max(sum(len(s) for s in self.sets), 1)


Task = Union[PairTask, ComponentTask]


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the batch: tasks in ascending task_id."""

    shard_id: int
    tasks: Tuple[Task, ...]

    @property
    def cost_estimate(self) -> int:
        return sum(t.cost_estimate for t in self.tasks)


def build_shards(
    groups: Sequence[Sequence[Task]], n_shards: int
) -> List[Shard]:
    """Pack task groups into ``n_shards`` deterministic shards.

    ``groups`` are affinity bundles — the caller groups pair tasks by
    their database so a shard shares one evaluation index per database;
    component tasks arrive as singleton groups.  Affinity yields to
    balance: a group heavier than an even share of the batch is first
    split into contiguous chunks no heavier than that share (the
    workers on the extra shards rebuild the database index, a cost that
    is tiny next to the solving the split buys parallelism for), so a
    batch of many queries over one shared database still fans out.
    Assignment is then the classic LPT heuristic made deterministic:
    groups are ordered by descending cost with the first task id as
    tie-break, and each goes to the currently lightest shard (lowest
    shard id on ties).  Empty shards are dropped, and tasks inside a
    shard are sorted by task id.

    The result is a pure function of ``(groups, n_shards)``: no
    randomness, no dict-iteration-order dependence, no timing.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    groups = [list(g) for g in groups if g]
    if n_shards > 1 and groups:
        total = sum(t.cost_estimate for g in groups for t in g)
        share = max(1, -(-total // n_shards))  # ceil(total / n_shards)
        split: List[List[Task]] = []
        for g in groups:
            if len(g) > 1 and sum(t.cost_estimate for t in g) > share:
                chunk: List[Task] = []
                load = 0
                for t in g:
                    if chunk and load + t.cost_estimate > share:
                        split.append(chunk)
                        chunk, load = [], 0
                    chunk.append(t)
                    load += t.cost_estimate
                split.append(chunk)
            else:
                split.append(g)
        groups = split
    ordered = sorted(
        groups,
        key=lambda g: (-sum(t.cost_estimate for t in g), g[0].task_id),
    )
    loads = [0] * n_shards
    buckets: List[List[Task]] = [[] for _ in range(n_shards)]
    for group in ordered:
        target = min(range(n_shards), key=lambda i: (loads[i], i))
        buckets[target].extend(group)
        loads[target] += sum(t.cost_estimate for t in group)
    return [
        Shard(shard_id=i, tasks=tuple(sorted(b, key=lambda t: t.task_id)))
        for i, b in enumerate(buckets)
        if b
    ]


def group_by_database(tasks: Sequence[Task]) -> List[List[Task]]:
    """Bundle tasks for sharding: pair tasks by database object,
    component tasks as singletons (they carry no database at all).

    Grouping is by object identity, matching the evaluation-index
    sharing of :func:`repro.core.analyzer.solve_batch`; iteration order
    follows first appearance in ``tasks``, keeping the output
    deterministic for a given task list.
    """
    groups: List[List[Task]] = []
    by_db: Dict[int, List[Task]] = {}
    for task in tasks:
        if isinstance(task, PairTask):
            bucket = by_db.get(id(task.database))
            if bucket is None:
                bucket = []
                by_db[id(task.database)] = bucket
                groups.append(bucket)
            bucket.append(task)
        else:
            groups.append([task])
    return groups
