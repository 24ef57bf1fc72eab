"""Sharded, resumable IJP certificate sweeps (Appendix C.2 at scale).

One :func:`repro.ijp.space.sweep_space` call screens a lex-contiguous
range of the ``k``-copy partition space; this module turns that into a
*standing* search over the paper's seven OPEN queries (Section 8,
Conjecture 49) and beyond:

* the RGS space is split into contiguous lexicographic shards
  (:func:`repro.ijp.rgs.shard_space`) whose boundaries depend only on
  the space size — never on worker count or timing — and farmed across
  a :class:`repro.parallel.WorkerPool`, results merged in shard order,
  so a parallel sweep is bit-identical to the serial one;
* every completed shard is checkpointed in the engine's content-hash
  :class:`~repro.witness.cache.ResultCache` under a key covering the
  query text, copy count, shard prefixes, budget, and prune flag —
  resuming an interrupted sweep re-derives the identical shard table
  and replays finished shards from disk without re-enumerating a
  single partition;
* found certificates are additionally stored content-addressed
  (:meth:`~repro.ijp.space.IJPCertificate.content_key`), so independent
  sweeps landing on the same IJP collide on the same cache entry;
* partition budgets are pre-allocated to shards in lex order
  (earlier shards fill first), keeping budgeted sweeps a pure prefix
  of the unbudgeted ones.

**The open-query table.**  :data:`OPEN_QUERY_STATUS` pins what the
standing sweep finds on the paper's OPEN queries, and extends the
repository's documented *Reproduction finding* (see
:mod:`repro.ijp.search`): Definition 48 read literally is satisfiable
by degenerate databases, and indeed four of the seven open queries
admit literal certificates within the swept range — mostly with
*reflexive* endpoints like ``R(p, p)``, the same shape that already
"certifies" known-PTIME queries.  The table therefore classifies
certificates as *proper* (no endpoint repeats a constant) or
degenerate; either way, a literal-Definition-48 pass does **not**
resolve the query's complexity, because Conjecture 49 as stated is
refuted by the degenerate constructions.  Queries whose space is empty
of certificates through the swept range stay genuinely open in both
senses.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ijp.rgs import RGSShard, bell_number, shard_space
from repro.ijp.space import (
    IJPCertificate,
    NearMiss,
    SpaceSweepResult,
    SpaceSweepStats,
    sweep_space,
)
from repro.parallel import WorkerPool
from repro.query.cq import ConjunctiveQuery
from repro.witness.cache import CACHE_SCHEMA, ResultCache, _canonical_query_text

# Bumped whenever the sweep engine changes in a way that invalidates
# stored shard checkpoints (new prune rules, changed accounting, ...).
SWEEP_SCHEMA = 1

# The paper's seven OPEN queries (Table 2 / Section 8) — the standing
# sweep's fixed population.
OPEN_QUERIES: Tuple[str, ...] = (
    "q_AS3conf",
    "q_ASxy3perm_R",
    "q_S3cc",
    "q_SxyB3perm_R",
    "q_SxyC3perm_R",
    "q_z6",
    "q_z7",
)

# What the standing sweep (full coverage, no budget, prune on) finds on
# the OPEN queries, pinned as of SWEEP_SCHEMA 1.  ``swept_copies`` is
# the largest copy count whose space fits the 9-constant standing cap
# (B(9) = 21147; one more copy of a 4-variable query would be
# B(12) ≈ 4.2M); ``first_certificate_k`` is the least k whose space
# contains a literal Definition 48 certificate, with ``certificates``
# databases admitting one at that k, of which ``proper`` have no
# repeated-constant endpoint.  The degenerate-heavy picture is the
# Reproduction finding at population scale: literal Definition 48
# passes say nothing about hardness until the conjecture is repaired.
OPEN_QUERY_STATUS: Dict[str, Dict] = {
    "q_AS3conf": {
        "variables": 4,
        "swept_copies": 2,
        "first_certificate_k": 2,
        "certificates": 72,
        "proper": 16,
    },
    "q_ASxy3perm_R": {
        "variables": 3,
        "swept_copies": 3,
        "first_certificate_k": None,
        "certificates": 0,
        "proper": 0,
    },
    "q_S3cc": {
        "variables": 4,
        "swept_copies": 2,
        "first_certificate_k": 1,
        "certificates": 4,
        "proper": 3,
    },
    "q_SxyB3perm_R": {
        "variables": 3,
        "swept_copies": 3,
        "first_certificate_k": None,
        "certificates": 0,
        "proper": 0,
    },
    "q_SxyC3perm_R": {
        "variables": 3,
        "swept_copies": 3,
        "first_certificate_k": 3,
        "certificates": 84,
        "proper": 66,
    },
    "q_z6": {
        "variables": 3,
        "swept_copies": 3,
        "first_certificate_k": 3,
        "certificates": 90,
        "proper": 0,
    },
    "q_z7": {
        "variables": 2,
        "swept_copies": 3,
        "first_certificate_k": None,
        "certificates": 0,
        "proper": 0,
    },
}


def certificate_is_proper(certificate: IJPCertificate) -> bool:
    """Whether neither endpoint repeats a constant.

    The known-degenerate literal Definition 48 passes (the Reproduction
    finding) all pivot on *reflexive* endpoints such as ``R(p, p)``,
    whose removal collapses several copies at once — the shape
    Conjecture 49's vertex-cover gluing cannot use.  Properness is a
    necessary sanity cut, not a sufficiency proof."""
    return all(
        len(set(t.values)) == len(t.values) for t in certificate.pair
    )


def default_shard_count(n: int) -> int:
    """Shards for a length-``n`` space: ~1024 leaves per shard, capped
    at 64.  A pure function of the space size — never of the worker
    count — so serial and parallel sweeps share one shard table and
    one set of checkpoint keys."""
    return max(1, min(64, bell_number(n) // 1024))


def shard_checkpoint_key(
    query: ConjunctiveQuery,
    k: int,
    shard: RGSShard,
    budget: Optional[int],
    prune: bool,
    near_miss_limit: int,
) -> str:
    """The content-hash key one completed shard's result is stored
    under: anything that could change the shard's outcome — query text,
    copy count, the shard's exact prefix rows, its budget slice, the
    prune flag, the near-miss cap, and both schema salts — changes the
    key, so stale checkpoints can never resume."""
    hasher = hashlib.sha256()
    for segment in (
        f"schema={CACHE_SCHEMA}",
        f"sweep={SWEEP_SCHEMA}",
        "kind=ijp-shard",
        _canonical_query_text(query),
        f"k={k}",
        f"n={shard.n}",
        f"shard={shard.index}",
        f"start={shard.start}",
        f"shape={shard.codes.shape}",
        shard.codes.tobytes().hex(),
        shard.maxes.tobytes().hex(),
        f"budget={budget}",
        f"prune={prune}",
        f"near_miss_limit={near_miss_limit}",
    ):
        hasher.update(segment.encode())
        hasher.update(b"\x1f")
    return hasher.hexdigest()


@dataclass
class ShardJob:
    """One picklable unit of sweep work: a shard's prefix rows plus
    everything :func:`repro.ijp.space.sweep_space` needs to screen
    them.  Runs identically in a worker process or in-process."""

    query: ConjunctiveQuery
    query_name: str
    k: int
    codes: np.ndarray
    maxes: np.ndarray
    budget: Optional[int]
    prune: bool
    cache_dir: Optional[str]
    near_miss_limit: int


def run_shard_job(job: ShardJob) -> SpaceSweepResult:
    """Screen one shard (the worker-process entry point).

    Also the serial fallback — which is what makes ``workers=2``
    bit-identical to serial by construction: the same jobs run the same
    code, and the coordinator merges in shard order either way."""
    return sweep_space(
        job.query,
        job.k,
        job.codes,
        job.maxes,
        budget=job.budget,
        cache_dir=job.cache_dir,
        prune=job.prune,
        near_miss_limit=job.near_miss_limit,
        query_name=job.query_name,
    )


@dataclass
class QuerySweep:
    """The merged outcome of one (query, copy-count) sweep range."""

    query_name: str
    k: int
    n: int
    shards: int
    shards_resumed: int
    seconds: float
    stats: SpaceSweepStats
    certificates: List[IJPCertificate] = field(default_factory=list)
    near_misses: List[NearMiss] = field(default_factory=list)

    @property
    def proper_certificates(self) -> List[IJPCertificate]:
        return [c for c in self.certificates if certificate_is_proper(c)]

    def to_dict(self) -> Dict:
        return {
            "query": self.query_name,
            "k": self.k,
            "n": self.n,
            "shards": self.shards,
            "shards_resumed": self.shards_resumed,
            "seconds": self.seconds,
            "stats": self.stats.to_dict(),
            "certificates": [
                {
                    "rgs": list(c.rgs),
                    "pair": [repr(c.pair[0]), repr(c.pair[1])],
                    "resilience": c.resilience,
                    "proper": certificate_is_proper(c),
                }
                for c in self.certificates
            ],
            "near_misses": [
                {
                    "rgs": list(m.rgs),
                    "pair": [repr(m.pair[0]), repr(m.pair[1])],
                    "probe_values": list(m.probe_values),
                }
                for m in self.near_misses
            ],
        }


@dataclass
class SweepReport:
    """A whole sweep: per-(query, k) outcomes plus the roll-up table."""

    sweeps: List[QuerySweep] = field(default_factory=list)
    workers: int = 1
    seconds: float = 0.0

    @property
    def shards_resumed(self) -> int:
        return sum(s.shards_resumed for s in self.sweeps)

    def table(self) -> List[Dict]:
        """One row per query: paper verdict, coverage, and the first
        copy count admitting a literal Definition 48 certificate (with
        its proper/degenerate split) — the open-conjecture table."""
        from repro.query.zoo import PAPER_VERDICTS

        rows: List[Dict] = []
        seen: List[str] = []
        for sweep in self.sweeps:
            if sweep.query_name not in seen:
                seen.append(sweep.query_name)
        for name in seen:
            ranges = [s for s in self.sweeps if s.query_name == name]
            first = next((s for s in ranges if s.certificates), None)
            rows.append(
                {
                    "query": name,
                    "verdict": PAPER_VERDICTS.get(name, "-"),
                    "swept_copies": max(s.k for s in ranges),
                    "covered": sum(s.stats.covered for s in ranges),
                    "exhausted": all(s.stats.exhausted for s in ranges),
                    "first_certificate_k": first.k if first else None,
                    "certificates": len(first.certificates) if first else 0,
                    "proper": len(first.proper_certificates) if first else 0,
                    "near_misses": sum(len(s.near_misses) for s in ranges),
                }
            )
        return rows

    def render(self) -> str:
        lines = [
            f"{'query':16s} {'paper':6s} {'k*':>3s} {'certs':>6s} "
            f"{'proper':>6s} {'covered':>9s} {'exhausted':9s}"
        ]
        for row in self.table():
            k_star = "-" if row["first_certificate_k"] is None else str(
                row["first_certificate_k"]
            )
            lines.append(
                f"{row['query']:16s} {row['verdict']:6s} {k_star:>3s} "
                f"{row['certificates']:6d} {row['proper']:6d} "
                f"{row['covered']:9d} {'yes' if row['exhausted'] else 'no':9s}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "schema": 1,
            "sweep_schema": SWEEP_SCHEMA,
            "workers": self.workers,
            "seconds": self.seconds,
            "shards_resumed": self.shards_resumed,
            "table": self.table(),
            "sweeps": [s.to_dict() for s in self.sweeps],
        }


def allocate_budgets(
    shards: Sequence[RGSShard], budget: Optional[int]
) -> List[Optional[int]]:
    """Pre-allocate a covered-partition budget to shards in lex order.

    Earlier shards fill first, so a budget covers whole shards in lex
    order and cuts short only the last shard it reaches.  Within that
    shard the covered partitions are its lexicographic prefix only with
    ``prune=False``: a pruned subtree is charged when its block of
    prefixes is expanded, ahead of leaves that precede it.  The
    allocation is deterministic, so shard checkpoint keys (which cover
    the budget slice) are too.  ``None`` means unlimited everywhere."""
    if budget is None:
        return [None] * len(shards)
    out: List[Optional[int]] = []
    remaining = max(0, int(budget))
    for shard in shards:
        slice_ = min(shard.leaves, remaining)
        out.append(slice_)
        remaining -= slice_
    return out


def sweep_range(
    query: ConjunctiveQuery,
    k: int,
    query_name: Optional[str] = None,
    budget: Optional[int] = None,
    workers: int = 1,
    cache_dir=None,
    resume: bool = True,
    prune: bool = True,
    near_miss_limit: int = 8,
    pool: Optional[WorkerPool] = None,
) -> QuerySweep:
    """Sweep the whole ``k``-copy partition space of one query.

    The space is split by :func:`default_shard_count` /
    :func:`repro.ijp.rgs.shard_space` (worker-independent), each shard
    screened by :func:`run_shard_job` — on a :class:`WorkerPool` when
    ``workers > 1`` and more than one shard needs running, in-process
    otherwise — and the results merged **in shard order**, so the merged
    certificates and near misses come out in global RGS lex order for
    any worker count.  With ``cache_dir``, completed shards are
    checkpointed and (``resume=True``) replayed from disk, certificates
    are stored content-addressed, and the condition-5 probes share the
    engine's persistent result cache.
    """
    name = query_name or query.name or "q"
    started = time.perf_counter()
    n = k * len(query.variables())
    shards = shard_space(n, default_shard_count(n))
    budgets = allocate_budgets(shards, budget)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    cache_path = str(cache.cache_dir) if cache is not None else None
    results: List[Optional[SpaceSweepResult]] = [None] * len(shards)
    resumed = 0
    jobs: List[Tuple[int, str, ShardJob]] = []
    for i, (shard, slice_) in enumerate(zip(shards, budgets)):
        if slice_ == 0:
            # Budget exhausted before this shard: nothing was covered,
            # and saying otherwise would overstate the sweep's claim.
            results[i] = SpaceSweepResult(
                stats=SpaceSweepStats(k=k, n=n, exhausted=False)
            )
            continue
        key = (
            shard_checkpoint_key(query, k, shard, slice_, prune, near_miss_limit)
            if cache is not None
            else None
        )
        if resume and cache is not None:
            stored = cache.get(key)
            if isinstance(stored, SpaceSweepResult):
                results[i] = stored
                resumed += 1
                continue
        jobs.append(
            (
                i,
                key,
                ShardJob(
                    query=query,
                    query_name=name,
                    k=k,
                    codes=shard.codes,
                    maxes=shard.maxes,
                    budget=slice_,
                    prune=prune,
                    cache_dir=cache_path,
                    near_miss_limit=near_miss_limit,
                ),
            )
        )
    if jobs and workers > 1 and len(jobs) > 1:
        own_pool = pool is None
        active = pool or WorkerPool(workers)
        try:
            executor = active.executor()
            futures = [executor.submit(run_shard_job, job) for _, _, job in jobs]
            # Collect in submission (= shard) order, not completion order.
            for (i, key, _), future in zip(jobs, futures):
                results[i] = future.result()
                if cache is not None:
                    cache.put(key, results[i])
        finally:
            if own_pool:
                active.shutdown()
    else:
        for i, key, job in jobs:
            results[i] = run_shard_job(job)
            if cache is not None:
                cache.put(key, results[i])
    stats = SpaceSweepStats(k=k, n=n)
    certificates: List[IJPCertificate] = []
    near_misses: List[NearMiss] = []
    for result in results:
        stats.merge(result.stats)
        certificates.extend(result.certificates)
        near_misses.extend(result.near_misses)
    near_misses = near_misses[:near_miss_limit]
    if cache is not None:
        for cert in certificates:
            cache.put(cert.content_key(query), cert)
    return QuerySweep(
        query_name=name,
        k=k,
        n=n,
        shards=len(shards),
        shards_resumed=resumed,
        seconds=time.perf_counter() - started,
        stats=stats,
        certificates=certificates,
        near_misses=near_misses,
    )


def sweep(
    queries: Sequence[Tuple[str, ConjunctiveQuery]],
    copies: int = 3,
    budget: Optional[int] = None,
    workers: int = 1,
    cache_dir=None,
    resume: bool = True,
    prune: bool = True,
    max_constants: int = 9,
    near_miss_limit: int = 8,
    pool: Optional[WorkerPool] = None,
) -> SweepReport:
    """Sweep every query at every feasible copy count up to ``copies``.

    Copy counts whose space would exceed ``max_constants`` constants
    are skipped — the default 9 caps each range at B(9) = 21147
    partitions, so four-variable queries sweep two copies and
    two-variable queries three; raise the cap (up to the engine's
    63-constant mask limit) for deeper, B(12)+-scale campaigns.
    ``budget`` is per (query, k) range.  One :class:`WorkerPool` is
    shared across all ranges.
    """
    started = time.perf_counter()
    own_pool = pool is None and workers > 1
    active = pool if pool is not None else (
        WorkerPool(workers) if workers > 1 else None
    )
    report = SweepReport(workers=max(1, workers))
    try:
        for name, query in queries:
            width = max(1, len(query.variables()))
            for k in range(1, copies + 1):
                if k > 1 and k * width > max_constants:
                    continue
                report.sweeps.append(
                    sweep_range(
                        query,
                        k,
                        query_name=name,
                        budget=budget,
                        workers=workers,
                        cache_dir=cache_dir,
                        resume=resume,
                        prune=prune,
                        near_miss_limit=near_miss_limit,
                        pool=active,
                    )
                )
    finally:
        if own_pool and active is not None:
            active.shutdown()
    report.seconds = time.perf_counter() - started
    return report


def standing_queries(
    random_queries: int = 0, seed: int = 0
) -> List[Tuple[str, ConjunctiveQuery]]:
    """The standing sweep population: the paper's seven OPEN queries
    plus ``random_queries`` seeded three-occurrence samples from the
    Conjecture 49 frontier fragment (one shared generator, so the whole
    population is reproducible from one seed)."""
    import random

    from repro.query.zoo import ALL_QUERIES
    from repro.workloads.random_queries import random_three_occurrence_cq

    population: List[Tuple[str, ConjunctiveQuery]] = [
        (name, ALL_QUERIES[name]) for name in OPEN_QUERIES
    ]
    rng = random.Random(seed)
    for i in range(random_queries):
        q = random_three_occurrence_cq(rng=rng)
        population.append((f"rand_3occ_{seed}_{i}", q))
    return population


def standing_sweep(
    copies: int = 3,
    budget: Optional[int] = None,
    workers: int = 1,
    cache_dir=None,
    resume: bool = True,
    random_queries: int = 0,
    seed: int = 0,
    max_constants: int = 9,
) -> SweepReport:
    """The standing open-conjecture sweep: :func:`sweep` over
    :func:`standing_queries` — the run whose full-coverage results
    :data:`OPEN_QUERY_STATUS` pins."""
    return sweep(
        standing_queries(random_queries=random_queries, seed=seed),
        copies=copies,
        budget=budget,
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
        max_constants=max_constants,
    )
