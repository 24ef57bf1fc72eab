"""The four benchmark workloads: their instances, warm-ups and rationale.

Every workload is a closed loop with one caller and one request in
flight.  Its instance list is a pure function of the workload name, the
seed and the run length: the count is fixed by ``--seconds`` through a
constant nominal rate, never by how many instances happen to fit in the
time.  Sizes walk a fixed ladder so that two seeds differ in content,
not in the mix of sizes.  Instances are deduplicated on the benchmark's
own content digest (including against the warm-up set), so no timed
instance can be answered from the witness-structure cache.

The tail percentile is p90 on every workload.  On the zoo family p99
falls on the edge of the ~1% of instances that need the MILP backend, so
it jumps between runs by whether that share lands just above or below 1%.

Nothing here consults the program's policies (backend thresholds,
kernel sizes, planner decisions): a later change to those policies
must not change the instances it is measured on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

# A tenth of admission's 2,000-endogenous-tuple exact limit: http_small
# instances must never be rerouted to the wall-clock-budgeted tier.
MAX_HTTP_TUPLES = 200

# The fewest timed instances: p90 then has ten samples beyond it.
MIN_INSTANCES = 100

Instance = Tuple[str, object, str]  # (zoo query name, Database, instance_key)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    predictions: str
    mode: str  # solve() mode: "exact" or "approx"
    transport: str  # "inproc" or "http"
    rate: float  # instances per second of --seconds (fixes the count)
    chunk: int  # instances generated, timed and checked together
    group: int  # instances sharing one database; the count is a multiple
    generate: Callable[[random.Random, int, int, set], Iterator[List[Instance]]]
    warmup: Callable[[random.Random], List[Instance]]

    def count(self, seconds: float) -> int:
        n = max(MIN_INSTANCES, int(round(self.rate * seconds)))
        return -(-n // self.group) * self.group


def _queries():
    from repro.query.zoo import ALL_QUERIES

    return ALL_QUERIES


def database_digest(db) -> str:
    """The benchmark's own content digest of a database (touches no
    memo of the program)."""
    h = hashlib.sha256()
    for name in sorted(db.relations):
        rel = db.relations[name]
        h.update(f"{name}/{rel.arity}/{int(rel.exogenous)}:".encode())
        h.update(repr(sorted(t.values for t in rel)).encode())
    return h.hexdigest()


def instance_key(name: str, db) -> str:
    return f"{name}:{database_digest(db)}"


# ---------------------------------------------------------------------------
# zoo_small and http_small: the paper's query zoo on small random databases
# ---------------------------------------------------------------------------

_ZOO_DOMAINS = (5, 6, 7, 8)
_ZOO_DENSITY = 0.35


def _zoo_names() -> List[str]:
    from repro.query.zoo import PAPER_VERDICTS

    return sorted(PAPER_VERDICTS)


def _zoo_instance(rng: random.Random, i: int, names: Sequence[str]):
    from repro.workloads.random_db import random_database_for_query

    name = names[i % len(names)]
    domain = _ZOO_DOMAINS[(i // len(names)) % len(_ZOO_DOMAINS)]
    db = random_database_for_query(
        _queries()[name], domain_size=domain, density=_ZOO_DENSITY, rng=rng
    )
    return name, db


def _distinct(make, rng, count, chunk, seen) -> Iterator[List[Instance]]:
    """``count`` instances from ``make(rng, i)``, redrawing any whose
    content repeats an earlier one, in chunks of ``chunk``."""
    out: List[Instance] = []
    for i in range(count):
        while True:
            name, db = make(rng, i)
            key = instance_key(name, db)
            if key not in seen:
                seen.add(key)
                break
        out.append((name, db, key))
        if len(out) == chunk:
            yield out
            out = []
    if out:
        yield out


def _keyed(pairs) -> List[Instance]:
    return [(name, db, instance_key(name, db)) for name, db in pairs]


def _zoo_warmup(rng: random.Random) -> List[Instance]:
    names = _zoo_names()
    return _keyed(_zoo_instance(rng, i, names) for i in range(2 * len(names)))


def _zoo_generate(rng, count, chunk, seen):
    names = _zoo_names()
    return _distinct(
        lambda r, i: _zoo_instance(r, i, names), rng, count, chunk, seen
    )


# ---------------------------------------------------------------------------
# np_exact: NP-hard queries whose kernels need the MILP backend
# ---------------------------------------------------------------------------

# (query, smallest, largest endogenous-relation size).  Ranges are set so
# kernels stay above the exact tier's branch-and-bound limit (40 surviving
# tuples) on nearly every instance, and no single instance takes more than
# a few hundred milliseconds on a 2-core Xeon VM.
_NP_EXACT = (
    ("q_chain", 40, 60),
    ("q_3chain", 25, 35),
    ("q_C3cc", 100, 200),
    ("q_AC3conf", 150, 250),
    ("q_a_chain", 300, 400),
)
_LADDER = 8  # sizes per query, evenly spaced over its range


def _ladder(lo: int, hi: int, k: int) -> int:
    return lo + (hi - lo) * (k % _LADDER) // (_LADDER - 1)


def _np_exact_instance(rng: random.Random, i: int, low_end: bool = False):
    from repro.workloads.random_db import large_random_database

    name, lo, hi = _NP_EXACT[i % len(_NP_EXACT)]
    size = lo if low_end else _ladder(lo, hi, i // len(_NP_EXACT))
    q = _queries()[name]
    return name, large_random_database([q], n_tuples=size, rng=rng)


def _np_exact_warmup(rng: random.Random) -> List[Instance]:
    return _keyed(
        _np_exact_instance(rng, i, low_end=True) for i in range(len(_NP_EXACT))
    )


def _np_exact_generate(rng, count, chunk, seen):
    return _distinct(_np_exact_instance, rng, count, chunk, seen)


# ---------------------------------------------------------------------------
# np_approx: certified intervals on shared large databases
# ---------------------------------------------------------------------------

_NP_APPROX_QUERIES = (
    "q_chain",
    "q_3chain",
    "q_a_chain",
    "q_ac_chain",
    "q_sj1_rats",
    "q_triangle_sj1",
)  # repro.workloads.random_db.HARD_SCALING_QUERIES, pinned here
_NP_APPROX_SIZES = (500, 700)
_NP_APPROX_WARMUP_SIZE = 300


def _shared_database(rng: random.Random, size: int):
    from repro.workloads.random_db import large_random_database

    queries = [_queries()[n] for n in _NP_APPROX_QUERIES]
    return large_random_database(queries, n_tuples=size, rng=rng)


def _np_approx_warmup(rng: random.Random) -> List[Instance]:
    db = _shared_database(rng, _NP_APPROX_WARMUP_SIZE)
    return _keyed((name, db) for name in _NP_APPROX_QUERIES)


def _np_approx_generate(rng, count, chunk, seen):
    lo, hi = _NP_APPROX_SIZES
    per_db = len(_NP_APPROX_QUERIES)
    out: List[Instance] = []
    for d in range(count // per_db):
        while True:
            db = _shared_database(rng, _ladder(lo, hi, d))
            keys = [instance_key(name, db) for name in _NP_APPROX_QUERIES]
            if seen.isdisjoint(keys):
                seen.update(keys)
                break
        out.extend(zip(_NP_APPROX_QUERIES, [db] * per_db, keys))
        if len(out) >= chunk:
            yield out
            out = []
    if out:
        yield out


# Why each workload exists, and which layers should move its metrics.  The
# shares are self time over traced wall time, measured with --trace 1 on a
# 2-core Xeon VM at --seconds 20.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zoo_small",
            why=(
                "Exact solve() round-robin over the 48 zoo queries with a "
                "paper verdict, on random_database_for_query instances "
                "(domain 5-8, density 0.35).  Per-request overhead is most "
                "of the time here and almost none elsewhere: the planner, "
                "dispatch, the satisfiability probe and GC (about 15%).  The "
                "method mix covers flow, branch and bound, unsatisfied early "
                "exits and a ~1% MILP tail."
            ),
            predictions=(
                "planner, resilience.solver, query.evaluation, python.gc, "
                "resilience.exact.bnb_* and resilience.flow move "
                "latency_p50_ms and pairs_per_s (diluted on http_small; "
                "unchanged on np_exact and np_approx).  highs.milp moves "
                "pairs_per_s only: the ~1% MILP tail is about 15% of the "
                "time but lies beyond p90.  "
                "highs.linprog, resilience.approx, query.columnar and "
                "witness.structure.self_ms leave this workload unchanged."
            ),
            mode="exact",
            transport="inproc",
            rate=800.0,
            chunk=1000,
            group=1,
            generate=_zoo_generate,
            warmup=_zoo_warmup,
        ),
        Workload(
            name="np_exact",
            why=(
                "Exact solve() on q_chain, q_3chain, q_C3cc, q_AC3conf and "
                "q_a_chain over large_random_database instances of 25-400 "
                "tuples whose kernels stay above the branch-and-bound limit.  "
                "HiGHS milp is the largest layer (about 60%), with the "
                "witness join and kernel next: this is where exact-solve work "
                "lands."
            ),
            predictions=(
                "highs.milp and witness.structure.tuples_final move "
                "pairs_per_s and latency_p90_ms.  The per-request "
                "layers of zoo_small, highs.linprog and resilience.approx "
                "leave this workload unchanged."
            ),
            mode="exact",
            transport="inproc",
            rate=33.0,
            chunk=60,
            group=1,
            generate=_np_exact_generate,
            warmup=_np_exact_warmup,
        ),
        Workload(
            name="np_approx",
            why=(
                "solve(mode='approx') on the six HARD_SCALING_QUERIES over "
                "shared large_random_database instances of 500-700 tuples.  "
                "HiGHS linprog is the largest layer (about half), then the "
                "rounding and local search of resilience.approx; the queries "
                "that kernelize to little are join- and kernel-bound.  It "
                "shares the join and kernel with np_exact but not the "
                "solver, so a gain for one that costs the other shows."
            ),
            predictions=(
                "highs.linprog and resilience.approx move pairs_per_s and "
                "latency_p90_ms, with resilience.approx.gap_per_pair "
                "held.  query.columnar and witness.structure.self_ms move "
                "latency_p50_ms.  highs.milp and the per-request layers of "
                "zoo_small leave this workload unchanged."
            ),
            mode="approx",
            transport="inproc",
            rate=7.5,
            chunk=18,
            group=len(_NP_APPROX_QUERIES),
            generate=_np_approx_generate,
            warmup=_np_approx_warmup,
        ),
        Workload(
            name="http_small",
            why=(
                "zoo_small's instance family on its own seed stream, sent one "
                "at a time with ServingClient.solve to a separate "
                "'repro serve --port 0' process.  The only workload through "
                "the wire codecs, admission, coalescing and transport, which "
                "take about half of a round trip."
            ),
            predictions=(
                "serving.* moves latency_p50_ms and pairs_per_s here and "
                "leaves every in-process workload unchanged.  The "
                "per-request layers of zoo_small move this workload, "
                "diluted."
            ),
            mode="exact",
            transport="http",
            rate=320.0,
            chunk=500,
            group=1,
            generate=_zoo_generate,
            warmup=_zoo_warmup,
        ),
    )
}


def stream(workload: str, seed: int, part: str) -> random.Random:
    """The seeded random stream for one part ("timed" or "warmup") of a
    run; string seeds hash identically on every interpreter."""
    return random.Random(f"perfbench/{workload}/{part}/{seed}")


def build(workload: Workload, seed: int, seconds: float):
    """``(warmup, chunks, count)`` for one run; ``chunks`` is a lazy
    iterator so only one chunk of inputs is alive at a time."""
    warmup = workload.warmup(stream(workload.name, seed, "warmup"))
    seen = {key for _, _, key in warmup}
    count = workload.count(seconds)
    chunks = workload.generate(
        stream(workload.name, seed, "timed"), count, workload.chunk, seen
    )
    return warmup, chunks, count


def instances_digest(workload: Workload, seed: int, seconds: float) -> str:
    """Digest of the whole timed instance list (order included)."""
    _, chunks, _ = build(workload, seed, seconds)
    h = hashlib.sha256()
    for chunk in chunks:
        for _, _, key in chunk:
            h.update(key.encode())
    return h.hexdigest()
