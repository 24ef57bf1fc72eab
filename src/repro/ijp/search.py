"""Automated IJP search (Appendix C.2, Example 62).

The procedure: for an increasing number of join copies ``k``, lay down
``k`` disjoint canonical databases of the query (one witness each, with
copy-tagged constants), then enumerate all set partitions of the
constants; each partition identifies constants across copies, yielding
a candidate database that is tested against Definition 48.

Example 62 walks this for the triangle query: 3 copies use 9 constants,
whose Bell number is 21147, and one of those partitions —
``{{1}, {2,a}, {3,b,c}, {4,d}, {5}}`` — is isomorphic to the Figure 18
IJP.  The search below re-discovers it.

Exhaustive Bell enumeration explodes quickly (B(12) ≈ 4.2M), so the
search accepts a partition budget and prunes with the cheap conditions
before ever calling the exact resilience solver.  :func:`ijp_search`
runs on the vectorized restricted-growth-string engine
(:mod:`repro.ijp.rgs`, :mod:`repro.ijp.space`): lexicographic numpy
enumeration, sound subtree pruning, batched condition-5 probes through
the solver front door.  The original recursive walk survives as
:func:`ijp_search_reference` / :func:`set_partitions` — the
differential baseline benchmark E23 measures the speedup against —
and the sharded, resumable version lives in :mod:`repro.ijp.sweep`.

**Reproduction finding.**  Definition 48, read literally, is satisfied
by degenerate databases for some *PTIME* queries: e.g. for
``q_ACconf`` (Proposition 12, in P) the two-copy partition
``{x0,y0} {z0,x1} {y1,z1}`` yields endpoints ``R(p,p)``/``R(r,r)``
passing all five conditions, for ``q_TS3conf`` (Proposition 41, in P)
a two-copy partition yields endpoints ``R(1,1)``/``R(2,2)``, and for
``q_Swx3perm_R`` (Proposition 44, in P) a one-copy partition does.
Under Conjecture 49 these would imply NP-hardness of PTIME problems,
so the conjecture as stated needs further conditions (plausibly about
how IJP copies can be *glued* at their endpoints without spurious
witnesses — the property the Figure 8 vertex-cover template actually
uses).  The tests and benchmark E9 record this.  The bounded search
stays empty on ``q_perm`` and ``q_z3`` (two copies), and on
``q_Aperm``, ``q_A3perm_R`` and ``q_TS3conf`` at one copy; an empty
result is evidence only up to the copy count and budget searched.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.db.database import Database
from repro.ijp.checker import IJPReport, check_ijp, find_ijp_pair
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import satisfies
from repro.workloads.random_db import declare_vocabulary


def canonical_database(query: ConjunctiveQuery, tag: int = 0) -> Database:
    """The canonical database of ``q``: one tuple per atom, constants
    ``(tag, variable)``; relations are declared through the shared
    workload vocabulary helper, so canonical copies and the random
    cross-validation instances always agree on arities and flags."""
    db = declare_vocabulary(Database(), [query])
    for atom in query.atoms:
        db.add(atom.relation, *((tag, v) for v in atom.args))
    return db


def set_partitions(items: List) -> Iterator[List[List]]:
    """All set partitions of ``items`` (Bell-number many).

    The recursive reference enumerator — kept as the checked baseline
    of the vectorized RGS engine (:mod:`repro.ijp.rgs`): property tests
    pin that both visit the same partition set, and benchmark E23
    measures its partitions/second as the 1x floor.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def _merge_copies(
    query: ConjunctiveQuery, k: int, partition: List[List]
) -> Database:
    """Build the database of ``k`` canonical copies under a partition."""
    representative = {}
    for block in partition:
        rep = ("blk",) + tuple(sorted(map(repr, block)))
        for item in block:
            representative[item] = rep
    db = declare_vocabulary(Database(), [query])
    for tag in range(k):
        for atom in query.atoms:
            db.add(
                atom.relation,
                *(representative[(tag, v)] for v in atom.args),
            )
    return db


def ijp_search_reference(
    query: ConjunctiveQuery,
    max_joins: int = 3,
    partition_budget: int = 200_000,
) -> Optional[IJPReport]:
    """The pre-vectorization Appendix C.2 search, kept verbatim as the
    differential baseline: one recursive partition at a time, one
    full Definition 48 check per merged database.  Benchmark E23's
    speedup gate and the pruning-soundness tests compare
    :func:`ijp_search` against this."""
    for k in range(1, max_joins + 1):
        constants = [(tag, v) for tag in range(k) for v in sorted(query.variables())]
        budget = partition_budget
        for partition in set_partitions(constants):
            budget -= 1
            if budget < 0:
                break
            db = _merge_copies(query, k, partition)
            if not satisfies(db, query):
                continue  # pragma: no cover - canonical copies always satisfy
            report = find_ijp_pair(db, query)
            if report is not None:
                report.reasons.append(
                    f"found with {k} join copies, partition {partition}"
                )
                return report
    return None


def ijp_search(
    query: ConjunctiveQuery,
    max_joins: int = 3,
    partition_budget: int = 200_000,
    cache_dir=None,
    prune: bool = True,
) -> Optional[IJPReport]:
    """Search for an IJP by the Appendix C.2 enumeration.

    Returns the first :class:`IJPReport` found, or ``None`` when no IJP
    exists within ``max_joins`` copies and the partition budget.  A
    ``None`` is *not* a proof of impossibility — Conjecture 49's
    converse direction is open.  Nor does a find prove hardness:
    Definition 48 as printed also admits IJPs for some PTIME queries
    (``q_ACconf``, ``q_TS3conf`` and ``q_Swx3perm_R``; see the module
    docstring).

    Since the distributed-search rewrite this rides the vectorized RGS
    engine (:mod:`repro.ijp.rgs` / :mod:`repro.ijp.space`): partitions
    are enumerated as restricted growth strings in lexicographic order,
    subtrees that provably contain no IJP are skipped (``prune``), the
    cheap Definition 48 conditions run vectorized over leaf batches,
    and condition-5 probes go through ``solve_batch`` (pass
    ``cache_dir`` to persist/dedupe them).  The partition budget counts
    *covered* partitions — enumerated plus soundly pruned — per copy
    count, so the search semantics match the recursive baseline.
    """
    from repro.ijp.space import sweep_space

    for k in range(1, max_joins + 1):
        result = sweep_space(
            query,
            k,
            budget=partition_budget,
            cache_dir=cache_dir,
            prune=prune,
            stop_on_first=True,
        )
        if result.certificates:
            cert = result.certificates[0]
            db = cert.database(query)
            report = check_ijp(db, query, *cert.pair, cache_dir=cache_dir)
            report.reasons.append(
                f"found with {k} join copies, partition {cert.blocks(query)}"
            )
            return report
    return None
