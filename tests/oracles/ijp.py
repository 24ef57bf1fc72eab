"""Reference enumerators for the Appendix C.2 IJP search.

The engine (:mod:`repro.ijp.rgs`, :mod:`repro.ijp.space`) enumerates
the set partitions of ``k`` canonical query copies as restricted growth
strings over numpy batches, prunes subtrees, and screens Definition 48
vectorized.  The functions here are the recursive one-at-a-time walk it
replaced, kept as the baselines the engine is checked and timed
against:

* :func:`set_partitions` — every set partition of a list (Bell-number
  many), the 1x floor benchmark E23 times;
* :func:`rgs_reference` — every restricted growth string of a length,
  in lexicographic order, which the vectorized expansion must match;
* :func:`merge_copies` — the database of ``k`` canonical copies with
  the constants of each partition block identified;
* :func:`ijp_search_reference` — the search itself: one partition at a
  time, one full Definition 48 check per merged database.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.db.database import Database
from repro.ijp.checker import IJPReport, find_ijp_pair
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import satisfies
from repro.workloads.random_db import declare_vocabulary


def set_partitions(items: List) -> Iterator[List[List]]:
    """All set partitions of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def rgs_reference(n: int) -> Iterator[Tuple[int, ...]]:
    """All restricted growth strings of length ``n``, lexicographically."""
    if n == 0:
        yield ()
        return

    def rec(prefix: List[int], ceiling: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for digit in range(ceiling + 2):
            prefix.append(digit)
            yield from rec(prefix, max(ceiling, digit))
            prefix.pop()

    yield from rec([], -1)


def merge_copies(
    query: ConjunctiveQuery, k: int, partition: List[List]
) -> Database:
    """The database of ``k`` canonical copies under a partition."""
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
    """The first IJP found by the recursive walk, or ``None`` within
    ``max_joins`` copies and ``partition_budget`` partitions per copy
    count — the semantics :func:`repro.ijp.ijp_search` keeps."""
    for k in range(1, max_joins + 1):
        constants = [(tag, v) for tag in range(k) for v in sorted(query.variables())]
        budget = partition_budget
        for partition in set_partitions(constants):
            budget -= 1
            if budget < 0:
                break
            db = merge_copies(query, k, partition)
            if not satisfies(db, query):
                continue  # canonical copies always satisfy
            report = find_ijp_pair(db, query)
            if report is not None:
                report.reasons.append(
                    f"found with {k} join copies, partition {partition}"
                )
                return report
    return None
