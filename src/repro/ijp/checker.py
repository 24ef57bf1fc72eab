"""The Definition 48 checker: is a database an Independent Join Path?

Conditions, for a query ``q`` with ``m`` atoms and a database ``D``:

1. some endogenous relation ``R`` has tuples ``R(a)``, ``R(b)`` with
   ``a ⊄ b`` and ``b ⊄ a`` (as constant sets);
2. ``R(a)`` and ``R(b)`` each participate in exactly one witness, and
   those witnesses use exactly ``m`` tuples each;
3. no endogenous relation holds a tuple whose constants are a proper
   subset of ``a``'s or of ``b``'s;
4. if an exogenous relation holds a tuple equal to a subvector ``a_j``
   of ``a``, it also holds the matching subvector ``b_j`` of ``b``
   (and symmetrically);
5. with ``c = rho(q, D)``, removing ``R(a)``, ``R(b)``, or both drops
   the resilience to exactly ``c - 1`` in all three cases.

Condition 5 is the "or-property" of Figure 8: deleting either endpoint
buys exactly one unit of cover inside the gadget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import witness_tuple_sets
from repro.resilience.types import UnbreakableQueryError


@dataclass
class IJPReport:
    """Outcome of an IJP check: per-condition verdicts and diagnostics."""

    is_ijp: bool
    pair: Optional[Tuple[DBTuple, DBTuple]] = None
    conditions: List[bool] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)
    resilience: Optional[int] = None

    def __repr__(self) -> str:
        status = "IJP" if self.is_ijp else "not an IJP"
        return f"IJPReport({status}, pair={self.pair}, conditions={self.conditions})"


def _values_set(t: DBTuple) -> frozenset:
    return frozenset(t.values)


def _proper_subset(small: frozenset, big: frozenset) -> bool:
    return small < big


def _subvectors(values: Tuple) -> List[Tuple[Tuple[int, ...], Tuple]]:
    """All nonempty index subsequences of a value vector."""
    out = []
    n = len(values)
    for r in range(1, n + 1):
        for idx in combinations(range(n), r):
            out.append((idx, tuple(values[i] for i in idx)))
    return out


def combined_flags(database: Database, query: ConjunctiveQuery) -> Dict[str, bool]:
    """Exogenous flags as the checker sees them: a relation is exogenous
    if either the query or the database declaration marks it so."""
    flags = dict(query.relation_flags())
    for name, rel in database.relations.items():
        if rel.exogenous:
            flags[name] = True
    return flags


def check_conditions_1_4(
    database: Database,
    query: ConjunctiveQuery,
    tuple_a: DBTuple,
    tuple_b: DBTuple,
    all_sets: Optional[List[FrozenSet[DBTuple]]] = None,
    flags: Optional[Dict[str, bool]] = None,
) -> Tuple[List[bool], List[str]]:
    """Conditions 1-4 of Definition 48 for one candidate endpoint pair.

    These four are the *cheap* conditions — pure set/vector tests over
    the database, no resilience solve — so the batch search evaluates
    them separately and reserves the condition-5 probes for survivors.
    ``all_sets``/``flags`` let callers amortize the witness enumeration
    across the many pairs of one database (the search checks every
    endpoint pair of every merged candidate; recomputing witnesses per
    pair would dominate).
    """
    conditions: List[bool] = []
    reasons: List[str] = []
    if flags is None:
        flags = combined_flags(database, query)

    # Condition 1 — same endogenous relation, incomparable constant sets.
    set_a, set_b = _values_set(tuple_a), _values_set(tuple_b)
    cond1 = (
        tuple_a.relation == tuple_b.relation
        and not flags.get(tuple_a.relation, False)
        and tuple_a != tuple_b
        and not set_a <= set_b
        and not set_b <= set_a
    )
    conditions.append(cond1)
    if not cond1:
        reasons.append("condition 1: endpoints must be incomparable tuples of one endogenous relation")

    # Condition 2 — each endpoint in exactly one witness of m tuples.
    if all_sets is None:
        all_sets = witness_tuple_sets(database, query, endogenous_only=False)
    m = len(query.atoms)
    wa = [s for s in all_sets if tuple_a in s]
    wb = [s for s in all_sets if tuple_b in s]
    cond2 = (
        len(wa) == 1 and len(wb) == 1 and len(wa[0]) == m and len(wb[0]) == m
    )
    conditions.append(cond2)
    if not cond2:
        reasons.append(
            f"condition 2: endpoints in {len(wa)}/{len(wb)} witnesses "
            f"(sizes {[len(s) for s in wa + wb]}, need exactly 1 of size {m})"
        )

    # Condition 3 — no endogenous tuple strictly below an endpoint.
    cond3 = True
    for fact in database:
        if flags.get(fact.relation, False):
            continue
        fs = _values_set(fact)
        if _proper_subset(fs, set_a) or _proper_subset(fs, set_b):
            cond3 = False
            reasons.append(f"condition 3: endogenous {fact!r} sits below an endpoint")
            break
    conditions.append(cond3)

    # Condition 4 — exogenous subvector symmetry.
    cond4 = True
    for name, rel in database.relations.items():
        if not flags.get(name, False):
            continue
        vectors = rel.value_vectors()
        for idx, sub_a in _subvectors(tuple_a.values):
            sub_b = tuple(tuple_b.values[i] for i in idx)
            if sub_a in vectors and sub_b not in vectors:
                cond4 = False
                reasons.append(
                    f"condition 4: exogenous {name} holds {sub_a} (= a_{idx}) but not {sub_b}"
                )
            if sub_b in vectors and sub_a not in vectors:
                cond4 = False
                reasons.append(
                    f"condition 4: exogenous {name} holds {sub_b} (= b_{idx}) but not {sub_a}"
                )
    conditions.append(cond4)
    return conditions, reasons


def check_ijp(
    database: Database,
    query: ConjunctiveQuery,
    tuple_a: DBTuple,
    tuple_b: DBTuple,
    cache_dir=None,
) -> IJPReport:
    """Check Definition 48 for the candidate endpoint pair.

    Condition 5 ("or-property") needs four resilience values — on
    ``D``, ``D - a``, ``D - b``, ``D - ab`` — and routes them through
    the engine front door (:func:`repro.resilience.solver.solve` /
    :func:`repro.core.analyzer.solve_batch`) rather than a fixed exact
    backend, so dispatch, the columnar join, and the bitset kernel all
    apply.  With ``cache_dir`` the probes go through the persistent
    :class:`~repro.witness.cache.ResultCache`, where their content-hash
    keys dedupe repeats — the unmodified-``D`` probe is shared by every
    candidate pair of the same database.
    """
    flags = combined_flags(database, query)
    conditions, reasons = check_conditions_1_4(
        database, query, tuple_a, tuple_b, flags=flags
    )

    resilience = None
    cond5 = False
    if all(conditions):
        # Condition 5 — the "or-property".
        try:
            probes = [
                database,
                database.minus({tuple_a}),
                database.minus({tuple_b}),
                database.minus({tuple_a, tuple_b}),
            ]
            values = _probe_resilience(probes, query, cache_dir)
            resilience = values[0]
            cond5 = all(v == resilience - 1 for v in values[1:])
            if not cond5:
                reasons.append("condition 5: removing endpoints does not drop resilience by exactly 1")
        except UnbreakableQueryError:
            reasons.append("condition 5: resilience undefined (all-exogenous witness)")
    conditions.append(cond5)

    return IJPReport(
        is_ijp=all(conditions),
        pair=(tuple_a, tuple_b),
        conditions=conditions,
        reasons=reasons,
        resilience=resilience,
    )


def _probe_resilience(databases, query: ConjunctiveQuery, cache_dir=None) -> List[int]:
    """Exact resilience of each probe database, through the engine.

    Imported lazily: the solver stack pulls in the batch machinery,
    and :mod:`repro.ijp` must stay importable on its own.
    """
    if cache_dir is not None:
        from repro.core.analyzer import solve_batch

        batch = solve_batch([(db, query) for db in databases], cache_dir=cache_dir)
        return batch.values()
    from repro.resilience.solver import solve

    return [solve(db, query).value for db in databases]


def find_ijp_pair(
    database: Database, query: ConjunctiveQuery
) -> Optional[IJPReport]:
    """Try every candidate endpoint pair; return the first full IJP."""
    flags = dict(query.relation_flags())
    for name, rel in database.relations.items():
        if rel.exogenous:
            flags[name] = True
    for name, rel in sorted(database.relations.items()):
        if flags.get(name, False):
            continue
        facts = sorted(rel)
        for ta, tb in combinations(facts, 2):
            report = check_ijp(database, query, ta, tb)
            if report.is_ijp:
                return report
    return None
