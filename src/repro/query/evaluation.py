"""Witness enumeration: evaluating Boolean CQs over databases.

The paper's notion of a *witness* (Section 2) is a valuation ``w`` of all
existential variables with ``D |= q[w/x]``.  Every witness determines the
set of at most ``m`` tuples it uses; contingency sets must intersect the
endogenous part of every witness, which is exactly what the resilience
solvers consume.

The evaluator is a backtracking join with a greedy bound-variable-first
atom ordering and per-atom indexes.  This is worst-case exponential in
``|q|`` (CQ evaluation is NP-complete in combined complexity) but the
query is fixed in all our uses (data complexity), so enumeration runs in
polynomial time ``O(n^{|var(q)|})``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery

Valuation = Dict[str, Hashable]


class _AtomIndex:
    """Hash indexes over one relation, keyed by argument-position subsets.

    For an atom ``R(z1,...,zk)`` evaluated when positions ``B`` are
    already bound, we probe the index keyed by ``B`` with the bound
    values and iterate only matching facts.
    """

    def __init__(self, facts: Sequence[DBTuple]):
        self.facts = list(facts)
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, List[DBTuple]]] = {}

    def probe(self, positions: Tuple[int, ...], key: Tuple) -> List[DBTuple]:
        index = self._indexes.get(positions)
        if index is None:
            index = defaultdict(list)
            for fact in self.facts:
                index[tuple(fact.values[p] for p in positions)].append(fact)
            self._indexes[positions] = dict(index)
        return index.get(key, [])

    def add_fact(self, fact: DBTuple) -> None:
        """Extend the snapshot (and every built position index) by one fact."""
        self.facts.append(fact)
        for positions, index in self._indexes.items():
            key = tuple(fact.values[p] for p in positions)
            index.setdefault(key, []).append(fact)

    def remove_fact(self, fact: DBTuple) -> None:
        """Drop one fact from the snapshot and every built position index."""
        try:
            self.facts.remove(fact)
        except ValueError:
            return
        for positions, index in self._indexes.items():
            key = tuple(fact.values[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                try:
                    bucket.remove(fact)
                except ValueError:
                    pass


class DatabaseIndex:
    """Reusable per-relation :class:`_AtomIndex` caches for one database.

    Every evaluation entry point (:func:`iter_witnesses`,
    :func:`satisfies`, :func:`witness_tuple_sets`) builds these indexes
    internally and throws them away; when the same database is queried
    many times — batch solving, cross-checking solvers, repeated
    ``satisfies`` probes — pass one ``DatabaseIndex`` to amortize index
    construction across calls.

    The index snapshots relation contents lazily at first use per
    relation; it does **not** observe later mutations of the database.
    Build a fresh index after mutating.
    """

    def __init__(self, database):
        self.database = database
        self._by_relation: Dict[str, _AtomIndex] = {}
        self._columnar = None

    def for_relation(self, name: str) -> _AtomIndex:
        """The (lazily built) atom index for relation ``name``."""
        index = self._by_relation.get(name)
        if index is None:
            rel = self.database.relations.get(name)
            facts = list(rel) if rel is not None else []
            index = _AtomIndex(facts)
            self._by_relation[name] = index
        return index

    def columnar(self):
        """The (lazily built) columnar encoding of the database.

        Shared by every columnar enumeration through this index, so a
        batch of queries over one database dictionary-encodes it once.
        Dropped (and rebuilt on next use) when a mutation is observed.
        """
        if self._columnar is None:
            from repro.query.columnar import ColumnarDatabase

            self._columnar = ColumnarDatabase(self.database)
        return self._columnar

    def observe_insert(self, fact: DBTuple) -> None:
        """Keep already-built indexes valid after inserting ``fact``.

        Relations whose index has not been built yet need nothing: their
        index snapshots the relation at first use.  Callers must apply
        the database mutation first and notify exactly once per fact
        actually added (:mod:`repro.incremental` does).
        """
        self._columnar = None
        index = self._by_relation.get(fact.relation)
        if index is not None:
            index.add_fact(fact)

    def observe_delete(self, fact: DBTuple) -> None:
        """Keep already-built indexes valid after deleting ``fact``."""
        self._columnar = None
        index = self._by_relation.get(fact.relation)
        if index is not None:
            index.remove_fact(fact)


def _order_atoms(query: ConjunctiveQuery, bound=()) -> List[Atom]:
    """Greedy join order: repeatedly pick the atom sharing most variables
    with those already bound (ties: fewer new variables, then body order).
    ``bound`` lists variables a seed valuation has already fixed."""
    remaining = list(query.atoms)
    ordered: List[Atom] = []
    bound: Set[str] = set(bound)
    while remaining:
        def score(atom: Atom) -> Tuple[int, int]:
            vs = set(atom.args)
            return (-len(vs & bound), len(vs - bound))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.args)
    return ordered


#: Cap on :func:`witness_estimate`: the product of relation sizes stops
#: telling instances apart long before it overflows anything.
WITNESS_ESTIMATE_CAP = 10**9


def witness_estimate(database: Database, query: ConjunctiveQuery) -> int:
    """Upper estimate of the witness count: product of atom relation sizes.

    Every witness of ``D |= q`` picks one fact per atom (Section 2), so
    the count is at most ``prod_a |R_a|`` over the query's atoms.  Reads
    only relation cardinalities (no enumeration, no decode of
    snapshot-backed data) and is capped at :data:`WITNESS_ESTIMATE_CAP`.
    Parallel batches weigh whole-pair tasks by it for LPT packing.
    """
    estimate = 1
    for atom in query.atoms:
        rel = database.relations.get(atom.relation)
        estimate *= len(rel) if rel is not None else 0
        if estimate == 0:
            return 0
        if estimate >= WITNESS_ESTIMATE_CAP:
            return WITNESS_ESTIMATE_CAP
    return estimate


def witnesses(
    database: Database,
    query: ConjunctiveQuery,
    index: Optional[DatabaseIndex] = None,
) -> List[Valuation]:
    """All witnesses of ``D |= q``, as variable valuations.

    Returns a list of dicts mapping every variable of ``q`` to a domain
    constant.  The list is empty iff ``D`` does not satisfy ``q``.
    """
    return list(iter_witnesses(database, query, index=index))


def iter_witnesses(
    database: Database,
    query: ConjunctiveQuery,
    index: Optional[DatabaseIndex] = None,
    seed: Optional[Valuation] = None,
) -> Iterator[Valuation]:
    """Lazily enumerate witnesses of ``D |= q``.

    Pass a :class:`DatabaseIndex` to reuse atom indexes across calls on
    the same (unmutated) database.  A ``seed`` valuation restricts the
    enumeration to witnesses extending it — every atom is still checked
    against the database, so the yielded valuations are exactly the
    witnesses of ``D |= q`` that agree with the seed (the workhorse of
    :func:`iter_witnesses_using` and incremental maintenance).
    """
    ordered = _order_atoms(query, bound=seed or ())
    if index is None:
        index = DatabaseIndex(database)
    indexes: Dict[str, _AtomIndex] = {
        atom.relation: index.for_relation(atom.relation) for atom in ordered
    }

    valuation: Valuation = dict(seed) if seed else {}
    yield from _extend(ordered, indexes, valuation, 0)


def _extend(
    ordered: List[Atom],
    indexes: Dict[str, _AtomIndex],
    valuation: Valuation,
    depth: int,
) -> Iterator[Valuation]:
    """Bind atoms ``ordered[depth:]`` in turn; yields complete valuations.

    Module-level rather than a closure: a nested generator that calls
    itself holds a reference cycle through its closure cell, which
    would keep every per-call :class:`DatabaseIndex` alive until the
    cyclic garbage collector runs.
    """
    if depth == len(ordered):
        yield dict(valuation)
        return
    atom = ordered[depth]
    index = indexes[atom.relation]
    bound_positions = tuple(i for i, v in enumerate(atom.args) if v in valuation)
    key = tuple(valuation[atom.args[i]] for i in bound_positions)
    for fact in index.probe(bound_positions, key):
        # Check consistency for repeated variables within the atom
        # and bind the free ones.
        newly_bound: List[str] = []
        ok = True
        for i, var in enumerate(atom.args):
            val = fact.values[i]
            if var in valuation:
                if valuation[var] != val:
                    ok = False
                    break
            else:
                valuation[var] = val
                newly_bound.append(var)
        if ok:
            yield from _extend(ordered, indexes, valuation, depth + 1)
        for var in newly_bound:
            del valuation[var]


def iter_witnesses_using(
    database: Database,
    query: ConjunctiveQuery,
    fact: DBTuple,
    index: Optional[DatabaseIndex] = None,
) -> Iterator[Valuation]:
    """Witnesses of ``D |= q`` that map at least one atom to ``fact``.

    After inserting ``fact`` into ``D``, the witnesses of the new
    database are exactly the old ones plus the valuations yielded here
    (a valuation using the new fact could not have existed before), so
    incremental maintenance only ever runs this constrained join.  For
    each atom over the fact's relation, the atom is unified with the
    fact (repeated variables must agree) and the remaining join runs
    from that seed; a witness using the fact in several atoms is
    yielded once.
    """
    seen: Set[FrozenSet] = set()
    for atom in query.atoms:
        if atom.relation != fact.relation or len(atom.args) != len(fact.values):
            continue
        seed: Valuation = {}
        consistent = True
        for var, value in zip(atom.args, fact.values):
            if seed.setdefault(var, value) != value:
                consistent = False
                break
        if not consistent:
            continue
        for valuation in iter_witnesses(database, query, index=index, seed=seed):
            key = frozenset(valuation.items())
            if key not in seen:
                seen.add(key)
                yield valuation


def satisfies(
    database: Database,
    query: ConjunctiveQuery,
    index: Optional[DatabaseIndex] = None,
) -> bool:
    """``D |= q``: does at least one witness exist?"""
    for _ in iter_witnesses(database, query, index=index):
        return True
    return False


def witness_tuples(
    query: ConjunctiveQuery, valuation: Valuation
) -> Set[DBTuple]:
    """The set of facts a witness uses (at most ``m``, Section 2)."""
    out: Set[DBTuple] = set()
    for atom in query.atoms:
        out.add(DBTuple(atom.relation, tuple(valuation[v] for v in atom.args)))
    return out


def witness_tuple_sets(
    database: Database,
    query: ConjunctiveQuery,
    endogenous_only: bool = True,
    index: Optional[DatabaseIndex] = None,
) -> List[FrozenSet[DBTuple]]:
    """The witness structure consumed by resilience solvers.

    For each witness, the frozenset of tuples it uses — restricted to
    endogenous relations when ``endogenous_only`` (the default), since
    only those may enter contingency sets.  A relation counts as
    exogenous if either the query marks it so (``R^x`` atoms) or the
    database instance does.  A witness whose tuple set is *empty* under
    the restriction is unbreakable: the query cannot be made false and
    resilience is undefined (the solvers raise).

    Duplicate tuple sets are collapsed (several valuations may use the
    same facts, e.g. ``(3, 3, 3)`` for ``qchain``).

    Large instances run on the vectorized columnar join of
    :mod:`repro.query.columnar` (same sets, enumerated as numpy
    incidence instead of Python valuations; see that module's size
    rule); everything else uses the backtracking evaluator of
    :func:`_witness_tuple_sets_reference`.
    """
    from repro.query.columnar import try_witness_tuple_sets

    columnar = try_witness_tuple_sets(
        database, query, endogenous_only=endogenous_only, index=index
    )
    if columnar is not None:
        return columnar
    return _witness_tuple_sets_reference(
        database, query, endogenous_only=endogenous_only, index=index
    )


def _witness_tuple_sets_reference(
    database: Database,
    query: ConjunctiveQuery,
    endogenous_only: bool = True,
    index: Optional[DatabaseIndex] = None,
) -> List[FrozenSet[DBTuple]]:
    """The backtracking-evaluator witness sets (no columnar dispatch).

    Callers that already attempted the columnar join (and fell back)
    use this entry point directly so the vectorized attempt is not
    repeated — and not double-counted in the backend counters.
    """
    flags = dict(query.relation_flags())
    for name, rel in database.relations.items():
        if rel.exogenous:
            flags[name] = True
    seen: Set[FrozenSet[DBTuple]] = set()
    out: List[FrozenSet[DBTuple]] = []
    for valuation in iter_witnesses(database, query, index=index):
        facts = witness_tuples(query, valuation)
        if endogenous_only:
            facts = {f for f in facts if not flags.get(f.relation, False)}
        frozen = frozenset(facts)
        if frozen not in seen:
            seen.add(frozen)
            out.append(frozen)
    return out
