"""Witness enumeration: evaluating Boolean CQs over databases.

The paper's notion of a *witness* (Section 2) is a valuation ``w`` of all
existential variables with ``D |= q[w/x]``.  Every witness determines the
set of at most ``m`` tuples it uses; contingency sets must intersect the
endogenous part of every witness, which is exactly what the resilience
solvers consume.

The evaluator is a backtracking join over per-relation hash indexes.
Everything about it that depends only on the query is worked out once
per query body and cached (:func:`_join_plan`): the greedy
bound-variable-first atom order (:func:`_order_atoms`), a slot per
variable, and for each atom the positions whose variables an earlier
atom binds (the index key), the positions that bind new variables, and
the within-atom repeats to check.  The join itself
(:func:`_match`) binds *facts*: it yields, per witness, the tuple of
database facts the atoms matched, so witness tuple sets are frozensets
of the database's own facts and no valuation dict is built unless a
caller asks for one (:func:`iter_witnesses` reads it off the slots).
One join serves :func:`satisfies`, :func:`witness_tuple_sets`,
:func:`iter_witnesses` and the incremental delta join
(:func:`iter_witnesses_using`); the columnar join of
:mod:`repro.query.columnar` reads the same plan.

This is worst-case exponential in ``|q|`` (CQ evaluation is NP-complete
in combined complexity) but the query is fixed in all our uses (data
complexity), so enumeration runs in polynomial time
``O(n^{|var(q)|})``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    NamedTuple,
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
    already bound, the join probes the index keyed by ``B`` with the
    bound values and iterates only matching facts.  A key is the bare
    value for one position and a tuple of values for several (the shape
    ``operator.itemgetter`` reads), so the join builds probe keys with
    one call.
    """

    def __init__(self, facts: Sequence[DBTuple]):
        self.facts = list(facts)
        self._indexes: Dict[Tuple[int, ...], Dict[Hashable, List[DBTuple]]] = {}

    def table(self, positions: Tuple[int, ...]) -> Dict[Hashable, List[DBTuple]]:
        """The (lazily built) index keyed by ``positions``: the facts
        with each key, in snapshot order."""
        index = self._indexes.get(positions)
        if index is None:
            read = itemgetter(*positions)
            grouped = defaultdict(list)
            for fact in self.facts:
                grouped[read(fact.values)].append(fact)
            index = self._indexes[positions] = dict(grouped)
        return index

    def add_fact(self, fact: DBTuple) -> None:
        """Extend the snapshot (and every built position index) by one fact."""
        self.facts.append(fact)
        for positions, index in self._indexes.items():
            key = itemgetter(*positions)(fact.values)
            index.setdefault(key, []).append(fact)

    def remove_fact(self, fact: DBTuple) -> None:
        """Drop one fact from the snapshot and every built position index."""
        try:
            self.facts.remove(fact)
        except ValueError:
            return
        for positions, index in self._indexes.items():
            bucket = index.get(itemgetter(*positions)(fact.values))
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


def _order_atoms(atoms: Sequence[Atom], bound=()) -> List[Atom]:
    """Greedy join order: repeatedly pick the atom sharing most variables
    with those already bound (ties: fewer new variables, then body order).
    ``bound`` lists variables a seed valuation has already fixed."""
    remaining = list(atoms)
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


class JoinStep(NamedTuple):
    """How one atom of a :class:`JoinPlan` is matched against facts.

    Each variable's first occurrence in the atom is either ``bound`` (an
    earlier atom or the seed bound it: the position is part of the index
    key) or ``free`` (this atom binds it); both are ``(slot, position)``
    pairs in position order.  Every later occurrence is a ``checks``
    pair ``(position, first position)``: an equality test on the fact,
    never a key position.
    """

    bound: Tuple[Tuple[int, int], ...]
    free: Tuple[Tuple[int, int], ...]
    checks: Tuple[Tuple[int, int], ...]


class JoinPlan(NamedTuple):
    """The query-only part of a join, computed once per body and seed.

    ``variables`` names the slots: the seed's variables first, then
    every other variable in the order the join binds it.  ``atoms`` is
    the join order and ``steps`` its per-atom :class:`JoinStep`.
    """

    variables: Tuple[str, ...]
    atoms: Tuple[Atom, ...]
    steps: Tuple[JoinStep, ...]


@lru_cache(maxsize=512)
def _join_plan(atoms: Tuple[Atom, ...], bound: Tuple[str, ...]) -> JoinPlan:
    """The join plan for a body, with ``bound`` variables seeded.

    Keyed on the atom tuple, not on the query: ``ConjunctiveQuery``
    equality ignores body order, and body order breaks the greedy
    order's ties.  Every caller passes both arguments positionally, so
    one (body, seed) is one cache entry.  A key is a body with no seed
    (:func:`satisfies` and the witness-set joins) or seeded by one atom
    (the incremental delta join).  Solving the perfbench timed lists at
    seed 7 makes 49 keys on ``zoo_small``, 5 on ``np_exact`` and 6 on
    ``np_approx``, well below the cap.
    """
    ordered = _order_atoms(atoms, bound)
    slot_of: Dict[str, int] = {var: slot for slot, var in enumerate(bound)}
    steps: List[JoinStep] = []
    for atom in ordered:
        first: Dict[str, int] = {}
        keyed: List[Tuple[int, int]] = []
        free: List[Tuple[int, int]] = []
        checks: List[Tuple[int, int]] = []
        for pos, var in enumerate(atom.args):
            if var in first:
                checks.append((pos, first[var]))
                continue
            first[var] = pos
            slot = slot_of.get(var)
            if slot is None:
                slot = slot_of[var] = len(slot_of)
                free.append((slot, pos))
            else:
                keyed.append((slot, pos))
        steps.append(JoinStep(tuple(keyed), tuple(free), tuple(checks)))
    return JoinPlan(tuple(slot_of), tuple(ordered), tuple(steps))


def _match(steps, slots: list, facts: list, depth: int):
    """Match ``steps[depth:]`` in turn; yields the tuple of matched
    facts, one per step in join order, for every witness.

    Each step is ``(free, key, same, table)`` (see :func:`_matches`).
    ``slots`` holds the variable values bound so far; when a tuple is
    yielded it holds the witness's full valuation.  Module-level rather
    than a closure: a nested generator that calls itself holds a
    reference cycle through its closure cell, which would keep every
    per-call :class:`DatabaseIndex` alive until the cyclic garbage
    collector runs.
    """
    free, key, same, table = steps[depth]
    candidates = table if key is None else table.get(key(slots), ())
    last = depth + 1 == len(steps)
    for fact in candidates:
        values = fact.values
        if same is not None and same[0](values) != same[1](values):
            continue
        for slot, pos in free:
            slots[slot] = values[pos]
        facts[depth] = fact
        if last:
            yield tuple(facts)
        else:
            yield from _match(steps, slots, facts, depth + 1)


def _matches(
    plan: JoinPlan,
    database: Database,
    index: Optional[DatabaseIndex],
    slots: list,
) -> Iterator[Tuple[DBTuple, ...]]:
    """Run ``plan`` over ``database``: the matched-fact tuple of every
    witness (see :func:`_match`).

    Each plan step becomes ``(free, key, same, table)`` for this call:
    ``key`` reads the bound slots and ``table`` is the relation's index
    on the bound positions, or ``None`` and the relation's fact list
    when the step binds nothing; ``same`` holds two readers of the fact
    whose results must be equal (``None`` when the atom repeats no
    variable).  An atom whose arity differs from its relation's matches
    no fact.
    """
    if index is None:
        index = DatabaseIndex(database)
    relations = database.relations
    steps = []
    for atom, step in zip(plan.atoms, plan.steps):
        key = same = None
        if step.bound:
            key = itemgetter(*(slot for slot, _pos in step.bound))
        if step.checks:
            same = (
                itemgetter(*(pos for pos, _first in step.checks)),
                itemgetter(*(first for _pos, first in step.checks)),
            )
        rel = relations.get(atom.relation)
        if rel is not None and rel.arity != len(atom.args):
            table = {} if step.bound else []
        elif step.bound:
            positions = tuple(pos for _slot, pos in step.bound)
            table = index.for_relation(atom.relation).table(positions)
        else:
            table = index.for_relation(atom.relation).facts
        steps.append((step.free, key, same, table))
    return _match(steps, slots, [None] * len(steps), 0)


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
    plan = _join_plan(query.atoms, tuple(seed) if seed else ())
    slots: list = [None] * len(plan.variables)
    if seed:
        slots[: len(seed)] = seed.values()
    names = plan.variables
    for _facts in _matches(plan, database, index, slots):
        yield dict(zip(names, slots))


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
    plan = _join_plan(query.atoms, ())
    for _ in _matches(plan, database, index, [None] * len(plan.variables)):
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
    plan = _join_plan(query.atoms, ())
    keep = None
    if endogenous_only:
        relations = database.relations
        keep = tuple(
            i
            for i, atom in enumerate(plan.atoms)
            if not atom.exogenous
            and not getattr(relations.get(atom.relation), "exogenous", False)
        )
        if len(keep) == len(plan.atoms):
            keep = None
    seen: Set[FrozenSet[DBTuple]] = set()
    out: List[FrozenSet[DBTuple]] = []
    for facts in _matches(plan, database, index, [None] * len(plan.variables)):
        frozen = frozenset(facts if keep is None else [facts[i] for i in keep])
        if frozen not in seen:
            seen.add(frozen)
            out.append(frozen)
    return out
