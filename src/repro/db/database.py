"""Database instances.

A :class:`Database` is a collection of :class:`~repro.db.relation.Relation`
instances over a fixed vocabulary.  Following the paper (Section 2), a
database is also viewed as the disjoint union of all its tuples, with size
``n = |D|`` counting tuples.

Databases support:

* convenient fact insertion — ``db.add("R", 1, 2)``;
* the deletion operator ``D - Gamma`` used throughout the paper
  (:meth:`Database.minus`), which refuses to delete exogenous facts;
* the active domain ``dom(D)``;
* structural hashing for memoised solvers;
* per-tuple costs (positive ints, default 1) for *weighted* resilience:
  ``db.add("R", 1, 2, cost=5)``, :meth:`Database.cost`,
  :meth:`Database.total_cost`.  Exogenous facts may carry costs but are
  never charged — contingency sets cannot contain them (Definition 1) —
  so only endogenous costs are semantically meaningful; a database with
  all endogenous costs at 1 behaves (and hashes) exactly like an
  unweighted one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.db.relation import Relation
from repro.db.tuples import DBTuple


class Database:
    """A database instance: a set of named relations.

    Relations are declared lazily: :meth:`add` creates the relation on
    first use, inferring its arity from the inserted fact.  Declare
    relations explicitly with :meth:`declare` when you need an empty
    relation or an exogenous one.
    """

    def __init__(self, relations: Optional[Iterable[Relation]] = None):
        self.relations: Dict[str, Relation] = {}
        # Content-epoch memo slots: each caches (epoch, value) where the
        # epoch is the tuple of per-relation version counters at
        # materialization time (see content_epoch()).
        self._canonical_form_memo: Optional[Tuple[tuple, frozenset]] = None
        self._canonical_text_memo: Optional[Tuple[tuple, str]] = None
        self._content_digest_memo: Optional[Tuple[tuple, str]] = None
        if relations is not None:
            for rel in relations:
                if rel.name in self.relations:
                    raise ValueError(f"duplicate relation {rel.name!r}")
                self.relations[rel.name] = rel

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def declare(self, name: str, arity: int, exogenous: bool = False) -> Relation:
        """Declare (or fetch) relation ``name`` with the given signature."""
        existing = self.relations.get(name)
        if existing is not None:
            if existing.arity != arity:
                raise ValueError(
                    f"relation {name!r} already declared with arity {existing.arity}"
                )
            if exogenous and not existing.exogenous:
                existing.exogenous = True
            return existing
        rel = Relation(name, arity, exogenous=exogenous)
        self.relations[name] = rel
        return rel

    def add(self, name: str, *values: Hashable, cost: Optional[int] = None) -> DBTuple:
        """Insert fact ``name(values...)``, declaring the relation if new.

        ``cost`` (positive int) sets the fact's weighted-resilience cost;
        omitted, the fact keeps its current cost (1 for a new fact).
        """
        rel = self.relations.get(name)
        if rel is None:
            rel = self.declare(name, len(values))
        return rel.add(*values, cost=cost)

    def add_all(self, name: str, rows: Iterable) -> None:
        """Insert many facts into relation ``name``.

        Rows may be value vectors (tuples/lists) or single values for a
        unary relation.
        """
        for row in rows:
            if isinstance(row, (tuple, list)):
                self.add(name, *row)
            else:
                self.add(name, row)

    def set_exogenous(self, *names: str) -> None:
        """Mark the named relations exogenous."""
        for name in names:
            if name not in self.relations:
                raise KeyError(f"unknown relation {name!r}")
            self.relations[name].exogenous = True

    def set_cost(self, fact: DBTuple, cost: int) -> None:
        """Set the cost of a present fact (``ValueError`` if absent)."""
        rel = self.relations.get(fact.relation)
        if rel is None or fact not in rel:
            raise ValueError(f"{fact!r} is not in the database")
        rel.set_cost(fact, cost)

    def cost(self, fact: DBTuple) -> int:
        """The cost of ``fact`` (1 unless explicitly set; ``ValueError``
        if the fact is not in the database)."""
        rel = self.relations.get(fact.relation)
        if rel is None or fact not in rel:
            raise ValueError(f"{fact!r} is not in the database")
        return rel.cost(fact)

    def total_cost(self, facts: Iterable[DBTuple]) -> int:
        """The summed cost of ``facts`` (each must be in the database)."""
        return sum(self.cost(fact) for fact in facts)

    def has_weighted_costs(self) -> bool:
        """Does any *endogenous* fact carry a non-unit cost?

        Exogenous costs are ignored: exogenous facts can never be
        charged, so they do not make an instance weighted.  Solvers use
        this to route all-unit ``weighted=True`` calls through the
        unweighted fast paths (bit-identical results by construction).
        """
        return any(
            rel.has_weighted_costs
            for rel in self.relations.values()
            if not rel.exogenous
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """The relation instance named ``name``."""
        return self.relations[name]

    def __contains__(self, fact: DBTuple) -> bool:
        rel = self.relations.get(fact.relation)
        return rel is not None and fact in rel

    def __iter__(self) -> Iterator[DBTuple]:
        """Iterate over all facts (the disjoint-union view)."""
        for rel in self.relations.values():
            yield from rel

    def __len__(self) -> int:
        """Database size ``n = |D|``: the number of tuples."""
        return sum(len(rel) for rel in self.relations.values())

    def all_tuples(self) -> Set[DBTuple]:
        """All facts as a set."""
        return set(self)

    def endogenous_tuples(self) -> Set[DBTuple]:
        """All facts belonging to endogenous relations."""
        out: Set[DBTuple] = set()
        for rel in self.relations.values():
            if not rel.exogenous:
                out.update(rel)
        return out

    def active_domain(self) -> Set[Hashable]:
        """``dom(D)``: every constant occurring in some fact."""
        dom: Set[Hashable] = set()
        for fact in self:
            dom.update(fact.values)
        return dom

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def minus(self, gamma: Iterable[DBTuple]) -> "Database":
        """The database ``D - Gamma``.

        Raises ``ValueError`` if ``gamma`` contains an exogenous fact —
        contingency sets may only contain endogenous tuples
        (Definition 1).
        """
        gamma = set(gamma)
        for fact in gamma:
            rel = self.relations.get(fact.relation)
            if rel is None or fact not in rel:
                raise ValueError(f"{fact!r} is not in the database")
            if rel.exogenous:
                raise ValueError(f"cannot delete exogenous fact {fact!r}")
        clone = self.copy()
        for fact in gamma:
            clone.relations[fact.relation].discard(fact)
        return clone

    def copy(self) -> "Database":
        """A deep-enough copy: fresh relations, shared immutable facts."""
        return Database([rel.copy() for rel in self.relations.values()])

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def content_epoch(self) -> tuple:
        """A cheap fingerprint of this object's mutation state.

        The tuple of ``(name, id(rel), rel.version)`` triples over the
        sorted relation names: O(#relations) to compute, and guaranteed
        to change whenever any relation gains/loses a fact, changes a
        cost, or flips its exogenous flag (every mutation path bumps
        :attr:`Relation.version`).  The canonical-form/text/digest memos
        below key on it, so an unmutated database materializes each
        snapshot exactly once per epoch.
        """
        return tuple(
            (name, id(rel), rel.version)
            for name, rel in sorted(self.relations.items())
        )

    def canonical_form(self) -> frozenset:
        """A hashable snapshot of the database contents.

        Two databases are equal as instances iff their canonical forms
        are equal (relation flags and endogenous non-unit costs
        included).  Cost parts are emitted only when present, so an
        all-unit database has exactly the pre-weighting canonical form —
        content-hash caches and memo keys are unchanged by the weighted
        machinery until someone actually assigns a cost.

        Memoized per :meth:`content_epoch`: hash/equality-heavy paths
        (solver memo dicts, the witness-structure LRU) pay the O(|D|)
        materialization once per mutation epoch instead of per call.
        """
        epoch = self.content_epoch()
        memo = self._canonical_form_memo
        if memo is not None and memo[0] == epoch:
            return memo[1]
        form = self._materialize_canonical_form()
        self._canonical_form_memo = (epoch, form)
        return form

    def _materialize_canonical_form(self) -> frozenset:
        """Actually build the canonical form (the memoized
        :meth:`canonical_form` calls this once per mutation epoch; the
        regression suite counts calls to pin that contract)."""
        parts: List = []
        for name in sorted(self.relations):
            rel = self.relations[name]
            parts.append((name, rel.arity, rel.exogenous, rel.tuples))
            if not rel.exogenous and rel.has_weighted_costs:
                parts.append(("__costs__", name, rel.cost_items()))
        return frozenset(parts)

    def canonical_text(self) -> str:
        """The deterministic textual form of the database contents.

        Exactly the database segments of the result-cache pair text
        (sorted relation declarations, sorted tuple reprs, ``$costs``
        segments for weighted endogenous relations, ``|``-joined) —
        :func:`repro.witness.cache.pair_cache_key` feeds this to its
        incremental SHA-256, so the format is pinned bit-for-bit by the
        golden-key suite.  Memoized per :meth:`content_epoch`.
        """
        epoch = self.content_epoch()
        memo = self._canonical_text_memo
        if memo is not None and memo[0] == epoch:
            return memo[1]
        parts = []
        for name in sorted(self.relations):
            rel = self.relations[name]
            rows = ",".join(sorted(repr(t.values) for t in rel))
            parts.append(f"{name}/{rel.arity}/{int(rel.exogenous)}:{rows}")
            if not rel.exogenous and rel.has_weighted_costs:
                cost_rows = ",".join(
                    sorted(f"{values!r}={cost}" for values, cost in rel.cost_items())
                )
                parts.append(f"{name}$costs:{cost_rows}")
        text = "|".join(parts)
        self._canonical_text_memo = (epoch, text)
        return text

    def content_digest(self) -> str:
        """SHA-256 hexdigest of :meth:`canonical_text`.

        The process-stable content identity of the instance: equal
        contents (tuples, flags, endogenous costs) give equal digests
        across runs regardless of ``PYTHONHASHSEED``.  Storage snapshots
        (:mod:`repro.storage`) record this digest at ingest, so a
        memmap-backed handle can stand in for the in-memory database in
        any content-keyed cache.  Memoized per :meth:`content_epoch`.
        """
        epoch = self.content_epoch()
        memo = self._content_digest_memo
        if memo is not None and memo[0] == epoch:
            return memo[1]
        digest = hashlib.sha256(self.canonical_text().encode()).hexdigest()
        self._content_digest_memo = (epoch, digest)
        return digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{r.name}{'^x' if r.exogenous else ''}:{len(r)}"
            for r in self.relations.values()
        )
        return f"Database({rels}; n={len(self)})"


def endogenous_tuple_count(database) -> int:
    """The number of endogenous tuples, counted from ``relations``.

    Exogenous tuples can never enter a contingency set (Definition 1),
    so this bounds the hitting-set variable count: serving admission
    and the parallel component split size instances by it.  Only
    relation cardinalities are read, so snapshot-backed databases
    (:class:`repro.storage.StoredDatabase`) are counted without a
    decode.
    """
    return sum(
        len(rel) for rel in database.relations.values() if not rel.exogenous
    )
