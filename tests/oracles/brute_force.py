"""Ground truth for resilience that shares no code with the engine.

Resilience (Definition 1) is the minimum cost of a set of endogenous
tuples whose deletion makes the Boolean query false.  This module
computes it from scratch on tiny instances:

* :func:`witness_fact_sets` evaluates the query with a plain
  nested-loop join — one loop per atom over that relation's facts,
  binding variables as it goes — and returns, per satisfying
  valuation, the set of facts the valuation uses;
* :func:`satisfied` re-evaluates the query with some facts deleted;
* :func:`minimum_contingency_cost` searches the subsets of the
  endogenous facts, cheapest first by branch and bound: a deletion set
  falsifies the query exactly when it meets every witness, so the
  search extends a partial set by each fact of some witness it still
  misses, and drops branches that cost at least the best set found.

Only the data model is shared with the engine (``Database`` relations,
facts and costs, and the query's atoms); no evaluator, witness
structure, kernel or solver code is used.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional

Fact = Hashable


def exogenous_relations(database, query) -> FrozenSet[str]:
    """Relations whose facts may never be deleted: marked exogenous by
    the database or by any atom of the query."""
    marked = {name for name, rel in database.relations.items() if rel.exogenous}
    marked |= {atom.relation for atom in query.atoms if atom.exogenous}
    return frozenset(marked)


def witness_fact_sets(
    database, query, deleted: FrozenSet[Fact] = frozenset()
) -> List[FrozenSet[Fact]]:
    """The fact set of every valuation satisfying ``query`` on
    ``database`` minus ``deleted`` (one entry per valuation)."""
    atoms = list(query.atoms)
    facts_of: Dict[str, list] = {
        atom.relation: [
            f for f in database.relations[atom.relation] if f not in deleted
        ]
        if atom.relation in database.relations
        else []
        for atom in atoms
    }
    out: List[FrozenSet[Fact]] = []

    def extend(i: int, binding: Dict[str, Hashable], used: list) -> None:
        if i == len(atoms):
            out.append(frozenset(used))
            return
        atom = atoms[i]
        for fact in facts_of[atom.relation]:
            if len(fact.values) != len(atom.args):
                continue
            new = dict(binding)
            if all(new.setdefault(v, c) == c for v, c in zip(atom.args, fact.values)):
                extend(i + 1, new, used + [fact])

    extend(0, {}, [])
    return out


def satisfied(database, query, deleted: Iterable[Fact] = ()) -> bool:
    """Does ``query`` hold on ``database`` minus ``deleted``?"""
    return bool(witness_fact_sets(database, query, frozenset(deleted)))


def minimum_contingency_cost(
    database, query, cost: Callable[[Fact], int]
) -> Optional[int]:
    """The cheapest deletion of endogenous facts that falsifies ``query``.

    ``0`` when the query is already false, ``None`` when no deletion
    works (some witness uses only exogenous facts).
    """
    exogenous = exogenous_relations(database, query)
    targets = sorted(
        {
            frozenset(f for f in used if f.relation not in exogenous)
            for used in witness_fact_sets(database, query)
        },
        key=lambda s: sorted(repr(f) for f in s),
    )
    if any(not s for s in targets):
        return None
    best = [sum(cost(f) for f in frozenset().union(*targets))]

    def search(chosen: FrozenSet[Fact], spent: int) -> None:
        if spent >= best[0]:
            return
        missed = next((s for s in targets if not (s & chosen)), None)
        if missed is None:
            best[0] = spent
            return
        for fact in sorted(missed, key=repr):
            search(chosen | {fact}, spent + cost(fact))

    search(frozenset(), 0)
    return best[0]
