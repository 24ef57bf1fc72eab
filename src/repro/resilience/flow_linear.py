"""Network flow for linear queries.

For a linear sj-free CQ, resilience equals min cut in the natural flow
network: atoms sit along the linear order, every tuple of an endogenous
atom is a unit-capacity element, exogenous tuples have infinite capacity,
and edges connect compatible tuples of consecutive atoms (Meliou et al.
[31]; summarised in Section 2.4 of the paper).

Correctness hinges on the interval property of linear orders: variables
occupy contiguous atom blocks, so *pairwise* compatibility of consecutive
facts implies a globally consistent valuation — s-t paths coincide with
witnesses.

Proposition 31 extends the same construction to linear queries whose
only self-join is a 2-confluence: the repeated relation's occurrences
become *independent* parallel layers (the same tuple appears as one unit
edge per occurrence), and Lemma 55 shows minimal min cuts never pay for
the same tuple twice — so the flow value still equals resilience.  The
solver accepts any linear query and exposes the per-occurrence layering;
the dispatcher decides when using it is sound.

**Weighted instances** (``weighted=True``): each endogenous tuple edge
carries the tuple's cost as its capacity, so the min cut minimizes the
summed deletion cost directly.  This is sound only when no endogenous
relation repeats across layers — a tuple appearing as several parallel
edges would be charged once per layer, and (unlike the unit case)
Lemma 55's never-pay-twice argument does not transfer to weighted
minimal cuts.  The dispatcher only routes weighted instances here when
the query is linear with *no* endogenous self-join after normalization;
the solver additionally verifies the cost accounting on the way out.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import satisfies
from repro.resilience.flownet import FlowNetwork
from repro.resilience.types import ResilienceResult, UnbreakableQueryError
from repro.structure.linearity import find_linear_order


class LinearFlowSolver:
    """Resilience via s-t min cut for a linear query.

    Parameters
    ----------
    query:
        A linear CQ.  ``ValueError`` if no linear atom order exists.
    order:
        Optional explicit atom order (indices into ``query.atoms``);
        validated for the interval property when given.
    """

    def __init__(self, query: ConjunctiveQuery, order: Optional[Sequence[int]] = None):
        self.query = query
        if order is None:
            found = find_linear_order(query)
            if found is None:
                raise ValueError(f"query {query!r} is not linear")
            self.order = list(found)
        else:
            self.order = list(order)
            if sorted(self.order) != list(range(len(query.atoms))):
                raise ValueError("order must be a permutation of atom indices")

    # ------------------------------------------------------------------
    def _facts_at(self, database: Database, atom) -> List[DBTuple]:
        rel = database.relations.get(atom.relation)
        if rel is None:
            return []
        out = []
        for fact in rel:
            # Repeated variables inside the atom constrain facts.
            ok = True
            seen: Dict[str, Hashable] = {}
            for var, val in zip(atom.args, fact.values):
                if var in seen and seen[var] != val:
                    ok = False
                    break
                seen[var] = val
            if ok:
                out.append(fact)
        return out

    def _exogenous(self, database: Database, atom) -> bool:
        if atom.exogenous:
            return True
        rel = database.relations.get(atom.relation)
        return rel is not None and rel.exogenous

    # ------------------------------------------------------------------
    def build_network(
        self, database: Database, weighted: bool = False
    ) -> FlowNetwork:
        """The flow network for ``database`` (exposed for inspection)."""
        net = FlowNetwork()
        atoms = [self.query.atoms[i] for i in self.order]
        layers: List[List[DBTuple]] = [self._facts_at(database, a) for a in atoms]

        # Node-split every (position, fact): in -> out carries the
        # capacity (cost if weighted endogenous, 1 if endogenous,
        # inf otherwise).
        for pos, (atom, facts) in enumerate(zip(atoms, layers)):
            exo = self._exogenous(database, atom)
            for fact in facts:
                u = ("in", pos, fact)
                v = ("out", pos, fact)
                if exo:
                    net.add_inf_edge(u, v)
                else:
                    cap = database.cost(fact) if weighted else 1
                    net.add_unit_edge(u, v, payload=fact, capacity=cap)

        for fact in layers[0]:
            net.source_edge(("in", 0, fact))
        last = len(atoms) - 1
        for fact in layers[last]:
            net.sink_edge(("out", last, fact))
        for pos in range(last):
            a, b = atoms[pos], atoms[pos + 1]
            shared = [v for v in dict.fromkeys(a.args) if v in b.args]
            key_a = [a.args.index(v) for v in shared]
            key_b = [b.args.index(v) for v in shared]
            # Layer pos+1 bucketed by its values of the shared variables:
            # a fact is compatible with exactly its bucket, whose members
            # stay in layer order.
            buckets: Dict[Tuple, List[DBTuple]] = {}
            for fb in layers[pos + 1]:
                key = tuple(fb.values[i] for i in key_b)
                buckets.setdefault(key, []).append(fb)
            for fa in layers[pos]:
                key = tuple(fa.values[i] for i in key_a)
                for fb in buckets.get(key, ()):
                    net.add_inf_edge(("out", pos, fa), ("in", pos + 1, fb))
        return net

    def solve(
        self, database: Database, weighted: bool = False
    ) -> ResilienceResult:
        """Resilience of the query over ``database`` via min cut.

        With ``weighted=True`` the cut minimizes the summed tuple costs
        (see the module docstring for the soundness precondition the
        dispatcher enforces).
        """
        method = "weighted-linear-flow" if weighted else "linear-flow"
        if not satisfies(database, self.query):
            return ResilienceResult(0, frozenset(), method=method)
        net = self.build_network(database, weighted=weighted)
        try:
            value, payloads = net.min_cut()
        except RuntimeError as exc:
            raise UnbreakableQueryError(
                "an all-exogenous witness makes the min cut infinite"
            ) from exc
        gamma = frozenset(payloads)
        # The same tuple may appear at several positions (Proposition 31
        # layering); Lemma 55 guarantees minimal cuts pay once, so the
        # deduplicated payload cost must equal the flow value.  (The
        # weighted path never sees layered tuples — the dispatcher
        # requires no endogenous self-join — so the check there is a
        # plain cost-accounting audit.)
        paid = database.total_cost(gamma) if weighted else len(gamma)
        if paid != value:
            raise RuntimeError(
                "min cut double-charged a tuple; Lemma 55 precondition violated"
            )
        if satisfies(database.minus(gamma), self.query):
            raise RuntimeError("flow cut is not a contingency set; solver bug")
        return ResilienceResult(value, gamma, method=method)


def resilience_linear_flow(
    database: Database,
    query: ConjunctiveQuery,
    order: Optional[Sequence[int]] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Convenience wrapper around :class:`LinearFlowSolver`."""
    return LinearFlowSolver(query, order=order).solve(
        database, weighted=weighted
    )
