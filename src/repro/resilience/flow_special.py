"""The paper's bespoke polynomial-time resilience algorithms.

Each function implements one of the paper's "trickier" flow/matching
arguments, for the query shape named in its docstring:
``q_ACconf`` (Proposition 12), ``q_A3perm_R`` (Proposition 13),
``q_perm`` / ``q_Aperm`` (Proposition 33), ``q_z3`` (Proposition 36),
``q_TS3conf`` (Proposition 41), and ``q_Swx3perm_R``
(Proposition 44).  All of them take
the database with the *paper's* relation names (``A``, ``R``, ``B``,
``C``, ``S``, ``T``) and return a :class:`ResilienceResult`; the solver
dispatcher maps an isomorphic user query onto these names first.

Every algorithm here is validated against the exact solvers in the test
suite on randomized databases.

**Weighted instances**: only :func:`solve_qperm` and :func:`solve_qAperm`
accept ``weighted=True`` — their arguments (tuple-disjoint pairs;
bipartite vertex cover) transfer to arbitrary positive costs by putting
each element's cost on its arc.  The other bespoke algorithms rest on
*domination* arguments ("an R-tuple is never better than the A-tuple
behind it", Prop 12/13/36/44) or on Lemma 55's unit-cost never-pay-twice
property (Prop 41's confluence layering), none of which survive non-unit
costs — a cheap dominated tuple can strictly beat its expensive
dominator.  The dispatcher sends weighted instances of those shapes to
the exact weighted hitting-set tier instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import satisfies
from repro.resilience.flownet import FlowNetwork
from repro.resilience.flow_linear import LinearFlowSolver
from repro.resilience.types import ResilienceResult


def _r_pairs(database: Database) -> Tuple[Set[FrozenSet], Set[Tuple]]:
    """Split R-tuples into 2-way pairs and 1-way tuples (Prop 13 lingo).

    A 2-way pair is ``{a, b}`` with both ``R(a,b)`` and ``R(b,a)`` in the
    database; a loop ``R(a,a)`` is the pair ``{a}``.  A 1-way tuple is an
    ``R(a,b)`` without its inverse.
    """
    rel = database.relations.get("R")
    vectors = rel.value_vectors() if rel is not None else set()
    two_way: Set[FrozenSet] = set()
    one_way: Set[Tuple] = set()
    for (a, b) in vectors:
        if (b, a) in vectors:
            two_way.add(frozenset((a, b)))
        else:
            one_way.add((a, b))
    return two_way, one_way


# ---------------------------------------------------------------------------
# Proposition 33 — q_perm and q_Aperm
# ---------------------------------------------------------------------------

def _pair_tuples(pair: FrozenSet) -> List[DBTuple]:
    """The R-tuples forming a 2-way pair, in the deterministic order the
    unweighted solvers delete from (loops yield a single tuple)."""
    items = sorted(pair, key=repr)
    if len(items) == 1:
        return [DBTuple("R", (items[0], items[0]))]
    return [DBTuple("R", (items[0], items[1])), DBTuple("R", (items[1], items[0]))]


def _cheapest_pair_tuple(database: Database, pair: FrozenSet, weighted: bool) -> DBTuple:
    """The pair member to delete: the first in deterministic order
    unweighted, the cheapest (first on ties) weighted."""
    candidates = _pair_tuples(pair)
    if not weighted:
        return candidates[0]
    return min(candidates, key=lambda t: (database.cost(t), candidates.index(t)))


def _pair_cost(database: Database, pair: FrozenSet, weighted: bool) -> int:
    """What breaking a 2-way pair costs: 1 unweighted, the cheapest
    member's cost weighted."""
    if not weighted:
        return 1
    return min(database.cost(t) for t in _pair_tuples(pair))


def solve_qperm(database: Database, weighted: bool = False) -> ResilienceResult:
    """``q_perm :- R(x,y), R(y,x)`` — count witness pairs.

    Each tuple participating in a witness participates in exactly one
    unordered pair ``{R(a,b), R(b,a)}`` (or the loop ``R(a,a)`` alone),
    and distinct pairs are tuple-disjoint, so resilience is exactly the
    number of pairs: one (arbitrary) tuple must go from each.  Weighted,
    the pairs stay disjoint, so the optimum is the sum over pairs of the
    cheaper member's cost — and that member is deleted.
    """
    two_way, _ = _r_pairs(database)
    gamma = set()
    value = 0
    for pair in two_way:
        gamma.add(_cheapest_pair_tuple(database, pair, weighted))
        value += _pair_cost(database, pair, weighted)
    return ResilienceResult(value, frozenset(gamma), method="flow:q_perm")


def solve_qAperm(database: Database, weighted: bool = False) -> ResilienceResult:
    """``q_Aperm :- A(x), R(x,y), R(y,x)`` — bipartite vertex cover.

    A witness is ``A(a)`` plus a 2-way pair containing ``a``.  Break it
    by deleting ``A(a)`` or one tuple of the pair (never both tuples —
    one suffices and the other breaks nothing more).  This is vertex
    cover in the bipartite graph (A-tuples) x (pairs), solved by flow.
    Weighted, the A-arc carries the A-tuple's cost and the pair-arc the
    cheaper pair member's cost — a weighted vertex cover, still exactly
    a min cut.
    """
    two_way, _ = _r_pairs(database)
    rel_a = database.relations.get("A")
    a_values = {t.values[0] for t in rel_a} if rel_a is not None else set()

    net = FlowNetwork()
    pair_nodes = set()
    for pair in two_way:
        members = set(pair)
        touching = members & a_values
        if not touching:
            continue
        pnode = ("pair", pair)
        if pnode not in pair_nodes:
            pair_nodes.add(pnode)
            net.add_unit_edge(
                pnode,
                ("pair_out", pair),
                payload=("pair", pair),
                capacity=_pair_cost(database, pair, weighted),
            )
            net.sink_edge(("pair_out", pair))
        for a in touching:
            anode = ("A", a)
            if not net.has_node(anode):
                a_fact = DBTuple("A", (a,))
                net.add_unit_edge(
                    anode,
                    ("A_out", a),
                    payload=a_fact,
                    capacity=database.cost(a_fact) if weighted else 1,
                )
                net.source_edge(anode)
            net.add_inf_edge(("A_out", a), pnode)
    value, payloads = net.min_cut()
    gamma: Set[DBTuple] = set()
    for p in payloads:
        if isinstance(p, DBTuple):
            gamma.add(p)
        else:
            _, pair = p
            gamma.add(_cheapest_pair_tuple(database, pair, weighted))
    return ResilienceResult(value, frozenset(gamma), method="flow:q_Aperm")


# ---------------------------------------------------------------------------
# Proposition 12 — q_ACconf :- A(x), R(x,y), R(z,y), C(z)
# ---------------------------------------------------------------------------

def solve_qACconf(database: Database) -> ResilienceResult:
    """``q_ACconf`` — R-tuples are never optimal; bipartite vertex cover.

    Proposition 12 shows any contingency set using an R-tuple can be
    rewritten to use ``A``/``C`` tuples instead, so resilience equals
    minimum vertex cover between A-tuples and C-tuples with an edge
    whenever they join through R.
    """
    rel_a = database.relations.get("A")
    rel_c = database.relations.get("C")
    rel_r = database.relations.get("R")
    a_vals = {t.values[0] for t in rel_a} if rel_a is not None else set()
    c_vals = {t.values[0] for t in rel_c} if rel_c is not None else set()
    r_vecs = rel_r.value_vectors() if rel_r is not None else set()

    by_second: Dict[Hashable, Set[Hashable]] = {}
    for (u, v) in r_vecs:
        by_second.setdefault(v, set()).add(u)

    net = FlowNetwork()
    for firsts in by_second.values():
        for a in firsts & a_vals:
            for c in firsts & c_vals:
                anode = ("A", a)
                cnode = ("C", c)
                if not net.has_node(anode):
                    net.add_unit_edge(anode, ("A_out", a), payload=DBTuple("A", (a,)))
                    net.source_edge(anode)
                if not net.has_node(cnode):
                    net.add_unit_edge(cnode, ("C_out", c), payload=DBTuple("C", (c,)))
                    net.sink_edge(("C_out", c))
                net.add_inf_edge(("A_out", a), cnode)
    value, payloads = net.min_cut()
    return ResilienceResult(value, frozenset(payloads), method="flow:q_ACconf")


# ---------------------------------------------------------------------------
# Proposition 13 — q_A3perm_R :- A(x), R(x,y), R(y,z), R(z,y)
# ---------------------------------------------------------------------------

def _perm_r_flow(
    database: Database,
    left_nodes: List[Tuple[Hashable, DBTuple, Hashable]],
    method: str,
    one_way_deletable: bool,
) -> ResilienceResult:
    """Shared network for Propositions 13 and 44.

    ``left_nodes`` lists ``(node_key, payload_tuple, connecting_value)``
    triples: the left layer (``A(a)`` tuples for Prop 13, ``S(e,a)``
    tuples for Prop 44), each connecting onward from value ``a``.  The
    right layer is the 2-way pairs.  An infinite edge joins a left node
    to pair ``{u,v}`` when ``a in {u,v}``; a 1-way tuple ``R(a,u)``
    joins it to every pair containing ``u`` — at infinite capacity for
    Prop 13 (A dominates 1-way tuples) or unit capacity for Prop 44
    (S does not dominate them).
    """
    two_way, one_way = _r_pairs(database)

    net = FlowNetwork()
    pair_node: Dict[FrozenSet, Tuple] = {}
    for pair in two_way:
        u = ("pair_in", pair)
        v = ("pair_out", pair)
        net.add_unit_edge(u, v, payload=("pair", pair))
        net.sink_edge(v)
        pair_node[pair] = u

    pairs_containing: Dict[Hashable, List[FrozenSet]] = {}
    for pair in two_way:
        for member in pair:
            pairs_containing.setdefault(member, []).append(pair)

    one_way_node: Dict[Tuple, Tuple] = {}

    for key, payload, a in left_nodes:
        lin = ("left_in", key)
        lout = ("left_out", key)
        if not net.has_node(lin):
            net.add_unit_edge(lin, lout, payload=payload)
            net.source_edge(lin)
        for pair in pairs_containing.get(a, ()):  # a ∈ {u, v}
            net.add_inf_edge(lout, pair_node[pair])
        for (x, u) in one_way:
            if x != a:
                continue
            targets = pairs_containing.get(u, ())
            if not targets:
                continue
            if one_way_deletable:
                onode = (x, u)
                if onode not in one_way_node:
                    oin = ("ow_in", onode)
                    oout = ("ow_out", onode)
                    net.add_unit_edge(oin, oout, payload=DBTuple("R", (x, u)))
                    one_way_node[onode] = oin
                    for pair in targets:
                        net.add_inf_edge(oout, pair_node[pair])
                net.add_inf_edge(lout, one_way_node[onode])
            else:
                for pair in targets:
                    net.add_inf_edge(lout, pair_node[pair])

    value, payloads = net.min_cut()

    # Translate cut pairs into concrete R-tuples per the papers' rule:
    # keep the tuple pointing away from a surviving left endpoint.
    cut_left_values: Set[Hashable] = set()
    gamma: Set[DBTuple] = set()
    cut_pairs: List[FrozenSet] = []
    for p in payloads:
        if isinstance(p, DBTuple):
            gamma.add(p)
        else:
            cut_pairs.append(p[1])
    surviving_left = {
        a for (_key, payload, a) in left_nodes if payload not in gamma
    }
    for pair in cut_pairs:
        items = sorted(pair, key=repr)
        if len(items) == 1:
            gamma.add(DBTuple("R", (items[0], items[0])))
            continue
        a, b = items
        a_live = a in surviving_left
        b_live = b in surviving_left
        if a_live and not b_live:
            gamma.add(DBTuple("R", (a, b)))
        elif b_live and not a_live:
            gamma.add(DBTuple("R", (b, a)))
        else:
            gamma.add(DBTuple("R", (a, b)))
    return ResilienceResult(value, frozenset(gamma), method=method)


def solve_qA3perm_R(database: Database) -> ResilienceResult:
    """``q_A3perm_R`` — the Proposition 13 flow.

    1-way tuples are never optimal (the A-tuple behind them is at least
    as good), so they appear as infinite connections; the cut chooses
    among A-tuples and 2-way pairs.
    """
    rel_a = database.relations.get("A")
    left = []
    if rel_a is not None:
        for t in rel_a:
            a = t.values[0]
            left.append((("A", a), t, a))
    return _perm_r_flow(database, left, "flow:q_A3perm_R", one_way_deletable=False)


# ---------------------------------------------------------------------------
# Proposition 44 — q_Swx3perm_R :- S(w,x), R(x,y), R(y,z), R(z,y)
# ---------------------------------------------------------------------------

def solve_qSwx3perm_R(database: Database) -> ResilienceResult:
    """``q_Swx3perm_R`` — Proposition 44's modified flow.

    Unlike Prop 13, ``S(e,a)`` does not dominate the 1-way tuple
    ``R(a,b)`` (many ``S(e_i,a)`` may sit behind one ``R(a,b)``), so
    1-way tuples become their own unit-capacity elements.
    """
    rel_s = database.relations.get("S")
    left = []
    if rel_s is not None:
        for t in rel_s:
            e, a = t.values
            left.append((("S", e, a), t, a))
    return _perm_r_flow(database, left, "flow:q_Swx3perm_R", one_way_deletable=True)


# ---------------------------------------------------------------------------
# Proposition 36 — q_z3 :- R(x,x), R(x,y), A(y)
# ---------------------------------------------------------------------------

def solve_qz3(database: Database) -> ResilienceResult:
    """``q_z3`` — off-diagonal R-tuples are never optimal.

    Witnesses are ``{R(a,a), A(a)}`` and ``{R(a,a), R(a,b), A(b)}``;
    any ``R(a,b)`` with ``a != b`` can be swapped for ``R(a,a)`` or
    ``A(b)``, leaving a bipartite vertex cover between loop tuples
    ``R(a,a)`` and ``A``-tuples.
    """
    rel_r = database.relations.get("R")
    rel_a = database.relations.get("A")
    r_vecs = rel_r.value_vectors() if rel_r is not None else set()
    a_vals = {t.values[0] for t in rel_a} if rel_a is not None else set()

    loops = {a for (a, b) in r_vecs if a == b}
    out_edges: Dict[Hashable, Set[Hashable]] = {}
    for (a, b) in r_vecs:
        out_edges.setdefault(a, set()).add(b)

    net = FlowNetwork()
    for a in loops:
        # targets joining R(a,a) to A(b): b = a itself, or b with R(a,b).
        targets = ({a} | out_edges.get(a, set())) & a_vals
        if not targets:
            continue
        lnode = ("loop", a)
        net.add_unit_edge(lnode, ("loop_out", a), payload=DBTuple("R", (a, a)))
        net.source_edge(lnode)
        for b in targets:
            anode = ("A", b)
            if not net.has_node(anode):
                net.add_unit_edge(anode, ("A_out", b), payload=DBTuple("A", (b,)))
                net.sink_edge(("A_out", b))
            net.add_inf_edge(("loop_out", a), anode)
    value, payloads = net.min_cut()
    return ResilienceResult(value, frozenset(payloads), method="flow:q_z3")


# ---------------------------------------------------------------------------
# Proposition 41 — q_TS3conf :- T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)
# ---------------------------------------------------------------------------

def solve_qTS3conf(database: Database, query: ConjunctiveQuery) -> ResilienceResult:
    """``q_TS3conf`` — forced tuples plus a linear flow.

    Any ``R(a,b)`` with both ``T(a,b)`` and ``S(a,b)`` present forms a
    one-tuple witness (set ``x=z=a, y=w=b``) and is forced into every
    contingency set.  After deleting those, the remaining problem is the
    standard flow over the linear order ``T/R(x,y), R(z,y), R(z,w)/S``
    with the three R-occurrences as independent layers (Prop 31 style).
    """
    rel_r = database.relations.get("R")
    rel_t = database.relations.get("T")
    rel_s = database.relations.get("S")
    r_facts = set(rel_r) if rel_r is not None else set()
    t_vecs = rel_t.value_vectors() if rel_t is not None else set()
    s_vecs = rel_s.value_vectors() if rel_s is not None else set()

    forced = {
        f for f in r_facts if f.values in t_vecs and f.values in s_vecs
    }
    reduced = database.minus(forced) if forced else database
    if not satisfies(reduced, query):
        return ResilienceResult(
            len(forced), frozenset(forced), method="flow:q_TS3conf"
        )
    flow = LinearFlowSolver(query).solve(reduced)
    return ResilienceResult(
        len(forced) + flow.value,
        frozenset(forced) | flow.contingency_set,
        method="flow:q_TS3conf",
    )
