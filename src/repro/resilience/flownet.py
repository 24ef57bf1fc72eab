"""A small capacitated-network helper with a C-backed min-cut core.

The paper's PTIME algorithms — the linear-flow construction of
Section 2.4 / Proposition 31 and the bespoke algorithms of
Propositions 12, 13, 33, 36, 41, and 44 — all reduce resilience to s-t
minimum cut in networks where *tuples* are unit-capacity elements and
everything else has effectively infinite capacity.  :class:`FlowNetwork`
wraps that pattern with the two idioms every construction here needs:

* **element edges**: a deletable tuple is modelled as an edge
  ``u -> v`` of integer capacity 1 carrying a payload (the tuple); in
  the *weighted* problem the capacity is the tuple's cost instead, so
  the min cut directly minimizes the summed deletion cost;
* **infinite edges**: structural connections that may never be cut,
  modelled with an integer big-M capacity strictly larger than the sum
  of all unit capacities (so any finite min cut avoids them; a computed
  cut of value >= M means an all-infinite s-t path, which the
  constructions forbid).

All capacities are integers — no ``float("inf")``, no float arithmetic,
no rounding repair on the way out.

The network is two insertion-ordered dicts — nodes to dense indices,
and ``(u, v)`` to ``(capacity, payload)`` — that feed one int64 CSR
matrix for :func:`scipy.sparse.csgraph.maximum_flow`, so the flow core
runs in C.  The cut is extracted by a residual-graph BFS: the element
edges leaving the nodes reachable from the source in the residual graph
of a maximum flow.  That node set is the same for every maximum flow
(it is the source side of the unique minimum cut closest to the
source), so the cut depends on neither the flow algorithm nor the order
edges are stored in; and, being a minimum cut, it is inclusion-minimal,
which is exactly the property Lemma 55 needs when one tuple appears as
several parallel unit edges (callers additionally verify that payload
deduplication does not shrink the cut).  The test suite checks this
cut against the reference min cut in ``tests/oracles/flow.py`` on the
full special-solver zoo.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple


class FlowNetwork:
    """A directed flow network with payload-carrying unit edges."""

    SOURCE = "__source__"
    SINK = "__sink__"

    def __init__(self):
        # Node -> dense index in insertion order: the row and column
        # numbering of the capacity matrix.
        self._nodes: Dict[Hashable, int] = {self.SOURCE: 0, self.SINK: 1}
        # (u, v) -> (capacity, payload); capacity None is an infinite edge.
        self._edges: Dict[
            Tuple[Hashable, Hashable], Tuple[Optional[int], object]
        ] = {}

    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` is a terminal or an endpoint of some edge."""
        return node in self._nodes

    # ------------------------------------------------------------------
    def add_unit_edge(
        self, u: Hashable, v: Hashable, payload, capacity: int = 1
    ) -> None:
        """An edge of finite capacity representing a deletable tuple.

        ``capacity`` defaults to 1 (the unweighted construction); the
        weighted constructions pass the tuple's cost, so cutting the
        edge charges exactly that cost to the min cut.

        A second edge between the same node pair is rejected: merging
        parallel edges would corrupt payload bookkeeping, so
        constructions must use distinct intermediate nodes for distinct
        payloads (they all do).
        """
        if (u, v) in self._edges:
            raise ValueError(f"duplicate edge {u!r} -> {v!r}")
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"unit-edge capacity must be a positive int, got {capacity!r}")
        self._add_edge(u, v, capacity, payload)

    def add_inf_edge(self, u: Hashable, v: Hashable) -> None:
        """A structural edge that no finite cut uses.

        The concrete big-M capacity is materialized at solve time (it
        must exceed the number of unit edges, which is only known then).
        An edge between an already connected node pair is a no-op.
        """
        if (u, v) not in self._edges:
            self._add_edge(u, v, None, None)

    def source_edge(self, v: Hashable) -> None:
        """Infinite edge from the source."""
        self.add_inf_edge(self.SOURCE, v)

    def sink_edge(self, u: Hashable) -> None:
        """Infinite edge to the sink."""
        self.add_inf_edge(u, self.SINK)

    def _add_edge(self, u, v, capacity: Optional[int], payload) -> None:
        for node in (u, v):
            if node not in self._nodes:
                self._nodes[node] = len(self._nodes)
        self._edges[u, v] = (capacity, payload)

    # ------------------------------------------------------------------
    def min_cut(self) -> Tuple[int, List]:
        """(cut value, payloads of cut unit edges).

        The returned cut is the one induced by the residual-graph
        source partition of a maximum flow — the unique
        inclusion-minimal min cut (the property Lemma 55 needs).  The
        value is an exact integer: element edges carry their integer
        capacity (1 unweighted, the tuple cost weighted), and a value
        reaching the big-M bound (an all-infinite s-t path, which the
        constructions forbid) raises ``RuntimeError``.  Payloads come
        in the order their edges were added.
        """
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow

        index, edges = self._nodes, self._edges
        source, sink = index[self.SOURCE], index[self.SINK]
        m = len(edges)
        rows = np.fromiter((index[u] for u, _ in edges), np.int64, m)
        cols = np.fromiter((index[v] for _, v in edges), np.int64, m)
        if not (rows == source).any() or not (cols == sink).any():
            return 0, []
        # Strictly above the sum of all finite capacities, so no finite
        # cut ever prefers an infinite edge — weighted or not.
        big_m = sum(cap for cap, _ in edges.values() if cap is not None) + 1
        caps = np.fromiter(
            (big_m if cap is None else cap for cap, _ in edges.values()),
            np.int64,
            m,
        )
        n = len(index)
        capacity = csr_matrix((caps, (rows, cols)), shape=(n, n))
        result = maximum_flow(capacity, source, sink)
        value = int(result.flow_value)
        if value >= big_m:
            raise RuntimeError("min cut is infinite (all-infinite s-t path)")
        # scipy materializes reverse-flow entries, so positive residuals
        # cover both unsaturated forward edges and undoable flow.
        residual = capacity - result.flow
        residual.eliminate_zeros()
        reached = set(
            breadth_first_order(
                residual, source, directed=True, return_predecessors=False
            ).tolist()
        )
        # Cut value sums the capacities (= costs) of the cut element edges.
        return value, [
            payload
            for (u, v), (cap, payload) in edges.items()
            if cap is not None and index[u] in reached and index[v] not in reached
        ]
