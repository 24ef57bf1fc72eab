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

Backend selection (``REPRO_FLOW_BACKEND``)
------------------------------------------
``csgraph`` (default)
    Max flow via :func:`scipy.sparse.csgraph.maximum_flow` over interned
    integer nodes, with the cut extracted by a residual-graph BFS.  This
    is the hot path: the flow core runs in C.
``networkx``
    The original :func:`networkx.minimum_cut` path, kept as the
    reference oracle.

Both backends return a minimum cut of the *same value* whose cut is
induced by a residual partition of a maximum flow — hence
inclusion-minimal, which is exactly the property Lemma 55 needs when
one tuple appears as several parallel unit edges (callers additionally
verify that payload deduplication does not shrink the cut).  The
concrete cut *sets* may differ: ``csgraph`` extracts the source side
reachable in the residual graph (the unique minimum cut closest to the
source), while networkx's partition yields the cut closest to the
sink.  Each backend is individually deterministic; the property suite
in ``tests/test_flow_backends.py`` checks value equality and cut
validity/minimality across backends on the full special-solver zoo.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx


def flow_backend() -> str:
    """The min-cut backend: ``REPRO_FLOW_BACKEND`` or ``csgraph``.

    Both backends return min cuts of equal value (the certificates may
    differ — see the module docstring), so the choice is
    value-invisible.
    """
    backend = os.environ.get("REPRO_FLOW_BACKEND", "csgraph")
    if backend not in ("csgraph", "networkx"):
        raise ValueError(
            f"REPRO_FLOW_BACKEND={backend!r} (expected 'csgraph' or 'networkx')"
        )
    return backend


class FlowNetwork:
    """A directed flow network with payload-carrying unit edges."""

    SOURCE = "__source__"
    SINK = "__sink__"

    def __init__(self):
        self.graph = nx.DiGraph()
        self.graph.add_node(self.SOURCE)
        self.graph.add_node(self.SINK)
        self._unit_edges: List[Tuple[Hashable, Hashable]] = []

    # ------------------------------------------------------------------
    def add_unit_edge(
        self, u: Hashable, v: Hashable, payload, capacity: int = 1
    ) -> None:
        """An edge of finite capacity representing a deletable tuple.

        ``capacity`` defaults to 1 (the unweighted construction); the
        weighted constructions pass the tuple's cost, so cutting the
        edge charges exactly that cost to the min cut.

        Parallel unit edges between the same node pair are merged by
        capacity addition in networkx, which would corrupt payload
        bookkeeping — constructions must use distinct intermediate nodes
        for distinct payloads (they all do).
        """
        if self.graph.has_edge(u, v):
            raise ValueError(f"duplicate edge {u!r} -> {v!r}")
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"unit-edge capacity must be a positive int, got {capacity!r}")
        self.graph.add_edge(u, v, capacity=capacity, payload=payload)
        self._unit_edges.append((u, v))

    def add_inf_edge(self, u: Hashable, v: Hashable) -> None:
        """A structural edge that no finite cut uses.

        The concrete big-M capacity is materialized at solve time (it
        must exceed the number of unit edges, which is only known then).
        """
        if self.graph.has_edge(u, v):
            return
        self.graph.add_edge(u, v, capacity=None, payload=None)

    def source_edge(self, v: Hashable) -> None:
        """Infinite edge from the source."""
        self.add_inf_edge(self.SOURCE, v)

    def sink_edge(self, u: Hashable) -> None:
        """Infinite edge to the sink."""
        self.add_inf_edge(u, self.SINK)

    # ------------------------------------------------------------------
    def min_cut(self) -> Tuple[int, List]:
        """(cut value, payloads of cut unit edges).

        The returned cut is the one induced by the residual-graph
        source partition of a maximum flow — the unique
        inclusion-minimal min cut (the property Lemma 55 needs).  The
        value is an exact integer: element edges carry their integer
        capacity (1 unweighted, the tuple cost weighted), and a value
        reaching the big-M bound (an all-infinite s-t path, which the
        constructions forbid) raises ``RuntimeError``.
        """
        if self.graph.out_degree(self.SOURCE) == 0 or self.graph.in_degree(self.SINK) == 0:
            return 0, []
        # Strictly above the sum of all finite capacities, so no finite
        # cut ever prefers an infinite edge — weighted or not.
        big_m = sum(
            self.graph.edges[u, v]["capacity"] for u, v in self._unit_edges
        ) + 1
        if flow_backend() == "networkx":
            value, reachable = self._min_cut_networkx(big_m)
        else:
            value, reachable = self._min_cut_csgraph(big_m)
        if value >= big_m:
            raise RuntimeError("min cut is infinite (all-infinite s-t path)")
        payloads = []
        for u, v in self._unit_edges:
            if u in reachable and v not in reachable:
                payloads.append(self.graph.edges[u, v]["payload"])
        # Cut value sums the capacities (= costs) of the cut element edges.
        return value, payloads

    # ------------------------------------------------------------------
    def _min_cut_networkx(self, big_m: int) -> Tuple[int, Set[Hashable]]:
        """The reference backend: networkx ``minimum_cut``."""
        for _u, _v, data in self.graph.edges(data=True):
            if data["payload"] is None:
                data["capacity"] = big_m
        value, partition = nx.minimum_cut(
            self.graph, self.SOURCE, self.SINK, capacity="capacity"
        )
        reachable, _ = partition
        return int(value), set(reachable)

    def _min_cut_csgraph(self, big_m: int) -> Tuple[int, Set[Hashable]]:
        """The C-backed backend: scipy csgraph max flow + residual BFS.

        Nodes are interned to dense integers, capacities go into one
        int64 CSR matrix, and the source side is recovered as the nodes
        reachable in the residual matrix ``capacity - flow`` (scipy
        materializes reverse-flow entries, so positive residuals cover
        both unsaturated forward edges and undoable flow).
        """
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow

        nodes = list(self.graph.nodes)
        index: Dict[Hashable, int] = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        rows = np.empty(self.graph.number_of_edges(), dtype=np.int64)
        cols = np.empty_like(rows)
        caps = np.empty_like(rows)
        for k, (u, v, data) in enumerate(self.graph.edges(data=True)):
            rows[k] = index[u]
            cols[k] = index[v]
            caps[k] = data["capacity"] if data["payload"] is not None else big_m
        capacity = csr_matrix((caps, (rows, cols)), shape=(n, n))
        result = maximum_flow(
            capacity, index[self.SOURCE], index[self.SINK]
        )
        residual = capacity - result.flow
        residual.eliminate_zeros()
        order = breadth_first_order(
            residual, index[self.SOURCE], directed=True,
            return_predecessors=False,
        )
        return int(result.flow_value), {nodes[i] for i in order}
