"""A reference s-t min cut for :class:`repro.resilience.flownet.FlowNetwork`.

:func:`networkx_min_cut` reads a built network's nodes and edges, gives
every infinite edge the same big-M capacity the engine uses (one more
than the sum of all finite capacities), and cuts with
:func:`networkx.minimum_cut`.  It returns what ``FlowNetwork.min_cut``
returns — the cut value and the payloads of the cut element edges in
the order they were added — so :func:`patched_min_cut` can put it in
place of the engine's cut and every flow construction runs on it
unchanged.

networkx's partition puts on the sink side the nodes that still reach
the sink in the residual graph, so its cut is the minimum cut closest
to the sink, while the engine returns the one closest to the source.
The two agree in value and are both inclusion-minimal, but the
concrete sets may differ.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple

import networkx as nx

from repro.resilience.flownet import FlowNetwork


def networkx_min_cut(net: FlowNetwork) -> Tuple[int, List]:
    """(cut value, payloads of cut element edges), cut by networkx."""
    edges = net._edges
    big_m = sum(cap for cap, _ in edges.values() if cap is not None) + 1
    graph = nx.DiGraph()
    graph.add_nodes_from(net._nodes)
    for (u, v), (cap, _payload) in edges.items():
        graph.add_edge(u, v, capacity=big_m if cap is None else cap)
    if graph.out_degree(net.SOURCE) == 0 or graph.in_degree(net.SINK) == 0:
        return 0, []
    value, (reachable, _) = nx.minimum_cut(graph, net.SOURCE, net.SINK)
    if value >= big_m:
        raise RuntimeError("min cut is infinite (all-infinite s-t path)")
    return int(value), [
        payload
        for (u, v), (cap, payload) in edges.items()
        if cap is not None and u in reachable and v not in reachable
    ]


@contextmanager
def patched_min_cut():
    """Within the block, every ``FlowNetwork.min_cut`` in this process
    is :func:`networkx_min_cut`."""
    original = FlowNetwork.min_cut
    FlowNetwork.min_cut = networkx_min_cut
    try:
        yield
    finally:
        FlowNetwork.min_cut = original
