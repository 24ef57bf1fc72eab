"""Tests for the flow-network helper."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience.flownet import FlowNetwork


class TestFlowNetwork:
    def test_simple_cut(self):
        net = FlowNetwork()
        net.source_edge("a_in")
        net.add_unit_edge("a_in", "a_out", payload="A")
        net.sink_edge("a_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads == ["A"]

    def test_parallel_paths(self):
        net = FlowNetwork()
        for name in ("a", "b"):
            net.source_edge(f"{name}_in")
            net.add_unit_edge(f"{name}_in", f"{name}_out", payload=name)
            net.sink_edge(f"{name}_out")
        value, payloads = net.min_cut()
        assert value == 2
        assert set(payloads) == {"a", "b"}

    def test_bottleneck_preferred(self):
        # Two unit edges funnel into one unit edge: cut the bottleneck.
        net = FlowNetwork()
        for name in ("a", "b"):
            net.source_edge(f"{name}_in")
            net.add_unit_edge(f"{name}_in", f"{name}_out", payload=name)
            net.add_inf_edge(f"{name}_out", "mid_in")
        net.add_unit_edge("mid_in", "mid_out", payload="mid")
        net.sink_edge("mid_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads == ["mid"]

    def test_empty_network(self):
        net = FlowNetwork()
        assert net.min_cut() == (0, [])

    def test_no_path(self):
        net = FlowNetwork()
        net.source_edge("a")
        net.sink_edge("b")  # disconnected from a
        value, payloads = net.min_cut()
        assert value == 0 and payloads == []

    def test_infinite_path_raises(self):
        net = FlowNetwork()
        net.source_edge("a")
        net.sink_edge("a")
        with pytest.raises(RuntimeError):
            net.min_cut()

    def test_duplicate_unit_edge_rejected(self):
        net = FlowNetwork()
        net.add_unit_edge("u", "v", payload=1)
        with pytest.raises(ValueError):
            net.add_unit_edge("u", "v", payload=2)

    def test_duplicate_inf_edge_is_noop(self):
        net = FlowNetwork()
        net.add_inf_edge("u", "v")
        net.add_inf_edge("u", "v")
        assert len(net._edges) == 1

    def test_series_cuts_pay_once(self):
        """With two equal unit cuts in series, exactly one is charged."""
        net = FlowNetwork()
        net.source_edge("x_in")
        net.add_unit_edge("x_in", "x_out", payload="near")
        net.add_inf_edge("x_out", "y_in")
        net.add_unit_edge("y_in", "y_out", payload="far")
        net.sink_edge("y_out")
        value, payloads = net.min_cut()
        assert value == 1
        assert payloads in (["near"], ["far"])


# A fresh interpreter imports the package the way the CLI and the server
# do and solves through both kinds of min cut: the bespoke Proposition 13
# network (q_Aperm), next to q_perm's closed form, and the linear flow
# (q_lin).
_NO_NETWORKX_CHILD = """\
import sys
import repro, repro.core, repro.serving
from repro import solve
from repro.query.zoo import ALL_QUERIES
from repro.workloads import random_database_for_query

for name, method in (
    ("q_perm", "flow:q_perm"),
    ("q_Aperm", "flow:q_Aperm"),
    ("q_lin", "linear-flow"),
):
    query = ALL_QUERIES[name]
    db = random_database_for_query(query, domain_size=5, density=0.5, seed=0)
    result = solve(db, query)
    assert result.method == method and result.value > 0, (name, result)
sys.exit("networkx" in sys.modules)
"""


def test_solving_never_imports_networkx():
    """The min cut runs on scipy alone: networkx stays out of a process
    that imports repro, repro.core and repro.serving and solves through
    the flow tier."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr or "networkx was imported"
