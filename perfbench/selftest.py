"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import percentile  # noqa: E402


@pytest.mark.parametrize(
    "n, q, ok",
    [(999, 0.99, False), (1000, 0.99, True), (99, 0.90, False), (100, 0.90, True),
     (19, 0.5, False), (20, 0.5, True), (0, 0.5, False)],
)
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    values = list(range(1, n + 1))
    if ok:
        p = percentile(values, q)
        assert sum(v > p for v in values) >= 10
        assert p == values[-(sum(v > p for v in values)) - 1]
    else:
        with pytest.raises(ValueError):
            percentile(values, q)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instances_are_fixed_by_the_seed(name):
    w = workloads.WORKLOADS[name]
    a = workloads.instances_digest(w, 7, 0)
    assert a == workloads.instances_digest(w, 7, 0)
    assert a != workloads.instances_digest(w, 8, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_run_times_a_prefix_of_the_untraced_list(name):
    w = workloads.WORKLOADS[name]
    seconds = 3 * workloads.MIN_INSTANCES / w.rate

    def keys(trace):
        _, chunks, count = workloads.build(w, 5, run.run_seconds(seconds, trace))
        out = [key for chunk in chunks for _, _, key in chunk]
        assert len(out) == count
        return out

    full, half = keys(0), keys(1)
    assert len(full) >= 2 * workloads.MIN_INSTANCES
    assert full[: len(half)] == half


def test_instances_are_distinct_from_each_other_and_the_warmup():
    w = workloads.WORKLOADS["zoo_small"]
    warmup, chunks, count = workloads.build(w, 3, 0)
    keys = [key for chunk in chunks for _, _, key in chunk]
    assert len(keys) == count == workloads.MIN_INSTANCES
    assert len(set(keys) | {key for _, _, key in warmup}) == count + len(warmup)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_attribution_with_a_gc_span():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    rec.enabled = True

    def at(t):
        clock.now = t

    at(0); a = rec.open("solver")
    at(1); b = rec.open("structure")
    at(2); rec.on_gc("start", {})
    at(3.5); rec.on_gc("stop", {})
    at(5); rec.close(b)
    at(6); c = rec.open("milp")
    at(7); rec.close(c)
    at(10); rec.close(a)
    at(11); rec.on_gc("start", {})
    at(11.25); rec.on_gc("stop", {})
    totals = spans.layer_totals(rec.spans)
    self_s = {k: v["self_s"] for k, v in totals.items()}
    assert self_s == {"solver": 5.0, "structure": 2.5, spans.GC_LAYER: 1.75, "milp": 1.0}
    assert {k: v["calls"] for k, v in totals.items()} == {
        "solver": 1, "structure": 1, spans.GC_LAYER: 2, "milp": 1
    }
    # Root spans: the solver call and the collection outside it.
    assert spans.root_seconds(rec.spans) == 10.25
    inside = spans.layer_totals(rec.spans, windows=[(0.5, 6.5)])
    assert set(inside) == {"structure", spans.GC_LAYER, "milp"}
    assert spans.root_seconds(rec.spans, windows=[(10.5, 12)]) == 0.25


def test_disabled_recorder_ignores_collections():
    rec = spans.Recorder()
    rec.on_gc("start", {})
    rec.on_gc("stop", {})
    assert rec.spans == []


def test_install_wraps_the_layers_a_solve_passes_through():
    from repro.query.zoo import ALL_QUERIES
    from repro.workloads.random_db import random_database_for_query

    rec = spans.Recorder()
    assert spans.install(rec) == []
    solver = importlib.import_module("repro.resilience.solver")

    q = ALL_QUERIES["q_chain"]
    db = random_database_for_query(q, domain_size=6, density=0.5, seed=1)
    rec.enabled = True
    solver.solve(db, q)
    rec.enabled = False
    layers = {s[0] for s in rec.spans}
    assert {"resilience.solver", "query.evaluation", "witness.structure"} <= layers
    assert sum(s[5] for s in rec.spans if s[0] != spans.GC_LAYER) == 1


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
