"""Per-layer spans, recorded around the public entry points of each layer.

The traced run wraps functions from the benchmark's own files: no file
of the program changes.  :func:`install` replaces each target with a
wrapper everywhere the program holds a reference to it (module globals,
and dicts kept in module globals such as dispatch tables), so it must
run before the first solve: repro resolves ``scipy.optimize.milp`` and
``linprog`` once through cached helpers.  A target the program no longer
has is skipped, and its layer then reports zero calls.

A closed span is ``(layer, start, end, child_seconds, extra, is_root)``.
When a span closes, its duration is added to its open parent's
``child_seconds``, so a layer's self time is its spans' durations minus
the time covered by their child spans.  Closed spans are tuples of
atoms, which the collector does not track: recording does not make
collections slower.  Garbage collections become ``python.gc`` spans
through ``gc.callbacks`` and are subtracted from whatever span they
interrupted.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

GC_LAYER = "python.gc"

# The per-layer breakdown, in report order.
LAYERS = (
    "planner",
    "resilience.solver",
    "query.evaluation",
    "query.columnar",
    "witness.structure",
    "resilience.exact.bnb",
    "resilience.exact.ilp",
    "highs.milp",
    "highs.linprog",
    "resilience.approx",
    "resilience.flow",
    GC_LAYER,
    "serving.wire",
    "serving.admission",
    "serving.server",
    "serving.transport",
)

_FLOW_SPECIALS = (
    "solve_qperm",
    "solve_qAperm",
    "solve_qACconf",
    "solve_qA3perm_R",
    "solve_qSwx3perm_R",
    "solve_qTS3conf",
    "solve_qz3",
)

# (layer, module, attribute): module-level functions.
FUNCTIONS = (
    ("planner", "repro.planner", "plan_instance"),
    ("planner", "repro.planner.features", "extract_features"),
    ("resilience.solver", "repro.resilience.solver", "solve"),
    ("query.evaluation", "repro.query.evaluation", "satisfies"),
    ("query.columnar", "repro.query.columnar", "try_witness_incidence"),
    ("query.columnar", "repro.query.columnar", "try_witness_tuple_sets"),
    ("resilience.exact.bnb", "repro.resilience.exact", "resilience_branch_and_bound"),
    ("resilience.exact.ilp", "repro.resilience.exact", "resilience_ilp"),
    ("resilience.approx", "repro.resilience.approx", "resilience_bounds"),
    *(("resilience.flow", "repro.resilience.flow_special", f) for f in _FLOW_SPECIALS),
    ("serving.wire", "repro.serving.wire", "decode_request"),
    ("serving.wire", "repro.serving.wire", "encode_result"),
    ("serving.wire", "repro.serving.wire", "encode_request"),
    ("serving.wire", "repro.serving.wire", "decode_result"),
)

# (layer, module, class, method).
METHODS = (
    ("witness.structure", "repro.witness.structure", "WitnessStructure", "build"),
    ("resilience.flow", "repro.resilience.flow_linear", "LinearFlowSolver", "solve"),
    ("serving.admission", "repro.serving.admission", "AdmissionPolicy", "admit"),
    ("serving.server", "repro.serving.server", "ServingApp", "handle_solve"),
    ("serving.transport", "repro.serving.client", "ServingClient", "solve"),
)

# HiGHS, wrapped where scipy exports it.
SCIPY = (
    ("highs.milp", "milp"),
    ("highs.linprog", "linprog"),
)


class Recorder:
    """Spans kept in memory; ``enabled`` switches recording on and off."""

    def __init__(self, clock=time.perf_counter):
        self.enabled = False
        self.spans: List[tuple] = []
        self._clock = clock
        self._local = threading.local()
        self._gc_span: Optional[list] = None

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> list:
        stack = self._stack()
        # Allocate before reading the clock: a collection triggered by
        # this allocation then belongs to the parent, outside the span.
        span = [layer, 0.0, 0.0, not stack]
        stack.append(span)
        span[1] = self._clock()
        return span

    def close(self, span: list, extra: Optional[tuple] = None) -> None:
        """Close the innermost open span; ``extra`` is a tuple of
        ``(count_name, value)`` pairs."""
        end = self._clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += end - span[1]
        self.spans.append((span[0], span[1], end, span[2], extra, span[3]))

    def on_gc(self, phase: str, info) -> None:
        """``gc.callbacks`` hook: one ``python.gc`` span per collection."""
        if phase == "start":
            if self.enabled:
                self._gc_span = self.open(GC_LAYER)
        elif self._gc_span is not None:
            span, self._gc_span = self._gc_span, None
            self.close(span)


def _wrap(recorder: Recorder, layer: str, fn, extras=None):
    """``fn`` inside a ``layer`` span; ``extras(before, result)`` may
    attach counts to the span (``before`` is ``extras(None, None)``,
    taken when the span opens)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.open(layer)
        extra = None
        try:
            before = extras(None, None) if extras is not None else None
            result = fn(*args, **kwargs)
            if extras is not None:
                extra = extras(before, result)
        finally:
            recorder.close(span, extra)
        return result

    return wrapper


def _rebind(original, replacement) -> int:
    """Point every reference the loaded program holds to ``original`` at
    ``replacement``; returns how many were replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                replaced += 1
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        replaced += 1
    return replaced


def _columnar_counts(before, result):
    from repro.query.columnar import backend_counters

    now = backend_counters()
    if before is None:
        return now
    return tuple((f"query.columnar.{k}", now[k] - before.get(k, 0)) for k in now)


def _structure_counts(before, ws):
    if ws is None:
        return None
    s = ws.stats
    return (
        ("witness.structure.tuples_raw", s.tuples_raw),
        ("witness.structure.tuples_final", s.tuples_final),
        ("witness.structure.witnesses_final", s.witnesses_final),
    )


def _approx_counts(before, result):
    if result is None:
        return None
    gap = result.upper_bound - result.lower_bound
    return (("resilience.approx.closed", int(gap == 0)), ("resilience.approx.gap", gap))


def _admission_counts(before, decision):
    if decision is None:
        return None
    return (("serving.admission.rerouted", int(bool(decision.rerouted))),)


_EXTRAS = {
    ("repro.query.columnar", "try_witness_incidence"): _columnar_counts,
    ("repro.query.columnar", "try_witness_tuple_sets"): _columnar_counts,
    ("repro.witness.structure", "build"): _structure_counts,
    ("repro.resilience.approx", "resilience_bounds"): _approx_counts,
    ("repro.serving.admission", "admit"): _admission_counts,
}


def _load(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def install(recorder: Recorder) -> List[str]:
    """Wrap every target the program has; returns the ones it lacks.

    Call before the program's first solve.
    """
    missing: List[str] = []
    optimize = _load("scipy.optimize")
    for layer, attr in SCIPY:
        fn = getattr(optimize, attr, None)
        if fn is None:
            missing.append(f"scipy.optimize.{attr}")
            continue
        setattr(optimize, attr, _wrap(recorder, layer, fn))
    # Load every target module before rebinding, so each import that
    # copies a name has already happened.
    for _, module, _ in FUNCTIONS:
        _load(module)
    for _, module, _, _ in METHODS:
        _load(module)
    for layer, module, attr in FUNCTIONS:
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        _rebind(fn, _wrap(recorder, layer, fn, _EXTRAS.get((module, attr))))
    for layer, module, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            missing.append(f"{module}.{cls_name}.{attr}")
            continue
        extras = _EXTRAS.get((module, attr))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(recorder, layer, raw.__func__, extras)))
        else:
            setattr(cls, attr, _wrap(recorder, layer, raw, extras))
    gc.callbacks.append(recorder.on_gc)
    return missing


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

Windows = Sequence[Tuple[float, float]]


def _inside(windows: Optional[Windows], t: float) -> bool:
    if windows is None:
        return True
    i = bisect_right(windows, (t, float("inf"))) - 1
    return i >= 0 and windows[i][0] <= t <= windows[i][1]


def layer_totals(spans: Sequence[tuple], windows: Optional[Windows] = None) -> Dict[str, dict]:
    """``{layer: {"calls", "self_s", "extra": {name: sum}}}`` over the
    spans that start inside ``windows`` (sorted, disjoint intervals;
    ``None`` keeps every span)."""
    totals: Dict[str, dict] = {}
    for layer, start, end, child, extra, _root in spans:
        if not _inside(windows, start):
            continue
        t = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "extra": {}})
        t["calls"] += 1
        t["self_s"] += (end - start) - child
        if extra:
            for k, v in extra:
                t["extra"][k] = t["extra"].get(k, 0) + v
    return totals


def root_seconds(spans: Sequence[tuple], windows: Optional[Windows] = None) -> float:
    """Summed duration of the root spans inside ``windows``: the server
    time a client round trip contains."""
    return sum(
        end - start
        for _, start, end, _, _, root in spans
        if root and _inside(windows, start)
    )


def merge_into(totals: Dict[str, dict], more: Dict[str, dict]) -> None:
    """Add the :func:`layer_totals` ``more`` into ``totals``."""
    for layer, t in more.items():
        o = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "extra": {}})
        o["calls"] += t["calls"]
        o["self_s"] += t["self_s"]
        for k, v in t["extra"].items():
            o["extra"][k] = o["extra"].get(k, 0) + v
