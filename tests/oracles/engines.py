"""Force one path through each engine layer for a block of code.

Every layer picks its own implementation by a size rule: the witness
join runs columnar for snapshot-backed databases and from
``MIN_TUPLES_DEFAULT`` tuples, the kernel reduction runs on id matrices
from ``_BITSET_MIN_SETS`` witness sets and decomposes with csgraph from
``_DECOMPOSE_MATRIX_MIN_SETS``, the hitting-set search runs on bitmasks
from ``_BNB_BITSET_MIN_SETS`` sets, the exact tier sends a
component to HiGHS once its search has spent ``EXACT_SEARCH_ROWS`` rows
(``EXACT_SEARCH_ROWS_WEIGHTED`` with costs), and the certified bounds
solve an LP by interior point from ``_LP_IPM_MIN_COLS`` columns with
``_LP_IPM_MIN_NNZ_PER_COL`` nonzeros per column and
``_LP_IPM_MIN_NNZ_PER_ROW`` per row, and a parallel exact batch shards
an instance per witness component from ``COMPONENT_SPLIT_THRESHOLD``
endogenous tuples.  :func:`forced_engines`
patches that module state for the duration of a ``with`` block, as
:func:`oracles.flow.patched_min_cut` does for the min cut, so the
differential suites and benchmarks can run each layer's other path.
Worker pools forked inside the block inherit the patch; a pool started
before it does not.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core import analyzer
from repro.query import columnar
from repro.resilience import approx, exact
from repro.witness import structure

JOINS = (None, "columnar", "reference")
KERNELS = (None, "reference")
SOLVERS = (None, "bnb", "ilp")
LPS = (None, "simplex", "ipm")
_LP_RULE = (
    "_LP_IPM_MIN_COLS",
    "_LP_IPM_MIN_NNZ_PER_COL",
    "_LP_IPM_MIN_NNZ_PER_ROW",
)


def _giving_up(search):
    """``search`` that gives up whenever it is given a row limit."""

    def give_up(sets, costs=None, row_limit=None):
        if row_limit is not None:
            return None
        return search(sets, costs=costs)

    return give_up


@contextmanager
def forced_engines(join=None, kernel=None, solver=None, lp=None, split=False):
    """Within the block, every solve in this process takes the forced
    paths; ``None`` keeps a layer's own rule.

    * ``join="columnar"`` / ``"reference"``: the vectorized join or the
      backtracking evaluator at every database size;
    * ``kernel="reference"``: the frozenset reduction, the union-find
      decomposition and the frozenset search on every input;
    * ``solver="bnb"``: every exact component is searched without a row
      limit, so it returns ``_bnb_component``'s set and HiGHS never runs;
    * ``solver="ilp"``: the row-limited search gives up at once, so
      HiGHS solves every exact component;
    * ``lp="simplex"`` / ``"ipm"``: every LP of the certified bounds is
      solved by HiGHS dual simplex, or by its interior-point method;
    * ``split=True``: a parallel exact batch (``workers > 1``) shards
      every exact instance per witness component, whatever its size.
    """
    if (
        join not in JOINS
        or kernel not in KERNELS
        or solver not in SOLVERS
        or lp not in LPS
        or split not in (False, True)
    ):
        raise ValueError(
            f"unknown engines join={join!r} kernel={kernel!r} "
            f"solver={solver!r} lp={lp!r} split={split!r}"
        )
    with ExitStack() as stack:
        if join is not None:
            forced = join == "columnar"
            stack.enter_context(
                mock.patch.object(columnar, "_use_columnar", lambda db: forced)
            )
        if kernel == "reference":
            for module, name in (
                (structure, "_BITSET_MIN_SETS"),
                (structure, "_DECOMPOSE_MATRIX_MIN_SETS"),
                (approx, "_BNB_BITSET_MIN_SETS"),
            ):
                stack.enter_context(mock.patch.object(module, name, sys.maxsize))
        if solver == "bnb":
            for name in ("EXACT_SEARCH_ROWS", "EXACT_SEARCH_ROWS_WEIGHTED"):
                stack.enter_context(mock.patch.object(exact, name, None))
        elif solver == "ilp":
            stack.enter_context(
                mock.patch.object(
                    exact,
                    "_search_component",
                    _giving_up(exact._search_component),
                )
            )
        if lp is not None:
            threshold = sys.maxsize if lp == "simplex" else 0
            for name in _LP_RULE:
                stack.enter_context(
                    mock.patch.object(approx, name, threshold)
                )
        if split:
            stack.enter_context(
                mock.patch.object(analyzer, "COMPONENT_SPLIT_THRESHOLD", 0)
            )
        yield
