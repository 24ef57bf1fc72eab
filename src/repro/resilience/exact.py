"""Exact resilience via minimum hitting set.

Resilience equals minimum hitting set over the witness structure: every
witness of ``D |= q`` contributes the set of endogenous tuples it uses,
and a contingency set is exactly a set of endogenous tuples intersecting
every witness (deleting them destroys all witnesses, and destroying all
witnesses is the only way to falsify the query).

Both solvers consume a preprocessed
:class:`~repro.witness.structure.WitnessStructure` — witnesses are
enumerated once per (query, database) pair, kernelized (superset
elimination, unit-witness forcing, dominated-tuple elimination), and
decomposed into connected components that are solved independently and
summed:

* :func:`resilience_branch_and_bound` — pure-Python branch and bound
  with greedy seeding and lower-bound pruning via disjoint witnesses;
* :func:`resilience_ilp` — an integer program built directly from the
  structure's CSR incidence matrix and solved by scipy's ``milp``
  (HiGHS), which scales further.

:func:`resilience_exact` combines them per component
(:func:`_solve_component`): the branch and bound runs first within a
budget of :data:`EXACT_SEARCH_ROWS` witness rows, and HiGHS solves
only the components that search leaves open.  Most kernels close at
the search's root, where HiGHS would still pay for presolve, cuts and
heuristics.

Both are exponential in the worst case (minimum hitting set is NP-hard
— Theorem 24 maps exactly which queries force this), but comfortably
handle the gadget databases used to *verify* the reductions.  For
instances beyond their reach, :mod:`repro.resilience.approx` computes
certified intervals from the same structure.

The greedy seeding and the disjoint-witness pruning bound used here are
shared with the approximate tier: see
:func:`repro.resilience.approx.greedy_hitting_set` and
:func:`repro.resilience.approx.disjoint_witness_lower_bound` (the
historical private alias ``_greedy_hitting_set`` below keeps old
imports working).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple, TypeVar

import numpy as np

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex, satisfies
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    greedy_hitting_set as _greedy_hitting_set,
)
from repro.resilience.types import Budget, ResilienceResult
from repro.witness import WitnessComponent, WitnessStructure, witness_structure

T = TypeVar("T")


def is_contingency_set(
    database: Database, query: ConjunctiveQuery, gamma: Set[DBTuple]
) -> bool:
    """Is ``gamma`` a contingency set — ``D - gamma`` falsifies ``q``?"""
    return not satisfies(database.minus(gamma), query)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def _bnb_component(sets: Sequence[FrozenSet[int]], costs=None) -> Set[int]:
    """Minimum(-cost) hitting set of one component by branch and bound.

    Branches on a smallest unhit witness by exclusion (child *i* takes
    its *i*-th tuple and forbids the earlier ones), takes every tuple
    that is the last allowed one of some witness, and prunes with a
    disjoint-witness lower bound and the greedy incumbent.  The search
    itself is
    :func:`repro.resilience.approx._budgeted_bnb` run with an unlimited
    budget — one shared implementation guarantees the anytime tier's
    "unlimited budget equals exact" contract by construction.  With
    ``costs`` the objective (and the shared search) is the cost sum.
    """
    best = _search_component(sets, costs=costs)
    assert best is not None  # unlimited budget always finishes
    return best


class _RowMeter:
    """A search budget of witness rows: each node is charged the rows it
    holds, which is what its children's passes visit.  A node is
    expanded while any budget is left, so the search always expands the
    root."""

    def __init__(self, rows: int):
        self.rows_left = rows

    def spend_node(self, rows: int) -> bool:
        if self.rows_left <= 0:
            return False
        self.rows_left -= rows
        return True


def _search_component(
    sets: Sequence[FrozenSet[int]], costs=None, row_limit: Optional[int] = None
) -> Optional[Set[int]]:
    """The greedy-seeded search of :func:`_bnb_component`, within
    ``row_limit`` witness rows (:class:`_RowMeter`); ``None`` when it
    runs out of rows."""
    meter = _BudgetMeter(Budget()) if row_limit is None else _RowMeter(row_limit)
    _, best_set, completed = _budgeted_bnb(
        sets, _greedy_hitting_set(sets, costs=costs), meter, costs=costs
    )
    return best_set if completed else None


@lru_cache(maxsize=1)
def _milp_tools():
    """The scipy.optimize symbols the ILP backend needs, resolved once.

    Import-time safe: ``repro.resilience.exact`` stays importable
    without paying the scipy.optimize import, but per-call solves no
    longer re-execute the import machinery either (the old code
    imported inside ``_ilp_component`` on every component).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    return Bounds, LinearConstraint, milp


def _ilp_component(component: WitnessComponent, costs=None) -> Set[int]:
    """Minimum(-cost) hitting set of one component as a 0/1 integer program.

    ``min sum(c_t x_t)`` subject to ``A x >= 1`` where ``A`` is the
    component's CSR incidence matrix (``c_t = 1`` unweighted); solved
    by scipy's HiGHS-backed ``milp``.
    """
    Bounds, LinearConstraint, milp = _milp_tools()

    A = component.incidence_matrix()
    m, n = A.shape
    if costs is None:
        c = np.ones(n)
    else:
        c = np.array([costs[t] for t in component.tuple_ids], dtype=float)
    constraint = LinearConstraint(A, lb=np.ones(m), ub=np.full(m, np.inf))
    result = milp(
        c=c,
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable here
        raise RuntimeError(f"ILP solver failed: {result.message}")
    return {
        component.tuple_ids[j] for j in range(n) if result.x[j] > 0.5
    }


# ---------------------------------------------------------------------------
# The per-component exact routine
# ---------------------------------------------------------------------------

#: Witness rows the search may visit on one unit-cost component before
#: HiGHS takes it over.  Each node is charged the rows it holds (its
#: children are passes over them), so the budget bounds the search time
#: spent on a component that then falls through.  See docs/solvers.md
#: for how the value was set and where it was measured.
EXACT_SEARCH_ROWS = 20_000

#: The same budget for cost-weighted components.  Their search runs on
#: frozensets and sorts the rows for the cost-weighted packing bound at
#: every node, so a row costs about twice as much to visit, and the
#: weaker bound closes few large components anyway.  Measured
#: separately (docs/solvers.md).
EXACT_SEARCH_ROWS_WEIGHTED = 2_000


def _solve_component(
    component: WitnessComponent, costs=None, backend: Optional[str] = None
) -> Tuple[Set[int], bool]:
    """Minimum(-cost) hitting set of one component, and whether HiGHS ran.

    ``backend=None`` is the production rule: the greedy-seeded search
    of :func:`_bnb_component` within a budget of ``EXACT_SEARCH_ROWS``
    witness rows (``EXACT_SEARCH_ROWS_WEIGHTED`` with ``costs``), each
    node charged the rows it holds, and HiGHS (:func:`_ilp_component`)
    only when that search runs out of rows.  A search that completes
    has explored exactly as the unlimited one does, so it returns
    :func:`_bnb_component`'s set bit for bit.
    ``"bnb"`` and ``"ilp"`` force one backend with no limit.
    """
    if backend == "ilp":
        return _ilp_component(component, costs=costs), True
    if backend == "bnb":
        return _bnb_component(component.sets, costs=costs), False
    rows = EXACT_SEARCH_ROWS if costs is None else EXACT_SEARCH_ROWS_WEIGHTED
    best = _search_component(component.sets, costs=costs, row_limit=rows)
    if best is not None:
        return best, False
    return _ilp_component(component, costs=costs), True


def _assemble(
    ws: WitnessStructure,
    parts: Iterable[Tuple[Set[int], bool]],
    backend: Optional[str] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Sum per-component ``(ids, ran_ilp)`` outcomes plus the forced tuples,
    labelled by :func:`_method_label`."""
    chosen: Set[int] = set(ws.forced_ids)
    ran_ilp = backend == "ilp"
    for ids, fell_through in parts:
        chosen |= ids
        ran_ilp = ran_ilp or fell_through
    value = ws.cost_of(chosen) if weighted else len(chosen)
    return ResilienceResult(
        value, ws.tuples(chosen), method=_method_label(ran_ilp)
    )


def _method_label(ran_ilp: bool) -> str:
    """The exact tier's ``method``: ``"ilp"`` when HiGHS ran for some
    component (or was forced), ``"branch-and-bound"`` otherwise.  Every
    path that assembles component outcomes names its answer here."""
    return "ilp" if ran_ilp else "branch-and-bound"


def _solve_structure(
    ws: WitnessStructure, backend: Optional[str] = None, weighted: bool = False
) -> ResilienceResult:
    """:func:`_solve_component` on every component, assembled."""
    costs = ws.costs if weighted else None
    return _assemble(
        ws,
        (_solve_component(c, costs=costs, backend=backend) for c in ws.components),
        backend=backend,
        weighted=weighted,
    )


def resilience_branch_and_bound(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience via branch and bound on the hitting-set problem.

    Consumes the preprocessed witness structure (built, or fetched from
    the cache, when ``structure`` is not supplied; ``index`` is used
    for enumeration on a cache miss) and solves each connected
    component independently with no node limit.  With ``weighted=True``
    the structure is built cost-aware and the search minimizes the
    cost sum.
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    return _solve_structure(structure, "bnb", weighted=weighted)


# ---------------------------------------------------------------------------
# Integer programming (scipy / HiGHS)
# ---------------------------------------------------------------------------

def resilience_ilp(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience as per-component 0/1 integer programs.

    Each connected component of the preprocessed witness structure
    yields one ILP over its CSR incidence matrix; optima are summed
    together with the forced tuples.  With ``weighted=True`` the
    objective carries the per-tuple costs.
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    return _solve_structure(structure, "ilp", weighted=weighted)


def resilience_exact(
    database: Database,
    query: ConjunctiveQuery,
    prefer: str = "auto",
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> ResilienceResult:
    """Exact resilience, choosing a backend per component.

    ``prefer`` is ``"auto"`` (:func:`_solve_component`'s rule),
    ``"ilp"``, or ``"bnb"``.  ``weighted=True`` minimizes the summed
    tuple costs instead of the cardinality.
    """
    if prefer not in ("auto", "ilp", "bnb"):
        raise ValueError(f"unknown backend preference {prefer!r}")
    ws = (
        structure
        if structure is not None
        else witness_structure(database, query, index=index, weighted=weighted)
    )
    if prefer == "ilp":
        return resilience_ilp(database, query, structure=ws, weighted=weighted)
    if prefer == "bnb":
        return resilience_branch_and_bound(
            database, query, structure=ws, weighted=weighted
        )
    return _solve_structure(ws, weighted=weighted)
