"""Dispatching resilience solver.

:func:`solve` routes a (query, database) pair to the best available
algorithm:

1. databases not satisfying the query have resilience 0;
2. queries that are *signature-identical* to one of the paper's named
   PTIME queries use the bespoke algorithm proved for them
   (Propositions 12, 13, 33, 36, 41, 44);
3. queries the classifier proves in P via flow — linear queries that are
   self-join-free after normalization, have only exogenous repeats, or
   whose single self-join is a flow-safe confluence (Proposition 31) —
   use the linear flow solver;
4. everything else (NP-complete or open cases, and P cases whose
   polynomial algorithm the paper only sketches) falls back to the
   exact hitting-set solvers.

The returned :class:`ResilienceResult` carries the method used, so
benchmarks can report which algorithm produced each number.

Since exact solving is NP-complete in general (Theorem 24), ``solve``
also exposes the approximate tier: ``mode="approx"`` returns a
certified interval in polynomial time and ``mode="anytime"`` refines it
within a :class:`~repro.resilience.types.Budget`; both return a
:class:`~repro.resilience.types.BoundedResilienceResult`.  Pairs the
dispatcher can solve exactly in polynomial time (cases 1–3 above) come
back as already-closed intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex, satisfies
from repro.query.zoo import ALL_QUERIES
from repro.witness import WitnessStructure
from repro.resilience.exact import resilience_exact
from repro.resilience.flow_linear import LinearFlowSolver
from repro.resilience.flow_special import (
    solve_qACconf,
    solve_qAperm,
    solve_qA3perm_R,
    solve_qSwx3perm_R,
    solve_qTS3conf,
    solve_qperm,
    solve_qz3,
)
from repro.resilience.approx import resilience_anytime, resilience_bounds
from repro.resilience.types import (
    BoundedResilienceResult,
    Budget,
    ResilienceResult,
)
from repro.structure.classifier import Verdict, classify
from repro.structure.domination import normalize
from repro.structure.linearity import find_linear_order
from repro.structure.patterns import CONFLUENCE, two_atom_pattern


def _special_solvers() -> Dict[frozenset, Callable]:
    """Map canonical query signatures to their bespoke algorithms."""
    table = {}

    def register(name: str, fn: Callable) -> None:
        table[ALL_QUERIES[name].canonical_signature()] = fn

    register("q_perm", lambda db, q: solve_qperm(db))
    register("q_Aperm", lambda db, q: solve_qAperm(db))
    register("q_ACconf", lambda db, q: solve_qACconf(db))
    register("q_A3perm_R", lambda db, q: solve_qA3perm_R(db))
    register("q_Swx3perm_R", lambda db, q: solve_qSwx3perm_R(db))
    register("q_TS3conf", solve_qTS3conf)
    register("q_z3", lambda db, q: solve_qz3(db))
    return table


_SPECIALS = _special_solvers()


def _weighted_special_solvers() -> Dict[frozenset, Callable]:
    """The bespoke algorithms that stay exact under arbitrary costs.

    Only ``q_perm`` (tuple-disjoint pairs) and ``q_Aperm`` (bipartite
    vertex cover) qualify; the other specials rest on domination or
    Lemma 55 arguments that break for non-unit costs — see the
    ``flow_special`` module docstring.
    """
    table = {}
    table[ALL_QUERIES["q_perm"].canonical_signature()] = (
        lambda db, q: solve_qperm(db, weighted=True)
    )
    table[ALL_QUERIES["q_Aperm"].canonical_signature()] = (
        lambda db, q: solve_qAperm(db, weighted=True)
    )
    return table


_WEIGHTED_SPECIALS = _weighted_special_solvers()


def _flow_safe(query: ConjunctiveQuery) -> bool:
    """May the linear flow solver be used for this query?

    True when the query is linear and its endogenous self-join structure
    is one the paper proves flow-correct: none at all (sj-free /
    exogenous repeats), or a single 2-confluence (Proposition 31).
    """
    if find_linear_order(query) is None:
        return False
    normalized = normalize(query)
    endo_counts: Dict[str, int] = {}
    for atom in normalized.endogenous_atoms():
        endo_counts[atom.relation] = endo_counts.get(atom.relation, 0) + 1
    repeated = [r for r, c in endo_counts.items() if c >= 2]
    if not repeated:
        return True
    if len(repeated) > 1:
        return False
    pattern = two_atom_pattern(normalized)
    return pattern == CONFLUENCE


def _weighted_flow_safe(query: ConjunctiveQuery) -> bool:
    """May the linear flow solver be used for a *weighted* instance?

    Stricter than :func:`_flow_safe` in two ways.  First, the
    Proposition 31 confluence layering is excluded: its correctness
    rests on Lemma 55's never-pay-twice property of unit-capacity
    minimal cuts, which does not transfer to weighted cuts — a tuple
    appearing in two layers would be charged its cost per layer, and
    the cheapest weighted cut may genuinely differ from any cut the
    layered network can price correctly.  Second, the judgement is made
    on the query *as written*, never on :func:`normalize`'s output:
    normalization re-marks dominated atoms exogenous (sound when every
    deletion costs 1 — a dominating tuple is never a worse pick), but
    under costs a dominated relation may hold the *cheapest* valid
    deletion, so the flow network must keep every endogenous atom of
    the original query chargeable.  Weighted flow is sound exactly when
    every endogenous tuple maps to a single finite-capacity arc: the
    query itself is linear with no endogenous repeats.
    """
    if find_linear_order(query) is None:
        return False
    endo_counts: Dict[str, int] = {}
    for atom in query.endogenous_atoms():
        endo_counts[atom.relation] = endo_counts.get(atom.relation, 0) + 1
    return all(c == 1 for c in endo_counts.values())


@dataclass(frozen=True)
class DispatchPlan:
    """The dispatch decision for one query, computed once and reused.

    ``kind`` is ``"special"``, ``"flow"``, or ``"exact"``; for the
    first two, ``run`` executes the corresponding solver on a
    database.  Exact plans carry ``run=None``: :func:`solve` (and
    :func:`repro.core.solve_batch`) execute them through
    :func:`resilience_exact` so the witness structure and evaluation
    index can be threaded in.  Plans are pure functions of the query's
    canonical signature, so they are cached (:func:`dispatch_plan`) and
    shared across every database the query is solved over — batch
    solving amortizes the classifier, the flow-safety analysis, and
    flow-network setup this way.
    """

    kind: str
    run: Optional[Callable[[Database], ResilienceResult]] = None


@lru_cache(maxsize=256)
def dispatch_plan(query: ConjunctiveQuery, weighted: bool = False) -> DispatchPlan:
    """Decide (and cache) how to solve ``query``, per the module doc.

    The plan sees only the query's own exogenous flags.  A caller that
    holds the database should use :func:`dispatch_plan_for`, which also
    honours relations the database marks exogenous; the bespoke solvers
    return wrong answers on such instances otherwise.

    The cache key is the query object itself; ``ConjunctiveQuery``
    hashes by canonical signature, so structurally identical queries
    share one plan.  ``weighted=True`` yields the plan for genuinely
    weighted databases: only the cost-sound specials (``q_perm``,
    ``q_Aperm``) and the repeat-free linear flow stay polynomial; every
    other shape routes to the exact weighted hitting-set tier.
    """
    if weighted:
        special = _WEIGHTED_SPECIALS.get(query.canonical_signature())
        if special is not None:
            return DispatchPlan("special", lambda db: special(db, query))
        verdict = classify(query)
        if verdict.verdict == Verdict.P and _weighted_flow_safe(query):
            # The flow always runs on the query as written: the
            # classifier's normalized form may have re-marked dominated
            # atoms exogenous, which is cost-unsound (see
            # _weighted_flow_safe).
            flow = LinearFlowSolver(query)
            return DispatchPlan(
                "flow", lambda db: flow.solve(db, weighted=True)
            )
        return DispatchPlan("exact")

    special = _SPECIALS.get(query.canonical_signature())
    if special is not None:
        return DispatchPlan("special", lambda db: special(db, query))

    verdict = classify(query)
    if verdict.verdict == Verdict.P and _flow_safe(query):
        target = verdict.normalized or query
        if find_linear_order(target) is None:
            target = query
        flow = LinearFlowSolver(target)
        return DispatchPlan("flow", flow.solve)

    return DispatchPlan("exact")


def dispatch_plan_for(
    database: Database, query: ConjunctiveQuery, weighted: bool = False
) -> DispatchPlan:
    """The :func:`dispatch_plan` for ``query`` solved over ``database``.

    A relation the database marks exogenous cannot lose facts whatever
    the query's atoms say, so it is marked exogenous in the query the
    plan is chosen for.  The bespoke solvers assume the flags of the
    query they are registered for, and the flow-safety test counts
    endogenous repeats: both must see the instance's real flags.  Every
    dispatch site (:func:`solve`, the bounded modes, and the parallel
    batch's task builder and shard runner) decides through here.
    """
    flags = query.relation_flags()
    extra = [
        name
        for name, exogenous in flags.items()
        if not exogenous
        and name in database.relations
        and database.relations[name].exogenous
    ]
    if extra:
        query = query.with_atoms_exogenous(extra)
    return dispatch_plan(query, weighted=weighted)


def solve(
    database: Database,
    query: ConjunctiveQuery,
    method: Optional[str] = None,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    mode: str = "exact",
    budget=None,
    on_interval=None,
    weighted: bool = False,
):
    """Compute resilience, dispatching to the appropriate algorithm.

    ``mode`` selects the solving tier:

    * ``"exact"`` (default) — the exact value, as a
      :class:`ResilienceResult`;
    * ``"approx"`` — a certified interval ``lb <= rho <= ub`` in
      polynomial time (LP relaxation + greedy/LP rounding + local
      search), as a :class:`~repro.resilience.types.BoundedResilienceResult`;
    * ``"anytime"`` — the approx interval refined by budgeted branch
      and bound; ``budget`` (a
      :class:`~repro.resilience.types.Budget`, or a number of seconds)
      caps the refinement, and an unlimited budget closes the interval
      on the exact value.

    Pairs the dispatcher solves with a proved polynomial algorithm
    (bespoke or flow) are exact in every mode — the bounded modes wrap
    them as already-closed intervals.

    ``method`` forces a backend on the exact tier: ``"exact"``,
    ``"flow"`` (linear flow), or ``None`` for automatic dispatch; it is
    incompatible with the bounded modes.  A prebuilt
    :class:`~repro.witness.WitnessStructure` for this exact pair may be
    passed to skip re-enumeration on the exact path, and a
    :class:`~repro.query.evaluation.DatabaseIndex` to reuse evaluation
    indexes for the satisfiability probe.

    ``on_interval`` (bounded modes only) streams certified ``(lb, ub)``
    intervals as the solve tightens them — see
    :func:`~repro.resilience.approx.resilience_anytime`; instances
    dispatch solves exactly report their closed interval once.

    ``weighted=True`` minimizes the summed tuple costs
    (:meth:`~repro.db.database.Database.cost`) instead of the
    cardinality.  A weighted solve over a database whose endogenous
    costs are all 1 delegates to the unweighted path — results are
    bit-identical to ``weighted=False``, including methods and
    certificates.
    """
    if mode not in ("exact", "approx", "anytime"):
        raise ValueError(f"unknown mode {mode!r}")
    if on_interval is not None and mode == "exact":
        raise ValueError("on_interval requires a bounded mode")
    # All-unit databases delegate to the unweighted path: same
    # algorithms, same results, bit for bit.
    effective = weighted and database.has_weighted_costs()
    if effective and structure is not None and not structure.weighted:
        # A cost-oblivious prebuilt structure may have kernelized away
        # exactly the cheap tuples a weighted optimum needs; rebuild.
        structure = None
    if mode != "exact":
        if method is not None:
            raise ValueError("method forcing requires mode='exact'")
        return _solve_bounded(
            database,
            query,
            mode,
            budget,
            structure=structure,
            index=index,
            on_interval=on_interval,
            weighted=effective,
        )
    if method == "exact":
        return resilience_exact(
            database, query, structure=structure, index=index, weighted=effective
        )
    if method == "flow":
        if effective and not _weighted_flow_safe(query):
            raise ValueError(
                "method='flow' is not cost-sound for this query on a "
                "weighted database (confluence layering charges per "
                "occurrence); use automatic dispatch"
            )
        return LinearFlowSolver(query).solve(database, weighted=effective)
    if method is not None:
        raise ValueError(f"unknown method {method!r}")

    if structure is not None:
        satisfied = structure.satisfied
    else:
        satisfied = satisfies(database, query, index=index)
    if not satisfied:
        return ResilienceResult(0, frozenset(), method="unsatisfied")

    plan = dispatch_plan_for(database, query, weighted=effective)
    if plan.kind == "exact":
        return resilience_exact(
            database, query, structure=structure, index=index, weighted=effective
        )
    return plan.run(database)


def _solve_bounded(
    database: Database,
    query: ConjunctiveQuery,
    mode: str,
    budget,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    on_interval=None,
    weighted: bool = False,
) -> BoundedResilienceResult:
    """The ``mode="approx"`` / ``mode="anytime"`` paths of :func:`solve`.

    Polynomial-time dispatch targets (bespoke specials and linear flow,
    cases 1–3 of the module doc) stay exact and come back as closed
    intervals; only the exact-search fallback is approximated.
    ``on_interval`` observes the certified interval: anytime solves
    stream every tightening, while the other paths report their final
    (for dispatch-exact instances: closed) interval once.
    """
    budget = Budget.coerce(budget)
    if structure is not None:
        satisfied = structure.satisfied
    else:
        satisfied = satisfies(database, query, index=index)
    if not satisfied:
        if on_interval is not None:
            on_interval(0, 0)
        return BoundedResilienceResult(0, 0, frozenset(), method="unsatisfied")

    plan = dispatch_plan_for(database, query, weighted=weighted)
    if plan.kind != "exact":
        exact = plan.run(database)
        if on_interval is not None:
            on_interval(exact.value, exact.value)
        return BoundedResilienceResult(
            exact.value, exact.value, exact.contingency_set, method=exact.method
        )
    if mode == "approx":
        result = resilience_bounds(
            database, query, structure=structure, index=index, weighted=weighted
        )
        if on_interval is not None:
            on_interval(result.lower_bound, result.upper_bound)
        return result
    return resilience_anytime(
        database,
        query,
        budget=budget,
        structure=structure,
        index=index,
        on_interval=on_interval,
        weighted=weighted,
    )


def resilience(
    database: Database, query: ConjunctiveQuery, weighted: bool = False
) -> int:
    """``rho(q, D)``: just the minimum contingency-set size (or cost)."""
    return solve(database, query, weighted=weighted).value


def in_res(database: Database, query: ConjunctiveQuery, k: int) -> bool:
    """The decision problem: ``(D, k) ∈ RES(q)`` (Definition 1).

    True iff ``D |= q`` and some contingency set of size <= k exists.
    """
    if not satisfies(database, query):
        return False
    return solve(database, query).value <= k
