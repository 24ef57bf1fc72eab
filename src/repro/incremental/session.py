"""Incremental resilience under database updates.

Resilience (Definition 1) is defined over a *fixed* database, but the
paper's motivating scenarios — deletion propagation, causal
responsibility, what-if analysis — live on databases that change.
Re-solving from scratch after every tuple insert/delete pays the full
Section 2 pipeline each time: witness enumeration, the kernelization
fixpoint, and an NP-hard hitting-set search (Theorem 24).  An
:class:`IncrementalSession` keeps all three incremental:

1. **Delta witness enumeration.**  The session maintains the set of
   *full* witness tuple-sets (endogenous and exogenous facts alike).
   Inserting a fact only runs the constrained join
   :func:`repro.query.evaluation.iter_witnesses_using` — every witness
   of the new database either existed before or maps some atom to the
   new fact.  Deleting a fact removes exactly the full sets containing
   it.  The endogenous projections (the hitting-set family the solvers
   consume) are maintained with per-projection support counts, so the
   family only changes when a projection appears or loses its last
   supporting witness.

2. **Per-component preprocessing and solving, cached by content.**  The
   kernelization fixpoint of :mod:`repro.witness.structure` (superset
   elimination, unit forcing, domination) never acts across connected
   components of the witness incidence graph, so the session runs it
   per raw component and memoizes the result by the component's
   *content*.  Likewise each reduced component's minimum hitting set
   (or certified interval) is memoized — in memory and, when a
   ``cache_dir`` is given, in the persistent
   :class:`~repro.witness.cache.ResultCache` under
   :func:`~repro.witness.cache.component_cache_key`.  A single-tuple
   update touches one component; every other component hits the caches
   across database states.

3. **Warm-start certification from the single-tuple delta laws.**  For
   one endogenous tuple ``t``: witnesses only grow under insertion, so
   ``rho(D) <= rho(D + t)``; every witness created by the insertion
   uses ``t``, so ``Gamma ∪ {t}`` stays feasible and
   ``rho(D + t) <= rho(D) + 1``.  Dually
   ``rho(D) - 1 <= rho(D - t) <= rho(D)``.  Exogenous inserts only
   bound from below (``rho`` is monotone), and exogenous deletions only
   from above.  At solve time the session replays these laws over the
   updates applied since the last exact answer: if the surviving part
   of the previous minimum contingency set is still feasible and its
   size meets the accumulated lower bound, the new optimum is
   *certified without any search* (``method="warm-start"``).

All three solving tiers are supported (``mode="exact" | "approx" |
"anytime"``), with the contract that every answer equals what a
from-scratch :func:`repro.resilience.solver.solve` would return on the
current database: exact values exactly, certified intervals
identically for ``approx`` and for ``anytime`` with an unlimited
budget (a finite anytime budget is re-spent on the maintained
structure, exactly as a fresh solve would spend it).  Queries the
dispatcher solves with a proved polynomial algorithm (the bespoke
Propositions 12/13/33/36/41/44 solvers and the linear flow of
Proposition 31) are simply re-run — they are already update-cheap.

See ``docs/incremental.md`` for the full delta-bound contract and
cache interaction.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.analyzer import _default_workers
from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import (
    DatabaseIndex,
    iter_witnesses,
    iter_witnesses_using,
    witness_tuples,
)
from repro.query.parser import parse_query
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    _component_interval,
    resilience_anytime,
)
from repro.resilience.exact import _method_label, _solve_component
from repro.resilience.solver import dispatch_plan_for, solve as _dispatch_solve
from repro.resilience.types import (
    BoundedResilienceResult,
    Budget,
    ResilienceResult,
)
from repro.witness import (
    ReductionStats,
    ResultCache,
    UnbreakableQueryError,
    WitnessStructure,
    component_cache_key,
)
from repro.witness.structure import _decompose, _reduce

__all__ = ["IncrementalSession", "SessionStats", "Update"]

# In-memory per-component memo size (reduction results and solved
# components share one LRU each); content-keyed entries are small.
_MEMO_MAX = 4096


@dataclass(frozen=True)
class Update:
    """One database update: ``op`` is ``"insert"`` or ``"delete"``."""

    op: str
    fact: DBTuple

    def __post_init__(self):
        if self.op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {self.op!r}")

    def __repr__(self) -> str:
        sign = "+" if self.op == "insert" else "-"
        return f"{sign}{self.fact!r}"


@dataclass
class SessionStats:
    """Telemetry for one :class:`IncrementalSession`.

    ``delta_witnesses`` counts full witness sets discovered by the
    constrained delta join (vs. full re-enumeration); ``warm_certified``
    counts exact answers certified by the delta laws without any
    search; the component counters split cache reuse from fresh work.
    """

    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    delta_witnesses: int = 0
    removed_witnesses: int = 0
    solves: int = 0
    warm_certified: int = 0
    structures_rebuilt: int = 0
    components_reduced: int = 0
    components_reduce_reused: int = 0
    components_solved: int = 0
    components_memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def summary_lines(self) -> List[str]:
        """Human-readable report (``repro bench --updates`` prints it)."""
        lines = [
            f"updates: {self.updates} ({self.inserts} inserts, "
            f"{self.deletes} deletes); witness delta "
            f"+{self.delta_witnesses}/-{self.removed_witnesses}",
            f"solves: {self.solves} ({self.warm_certified} warm-certified, "
            f"{self.structures_rebuilt} structure rebuilds)",
            f"components: {self.components_solved} solved, "
            f"{self.components_memo_hits} memo hits, "
            f"{self.components_reduced} reduced, "
            f"{self.components_reduce_reused} reductions reused",
        ]
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"result cache: {self.cache_hits} component hits, "
                f"{self.cache_misses} misses"
            )
        return lines


class _QueryState:
    """Incremental bookkeeping for one exact-dispatch query."""

    def __init__(self, query: ConjunctiveQuery, plan_kind: str, database: Database):
        self.query = query
        self.plan_kind = plan_kind
        self.relations = query.relation_names()
        # A relation is exogenous for this query if the query marks it
        # (R^x atoms) or the database instance declares it so — the
        # same rule witness_tuple_sets applies.  Flags are fixed at
        # session start; flipping them mid-session is not supported.
        flags = dict(query.relation_flags())
        for name, rel in database.relations.items():
            if rel.exogenous and name in flags:
                flags[name] = True
        self.exo_flags = flags
        self.full_sets: Set[FrozenSet[DBTuple]] = set()
        # Inverted index: fact -> full witness sets using it, so a
        # delete touches exactly its delta instead of scanning every
        # stored set.
        self.sets_by_fact: Dict[DBTuple, Set[FrozenSet[DBTuple]]] = {}
        self.proj_count: Dict[FrozenSet[DBTuple], int] = {}
        # The "family" is the set of endogenous projections; its version
        # bumps only when a projection appears or disappears, which is
        # the only way any solver answer can change.
        self.family_version = 0
        # Deltas accumulated since the last *exact* answer, for the
        # warm-start certification.
        self.added_projs: Set[FrozenSet[DBTuple]] = set()
        self.endo_removal_ops = 0
        self.exo_removed_sets = False
        self.last_exact: Optional[ResilienceResult] = None
        # (mode, budget) -> (family_version, result)
        self.last_results: Dict[tuple, Tuple[int, object]] = {}
        self.ws: Optional[WitnessStructure] = None
        self.ws_version = -1

    # -- projections ---------------------------------------------------
    def project(self, full: FrozenSet[DBTuple]) -> FrozenSet[DBTuple]:
        return frozenset(
            t for t in full if not self.exo_flags.get(t.relation, False)
        )

    @property
    def unbreakable(self) -> bool:
        return frozenset() in self.proj_count

    # -- maintenance ---------------------------------------------------
    def _track_full(self, full: FrozenSet[DBTuple]) -> None:
        self.full_sets.add(full)
        for fact in full:
            self.sets_by_fact.setdefault(fact, set()).add(full)

    def _untrack_full(self, full: FrozenSet[DBTuple]) -> None:
        self.full_sets.discard(full)
        for fact in full:
            bucket = self.sets_by_fact.get(fact)
            if bucket is not None:
                bucket.discard(full)
                if not bucket:
                    del self.sets_by_fact[fact]

    def rebuild(self, database: Database, index: DatabaseIndex) -> None:
        """Full enumeration (session start only)."""
        self.full_sets = set()
        self.sets_by_fact = {}
        self.proj_count = {}
        for valuation in iter_witnesses(database, self.query, index=index):
            full = frozenset(witness_tuples(self.query, valuation))
            if full in self.full_sets:
                continue
            self._track_full(full)
            proj = self.project(full)
            self.proj_count[proj] = self.proj_count.get(proj, 0) + 1

    def note_insert(
        self,
        database: Database,
        index: DatabaseIndex,
        fact: DBTuple,
        stats: SessionStats,
    ) -> None:
        if fact.relation not in self.relations:
            return
        appeared = False
        for valuation in iter_witnesses_using(
            database, self.query, fact, index=index
        ):
            full = frozenset(witness_tuples(self.query, valuation))
            if full in self.full_sets:
                continue
            self._track_full(full)
            stats.delta_witnesses += 1
            proj = self.project(full)
            count = self.proj_count.get(proj, 0)
            self.proj_count[proj] = count + 1
            if count == 0:
                self.added_projs.add(proj)
                appeared = True
        if appeared:
            self.family_version += 1

    def note_delete(self, fact: DBTuple, stats: SessionStats) -> None:
        if fact.relation not in self.relations:
            return
        removed = list(self.sets_by_fact.get(fact, ()))
        if not removed:
            return
        for full in removed:
            self._untrack_full(full)
        stats.removed_witnesses += len(removed)
        vanished = False
        for full in removed:
            proj = self.project(full)
            count = self.proj_count[proj] - 1
            if count:
                self.proj_count[proj] = count
            else:
                del self.proj_count[proj]
                self.added_projs.discard(proj)
                vanished = True
        if vanished:
            self.family_version += 1
            # The delta laws: one endogenous deletion lowers rho by at
            # most 1; an exogenous deletion that destroys witnesses can
            # lower it arbitrarily (no warm lower bound survives).
            if self.exo_flags.get(fact.relation, False):
                self.exo_removed_sets = True
            else:
                self.endo_removal_ops += 1

    def note_exact_answer(self, result: ResilienceResult) -> None:
        self.last_exact = result
        self.added_projs.clear()
        self.endo_removal_ops = 0
        self.exo_removed_sets = False


class IncrementalSession:
    """Maintain resilience of one or more queries under tuple updates.

    Parameters
    ----------
    database:
        The initial instance.  The session works on a private copy;
        mutate through :meth:`insert` / :meth:`delete` / :meth:`apply`.
    queries:
        One query (``ConjunctiveQuery`` or Datalog text) or a sequence.
    cache_dir:
        Optional path or :class:`~repro.witness.cache.ResultCache`:
        solved components persist across sessions under
        :func:`~repro.witness.cache.component_cache_key`.
    workers:
        Default worker count for exact component solving (``None``
        reads ``REPRO_WORKERS``; 1 = serial).  Only components missing
        from every cache are farmed out, via :mod:`repro.parallel`.
    warm_start:
        Enable the delta-law certification (on by default; switch off
        to force the full per-component path, e.g. when benchmarking).

    Every :meth:`solve` answer matches a from-scratch
    :func:`repro.resilience.solver.solve` on the current database —
    same values, same certified intervals — the session only changes
    *how much work* the answer costs.
    """

    def __init__(
        self,
        database: Database,
        queries: Union[str, ConjunctiveQuery, Sequence],
        cache_dir=None,
        workers: Optional[int] = None,
        warm_start: bool = True,
    ):
        if isinstance(queries, (str, ConjunctiveQuery)):
            queries = [queries]
        parsed = [
            parse_query(q) if isinstance(q, str) else q for q in queries
        ]
        if not parsed:
            raise ValueError("an IncrementalSession needs at least one query")
        self._db = database.copy()
        self._index = DatabaseIndex(self._db)
        self._workers = workers
        self._warm = warm_start
        self.stats = SessionStats()
        if cache_dir is None:
            self._cache: Optional[ResultCache] = None
        elif isinstance(cache_dir, ResultCache):
            self._cache = cache_dir
        else:
            self._cache = ResultCache(cache_dir)
        self._comp_memo: "OrderedDict[tuple, object]" = OrderedDict()
        self._reduce_memo: "OrderedDict[frozenset, tuple]" = OrderedDict()
        self._states: Dict[FrozenSet, _QueryState] = {}
        ordered: List[ConjunctiveQuery] = []
        for q in parsed:
            sig = q.canonical_signature()
            if sig in self._states:
                continue
            state = _QueryState(q, dispatch_plan_for(self._db, q).kind, self._db)
            if state.plan_kind == "exact":
                state.rebuild(self._db, self._index)
            self._states[sig] = state
            ordered.append(q)
        self._queries = tuple(ordered)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The session's current database.  Treat as read-only: mutate
        through :meth:`insert` / :meth:`delete` so the incremental
        state stays consistent."""
        return self._db

    @property
    def queries(self) -> Tuple[ConjunctiveQuery, ...]:
        return self._queries

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _coerce(self, fact, values) -> DBTuple:
        if isinstance(fact, DBTuple):
            if values:
                raise ValueError("pass either a DBTuple or name + values")
            return fact
        return DBTuple(fact, tuple(values))

    def insert(self, fact, *values, cost: Optional[int] = None) -> DBTuple:
        """Insert a fact (``insert(DBTuple)`` or ``insert("R", 1, 2)``).

        Re-inserting an existing fact is a no-op (set semantics), except
        that an explicit ``cost`` still takes effect (last writer wins,
        as in :meth:`Database.add`).  New witnesses are discovered by
        the constrained delta join only.
        """
        fact = self._coerce(fact, values)
        rel = self._db.relations.get(fact.relation)
        if rel is not None and fact in rel:
            if cost is not None:
                rel.set_cost(fact, cost)
            return fact
        self._db.add(fact.relation, *fact.values, cost=cost)
        self._index.observe_insert(fact)
        self.stats.updates += 1
        self.stats.inserts += 1
        for state in self._states.values():
            if state.plan_kind == "exact":
                state.note_insert(self._db, self._index, fact, self.stats)
        return fact

    def delete(self, fact, *values) -> DBTuple:
        """Delete a fact; raises ``ValueError`` if it is not present.

        This is a database *update*, not a contingency deletion, so
        exogenous facts may be deleted too (contrast
        :meth:`Database.minus`, which enforces Definition 1).
        """
        fact = self._coerce(fact, values)
        rel = self._db.relations.get(fact.relation)
        if rel is None or fact not in rel:
            raise ValueError(f"{fact!r} is not in the database")
        rel.discard(fact)
        self._index.observe_delete(fact)
        self.stats.updates += 1
        self.stats.deletes += 1
        for state in self._states.values():
            if state.plan_kind == "exact":
                state.note_delete(fact, self.stats)
        return fact

    def set_cost(self, fact, *values, cost: int) -> DBTuple:
        """Set a present fact's weighted-resilience cost.

        Costs never change the witness family — only weighted solves
        observe them — so no incremental state is invalidated; weighted
        answers always read the current costs (see :meth:`solve`).
        """
        fact = self._coerce(fact, values)
        self._db.set_cost(fact, cost)
        return fact

    def apply(self, updates: Iterable) -> int:
        """Apply a batch of updates in order; returns how many applied.

        Accepts :class:`Update` objects or ``(op, fact)`` pairs.
        Nothing is solved until :meth:`solve` is called, so a batch
        pays one structure refresh, not one per update.
        """
        count = 0
        for update in updates:
            if isinstance(update, Update):
                op, fact = update.op, update.fact
            else:
                op, fact = update
            if op == "insert":
                self.insert(fact)
            elif op == "delete":
                self.delete(fact)
            else:
                raise ValueError(f"unknown update op {op!r}")
            count += 1
        return count

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _state_for(self, query) -> _QueryState:
        if query is None:
            if len(self._queries) != 1:
                raise ValueError(
                    "session tracks several queries; pass the one to solve"
                )
            query = self._queries[0]
        if isinstance(query, str):
            query = parse_query(query)
        state = self._states.get(query.canonical_signature())
        if state is None:
            raise KeyError(f"query {query!r} is not tracked by this session")
        return state

    def solve(
        self,
        query=None,
        mode: str = "exact",
        budget=None,
        workers=None,
        weighted: bool = False,
    ):
        """Resilience of one tracked query over the current database.

        Returns exactly what :func:`repro.resilience.solver.solve`
        would on the current state: a :class:`ResilienceResult` for
        ``mode="exact"`` (``method="warm-start"`` when the delta laws
        certified the value without search), a certified
        :class:`BoundedResilienceResult` for the bounded modes.
        Raises :class:`UnbreakableQueryError` exactly when a
        from-scratch solve would.

        ``weighted=True`` over a database with non-unit endogenous
        costs dispatches a from-scratch weighted solve: the session's
        incremental machinery (warm-start delta laws, per-component
        memos) is cardinality-based and is not consulted.  With all
        costs at 1 the flag delegates to the incremental path,
        bit-identical to ``weighted=False``.
        """
        if mode not in ("exact", "approx", "anytime"):
            raise ValueError(f"unknown mode {mode!r}")
        state = self._state_for(query)
        self.stats.solves += 1
        if weighted and self._db.has_weighted_costs():
            # Correct by the session contract (answers equal a fresh
            # solve); weighted answers are simply never accelerated.
            return _dispatch_solve(
                self._db, state.query, mode=mode, budget=budget,
                index=self._index, weighted=True,
            )
        if state.plan_kind != "exact":
            return _dispatch_solve(
                self._db, state.query, mode=mode, budget=budget,
                index=self._index,
            )
        if state.unbreakable:
            raise UnbreakableQueryError(
                "a witness uses only exogenous tuples; the query cannot "
                "be falsified by endogenous deletions"
            )
        budget_obj = Budget.coerce(budget) if mode == "anytime" else None
        mode_key = (
            mode,
            None if budget_obj is None else budget_obj.time_limit,
            None if budget_obj is None else budget_obj.node_limit,
        )
        cached = state.last_results.get(mode_key)
        if cached is not None and cached[0] == state.family_version:
            return cached[1]

        if mode == "exact":
            result = self._solve_exact(state, workers)
        elif not state.proj_count:
            result = BoundedResilienceResult(
                0, 0, frozenset(), method="unsatisfied"
            )
        elif mode == "approx":
            result = self._solve_approx(self._structure(state))
        elif budget_obj is not None and not budget_obj.unlimited:
            # A finite anytime budget is spent across components in gap
            # order; re-running the stock driver on the maintained
            # structure reproduces a fresh solve's spending exactly.
            result = resilience_anytime(
                self._db, state.query, budget=budget_obj,
                structure=self._structure(state),
            )
        else:
            result = self._solve_anytime_unlimited(self._structure(state))
        state.last_results[mode_key] = (state.family_version, result)
        return result

    def solve_all(
        self, mode: str = "exact", budget=None, workers=None,
        weighted: bool = False,
    ) -> List:
        """Solve every tracked query; results in constructor order."""
        return [
            self.solve(
                q, mode=mode, budget=budget, workers=workers,
                weighted=weighted,
            )
            for q in self._queries
        ]

    # -- exact tier ----------------------------------------------------
    def _solve_exact(self, state: _QueryState, workers) -> ResilienceResult:
        if not state.proj_count:
            result = ResilienceResult(0, frozenset(), method="unsatisfied")
            state.note_exact_answer(result)
            return result
        warm = self._try_warm(state)
        if warm is not None:
            state.note_exact_answer(warm)
            return warm
        ws = self._structure(state)
        result = self._solve_exact_structure(ws, workers)
        state.note_exact_answer(result)
        return result

    def _try_warm(self, state: _QueryState) -> Optional[ResilienceResult]:
        """Certify the new optimum from the delta laws, if they pin it.

        Sound because, over the updates since the last exact answer:
        ``rho`` dropped by at most 1 per endogenous deletion and never
        otherwise (inserts are monotone), so
        ``rho_new >= rho_old - endo_removal_ops`` as long as no
        exogenous deletion destroyed a projection; and the surviving
        part of the old minimum contingency set hits every surviving
        old projection automatically (a projection containing a deleted
        fact cannot survive), so feasibility only needs checking
        against the projections that *appeared*.
        """
        if not self._warm:
            return None
        last = state.last_exact
        if last is None or state.exo_removed_sets:
            return None
        gamma = frozenset(
            t for t in last.contingency_set if t in self._db
        )
        if len(gamma) != last.value - state.endo_removal_ops:
            return None
        for proj in state.added_projs:
            if not (proj & gamma):
                return None
        self.stats.warm_certified += 1
        return ResilienceResult(len(gamma), gamma, method="warm-start")

    def _solve_exact_structure(
        self, ws: WitnessStructure, workers
    ) -> ResilienceResult:
        # Every component goes through the exact tier's per-component
        # routine, and the method names HiGHS when it ran for any of
        # them, so the assembled answer is the one a fresh solve names.
        # Memo entries record the fall-through with the facts.
        chosen: Set[DBTuple] = set(ws.tuples(ws.forced_ids))
        ran_ilp = False
        missing: List[Tuple[frozenset, object]] = []
        for comp in ws.components:
            content = self._component_content(ws, comp)
            payload = self._component_lookup(content, "exact", "auto")
            if payload is not None:
                facts, fell_through = payload
                chosen |= facts
                ran_ilp = ran_ilp or fell_through
            else:
                missing.append((content, comp))
        if missing:
            workers = self._effective_workers(workers)
            if workers > 1 and len(missing) > 1:
                solved = self._solve_components_pooled(missing, workers)
            else:
                solved = [_solve_component(comp) for _content, comp in missing]
            for (content, _comp), (ids, fell_through) in zip(missing, solved):
                facts = frozenset(ws.tuples(ids))
                self._component_store(
                    content, "exact", "auto", (facts, fell_through)
                )
                chosen |= facts
                ran_ilp = ran_ilp or fell_through
        return ResilienceResult(
            len(chosen), frozenset(chosen), method=_method_label(ran_ilp)
        )

    def _solve_components_pooled(self, missing, workers):
        """Farm uncached components to the repro.parallel pool."""
        from repro.parallel import (
            ComponentTask,
            build_shards,
            execute_shards,
            group_by_database,
        )

        tasks = [
            ComponentTask(i, comp.tuple_ids, comp.sets)
            for i, (_content, comp) in enumerate(missing)
        ]
        shards = build_shards(group_by_database(tasks), workers)
        outcomes, _telemetry = execute_shards(shards, workers)
        return [outcomes[i] for i in range(len(missing))]

    # -- bounded tiers -------------------------------------------------
    def _solve_approx(self, ws: WitnessStructure) -> BoundedResilienceResult:
        lower = len(ws.forced_ids)
        chosen: Set[DBTuple] = set(ws.tuples(ws.forced_ids))
        for comp in ws.components:
            content = self._component_content(ws, comp)
            payload = self._component_lookup(content, "approx", None)
            if payload is None:
                lb, ub_ids = _component_interval(comp)
                payload = (lb, frozenset(ws.tuples(ub_ids)))
                self._component_store(content, "approx", None, payload)
            lb, facts = payload
            lower += lb
            chosen |= facts
        return BoundedResilienceResult(
            lower, len(chosen), frozenset(chosen), method="lp+greedy"
        )

    def _solve_anytime_unlimited(
        self, ws: WitnessStructure
    ) -> BoundedResilienceResult:
        # With an unlimited budget every component's refinement runs to
        # completion, so per-component answers are independent of the
        # gap ordering the stock driver uses — cache-friendly, and
        # identical to resilience_anytime(budget=None) by construction.
        chosen: Set[DBTuple] = set(ws.tuples(ws.forced_ids))
        for comp in ws.components:
            content = self._component_content(ws, comp)
            payload = self._component_lookup(content, "anytime", None)
            if payload is None:
                lb, ub_ids = _component_interval(comp)
                if lb < len(ub_ids):
                    _lb, bnb_ids, completed = _budgeted_bnb(
                        comp.sets, ub_ids, _BudgetMeter(Budget())
                    )
                    if len(bnb_ids) < len(ub_ids):
                        ub_ids = bnb_ids
                payload = frozenset(ws.tuples(ub_ids))
                self._component_store(content, "anytime", None, payload)
            chosen |= payload
        value = len(chosen)
        return BoundedResilienceResult(
            value, value, frozenset(chosen), method="anytime"
        )

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def _structure(self, state: _QueryState) -> WitnessStructure:
        """The current reduced witness structure, rebuilt lazily.

        Enumeration is never repeated (the projection family is already
        maintained); the kernelization fixpoint runs only on raw
        components whose content is new, everything else comes from the
        reduction memo.
        """
        if state.ws is not None and state.ws_version == state.family_version:
            return state.ws
        t0 = time.perf_counter()
        projections = list(state.proj_count)
        # Keyed: a bare sort rebuilds both repr keys on every comparison.
        universe = tuple(
            sorted({t for p in projections for t in p}, key=DBTuple.sort_key)
        )
        index = {t: i for i, t in enumerate(universe)}
        raw = tuple(
            frozenset(index[t] for t in p) for p in projections
        )
        stats = ReductionStats(
            witnesses_raw=len(raw), tuples_raw=len(universe)
        )
        stats.witnesses_distinct = len(raw)
        reduced: List[FrozenSet[int]] = []
        forced: Set[int] = set()
        for comp in _decompose(raw):
            content = frozenset(
                frozenset(universe[i] for i in s) for s in comp.sets
            )
            cached = self._reduce_lookup(content)
            if cached is None:
                comp_stats = ReductionStats()
                sets_r, forced_r, dominated = _reduce(
                    list(comp.sets), comp_stats
                )
                cached = (
                    tuple(
                        frozenset(universe[i] for i in s) for s in sets_r
                    ),
                    frozenset(universe[i] for i in forced_r),
                    dominated,
                    comp_stats.rounds,
                )
                self._reduce_store(content, cached)
                self.stats.components_reduced += 1
            else:
                self.stats.components_reduce_reused += 1
            sets_facts, forced_facts, dominated, rounds = cached
            reduced.extend(
                frozenset(index[t] for t in s) for s in sets_facts
            )
            forced.update(index[t] for t in forced_facts)
            stats.dominated_tuples += dominated
            stats.rounds += rounds
        stats.forced_tuples = len(forced)
        # Incremental builds skip the global first-pass minimality count;
        # the final counts are set by WitnessStructure.__init__.
        stats.witnesses_minimal = len(reduced)
        stats.time_reduce = time.perf_counter() - t0
        ws = WitnessStructure(
            self._db,
            state.query,
            universe,
            raw,
            tuple(reduced),
            frozenset(forced),
            stats,
        )
        state.ws = ws
        state.ws_version = state.family_version
        self.stats.structures_rebuilt += 1
        return ws

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _effective_workers(self, workers) -> int:
        if workers is None:
            workers = self._workers
        if workers is None:
            workers = _default_workers()
        return max(1, int(workers))

    @staticmethod
    def _component_content(ws: WitnessStructure, comp) -> frozenset:
        return frozenset(
            frozenset(ws.universe[i] for i in s) for s in comp.sets
        )

    def _component_lookup(self, content, mode, backend):
        key = (content, mode, backend)
        payload = self._comp_memo.get(key)
        if payload is not None:
            self._comp_memo.move_to_end(key)
            self.stats.components_memo_hits += 1
            return payload
        if self._cache is not None:
            disk = self._cache.get(
                component_cache_key(content, mode=mode, backend=backend)
            )
            if disk is not None:
                self.stats.cache_hits += 1
                self._memo_put(self._comp_memo, key, disk)
                return disk
            self.stats.cache_misses += 1
        return None

    def _component_store(self, content, mode, backend, payload) -> None:
        self.stats.components_solved += 1
        self._memo_put(self._comp_memo, (content, mode, backend), payload)
        if self._cache is not None:
            self._cache.put(
                component_cache_key(content, mode=mode, backend=backend),
                payload,
            )

    def _reduce_lookup(self, content):
        payload = self._reduce_memo.get(content)
        if payload is not None:
            self._reduce_memo.move_to_end(content)
        return payload

    def _reduce_store(self, content, payload) -> None:
        self._memo_put(self._reduce_memo, content, payload)

    @staticmethod
    def _memo_put(memo: OrderedDict, key, payload) -> None:
        memo[key] = payload
        while len(memo) > _MEMO_MAX:
            memo.popitem(last=False)

    def __repr__(self) -> str:
        return (
            f"IncrementalSession(queries={len(self._queries)}, "
            f"n={len(self._db)}, updates={self.stats.updates}, "
            f"solves={self.stats.solves})"
        )
