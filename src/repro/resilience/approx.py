"""Certified approximate and anytime resilience solving.

Exact resilience is NP-complete for most self-join queries
(Theorem 24 / Figure 5), so beyond a few hundred witnesses the exact
hitting-set solvers of :mod:`repro.resilience.exact` hit a wall.  This
module trades exactness for a *certified interval*
``lb <= rho(q, D) <= ub`` computed in polynomial time from the same
preprocessed :class:`~repro.witness.WitnessStructure` (the hitting-set
view of resilience from Section 2), component by component:

**Lower bounds** (never exceed the optimum):

* *LP relaxation* — ``min 1.x  s.t.  A x >= 1, 0 <= x <= 1`` over the
  component's CSR incidence matrix, solved by
  :func:`scipy.optimize.linprog` (HiGHS); ``ceil(LP - eps)`` is a valid
  integral lower bound because the LP relaxes the hitting-set IP.
* *Disjoint-witness packing* — a greedy matching of pairwise-disjoint
  witness sets; any hitting set spends one tuple per packed witness
  (weak LP duality: the packing is a feasible dual solution).

**Upper bounds** (witnessed by a feasible contingency set):

* *Greedy hitting set* (:func:`greedy_hitting_set`, promoted out of
  ``exact.py`` and shared with the branch-and-bound seeding there) —
  the classic set-cover greedy with the ``H(d)`` harmonic-ratio
  guarantee, where ``d`` is the largest number of witnesses any single
  tuple hits;
* *LP rounding* — take every tuple with LP weight ``>= 1/f`` (``f`` =
  the largest witness-set size), a feasible ``f``-approximation, then
  prune redundant tuples;
* *Local search* — redundancy elimination plus 2-for-1 swap moves on
  the incumbent.

The **anytime driver** (:func:`resilience_anytime`) starts from that
interval and, within a :class:`~repro.resilience.types.Budget` of
wall-clock time and/or branch-and-bound nodes, refines the open
components — smallest gap first, so a tight budget closes as many
intervals as possible — using a *budgeted* branch and bound whose
abandoned-subtree bounds still certify a lower bound.  With an
unlimited budget the refinement runs to completion and the interval
closes on the exact value — anytime solving subsumes exact solving.

All bounds are per-component and summed (plus the forced tuples), which
both tightens them and lets the budget focus on the hard components.

**Weighted instances.**  Every primitive accepts an optional ``costs``
map (tuple id -> positive int) and then optimizes the *weighted*
hitting-set objective ``min sum cost(t)``: the greedy picks by
witnesses-hit-per-cost ratio (Chvátal's weighted set-cover greedy, same
``H(d)`` guarantee), the packing bound charges each packed witness its
cheapest member, the LP/ILP objective vector carries the costs, local
search swaps only when they lower total cost, and the budgeted branch
and bound bounds by cost sums.  ``costs=None`` is exactly the
historical unit-cost behavior — the weighted generalizations all
degenerate to it when every cost is 1.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from heapq import heapify, heappop, heapreplace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.db.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import DatabaseIndex
from repro.resilience.types import BoundedResilienceResult, Budget
from repro.witness import WitnessComponent, WitnessStructure, witness_structure

T = TypeVar("T")

# Safety margin when turning a floating-point LP optimum into an
# integral lower bound: ceil(LP - eps) can only *under*-claim.  The
# margin is *relative* to the objective (see _lp_floor) because solver
# tolerances scale with the objective value — an absolute 1e-6 would
# not cover an overshoot on an optimum of order 1000.
_LP_EPS = 1e-6


def _lp_floor(lp_value: float) -> int:
    """A certified integral lower bound from a floating-point LP optimum."""
    return math.ceil(lp_value - _LP_EPS * max(1.0, abs(lp_value)))


def _ids_cost(ids, costs) -> int:
    """The cost of a set of ids: its size unweighted, the cost sum weighted."""
    if costs is None:
        return len(ids)
    return sum(costs[t] for t in ids)


# ---------------------------------------------------------------------------
# Shared combinatorial bounds (consumed by exact.py as well)
# ---------------------------------------------------------------------------

class _Incidence:
    """The rows each element of a set system lies in, built once.

    One index serves every upper-bound step of a component: the greedy,
    the LP-rounding repair, the prune and the swap search.  Each step
    keeps its own per-row cover counts (how many chosen elements lie in
    each row) and updates them in place as elements enter and leave,
    instead of re-intersecting every row with the chosen set.
    """

    __slots__ = ("sets", "rows_of")

    def __init__(self, sets: Sequence[FrozenSet[T]]):
        self.sets = list(sets)
        rows_of: Dict[T, List[int]] = {}
        for r, s in enumerate(self.sets):
            for t in s:
                rows = rows_of.get(t)
                if rows is None:
                    rows_of[t] = [r]
                else:
                    rows.append(r)
        self.rows_of = rows_of

    def cover(self, chosen) -> List[int]:
        """The number of ``chosen`` elements in each row."""
        cover = [0] * len(self.sets)
        rows_of = self.rows_of
        for t in chosen:
            for r in rows_of.get(t, ()):
                cover[r] += 1
        return cover


def greedy_hitting_set(
    sets: Sequence[FrozenSet[T]], costs=None
) -> Set[T]:
    """Greedy upper bound: repeatedly take the element hitting most sets.

    This is the set-cover greedy in hitting-set form (tuples cover the
    witnesses they appear in), so the classic harmonic guarantee
    applies: the result is at most ``H(d) = 1 + 1/2 + ... + 1/d`` times
    the optimum, where ``d`` is the largest number of sets any single
    element hits.

    With ``costs`` the pick maximizes the *ratio* — witnesses hit per
    unit cost — which is Chvátal's weighted set-cover greedy; the same
    ``H(d)`` guarantee holds for the weighted optimum.  Ratios are
    compared by integer cross-multiplication (no floats), so the pick
    order is exact; with all costs at 1 the ratio order *is* the count
    order and the weighted pick coincides with the unweighted one.

    Determinism guarantee: among elements of equal count (unweighted)
    or equal ratio (weighted), the *smallest* under the elements' own
    total order wins — integer tuple-ids ascending, or
    :meth:`DBTuple.sort_key` when called on raw fact sets — the same
    order used for branching and for sorted contingency-set output.
    The result is therefore a pure function of the input sets (and
    costs), independent of set/dict iteration order.

    Picks come off a lazy max-heap: counts only fall, so an entry whose
    count is out of date is re-pushed with the current one when it
    surfaces.  Each set is retired exactly once, so a run costs
    ``O(I log n)`` for incidence size ``I`` over ``n`` elements.
    """
    return _greedy(_Incidence(sets), costs)


class _Ratio:
    """A weighted greedy heap entry: ``count/cost`` descending, then the
    element ascending, compared by integer cross-multiplication."""

    __slots__ = ("count", "cost", "element")

    def __init__(self, count: int, cost: int, element):
        self.count = count
        self.cost = cost
        self.element = element

    def __lt__(self, other: "_Ratio") -> bool:
        diff = self.count * other.cost - other.count * self.cost
        return diff > 0 or (diff == 0 and self.element < other.element)


def _greedy(index: _Incidence, costs=None) -> Set[T]:
    """:func:`greedy_hitting_set` over a prebuilt index."""
    sets = index.sets
    rows_of = index.rows_of
    counts = {t: len(rows) for t, rows in rows_of.items()}
    # Every element has exactly one heap entry, ordered by its count
    # (or ratio) and then by the element itself.
    if costs is None:
        def entry(t, c):
            return (-c, t)

        def unpack(e):
            return e[1], -e[0]
    else:
        def entry(t, c):
            return _Ratio(c, costs[t], t)

        def unpack(e):
            return e.element, e.count
    heap = [entry(t, c) for t, c in counts.items()]
    heapify(heap)
    alive = [True] * len(sets)
    alive_count = len(sets)
    chosen: Set[T] = set()
    while alive_count:
        best, c = unpack(heap[0])
        now = counts[best]
        if now != c:
            if now:
                heapreplace(heap, entry(best, now))
            else:
                heappop(heap)
            continue
        heappop(heap)
        chosen.add(best)
        for r in rows_of[best]:
            if alive[r]:
                alive[r] = False
                alive_count -= 1
                for t in sets[r]:
                    counts[t] -= 1
    return chosen


def disjoint_witness_lower_bound(
    sets: Sequence[FrozenSet[T]], costs=None
) -> int:
    """Greedy packing of pairwise-disjoint witnesses: a hitting-set lower bound.

    Every hitting set must spend a distinct tuple on each packed
    witness; with ``costs`` that tuple costs at least the witness's
    cheapest member, so the packed minima sum to a *weighted* lower
    bound (and each unweighted minimum is 1, recovering the count).
    ``key=len`` with Python's stable sort keeps the packing
    deterministic (the input order is itself deterministic) without
    materializing per-set sort keys.  Also runs at every
    branch-and-bound node in ``exact.py``.
    """
    used: Set[T] = set()
    total = 0
    for s in sorted(sets, key=len):
        if not (s & used):
            used.update(s)
            total += 1 if costs is None else min(costs[t] for t in s)
    return total


def greedy_ratio_bound(sets: Sequence[FrozenSet[T]]) -> float:
    """``H(d)``: the proven approximation ratio of :func:`greedy_hitting_set`
    on ``sets``, where ``d`` is the largest number of sets hit by one
    element."""
    counts: Dict[T, int] = {}
    for s in sets:
        for t in s:
            counts[t] = counts.get(t, 0) + 1
    d = max(counts.values(), default=0)
    return sum(1.0 / k for k in range(1, d + 1)) if d else 1.0


# ---------------------------------------------------------------------------
# LP relaxation (lower bound + rounding)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _linprog():
    """scipy's ``linprog``, imported once on first use (not per call,
    not at module import)."""
    from scipy.optimize import linprog

    return linprog


def _lp_component(component: WitnessComponent, costs=None):
    """Solve the LP relaxation of one component's hitting-set IP.

    With ``costs`` the objective vector carries the per-tuple costs, so
    the optimum lower-bounds the *weighted* hitting-set IP.  Returns
    ``(optimum, x)`` with ``x`` indexed by local column (the sorted
    position within ``component.tuple_ids``), or ``(None, None)`` if
    the LP solver fails (the caller falls back to the packing bound).
    """
    linprog = _linprog()

    A = component.incidence_matrix()
    m, n = A.shape
    if costs is None:
        c = np.ones(n)
    else:
        c = np.array([costs[t] for t in component.tuple_ids], dtype=float)
    result = linprog(
        c=c,
        A_ub=-A,
        b_ub=-np.ones(m),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable here
        return None, None
    return float(result.fun), result.x


def _lp_rounding(
    component: WitnessComponent, x, index: _Incidence
) -> Set[int]:
    """Round an LP solution to a feasible hitting set (global tuple ids).

    Taking every tuple with weight ``>= 1/f`` (``f`` = largest witness
    size) is feasible — each witness has at most ``f`` tuples, so at
    least one carries weight ``>= 1/f`` — and costs at most ``f`` times
    the LP optimum (the argument is objective-agnostic, so it holds for
    the weighted LP too).  The caller prunes redundant tuples (the local
    search starts with a prune).
    """
    f = max((len(s) for s in component.sets), default=1)
    threshold = 1.0 / f - 1e-9
    tuple_ids = component.tuple_ids
    chosen = {tuple_ids[j] for j in np.flatnonzero(x >= threshold).tolist()}
    # Guard against LP solver tolerance leaving a row unhit: repair with
    # the smallest tuple of each missed witness, in row order
    # (deterministic, and the theoretical guarantee is unaffected when
    # the LP is clean).
    cover = index.cover(chosen)
    rows_of = index.rows_of
    for r, s in enumerate(index.sets):
        if not cover[r]:
            t = min(s)
            chosen.add(t)
            for q in rows_of[t]:
                cover[q] += 1
    return chosen


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def _prune(
    index: _Incidence, chosen: Set[int], cover: List[int], suspects, costs
) -> None:
    """Drop from ``chosen`` (in place) the ``suspects`` every one of whose
    rows another choice also hits, updating ``cover`` as they go.

    Suspects are visited in descending tuple-id order (deterministic;
    keeps the small ids the greedy/branching orders prefer).  With
    ``costs`` the scan visits expensive tuples first, so when two
    redundant tuples shadow each other the pricier one is dropped.

    A kept tuple is left with a row only it covers, and that row stays
    so while the chosen set changes elsewhere: the local search relies
    on this to re-check only the tuples a swap can have made redundant.
    """
    if costs is None:
        order = sorted(suspects, reverse=True)
    else:
        order = sorted(suspects, key=lambda t: (costs[t], t), reverse=True)
    rows_of = index.rows_of
    for t in order:
        rows = rows_of.get(t, ())
        for r in rows:
            if cover[r] < 2:
                break
        else:
            chosen.discard(t)
            for r in rows:
                cover[r] -= 1


# Local-search effort caps: both are *count*-based, never clock-based,
# so results stay deterministic across machines.  A pass examines the
# pairs ``a < b`` of the chosen set in lexicographic order and stops at
# the first improving one, or after this many pairs.
_SWAP_PASSES = 4
_SWAP_PAIRS_PER_PASS = 4000


def _local_search(
    index: _Incidence, chosen: Set[int], costs=None
) -> Set[int]:
    """Improve a hitting set by redundancy pruning and 2-for-1 swaps.

    A swap replaces two chosen tuples ``a < b`` with one unchosen tuple
    ``t`` that hits every witness only ``a`` or ``b`` were hitting.
    After a prune every chosen tuple has a row only it covers, so ``t``
    must lie in every such row of ``a`` and of ``b``: each pass first
    collects, per chosen tuple, the unchosen tuples that fit all its
    private rows, and examines only the pairs whose two collections
    meet.  No other pair can yield a swap.  Passes repeat until a
    fixpoint or the deterministic effort caps are reached, counted by
    pair position, so the swap found is the first improving pair in
    ``(a, b)`` order.  With ``costs`` a swap is applied only when the
    replacement is strictly cheaper than the pair it evicts, so the
    cost objective (not the cardinality) monotonically improves.

    After a swap only tuples sharing a row with ``t`` can have become
    redundant, so only they are re-checked.  A pass costs the chosen
    tuples' degrees plus the examined pairs' degrees.  The output is
    never costlier than the input, and feasible when the input is.
    """
    sets = index.sets
    rows_of = index.rows_of
    chosen = set(chosen)
    cover = index.cover(chosen)
    _prune(index, chosen, cover, list(chosen), costs)
    for _ in range(_SWAP_PASSES):
        swap = _find_swap(index, chosen, cover, costs)
        if swap is None:
            break
        a, b, pick = swap
        for t in (a, b):
            chosen.discard(t)
            for r in rows_of[t]:
                cover[r] -= 1
        chosen.add(pick)
        suspects = set()
        for r in rows_of[pick]:
            cover[r] += 1
            suspects.update(sets[r])
        suspects &= chosen
        suspects.discard(pick)
        _prune(index, chosen, cover, suspects, costs)
    return chosen


def _find_swap(
    index: _Incidence, chosen: Set[int], cover: List[int], costs
) -> Optional[Tuple[int, int, int]]:
    """The first improving 2-for-1 swap ``(a, b, t)`` of one pass, or None.

    Requires every chosen tuple to have a row only it covers (the state
    a prune leaves).  The tuples ``t`` can replace ``a`` and ``b`` are
    those in every row only ``a`` or only ``b`` covers, and in every
    row that both cover alone.
    """
    sets = index.sets
    rows_of = index.rows_of
    ordered = sorted(chosen)
    position = {t: i for i, t in enumerate(ordered)}
    fits: Dict[int, Set[int]] = {}

    def fit(a: int) -> Set[int]:
        # The unchosen tuples in every row only ``a`` covers.
        found = fits.get(a)
        if found is None:
            for r in rows_of[a]:
                if cover[r] == 1:
                    if found is None:
                        found = set(sets[r])
                    else:
                        found &= sets[r]
            found.discard(a)
            fits[a] = found
        return found

    before = 0  # pairs ahead of (a, ·) in the pass order
    n = len(ordered)
    for i, a in enumerate(ordered):
        room = _SWAP_PAIRS_PER_PASS - before
        if room <= 0:
            break
        before += n - 1 - i
        fit_a = fit(a)
        if not fit_a:
            continue
        # A partner b shares a fitting tuple t, so t lies in a row only
        # b covers: the owners of t's singly-covered rows are the only
        # partners, kept within the pair cap.
        last = i + room
        partners = set()
        for t in fit_a:
            for r in rows_of[t]:
                if cover[r] == 1:
                    for b in sets[r]:
                        if b in chosen:
                            j = position[b]
                            if i < j <= last:
                                partners.add(j)
                            break
        for j in sorted(partners):
            b = ordered[j]
            candidates = fit_a & fit(b)
            for r in rows_of[a]:
                if not candidates:
                    break
                if cover[r] == 2 and b in sets[r]:
                    candidates &= sets[r]
            if not candidates:
                continue
            if costs is None:
                return a, b, min(candidates)
            pick = min(candidates, key=lambda t: (costs[t], t))
            if costs[pick] < costs[a] + costs[b]:
                return a, b, pick
    return None


# ---------------------------------------------------------------------------
# Budgeted branch and bound (the anytime refinement)
# ---------------------------------------------------------------------------

class _BudgetMeter:
    """Shared node/time accounting across all components of one solve."""

    def __init__(self, budget: Budget):
        self.deadline = (
            time.perf_counter() + budget.time_limit
            if budget.time_limit is not None
            else None
        )
        self.nodes_left = (
            budget.node_limit if budget.node_limit is not None else None
        )

    def spend_node(self) -> bool:
        """Charge one branch-and-bound node; False when exhausted."""
        if self.nodes_left is not None:
            if self.nodes_left <= 0:
                return False
            self.nodes_left -= 1
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return False
        return True


# Above this many distinct tuples per component the bitmask search
# falls back to the frozenset reference (masks would span many machine
# words while witness sets stay tiny).  Both paths explore identically.
_BNB_BITSET_MAX_TUPLES = 4096

# Below this many witness sets the search is trivial and the per-call
# mask conversion costs more than it saves; the dispatch is
# output-invisible (both paths return identical results).
_BNB_BITSET_MIN_SETS = 12


def _budgeted_bnb(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
    costs=None,
) -> Tuple[int, Set[int], bool]:
    """Branch and bound that certifies a lower bound even when cut short.

    Explores exactly like ``exact._bnb_component`` (smallest unhit
    witness, sorted branching, disjoint-packing pruning) but charges
    every expanded node to ``meter``.  When the budget runs out, the
    bound of each abandoned subtree is recorded: the true optimum is
    either the incumbent or lies in an abandoned subtree, so
    ``min(incumbent, min abandoned bound)`` is a certified lower bound.

    Returns ``(lower_bound, incumbent_set, completed)``; when
    ``completed`` is True the incumbent is exactly optimal.

    The search runs on Python-int bitmasks over the component's tuple
    universe (AND/OR/popcount per node) unless ``REPRO_KERNEL_BACKEND``
    selects the frozenset reference; exploration order, node
    accounting, incumbents, and bounds are identical either way.

    With ``costs`` the objective is the cost sum and the search runs a
    dedicated weighted reference (a bitmask variant would buy nothing:
    the bound and branch arithmetic is cost lookups either way, and the
    unit-cost case never reaches here — it delegates to the unweighted
    path upstream).
    """
    if costs is not None:
        return _budgeted_bnb_weighted(sets, seed, meter, costs)

    from repro.witness.structure import _kernel_backend

    if len(sets) >= _BNB_BITSET_MIN_SETS and _kernel_backend() == "bitset":
        universe = sorted({t for s in sets for t in s})
        if len(universe) <= _BNB_BITSET_MAX_TUPLES:
            return _budgeted_bnb_bitset(sets, seed, meter, universe)
    return _budgeted_bnb_reference(sets, seed, meter)


def _budgeted_bnb_weighted(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
    costs,
) -> Tuple[int, Set[int], bool]:
    """The weighted-objective search: same shape as the reference, with
    cost sums in place of cardinalities for incumbents and bounds."""
    best: List = [_ids_cost(seed, costs), set(seed)]
    abandoned: List[int] = [best[0] + 1]  # sentinel above any real bound

    def search(
        remaining: List[FrozenSet[int]], chosen: Set[int], chosen_cost: int
    ) -> None:
        if not remaining:
            if chosen_cost < best[0]:
                best[0] = chosen_cost
                best[1] = set(chosen)
            return
        bound = chosen_cost + disjoint_witness_lower_bound(
            remaining, costs=costs
        )
        if bound >= best[0]:
            return
        if not meter.spend_node():
            abandoned[0] = min(abandoned[0], bound)
            return
        target = min(remaining, key=len)
        for t in sorted(target):
            chosen.add(t)
            search(
                [s for s in remaining if t not in s],
                chosen,
                chosen_cost + costs[t],
            )
            chosen.remove(t)

    search(list(sets), set(), 0)
    completed = abandoned[0] > best[0]
    lower = best[0] if completed else min(best[0], abandoned[0])
    return lower, best[1], completed


def _budgeted_bnb_reference(
    sets: Sequence[FrozenSet[int]], seed: Set[int], meter: _BudgetMeter
) -> Tuple[int, Set[int], bool]:
    """The frozenset search (the oracle the bitmask path must match)."""
    best: List = [len(seed), set(seed)]
    abandoned: List[int] = [len(seed) + 1]  # sentinel above any real bound

    def search(remaining: List[FrozenSet[int]], chosen: Set[int]) -> None:
        if not remaining:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = set(chosen)
            return
        bound = len(chosen) + disjoint_witness_lower_bound(remaining)
        if bound >= best[0]:
            return
        if not meter.spend_node():
            abandoned[0] = min(abandoned[0], bound)
            return
        target = min(remaining, key=len)
        for t in sorted(target):
            chosen.add(t)
            search([s for s in remaining if t not in s], chosen)
            chosen.remove(t)

    search(list(sets), set())
    completed = abandoned[0] > best[0]
    lower = best[0] if completed else min(best[0], abandoned[0])
    return lower, best[1], completed


def _budgeted_bnb_bitset(
    sets: Sequence[FrozenSet[int]],
    seed: Set[int],
    meter: _BudgetMeter,
    universe: List[int],
) -> Tuple[int, Set[int], bool]:
    """The bitmask mirror of :func:`_budgeted_bnb_reference`.

    Tuple ids are remapped to dense local bits (ascending, so every
    ordering tie-break coincides with the reference), witness sets
    become int masks, and each node's work — filtering hit witnesses,
    the disjoint-packing bound, branching on the smallest unhit witness
    — reduces to AND/OR/popcount.
    """
    local = {t: i for i, t in enumerate(universe)}
    popcount = int.bit_count
    # Holding the witness list sorted by (popcount, input position) —
    # an invariant filtering preserves, since masks never shrink —
    # makes the reference's two order-sensitive steps free: its packing
    # bound iterates exactly this order (stable sort by size), and its
    # branch target (first smallest witness in input order) is simply
    # the head of the list.
    masks = sorted(
        (_mask_from_ids(local[t] for t in s) for s in sets), key=popcount
    )
    best_count = [len(seed)]
    best_set: List[Set[int]] = [set(seed)]
    abandoned = [len(seed) + 1]  # sentinel above any real bound

    def packing_bound(remaining: List[int]) -> int:
        used = 0
        count = 0
        for mask in remaining:
            if not (mask & used):
                used |= mask
                count += 1
        return count

    def search(
        remaining: List[int], packing: int, chosen: int, n_chosen: int
    ) -> None:
        # ``packing`` is packing_bound(remaining), computed by the
        # parent in the same pass that filtered the list.
        if not remaining:
            if n_chosen < best_count[0]:
                best_count[0] = n_chosen
                best_set[0] = {universe[i] for i in _iter_bits(chosen)}
            return
        bound = n_chosen + packing
        if bound >= best_count[0]:
            return
        if not meter.spend_node():
            abandoned[0] = min(abandoned[0], bound)
            return
        target = remaining[0]
        for i in _iter_bits(target):
            # A child node prunes (before spending a node or touching
            # the incumbent/abandoned state) as soon as its packing
            # bound reaches best - (n_chosen + 1); the partial packing
            # count only grows, so the moment it crosses the threshold
            # the recursion can be skipped without building the rest of
            # the child — outcomes and node accounting are unchanged.
            threshold = best_count[0] - n_chosen - 1
            if threshold <= 0:
                break
            bit = 1 << i
            child: List[int] = []
            append = child.append
            used = 0
            count = 0
            for mask in remaining:
                if mask & bit:
                    continue
                append(mask)
                if not (mask & used):
                    used |= mask
                    count += 1
                    if count >= threshold:
                        break
            else:
                search(child, count, chosen | bit, n_chosen + 1)

    search(masks, packing_bound(masks), 0, 0)
    completed = abandoned[0] > best_count[0]
    lower = best_count[0] if completed else min(best_count[0], abandoned[0])
    return lower, best_set[0], completed


def _mask_from_ids(ids) -> int:
    """OR together ``1 << i`` for every local id."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _iter_bits(mask: int):
    """The set bits of ``mask``, ascending (= sorted local ids)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Per-component interval assembly
# ---------------------------------------------------------------------------

def _component_interval(
    component: WitnessComponent, costs=None
) -> Tuple[int, Set[int]]:
    """Certified ``(lower_bound, upper_bound_set)`` for one component.

    With ``costs`` every bound is on the weighted objective: the packing
    bound sums cheapest-per-witness costs, the greedy maximizes the
    coverage/cost ratio, and the LP relaxation carries the cost vector.
    """
    lower = disjoint_witness_lower_bound(component.sets, costs=costs)
    index = _Incidence(component.sets)
    upper = _local_search(index, _greedy(index, costs), costs=costs)
    if lower < _ids_cost(upper, costs):
        lp_value, x = _lp_component(component, costs=costs)
        if lp_value is not None:
            lower = max(lower, _lp_floor(lp_value))
            rounded = _local_search(
                index, _lp_rounding(component, x, index), costs=costs
            )
            if _ids_cost(rounded, costs) < _ids_cost(upper, costs):
                upper = rounded
    return lower, upper


def resilience_bounds(
    database: Database,
    query: ConjunctiveQuery,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    weighted: bool = False,
) -> BoundedResilienceResult:
    """Certified interval ``lb <= rho(q, D) <= ub`` in polynomial time.

    Runs the LP relaxation, greedy, LP rounding, and local search per
    component of the preprocessed witness structure and sums the
    per-component intervals (plus the forced tuples).  No search is
    performed — see :func:`resilience_anytime` for budgeted refinement.
    With ``weighted=True`` every bound certifies the weighted optimum
    (cost sums replace cardinalities throughout).
    """
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    if not structure.satisfied:
        return BoundedResilienceResult(0, 0, frozenset(), method="unsatisfied")
    costs = structure.costs if weighted else None
    lower = _ids_cost(structure.forced_ids, costs)
    chosen: Set[int] = set(structure.forced_ids)
    upper = lower
    for component in structure.components:
        lb_c, ub_set = _component_interval(component, costs=costs)
        lower += lb_c
        upper += _ids_cost(ub_set, costs)
        chosen |= ub_set
    return BoundedResilienceResult(
        lower, upper, structure.tuples(chosen), method="lp+greedy"
    )


def resilience_anytime(
    database: Database,
    query: ConjunctiveQuery,
    budget: Optional[Budget] = None,
    structure: Optional[WitnessStructure] = None,
    index: Optional[DatabaseIndex] = None,
    on_interval: Optional[Callable[[int, int], None]] = None,
    weighted: bool = False,
) -> BoundedResilienceResult:
    """Anytime resilience: certified interval, refined within a budget.

    Starts from the polynomial bounds of :func:`resilience_bounds`,
    then spends the :class:`~repro.resilience.types.Budget` on a
    budgeted branch and bound over the components whose interval has
    not closed, hardest (largest gap) last so easy components close
    first.  Abandoned subtrees still certify a lower bound, so the
    returned interval is valid whatever the budget.  With an unlimited
    budget (the default) the search completes and the result is exact —
    equal to :func:`repro.resilience.exact.resilience_exact`.

    ``on_interval`` streams progress: it is called with the *global*
    certified interval ``(lb, ub)`` once after the polynomial bounds
    and again whenever refinement tightens it — each published interval
    is itself certified, ``lb`` never decreases, ``ub`` never
    increases, and the final call matches the returned result (the
    serving tier's streaming responses are exactly this sequence).  The
    callback must not raise; it observes the solve, never steers it.
    """
    budget = Budget.coerce(budget)
    if structure is None:
        structure = witness_structure(
            database, query, index=index, weighted=weighted
        )
    if not structure.satisfied:
        if on_interval is not None:
            on_interval(0, 0)
        return BoundedResilienceResult(0, 0, frozenset(), method="unsatisfied")

    costs = structure.costs if weighted else None
    meter = _BudgetMeter(budget)
    intervals: List[Tuple[int, Set[int]]] = []
    for component in structure.components:
        intervals.append(_component_interval(component, costs=costs))

    forced = _ids_cost(structure.forced_ids, costs)

    def _global_interval() -> Tuple[int, int]:
        # Components partition the tuple universe (and exclude forced
        # tuples), so the global interval is a plain sum.
        lo = forced + sum(lb_c for lb_c, _ in intervals)
        hi = forced + sum(_ids_cost(ub_set, costs) for _, ub_set in intervals)
        return lo, hi

    last_published: Optional[Tuple[int, int]] = None

    def _publish() -> None:
        nonlocal last_published
        if on_interval is None:
            return
        current = _global_interval()
        if current != last_published:
            last_published = current
            on_interval(*current)

    _publish()

    # Refine smallest-gap components first: their searches finish
    # fastest, so a tight budget closes as many intervals as possible.
    order = sorted(
        range(len(intervals)),
        key=lambda i: (_ids_cost(intervals[i][1], costs) - intervals[i][0], i),
    )
    for i in order:
        lb_c, ub_set = intervals[i]
        if lb_c >= _ids_cost(ub_set, costs):
            continue
        component = structure.components[i]
        bnb_lb, bnb_set, completed = _budgeted_bnb(
            component.sets, ub_set, meter, costs=costs
        )
        if _ids_cost(bnb_set, costs) < _ids_cost(ub_set, costs):
            ub_set = bnb_set
        lb_c = _ids_cost(ub_set, costs) if completed else max(lb_c, bnb_lb)
        intervals[i] = (lb_c, ub_set)
        _publish()

    lower = forced
    upper = forced
    chosen: Set[int] = set(structure.forced_ids)
    for lb_c, ub_set in intervals:
        lower += lb_c
        upper += _ids_cost(ub_set, costs)
        chosen |= ub_set
    return BoundedResilienceResult(
        lower, upper, structure.tuples(chosen), method="anytime"
    )
