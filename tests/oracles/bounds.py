"""Reference versions of the certified-bounds upper-bound code.

:mod:`repro.resilience.approx` runs its greedy, prune, swap search,
LP-rounding repair and LP-support greedy on a per-component incidence
index, and every output must be bit-identical to these straightforward
versions: the greedy rescans every count on each pick, and the prune
and the swap search rebuild their per-row cover counts from scratch on
every call.  ``_component_interval`` composes them the way the engine
does, so a test can monkeypatch it in and compare whole solves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple, TypeVar

from repro.resilience.approx import (
    _LP_SUPPORT_EPS,
    _ids_cost,
    _lp_component,
    _lp_floor,
    disjoint_witness_lower_bound,
)
from repro.witness import WitnessComponent

T = TypeVar("T")


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

    Counts are maintained incrementally (each set is retired exactly
    once), so the cost is one max-scan per pick plus the incidence size
    — not the quadratic rebuild a naive greedy pays.
    """
    set_list = list(sets)
    counts: Dict[T, int] = {}
    rows_of: Dict[T, List[int]] = {}
    for r, s in enumerate(set_list):
        for t in s:
            counts[t] = counts.get(t, 0) + 1
            rows_of.setdefault(t, []).append(r)
    alive = [True] * len(set_list)
    alive_count = len(set_list)
    chosen: Set[T] = set()
    while alive_count:
        if costs is None:
            top = max(counts.values())
            best = min(t for t, c in counts.items() if c == top)
        else:
            # Highest count/cost ratio wins; cross-multiplied integer
            # comparison keeps the order exact, ties go to the smallest
            # element (the deterministic tie-break the satellite fix
            # pins: cost-ratio first, then the element order).
            best = None
            best_c = 0
            best_w = 1
            for t, c in counts.items():
                if c <= 0:
                    continue
                w = costs[t]
                diff = c * best_w - best_c * w
                if best is None or diff > 0 or (diff == 0 and t < best):
                    best, best_c, best_w = t, c, w
        chosen.add(best)
        for r in rows_of[best]:
            if alive[r]:
                alive[r] = False
                alive_count -= 1
                for t in set_list[r]:
                    counts[t] -= 1
    return chosen


def _lp_rounding(component: WitnessComponent, x, costs=None) -> Set[int]:
    """Round an LP solution to a feasible hitting set (global tuple ids).

    Taking every tuple with weight ``>= 1/f`` (``f`` = largest witness
    size) is feasible — each witness has at most ``f`` tuples, so at
    least one carries weight ``>= 1/f`` — and costs at most ``f`` times
    the LP optimum (the argument is objective-agnostic, so it holds for
    the weighted LP too).  Redundant tuples are pruned afterwards.
    """
    f = max((len(s) for s in component.sets), default=1)
    threshold = 1.0 / f - 1e-9
    chosen = {
        component.tuple_ids[j] for j in range(len(component.tuple_ids))
        if x[j] >= threshold
    }
    # Guard against LP solver tolerance leaving a row unhit: repair with
    # the smallest tuple of each missed witness (deterministic, and the
    # theoretical guarantee is unaffected when the LP is clean).
    for s in component.sets:
        if not (s & chosen):
            chosen.add(min(s))
    return _prune_redundant(component.sets, chosen, costs=costs)


def _support_greedy(component: WitnessComponent, x, costs=None) -> Set[int]:
    """The greedy over the witnesses cut down to the LP support (the
    tuples of weight above ``_LP_SUPPORT_EPS``); a witness with no
    support tuple keeps all of its tuples."""
    support = {
        t for j, t in enumerate(component.tuple_ids) if x[j] > _LP_SUPPORT_EPS
    }
    restricted = [(s & support) or s for s in component.sets]
    return greedy_hitting_set(restricted, costs=costs)


def _prune_redundant(
    sets: Sequence[FrozenSet[int]], chosen: Set[int], costs=None
) -> Set[int]:
    """Drop tuples every one of whose witnesses is hit by another choice.

    Scans in descending tuple-id order (deterministic; keeps the small
    ids the greedy/branching orders prefer) maintaining per-witness hit
    counts, so the whole pass is linear in the incidence size.  With
    ``costs`` the scan visits expensive tuples first, so when two
    redundant tuples shadow each other the pricier one is dropped.
    """
    cover: List[int] = [len(s & chosen) for s in sets]
    rows_of: Dict[int, List[int]] = {}
    for r, s in enumerate(sets):
        for t in s:
            if t in chosen:
                rows_of.setdefault(t, []).append(r)
    kept = set(chosen)
    if costs is None:
        order = sorted(kept, reverse=True)
    else:
        order = sorted(kept, key=lambda t: (costs[t], t), reverse=True)
    for t in order:
        rows = rows_of.get(t, [])
        if all(cover[r] >= 2 for r in rows):
            kept.discard(t)
            for r in rows:
                cover[r] -= 1
    return kept


# Local-search effort caps: both are *count*-based, never clock-based,
# so results stay deterministic across machines.
_SWAP_PASSES = 4
_SWAP_PAIRS_PER_PASS = 4000


def _local_search(
    sets: Sequence[FrozenSet[int]], chosen: Set[int], costs=None
) -> Set[int]:
    """Improve a feasible hitting set by redundancy pruning and 2-for-1 swaps.

    A swap replaces two chosen tuples ``a < b`` with one unchosen tuple
    ``t`` that hits every witness only ``a`` or ``b`` were hitting
    (computed from per-tuple row lists and hit counts, so a pair check
    costs the two tuples' degrees, not a scan of all witnesses).
    Passes repeat until a fixpoint or the deterministic effort caps are
    reached; the output is always feasible and never costlier than the
    input.  With ``costs`` a swap is applied only when the replacement
    is strictly cheaper than the pair it evicts, so the cost objective
    (not the cardinality) monotonically improves.
    """
    chosen = _prune_redundant(sets, chosen, costs=costs)
    for _ in range(_SWAP_PASSES):
        improved = False
        cover = [len(s & chosen) for s in sets]
        rows_of: Dict[int, List[int]] = {}
        for r, s in enumerate(sets):
            for t in s:
                if t in chosen:
                    rows_of.setdefault(t, []).append(r)
        ordered = sorted(chosen)
        pairs = 0
        for i, a in enumerate(ordered):
            if improved:
                break
            rows_a = rows_of.get(a, [])
            for b in ordered[i + 1:]:
                pairs += 1
                if pairs > _SWAP_PAIRS_PER_PASS:
                    break
                rows_b = rows_of.get(b, [])
                # Witness rows left unhit if both a and b are removed:
                # singly-covered rows of either, plus doubly-covered
                # rows containing both.
                b_rows = set(rows_b)
                must_hit = (
                    [r for r in rows_a if cover[r] == 1]
                    + [r for r in rows_b if cover[r] == 1]
                    + [r for r in rows_a if r in b_rows and cover[r] == 2]
                )
                if not must_hit:
                    # a and b are jointly redundant — drop both.
                    chosen = _prune_redundant(sets, chosen - {a, b}, costs=costs)
                    improved = True
                    break
                candidates = set(sets[must_hit[0]]) - chosen
                for r in must_hit[1:]:
                    candidates &= sets[r]
                    if not candidates:
                        break
                if candidates:
                    if costs is None:
                        pick = min(candidates)
                    else:
                        pick = min(candidates, key=lambda t: (costs[t], t))
                        if costs[pick] >= costs[a] + costs[b]:
                            continue
                    chosen = _prune_redundant(
                        sets, (chosen - {a, b}) | {pick}, costs=costs
                    )
                    improved = True
                    break
            else:
                continue
        if not improved:
            break
    return chosen


def _component_interval(
    component: WitnessComponent, use_lp: bool = True, costs=None
) -> Tuple[int, Set[int]]:
    """Certified ``(lower_bound, upper_bound_set)`` for one component.

    With ``costs`` every bound is on the weighted objective: the packing
    bound sums cheapest-per-witness costs, the greedy maximizes the
    coverage/cost ratio, and the LP relaxation carries the cost vector.
    The upper bound is the cheapest of the greedy, the LP rounding and
    the LP-support greedy, each local-searched, earliest on ties.
    """
    lower = disjoint_witness_lower_bound(component.sets, costs=costs)
    upper = _local_search(
        component.sets,
        greedy_hitting_set(component.sets, costs=costs),
        costs=costs,
    )
    if use_lp and lower < _ids_cost(upper, costs):
        lp_value, x = _lp_component(component, costs=costs)
        if lp_value is not None:
            lower = max(lower, _lp_floor(lp_value))
            for start in (
                _lp_rounding(component, x, costs=costs),
                _support_greedy(component, x, costs=costs),
            ):
                candidate = _local_search(component.sets, start, costs=costs)
                if _ids_cost(candidate, costs) < _ids_cost(upper, costs):
                    upper = candidate
    return lower, upper
