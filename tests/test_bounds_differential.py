"""The indexed upper-bound code against its pre-rewrite oracle.

:mod:`repro.resilience.approx` computes its greedy, prune, swap search,
LP-rounding repair and LP-support greedy on one per-component incidence
index, with cover counts updated in place.  Every output must be
*bit-identical* to the straightforward versions kept in
:mod:`oracles.bounds`: the same chosen sets in unit and weighted modes,
under any effort caps, and the same intervals and contingency sets from
whole solves (under either LP method).
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import bounds as oracle
from oracles.engines import forced_engines
from repro.db.tuples import DBTuple
from repro.query.zoo import ALL_QUERIES
from repro.resilience import approx
from repro.resilience.approx import (
    _component_interval,
    _Incidence,
    _local_search,
    _lp_rounding,
    _support_greedy,
    greedy_hitting_set,
)
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import WitnessComponent, witness_structure
from repro.workloads import (
    hard_scaling_workload,
    large_random_database,
    weighted_hard_scaling_workload,
)


@contextmanager
def _caps(passes, pairs):
    """Set the swap-search effort caps of the engine and the oracle alike."""
    saved = [
        (module, name, getattr(module, name))
        for module in (approx, oracle)
        for name in ("_SWAP_PASSES", "_SWAP_PAIRS_PER_PASS")
    ]
    try:
        for module in (approx, oracle):
            module._SWAP_PASSES = passes
            module._SWAP_PAIRS_PER_PASS = pairs
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# Small universes and many sets, so rows overlap and swaps exist; ids are
# sparse so nothing depends on them being a dense range.
@st.composite
def set_systems(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=n, max_size=n, unique=True,
        )
    )
    return draw(
        st.lists(
            st.frozensets(st.sampled_from(ids), min_size=1, max_size=4),
            min_size=1, max_size=40,
        )
    )


@st.composite
def weighted_systems(draw):
    """A set system with unit (None) or skewed costs."""
    sets = draw(set_systems())
    if draw(st.booleans()):
        return sets, None
    universe = sorted(set().union(*sets))
    weights = st.sampled_from([1, 1, 1, 2, 3, 5, 8, 13, 40])
    return sets, {t: draw(weights) for t in universe}


def _starts(sets, costs, data):
    """Feasible starting sets: the greedy's, every element, and a random
    subset repaired to feasibility."""
    universe = sorted(set().union(*sets))
    chosen = data.draw(st.sets(st.sampled_from(universe)))
    for s in sets:
        if not (s & chosen):
            chosen.add(max(s))
    return [oracle.greedy_hitting_set(sets, costs), set(universe), chosen]


class TestGreedy:
    @given(weighted_systems())
    def test_matches_oracle(self, system):
        sets, costs = system
        assert greedy_hitting_set(sets, costs) == oracle.greedy_hitting_set(
            sets, costs
        )

    @given(weighted_systems())
    def test_matches_oracle_on_facts(self, system):
        # Raw fact sets order by DBTuple.sort_key (repr-based: R(10, ·)
        # sorts before R(2, ·)), not by the ids they were drawn from.
        sets, costs = system

        def fact(i):
            return DBTuple("RS"[i % 2], (i % 11, i))

        facts = [frozenset(fact(i) for i in s) for s in sets]
        fact_costs = (
            None if costs is None else {fact(i): c for i, c in costs.items()}
        )
        assert greedy_hitting_set(facts, fact_costs) == (
            oracle.greedy_hitting_set(facts, fact_costs)
        )


class TestLocalSearch:
    @given(weighted_systems(), st.data())
    def test_matches_oracle(self, system, data):
        sets, costs = system
        index = _Incidence(sets)
        for start in _starts(sets, costs, data):
            assert _local_search(index, start, costs) == (
                oracle._local_search(sets, start, costs)
            )

    @pytest.mark.parametrize(
        "passes,pairs", [(1, 1), (1, 6), (2, 3), (3, 25), (50, 10**6)]
    )
    @given(system=weighted_systems(), data=st.data())
    def test_matches_oracle_under_any_caps(self, passes, pairs, system, data):
        # The caps count pair positions in (a, b) order; the engine
        # examines only some pairs, so any miscount shows up here.
        sets, costs = system
        index = _Incidence(sets)
        with _caps(passes, pairs):
            for start in _starts(sets, costs, data):
                assert _local_search(index, start, costs) == (
                    oracle._local_search(sets, start, costs)
                )

    def test_rejected_weighted_swap_lets_the_scan_continue(self):
        # Pair (1, 2) can be replaced by 5, but 5 costs more than both:
        # the swap is rejected and the scan moves on to (3, 4) -> 6.
        sets = [
            frozenset({1, 5}), frozenset({2, 5}),
            frozenset({3, 6}), frozenset({4, 6}),
        ]
        costs = {1: 1, 2: 1, 3: 1, 4: 1, 5: 5, 6: 1}
        start = {1, 2, 3, 4}
        index = _Incidence(sets)
        assert oracle._local_search(sets, start, costs) == {1, 2, 6}
        assert _local_search(index, start, costs) == {1, 2, 6}
        # Unit costs take the first pair instead.
        assert oracle._local_search(sets, start) == {5, 6}
        assert _local_search(index, start) == {5, 6}

    def test_replacement_must_hit_rows_the_pair_covers_together(self):
        # 3 fits every row only 1 or only 2 covers, but not {1, 2}, which
        # both cover: removing the pair would leave it unhit, so no swap.
        sets = [frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2})]
        start = {1, 2}
        assert oracle._local_search(sets, start) == {1, 2}
        assert _local_search(_Incidence(sets), start) == {1, 2}

    def test_input_is_not_mutated(self):
        sets = [frozenset({1, 5}), frozenset({2, 5})]
        start = {1, 2}
        assert _local_search(_Incidence(sets), start) == {5}
        assert start == {1, 2}


def _largest_component(name, n_tuples, seed):
    query = ALL_QUERIES[name]
    db = large_random_database([query], n_tuples=n_tuples, seed=seed)
    return max(witness_structure(db, query).components, key=lambda c: len(c.sets))


class TestEffortCaps:
    """Deterministic instances on which the real caps decide the answer.

    Starting from every tuple of the component leaves a poor minimal
    set after the prune, so swaps remain for every pass.
    """

    def _check(self, component, lifted):
        sets = component.sets
        start = set(component.tuple_ids)
        capped = oracle._local_search(sets, start)
        with _caps(*lifted):
            uncapped = oracle._local_search(sets, start)
            assert _local_search(_Incidence(sets), start) == uncapped
        assert uncapped != capped, "the cap does not bind on this instance"
        assert _local_search(_Incidence(sets), start) == capped

    def test_four_pass_cap(self):
        component = _largest_component("q_3chain", 100, 0)
        self._check(component, (5, approx._SWAP_PAIRS_PER_PASS))

    def test_pair_cap(self):
        component = _largest_component("q_chain", 200, 1)
        self._check(component, (approx._SWAP_PASSES, 10**9))

    def test_pair_cap_from_the_greedy(self):
        component = _largest_component("q_chain", 300, 0)
        sets = component.sets
        greedy = oracle.greedy_hitting_set(sets)
        capped = oracle._local_search(sets, greedy)
        with _caps(approx._SWAP_PASSES, 10**9):
            assert oracle._local_search(sets, greedy) != capped
        index = _Incidence(sets)
        assert approx._greedy(index) == greedy
        assert _local_search(index, greedy) == capped


class TestRoundingAndInterval:
    @given(
        weighted_systems(),
        st.lists(st.sampled_from([0.0, 0.2, 0.25, 1 / 3, 0.5, 0.9, 1.0])),
    )
    def test_lp_rounding_repair_matches_oracle(self, system, weights):
        # Arbitrary weights (not LP optima) leave rows unhit, so the
        # repair and the prune after it both run.
        sets, costs = system
        universe = tuple(sorted(set().union(*sets)))
        component = WitnessComponent(universe, tuple(sets))
        x = np.array([
            weights[j % len(weights)] if weights else 0.0
            for j in range(len(universe))
        ])
        index = _Incidence(sets)
        assert _local_search(index, _lp_rounding(component, x, index), costs) == (
            oracle._local_search(sets, oracle._lp_rounding(component, x, costs), costs)
        )

    @given(
        weighted_systems(),
        st.lists(st.sampled_from([0.0, 1e-12, 0.2, 0.5, 1.0])),
    )
    def test_support_greedy_matches_oracle(self, system, weights):
        # Zero weights leave rows without a support tuple: those rows
        # keep all of their tuples.
        sets, costs = system
        universe = tuple(sorted(set().union(*sets)))
        component = WitnessComponent(universe, tuple(sets))
        x = np.array([
            weights[j % len(weights)] if weights else 0.0
            for j in range(len(universe))
        ])
        index = _Incidence(sets)
        greedy = greedy_hitting_set(sets, costs)
        start = _support_greedy(component, x, index, greedy, costs)
        expected = oracle._support_greedy(component, x, costs)
        # None: the greedy lies inside the support, and the cut greedy
        # would repeat it.
        assert (greedy if start is None else start) == expected
        assert all(s & expected for s in sets)

    def test_support_greedy_runs_when_the_greedy_leaves_the_support(self):
        # The greedy takes 1, which the LP leaves at zero: the cut greedy
        # runs on {2}, {3}, {4} and takes all three.
        sets = [frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})]
        component = WitnessComponent((1, 2, 3, 4), tuple(sets))
        x = np.array([0.0, 1.0, 1.0, 1.0])
        index = _Incidence(sets)
        greedy = greedy_hitting_set(sets)
        assert greedy == {1}
        assert _support_greedy(component, x, index, greedy) == {2, 3, 4}
        assert oracle._support_greedy(component, x) == {2, 3, 4}
        # Inside the support, the greedy's own set is not recomputed.
        assert _support_greedy(component, x, index, {2, 3, 4}) is None

    @given(weighted_systems())
    def test_component_interval_matches_oracle(self, system):
        sets, costs = system
        universe = tuple(sorted(set().union(*sets)))
        component = WitnessComponent(universe, tuple(sets))
        assert _component_interval(component, costs=costs) == (
            oracle._component_interval(component, costs=costs)
        )


def _solve_both(monkeypatch, pairs, **kwargs):
    ours = [solve(db, q, **kwargs) for db, q in pairs]
    with monkeypatch.context() as patched:
        patched.setattr(approx, "_component_interval", oracle._component_interval)
        theirs = [solve(db, q, **kwargs) for db, q in pairs]
    return ours, theirs


class TestWholeSolves:
    """Intervals *and* contingency sets equal the oracle's end to end."""

    @pytest.mark.parametrize("lp", [None, "ipm"])
    @pytest.mark.parametrize("mode", ["approx", "anytime"])
    def test_unit(self, monkeypatch, mode, lp):
        pairs = hard_scaling_workload(n_tuples=150, n_databases=1, seed=5)
        budget = Budget(node_limit=300) if mode == "anytime" else None
        with forced_engines(lp=lp):
            ours, theirs = _solve_both(
                monkeypatch, pairs, mode=mode, budget=budget
            )
        assert ours == theirs
        assert any(r.lower_bound < r.upper_bound for r in ours)

    @pytest.mark.parametrize("mode", ["approx", "anytime"])
    def test_weighted(self, monkeypatch, mode):
        pairs = weighted_hard_scaling_workload(
            n_tuples=120, n_databases=1, seed=5
        )
        budget = Budget(node_limit=300) if mode == "anytime" else None
        ours, theirs = _solve_both(
            monkeypatch, pairs, mode=mode, budget=budget, weighted=True
        )
        assert ours == theirs
