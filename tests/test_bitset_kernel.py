"""The bitset kernel against its frozenset reference oracles.

Every stage of the vectorized hitting-set kernel — superset
elimination, unit forcing, dominated-tuple elimination (the Section 2
kernelization), component decomposition, and the branch-and-bound
search shared by the exact and anytime tiers — must be *bit-identical*
to the reference implementation it replaced: same sets in the same
deterministic order, same forced ids, same statistics, same incumbents
and certified bounds under any node budget.
"""

import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from oracles.engines import forced_engines
from repro.query.zoo import ALL_QUERIES, q_chain
from repro.resilience import approx
from repro.resilience.approx import (
    _BudgetMeter,
    _budgeted_bnb,
    _budgeted_bnb_bitset,
    _budgeted_bnb_reference,
    greedy_hitting_set,
)
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import clear_witness_cache, structure
from repro.witness.structure import (
    ReductionStats,
    WitnessStructure,
    _decompose_matrix,
    _decompose_reference,
    _dominated_matrix,
    _dominated_tuples,
    _matrix_from_sets,
    _minimal_matrix,
    _minimal_sets,
    _reduce,
    _reduce_matrix,
    _reduce_reference,
    _sets_from_matrix,
)
from repro.workloads import (
    large_random_database,
    random_database_for_query,
    random_ssj_binary_cq,
)
from repro.workloads.random_db import assign_skewed_costs


# Random hitting-set instances: ids are drawn sparse on purpose so the
# matrix padding/compression logic sees gaps, not just dense ranges.
set_systems = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: _random_sets(seed)
)


def _random_sets(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    m = rng.randint(1, 80)
    ids = rng.sample(range(3 * n + 1), n)
    return [
        frozenset(rng.sample(ids, rng.randint(1, min(n, rng.randint(1, 6)))))
        for _ in range(m)
    ]


# Per-id costs of 1-3, so that cost ties occur, or ``None`` (unweighted).
cost_seeds = st.none() | st.integers(min_value=0, max_value=10**6)


def _random_costs(seed, sets):
    if seed is None:
        return None
    rng = random.Random(seed)
    return tuple(
        rng.randint(1, 3) for _ in range(max(t for s in sets for t in s) + 1)
    )


def _assert_fixpoints_equal(sets, costs=None):
    """``_reduce_matrix`` against ``_reduce_reference``: sets, order,
    forced ids, domination count, rounds and minimality count."""
    ref_stats = ReductionStats()
    ref_sets, ref_forced, ref_dom = _reduce_reference(
        list(sets), ref_stats, costs=costs
    )
    bit_stats = ReductionStats()
    mat, pad = _matrix_from_sets(sets)
    out, forced, dom = _reduce_matrix(mat, pad, bit_stats, costs=costs)
    assert _sets_from_matrix(out, pad) == ref_sets
    assert frozenset(forced) == ref_forced
    assert dom == ref_dom
    assert bit_stats.rounds == ref_stats.rounds
    assert bit_stats.witnesses_minimal == ref_stats.witnesses_minimal
    return ref_stats.rounds


class TestReductionStages:
    @given(set_systems)
    def test_minimal_matrix_matches_reference_order(self, sets):
        """Superset elimination: same kept sets in the same
        (len, sorted elements) output order."""
        reference = _minimal_sets(list(sets))
        mat, pad = _matrix_from_sets(sets)
        vectorized = _sets_from_matrix(_minimal_matrix(mat, pad)[0], pad)
        assert vectorized == reference

    @given(set_systems, cost_seeds)
    def test_dominated_matrix_matches_reference(self, sets, cost_seed):
        """Dominated-tuple elimination picks exactly the same tuples,
        unweighted and with tied costs (the vectorized test is order-free;
        the reference scan skips dominators it already marked)."""
        costs = _random_costs(cost_seed, sets)
        distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
        reference = _dominated_tuples(distinct, costs=costs)
        mat, pad = _matrix_from_sets(distinct)
        assert _dominated_matrix(mat, pad, costs=costs) == reference

    @given(set_systems, cost_seeds)
    def test_reduce_matrix_matches_reference_fixpoint(self, sets, cost_seed):
        """The full stages 1–3 fixpoint: sets, order, forced ids,
        domination count, and round/minimality statistics all equal,
        unweighted and with tied costs."""
        _assert_fixpoints_equal(sets, _random_costs(cost_seed, sets))

    @given(set_systems)
    def test_reduce_matrix_matches_reference_on_large_ids(self, sets):
        """Ids past a million overflow the int64 keys: superset
        elimination then sorts rows column by column and compresses its
        subset keys (width >= 4), or sorts by columns but still keys
        rows (width 3); width <= 2 keeps the one-key sort.  The fixpoint
        is the same on every path."""
        _assert_fixpoints_equal(
            [frozenset(t + 1_100_000 for t in s) for s in sets]
        )

    # The np_exact benchmark's queries at the top of their size ladder.
    CORPUS = (
        ("q_chain", 60),
        ("q_3chain", 35),
        ("q_C3cc", 200),
        ("q_AC3conf", 250),
        ("q_a_chain", 400),
    )

    def test_reduce_matrix_matches_reference_on_long_fixpoints(self):
        """Witness systems of real joins, unit and skewed costs.  Random
        set systems rarely need more than six rounds; this corpus holds
        fixpoints of at least eight, where later rounds revisit only
        what the round before changed."""
        rounds = []
        for name, n_tuples in self.CORPUS:
            query = ALL_QUERIES[name]
            for seed in range(3):
                db = large_random_database(
                    [query], n_tuples=n_tuples, rng=random.Random(seed)
                )
                for weighted in (False, True):
                    if weighted:
                        assign_skewed_costs(db, seed=seed)
                    ws = WitnessStructure.build(
                        db, query, reduce=False, weighted=weighted
                    )
                    rounds.append(
                        _assert_fixpoints_equal(list(ws.raw_sets), ws.costs)
                    )
        assert max(rounds) >= 8, rounds

    @given(set_systems)
    def test_reduce_dispatcher_matches_reference(self, sets):
        """The public ``_reduce`` (threshold dispatch included) is
        indistinguishable from the reference."""
        ref_stats = ReductionStats()
        reference = _reduce_reference(list(sets), ref_stats)
        got_stats = ReductionStats()
        got = _reduce(list(sets), got_stats)
        assert got == reference
        assert (got_stats.rounds, got_stats.witnesses_minimal) == (
            ref_stats.rounds,
            ref_stats.witnesses_minimal,
        )

    @given(set_systems)
    def test_decompose_matrix_matches_reference(self, sets):
        """Connected components: same members, same sets, same order."""
        assert _decompose_matrix(list(sets)) == _decompose_reference(sets)


class TestBudgetedBnB:
    @given(set_systems, st.integers(min_value=0, max_value=200))
    def test_bitset_search_matches_reference_under_budgets(
        self, sets, node_limit
    ):
        """Same incumbent set, certified lower bound, and completion
        flag for unlimited and node-budgeted searches (identical node
        accounting — the searches expand the same tree)."""
        seed = greedy_hitting_set(sets)
        universe = sorted({t for s in sets for t in s})
        for budget in (Budget(), Budget(node_limit=node_limit)):
            reference = _budgeted_bnb_reference(
                sets, set(seed), _BudgetMeter(budget)
            )
            bitset = _budgeted_bnb_bitset(
                sets, set(seed), _BudgetMeter(budget), universe
            )
            assert bitset == reference

    @given(set_systems)
    def test_dispatcher_matches_reference(self, sets):
        seed = greedy_hitting_set(sets)
        reference = _budgeted_bnb_reference(
            sets, set(seed), _BudgetMeter(Budget())
        )
        assert _budgeted_bnb(sets, set(seed), _BudgetMeter(Budget())) == reference


class TestEndToEnd:
    def _instance(self, seed):
        rng = random.Random(seed)
        query = random_ssj_binary_cq(rng=rng)
        database = random_database_for_query(
            query,
            domain_size=rng.randint(3, 6),
            density=rng.uniform(0.2, 0.6),
            rng=rng,
        )
        return database, query

    def test_structures_identical_across_kernel_backends(self):
        for seed in range(12):
            database, query = self._instance(seed)
            built = {}
            for kernel in ("reference", None):
                with forced_engines(kernel=kernel):
                    try:
                        built[kernel] = WitnessStructure.build(database, query)
                    except Exception as exc:
                        built[kernel] = type(exc)
            ref, bit = built["reference"], built[None]
            if isinstance(ref, type) or isinstance(bit, type):
                assert ref == bit
                continue
            assert bit.sets == ref.sets
            assert bit.forced_ids == ref.forced_ids
            assert bit.universe == ref.universe
            assert [(c.tuple_ids, c.sets) for c in bit.components] == [
                (c.tuple_ids, c.sets) for c in ref.components
            ]
            assert (
                bit.stats.rounds,
                bit.stats.witnesses_minimal,
                bit.stats.forced_tuples,
                bit.stats.dominated_tuples,
                bit.stats.components,
            ) == (
                ref.stats.rounds,
                ref.stats.witnesses_minimal,
                ref.stats.forced_tuples,
                ref.stats.dominated_tuples,
                ref.stats.components,
            )

    @pytest.mark.parametrize("mode", ["exact", "approx", "anytime"])
    def test_solver_answers_identical_across_kernel_backends(self, mode):
        """Values, contingency sets, intervals, and method names equal
        for both kernels in all three modes (budgeted anytime too)."""
        budget = Budget(node_limit=50) if mode == "anytime" else None
        for seed in range(10):
            database, query = self._instance(seed)
            answers = {}
            for kernel in ("reference", None):
                with forced_engines(kernel=kernel):
                    clear_witness_cache()
                    try:
                        result = solve(database, query, mode=mode, budget=budget)
                    except Exception as exc:
                        answers[kernel] = type(exc)
                        continue
                    if mode == "exact":
                        answers[kernel] = (
                            result.value,
                            result.contingency_set,
                            result.method,
                        )
                    else:
                        answers[kernel] = (
                            result.interval,
                            result.contingency_set,
                            result.method,
                        )
            clear_witness_cache()
            assert answers["reference"] == answers[None], seed

    def test_forced_reference_kernel_reaches_every_size_rule(self):
        """On an instance above all three thresholds the kernel's own
        rule runs the matrix reduction, the csgraph decomposition and
        the bitmask search; ``forced_engines(kernel="reference")`` runs
        none of them."""
        db = large_random_database([q_chain], n_tuples=200, rng=random.Random(0))
        paths = (
            (structure, "_reduce_matrix"),
            (structure, "_decompose_matrix"),
            (approx, "_budgeted_bnb_bitset"),
        )
        for kernel in (None, "reference"):
            with ExitStack() as stack:
                spies = [
                    stack.enter_context(
                        mock.patch.object(m, name, wraps=getattr(m, name))
                    )
                    for m, name in paths
                ]
                with forced_engines(kernel=kernel):
                    clear_witness_cache()
                    solve(db, q_chain, mode="anytime", budget=Budget(node_limit=50))
            clear_witness_cache()
            ran = [spy.call_count > 0 for spy in spies]
            assert ran == [kernel is None] * 3, kernel
