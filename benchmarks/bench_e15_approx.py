"""E15 — the certified approximate/anytime tier vs exact solving.

Exact resilience is NP-complete for the self-join queries on the hard
side of the dichotomy (Theorem 24), and `bench_e13_scaling` shows where
exact search hits its cliff.  This suite validates the escape hatch
(:mod:`repro.resilience.approx`) on two regimes:

* **bounded cases** — instances exact branch and bound can still
  solve: the approximate interval must *contain* the exact value on
  every pair (certified correctness) while the aggregate wall-clock is
  at least 5x faster;
* **beyond-exact cases** — thousands-of-tuples instances from
  :func:`repro.workloads.hard_scaling_workload` where branch and bound
  does not return in any reasonable time: the approximate tier must
  still produce non-trivial certified intervals, and the anytime
  driver must narrow (never widen) them as its budget grows.
"""

import time

from repro.query.zoo import ALL_QUERIES
from repro.resilience import (
    Budget,
    resilience_anytime,
    resilience_bounds,
    resilience_branch_and_bound,
)
from repro.resilience.exact import is_contingency_set
from repro.witness import WitnessStructure
from repro.workloads import large_random_database

# The bounded regime: sparse q_ac_chain instances around the BnB cliff
# (a few hundred tuples per relation).  BnB still terminates here —
# taking from about ten milliseconds to about a second per pair — while
# LP + greedy answer in single-digit milliseconds.  The cliff moves
# with the search: at 400 tuples the exclusion-branching search of
# 2.2.0 closes every pair in under 20 ms, so the regime sits at 500.
BOUNDED_QUERY = "q_ac_chain"
BOUNDED_TUPLES = 500
BOUNDED_SEEDS = (0, 1, 2, 3)

SCALE_QUERY = "q_chain"
SCALE_TUPLES = 2000


def _bounded_cases():
    vocab = [ALL_QUERIES[n] for n in ("q_chain", "q_a_chain", "q_ac_chain")]
    q = ALL_QUERIES[BOUNDED_QUERY]
    cases = []
    for seed in BOUNDED_SEEDS:
        db = large_random_database(vocab, n_tuples=BOUNDED_TUPLES, seed=seed)
        cases.append((db, q, WitnessStructure.build(db, q)))
    return cases


def test_certified_containment_and_speedup(benchmark):
    """Acceptance: intervals contain the exact value on every bounded
    pair, at >= 5x aggregate wall-clock speedup over exact BnB."""
    cases = _bounded_cases()
    # Warm the scipy.optimize import so the LP path is not charged for
    # one-time library loading.
    resilience_bounds(*cases[0][:2], structure=cases[0][2])

    t0 = time.perf_counter()
    exact_values = [
        resilience_branch_and_bound(db, q, structure=ws).value
        for db, q, ws in cases
    ]
    t_exact = time.perf_counter() - t0

    def run():
        return [
            resilience_bounds(db, q, structure=ws) for db, q, ws in cases
        ]

    bounded = benchmark(run)
    t_approx = benchmark.stats.stats.mean

    for (db, q, _), interval, value in zip(cases, bounded, exact_values):
        assert interval.lower_bound <= value <= interval.upper_bound
        assert is_contingency_set(db, q, set(interval.contingency_set))
    speedup = t_exact / t_approx
    benchmark.extra_info["pairs"] = len(cases)
    benchmark.extra_info["exact_seconds"] = round(t_exact, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["intervals"] = [r.interval for r in bounded]
    assert speedup >= 5.0, f"approx tier only {speedup:.1f}x faster than BnB"


def test_certified_intervals_beyond_exact_reach(benchmark):
    """On ~2000-tuple q_chain instances (where BnB does not return),
    the approx tier still certifies informative intervals."""
    vocab = [ALL_QUERIES[n] for n in ("q_chain", "q_a_chain", "q_ac_chain")]
    q = ALL_QUERIES[SCALE_QUERY]
    db = large_random_database(vocab, n_tuples=SCALE_TUPLES, seed=0)
    ws = WitnessStructure.build(db, q)

    def run():
        return resilience_bounds(db, q, structure=ws)

    result = benchmark(run)
    n_endogenous = len(db.relations["R"].tuples)
    assert 0 < result.lower_bound <= result.upper_bound < n_endogenous
    assert is_contingency_set(db, q, set(result.contingency_set))
    # The LP lower bound must do real work: the interval's relative gap
    # stays under 25% even though the instance is far beyond exact reach.
    gap_ratio = result.gap / result.upper_bound
    benchmark.extra_info["tuples"] = n_endogenous
    benchmark.extra_info["interval"] = result.interval
    benchmark.extra_info["gap_ratio"] = round(gap_ratio, 3)
    assert gap_ratio < 0.25


def test_anytime_budget_narrows_the_interval(benchmark):
    """More anytime budget never widens the interval, and an unlimited
    budget closes it to the exact optimum (validated against BnB)."""
    db, q, ws = _bounded_cases()[1]
    exact = resilience_branch_and_bound(db, q, structure=ws).value
    budgets = [Budget(node_limit=0), Budget(node_limit=200), Budget()]

    def run():
        return [
            resilience_anytime(db, q, budget=b, structure=ws)
            for b in budgets
        ]

    results = benchmark(run)
    gaps = [r.gap for r in results]
    assert gaps == sorted(gaps, reverse=True), f"gaps widened: {gaps}"
    assert results[-1].is_exact and results[-1].value == exact
    for r in results:
        assert r.lower_bound <= exact <= r.upper_bound
    benchmark.extra_info["gaps"] = gaps
    benchmark.extra_info["exact"] = exact
