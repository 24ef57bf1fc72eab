"""The exact tier's per-component routine: search first, HiGHS for the rest.

:func:`repro.resilience.exact._solve_component` runs the greedy-seeded
branch and bound of ``_bnb_component`` within a budget of
``EXACT_SEARCH_ROWS`` witness rows, each node charged the rows it holds
(``EXACT_SEARCH_ROWS_WEIGHTED`` for cost-weighted components), and calls
HiGHS only for a component whose search runs out of rows (a
*fall-through*).  This module pins

* values: the routine's optimum equals the pure-HiGHS and the pure
  branch-and-bound optimum, with unit and skewed costs, at any budget;
* sets: a completed search returns ``_bnb_component``'s set bit for
  bit, and a fall-through returns HiGHS's;
* one routine everywhere: on an instance where some components
  complete and some fall through, the serial solve, the parallel
  component tasks and the incremental session return identical sets
  and method labels, and ``method`` says whether HiGHS ran;
* that the search closes most dense chain components inside its row
  budget, so few of them fall through;
* that probes and searches leave no cyclic garbage behind.
"""

import gc
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from oracles.engines import forced_engines
from repro.core import solve_batch
from repro.db import Database
from repro.incremental import IncrementalSession
from repro.query.evaluation import satisfies
from repro.query.zoo import q_3chain, q_chain
from repro.resilience import exact
from repro.resilience.exact import (
    _bnb_component,
    _ilp_component,
    _search_component,
    _solve_component,
    resilience_exact,
)
from repro.resilience.solver import solve
from repro.witness import WitnessComponent, clear_witness_cache, witness_structure
from repro.workloads import assign_skewed_costs, large_random_database


@st.composite
def components(draw):
    """A set system over sparse ids, with unit (None) or skewed costs."""
    n = draw(st.integers(min_value=1, max_value=16))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=n, max_size=n, unique=True,
        )
    )
    sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(ids), min_size=1, max_size=4),
            min_size=1, max_size=40,
        )
    )
    universe = tuple(sorted(set().union(*sets)))
    component = WitnessComponent(universe, tuple(sets))
    if draw(st.booleans()):
        return component, None
    weights = st.sampled_from([1, 1, 1, 2, 3, 5, 8, 13, 40])
    return component, {t: draw(weights) for t in universe}


def _cost(ids, costs):
    return len(ids) if costs is None else sum(costs[t] for t in ids)


@given(components(), st.sampled_from([1, 8, 64, 512, 10**9]))
def test_routine_matches_both_backends(system, rows):
    component, costs = system
    with mock.patch.object(exact, "EXACT_SEARCH_ROWS", rows), \
            mock.patch.object(exact, "EXACT_SEARCH_ROWS_WEIGHTED", rows):
        ids, ran_ilp = _solve_component(component, costs=costs)
    bnb = _bnb_component(component.sets, costs=costs)
    ilp = _ilp_component(component, costs=costs)
    assert all(s & ids for s in component.sets)
    assert _cost(ids, costs) == _cost(bnb, costs) == _cost(ilp, costs)
    completed = _search_component(component.sets, costs, rows) is not None
    assert ran_ilp == (not completed)
    # A completed search explored exactly as the unlimited one: same
    # set.  A fall-through is HiGHS's optimum.
    assert ids == (ilp if ran_ilp else bnb)


def _four_chain_pieces():
    """Four disjoint random q_chain graphs: one witness component each.

    Every component needs at least two search nodes, and the components
    differ in size, so a middle row budget closes the small ones and
    sends the large ones to HiGHS.
    """
    db = Database()
    db.declare("R", 2)
    for k, n in enumerate((13, 18, 22, 26)):
        piece = large_random_database(
            [q_chain], n_tuples=n, rng=random.Random(50 + k)
        )
        for fact in piece.relations["R"]:
            db.add("R", fact.values[0] + 1000 * k, fact.values[1] + 1000 * k)
    return db


def _completions(db, rows):
    clear_witness_cache()
    ws = witness_structure(db, q_chain)
    return [
        _search_component(c.sets, row_limit=rows) is not None
        for c in ws.components
    ]


def _answer(result):
    return result.value, result.contingency_set, result.method


def _every_path(db, monkeypatch, rows):
    """Serial solve, split parallel batch and incremental session (serial
    and pooled), all under one row budget."""
    monkeypatch.setattr(exact, "EXACT_SEARCH_ROWS", rows)
    return _answers_on_every_path(db)


def _answers_on_every_path(db):
    clear_witness_cache()
    answers = [_answer(solve(db, q_chain))]
    clear_witness_cache()
    # The forced split shards this small instance into component tasks
    # (the default threshold would ship it whole).
    with forced_engines(split=True):
        batch = solve_batch([(db, q_chain)], workers=2)
    answers.append(_answer(batch.results[0]))
    for workers in (1, 2):
        session = IncrementalSession(db, q_chain, workers=workers)
        answers.append(_answer(session.solve()))
    return answers


def test_mixed_instance_is_identical_on_every_path(monkeypatch):
    db = _four_chain_pieces()
    rows = 100
    completions = _completions(db, rows)
    assert any(completions) and not all(completions)
    answers = _every_path(db, monkeypatch, rows)
    assert all(a == answers[0] for a in answers), answers
    assert answers[0][2] == "ilp"
    clear_witness_cache()
    with forced_engines(solver="bnb"):
        assert solve(db, q_chain).value == answers[0][0]


def test_weighted_mixed_instance_is_identical_serial_and_parallel(monkeypatch):
    db = _four_chain_pieces()
    assign_skewed_costs(db, seed=3)
    rows = 500  # cost-weighted searches need more rows to close
    monkeypatch.setattr(exact, "EXACT_SEARCH_ROWS_WEIGHTED", rows)
    # The unit-cost budget does not govern weighted components.
    monkeypatch.setattr(exact, "EXACT_SEARCH_ROWS", 1)
    clear_witness_cache()
    ws = witness_structure(db, q_chain, weighted=True)
    expected = set(ws.forced_ids)
    completions = []
    for c in ws.components:
        best = _search_component(c.sets, ws.costs, rows)
        completions.append(best is not None)
        expected |= best if best is not None else _ilp_component(
            c, costs=ws.costs
        )
    assert any(completions) and not all(completions)
    clear_witness_cache()
    serial = solve(db, q_chain, weighted=True)
    assert set(serial.contingency_set) == set(ws.tuples(expected))
    clear_witness_cache()
    with forced_engines(split=True):
        batch = solve_batch([(db, q_chain)], workers=2, weighted=True)
    assert _answer(batch.results[0]) == _answer(serial)
    assert serial.method == "ilp"
    clear_witness_cache()
    with forced_engines(solver="bnb"):
        assert solve(db, q_chain, weighted=True).value == serial.value


def test_all_fall_through_is_pure_highs(monkeypatch):
    db = _four_chain_pieces()
    assert not any(_completions(db, 1))
    answers = _every_path(db, monkeypatch, 1)
    assert all(a == answers[0] for a in answers), answers
    clear_witness_cache()
    with forced_engines(solver="ilp"):
        assert _answer(solve(db, q_chain)) == answers[0]
    clear_witness_cache()
    assert _answer(resilience_exact(db, q_chain, prefer="ilp")) == answers[0]


def test_all_complete_is_pure_branch_and_bound(monkeypatch):
    db = _four_chain_pieces()
    assert all(_completions(db, exact.EXACT_SEARCH_ROWS))
    answers = _every_path(db, monkeypatch, exact.EXACT_SEARCH_ROWS)
    assert all(a == answers[0] for a in answers), answers
    assert answers[0][2] == "branch-and-bound"
    clear_witness_cache()
    with forced_engines(solver="bnb"):
        assert _answer(solve(db, q_chain)) == answers[0]
    clear_witness_cache()
    assert _answer(resilience_exact(db, q_chain, prefer="bnb")) == answers[0]


def test_forced_solvers_run_one_backend_on_every_path(monkeypatch):
    """``forced_engines(solver=...)`` reaches the serial solve, the
    parallel component tasks and the incremental session alike, under a
    row budget that leaves the instance mixed."""
    db = _four_chain_pieces()
    monkeypatch.setattr(exact, "EXACT_SEARCH_ROWS", 100)
    for solver, method in (("bnb", "branch-and-bound"), ("ilp", "ilp")):
        with forced_engines(solver=solver):
            answers = _answers_on_every_path(db)
        assert all(a == answers[0] for a in answers), (solver, answers)
        assert answers[0][2] == method


def test_dense_chain_components_close_before_highs():
    """Exclusion branching with unit propagation closes most dense
    chain components inside the row budget: over 36 random q_chain and
    q_3chain instances at most 9 solves fall through to HiGHS (18 did
    when siblings could re-explore the same subsets), and every value
    is the HiGHS optimum."""
    fell_through = 0
    for query, sizes in ((q_chain, (40, 50, 60)), (q_3chain, (25, 30, 35))):
        for n in sizes:
            for k in range(6):
                db = large_random_database(
                    [query], n_tuples=n, rng=random.Random(k)
                )
                clear_witness_cache()
                result = resilience_exact(db, query)
                highs = resilience_exact(db, query, prefer="ilp")
                assert result.value == highs.value
                fell_through += result.method == "ilp"
    assert fell_through <= 9


def test_probes_and_searches_leave_no_cyclic_garbage():
    """Per-call evaluation indexes and search closures are freed by
    reference counting, not left for the cyclic collector."""
    db = _four_chain_pieces()
    clear_witness_cache()
    assert witness_structure(db, q_chain).components  # the search runs
    for _ in range(2):  # warm-up: lazy imports and caches
        satisfies(db, q_chain)
        clear_witness_cache()
        solve(db, q_chain)
    gc.collect()
    gc.disable()
    try:
        satisfies(db, q_chain)
        assert gc.collect() == 0
        clear_witness_cache()
        result = solve(db, q_chain)
        assert result.method == "branch-and-bound"
        assert gc.collect() == 0
    finally:
        gc.enable()
