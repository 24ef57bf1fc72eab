"""Backend equivalence: the default solve against every forced backend.

Each engine layer with two interchangeable implementations — the
witness join (Section 2), the kernel reduction, and the Theorem 24
exact hitting-set search — picks one by its own rule; the tests force
the other through :func:`oracles.engines.forced_engines`.  (The
Proposition 31 min cut has one implementation; its networkx oracle is
patched in once per instance instead.)  Backend choice may move time,
never answers:

* a differential matrix (8 query families x 13 seeds, unit and skewed
  costs, all three solving tiers) compares the default ``solve()``
  with all 8 forced backend combinations — values and certified
  intervals agree for every combination (distinct backends may witness
  distinct optimal sets).  Under polynomial dispatch every combination
  reproduces the default bit for bit, since no forced layer is on the
  flow path.  Otherwise, forcing the join the default picks
  (:func:`repro.query.columnar._use_columnar`) and the bitset kernel
  (the kernel's own rule) reproduces the default bit for bit whenever the
  forced exact solver cannot change the set: in the bounded modes
  (which never reach it), and with the solver forced to ``bnb`` when no
  component of an exact solve fell through to HiGHS
  (``method="branch-and-bound"``).  With the oracle's min cut in place
  of the engine's, every instance keeps its value and interval;
* serial and parallel batches return bit-identical results;
* the decisions each layer makes at its own decision point — the
  component split on endogenous tuples (its threshold and its
  ``forced_engines`` override), the columnar join for snapshot-backed
  databases (against the counters of the join that ran), and the LPT
  weight — are pinned directly; the in-memory join threshold is pinned
  in ``tests/test_columnar.py``.
"""

import itertools

import pytest

import repro.parallel
from oracles.engines import forced_engines
from oracles.flow import patched_min_cut
from repro.core import solve_batch
from repro.core.analyzer import COMPONENT_SPLIT_THRESHOLD, split_instance
from repro.db import Database, endogenous_tuple_count
from repro.parallel import PairTask
from repro.query.columnar import (
    _use_columnar,
    backend_counters,
    reset_backend_counters,
)
from repro.query.evaluation import WITNESS_ESTIMATE_CAP, witness_estimate
from repro.query.zoo import ALL_QUERIES, q_chain
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.witness import clear_witness_cache
from repro.workloads import assign_skewed_costs, random_database_for_queries

# Eight query families spanning the dichotomy: NP-hard self-join
# queries (chain, a_chain, sj1_rats, 3chain), flow-handled PTIME
# queries (conf, perm, Aperm), and the linear q_lin with a ternary
# relation.  Each family gets its own compatible random database.
FAMILIES = (
    "q_chain",
    "q_a_chain",
    "q_sj1_rats",
    "q_conf",
    "q_3chain",
    "q_perm",
    "q_Aperm",
    "q_lin",
)
SEEDS = range(13)
MODES = ("exact", "approx", "anytime")

# The full cross product of the two-way choices at each layer (the
# kernel's None is its own rule: bitset above its size thresholds).
FORCED_COMBOS = tuple(
    itertools.product(
        ("columnar", "reference"),  # join
        (None, "reference"),        # kernel
        ("bnb", "ilp"),             # solver
    )
)

# Deterministic anytime budget: node limits are exact replay, wall
# clocks are not.
ANYTIME_BUDGET = Budget(node_limit=64)


def _instance(family, seed, skewed):
    """One matrix instance: a random database for the family's query."""
    query = ALL_QUERIES[family]
    db = random_database_for_queries(
        [query], domain_size=5, density=0.4, seed=1000 * skewed + seed
    )
    if skewed:
        assign_skewed_costs(db, seed=seed + 1)
    return db, query


def _mode_of(family, seed, skewed):
    """Deterministic mode assignment covering all (family, mode) cells."""
    return MODES[(FAMILIES.index(family) + seed + skewed) % len(MODES)]


def _polynomial(method):
    """Whether a result came from polynomial (flow) dispatch."""
    return method.startswith("flow:") or method in (
        "linear-flow",
        "weighted-linear-flow",
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
class TestDifferentialMatrix:
    """Default answers == forced-backend answers, instance by instance."""

    @pytest.mark.parametrize("skewed", (0, 1), ids=("unit", "skewed"))
    def test_default_matches_every_forced_combination(
        self, family, seed, skewed
    ):
        db, query = _instance(family, seed, skewed)
        mode = _mode_of(family, seed, skewed)
        weighted = bool(skewed)
        budget = ANYTIME_BUDGET if mode == "anytime" else None

        clear_witness_cache()
        default = solve(db, query, mode=mode, budget=budget, weighted=weighted)
        join = "columnar" if _use_columnar(db) else "reference"
        layers = (join, None)
        hitting_set = mode == "exact" and default.method in (
            "branch-and-bound",
            "ilp",
        )

        for combo in FORCED_COMBOS:
            with forced_engines(*combo):
                clear_witness_cache()
                forced = solve(
                    db, query, mode=mode, budget=budget, weighted=weighted
                )
            # Output-invisibility: every combination returns the same
            # value, and in bounded modes the same certified interval.
            assert forced.value == default.value, (combo, join)
            if mode != "exact":
                assert forced.interval == default.interval, (combo, join)
            if _polynomial(default.method) or (
                combo[:2] == layers
                and (
                    not hitting_set
                    or (default.method == "branch-and-bound" and combo[2] == "bnb")
                )
            ):
                # Bit for bit: value, witness set, method.  A search
                # that completed under its node limit explored exactly
                # as the unlimited one does.
                assert forced == default, (combo, join)

        # The networkx cut may pick another minimum set, never another
        # value or interval.
        with patched_min_cut():
            clear_witness_cache()
            oracle = solve(db, query, mode=mode, budget=budget, weighted=weighted)
        assert oracle.value == default.value
        if mode != "exact":
            assert oracle.interval == default.interval

    def test_plans_deterministic_across_repeated_calls(self, family, seed):
        db, query = _instance(family, seed, skewed=0)
        mode = _mode_of(family, seed, 0)
        clear_witness_cache()

        def decisions():
            return _use_columnar(db), split_instance(db)

        cold_a = decisions()
        cold_b = decisions()
        assert cold_a == cold_b
        solve(db, query, mode=mode, budget=ANYTIME_BUDGET if mode == "anytime" else None)
        warm_a = decisions()
        warm_b = decisions()
        assert warm_a == warm_b
        # A warm structure cache changes no layer's pick.
        assert cold_a == warm_a


class TestBatchDeterminism:
    def test_workers_1_and_2_agree_bit_identically(self):
        pairs = [
            _instance(family, seed=17 + i, skewed=i % 2)
            for i, family in enumerate(FAMILIES)
        ]
        clear_witness_cache()
        serial = solve_batch(pairs, workers=1)
        clear_witness_cache()
        parallel = solve_batch(pairs, workers=2)
        assert list(serial.results) == list(parallel.results)


# ---------------------------------------------------------------------------
# Decisions each layer makes at its own decision point
# ---------------------------------------------------------------------------


def _split_tasks(monkeypatch, db, query, split=False):
    """The task list a ``workers=2`` exact batch over ``db`` builds
    (``split=True`` forces the component split)."""
    seen = []
    original = repro.parallel.group_by_database

    def spy(tasks):
        seen.extend(tasks)
        return original(tasks)

    monkeypatch.setattr(repro.parallel, "group_by_database", spy)
    clear_witness_cache()
    with forced_engines(split=split):
        batch = solve_batch([(db, query)], workers=2)
    clear_witness_cache()
    assert batch.values() == [solve(db, query).value]
    return seen


def _chain_db(endogenous, exogenous):
    """``endogenous`` R facts in 3-tuple paths (one hitting-set
    component each) plus ``exogenous`` facts of an unqueried relation."""
    db = Database()
    db.declare("X", 2, exogenous=True)
    for i in range(exogenous):
        db.add("X", i, i)
    for i in range(endogenous):
        base = 4 * (i // 3)
        db.add("R", base + i % 3, base + i % 3 + 1)
    return db


class TestLayerDecisions:
    @pytest.mark.parametrize(
        "endogenous, exogenous, splits",
        (
            (300, 200, False),
            (COMPONENT_SPLIT_THRESHOLD - 1, COMPONENT_SPLIT_THRESHOLD, False),
            (COMPONENT_SPLIT_THRESHOLD, 0, True),
            (402, 0, True),
        ),
    )
    def test_split_counts_endogenous_tuples(
        self, monkeypatch, endogenous, exogenous, splits
    ):
        """A parallel exact batch splits an instance into component
        tasks from ``COMPONENT_SPLIT_THRESHOLD`` endogenous tuples on,
        however many exogenous ones it holds."""
        db = _chain_db(endogenous=endogenous, exogenous=exogenous)
        assert endogenous_tuple_count(db) == endogenous
        assert split_instance(db) == splits
        tasks = _split_tasks(monkeypatch, db, q_chain)
        assert any(isinstance(t, PairTask) for t in tasks) != splits

    def test_forced_split_shards_a_small_instance(self, monkeypatch):
        """``forced_engines(split=True)`` splits below the threshold:
        three 3-cycles, an irreducible component each."""
        cycles = Database()
        for base in (0, 10, 20):
            for i in range(3):
                cycles.add("R", base + i, base + (i + 1) % 3)
        assert isinstance(_split_tasks(monkeypatch, cycles, q_chain)[0], PairTask)
        tasks = _split_tasks(monkeypatch, cycles, q_chain, split=True)
        assert len(tasks) == 3
        assert not any(isinstance(t, PairTask) for t in tasks)

    def test_small_snapshot_joins_columnar(self, tmp_path):
        """Snapshot-backed databases join columnar at any size."""
        from repro.storage import ingest_database, open_stored_database

        db, query = _instance("q_chain", seed=3, skewed=0)
        assert len(db) < 128
        stored = open_stored_database(ingest_database(db, tmp_path / "snap"))
        clear_witness_cache()
        reset_backend_counters()
        result = solve(stored, query)
        counters = backend_counters()
        assert counters["columnar"] >= 1
        assert counters["reference"] == 0
        assert result.value == solve(db, query).value

    def test_pair_task_weight_is_the_witness_estimate(self):
        """LPT packing weighs a whole-pair task by the product of its
        query's atom relation sizes (floor 1)."""
        db, query = _instance("q_a_chain", seed=4, skewed=0)
        task = PairTask(0, db, query)
        sizes = [len(db.relations[a.relation]) for a in query.atoms]
        assert task.cost_estimate == witness_estimate(db, query)
        assert task.cost_estimate == min(
            max(1, sizes[0] * sizes[1] * sizes[2]), WITNESS_ESTIMATE_CAP
        )
        empty = Database()
        empty.declare("R", 2)
        assert PairTask(1, empty, q_chain).cost_estimate == 1
