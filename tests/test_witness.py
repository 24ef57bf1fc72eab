"""Tests for the shared witness-structure engine (repro.witness)."""

import pytest

from repro.db import Database, DBTuple
from repro.query import parse_query
from repro.query.evaluation import DatabaseIndex
from repro.query.zoo import ALL_QUERIES, q_chain
from repro.resilience import (
    UnbreakableQueryError,
    resilience_branch_and_bound,
    resilience_exact,
    resilience_ilp,
    is_contingency_set,
    solve,
)
from repro.resilience.exact import _greedy_hitting_set
from repro.witness import (
    WitnessStructure,
    clear_witness_cache,
    witness_cache_info,
    witness_structure,
)
from repro.witness.structure import _bitsets
from repro.workloads import random_database_for_query


def _cycle_db(offset=0):
    """A directed 3-cycle: the irreducible core for q_chain (rho = 2)."""
    db = Database()
    a, b, c = offset + 1, offset + 2, offset + 3
    db.add_all("R", [(a, b), (b, c), (c, a)])
    return db


class TestBuild:
    def test_chain_example_reductions(self, chain_db):
        """Section 2 example: fully solved by preprocessing alone."""
        ws = WitnessStructure.build(chain_db, q_chain)
        assert ws.satisfied
        assert ws.stats.witnesses_raw == 3
        # {t3} eliminates its superset {t2, t3}
        assert ws.stats.witnesses_minimal == 2
        # unit forcing + domination leave nothing for the solvers
        assert not ws.sets and not ws.components
        assert ws.forced == frozenset(
            {DBTuple("R", (1, 2)), DBTuple("R", (3, 3))}
        )

    def test_universe_is_sorted(self, chain_db):
        ws = WitnessStructure.build(chain_db, q_chain)
        assert list(ws.universe) == sorted(ws.universe)
        assert all(ws.tuple_index[t] == i for i, t in enumerate(ws.universe))

    def test_unsatisfied(self):
        db = Database()
        db.add("R", 1, 2)
        db.add("R", 3, 4)
        ws = WitnessStructure.build(db, q_chain)
        assert not ws.satisfied
        assert not ws.sets

    def test_unbreakable_raises(self):
        q = parse_query("R^x(x,y)")
        db = Database()
        db.declare("R", 2, exogenous=True)
        db.add("R", 1, 2)
        with pytest.raises(UnbreakableQueryError):
            WitnessStructure.build(db, q)

    def test_reduce_false_keeps_raw_sets(self):
        ws = WitnessStructure.build(_cycle_db(), q_chain, reduce=False)
        assert ws.sets == ws.raw_sets
        assert not ws.forced_ids
        assert ws.stats.dominated_tuples == 0

    def test_irreducible_core_untouched(self):
        """The 3-cycle has no units, no dominated tuples, no supersets."""
        ws = WitnessStructure.build(_cycle_db(), q_chain)
        assert len(ws.sets) == 3
        assert not ws.forced_ids
        assert ws.stats.dominated_tuples == 0
        assert len(ws.components) == 1

    def test_bitsets_match_sets(self):
        ws = WitnessStructure.build(_cycle_db(), q_chain)
        for t, mask in _bitsets(ws.sets).items():
            rows = {r for r in range(len(ws.sets)) if mask >> r & 1}
            assert rows == {r for r, s in enumerate(ws.sets) if t in s}

    def test_incidence_matrix(self):
        ws = WitnessStructure.build(_cycle_db(), q_chain)
        A = ws.incidence_matrix()
        assert A.shape == (len(ws.sets), len(ws.universe))
        dense = A.toarray()
        for r, s in enumerate(ws.sets):
            assert {c for c in range(A.shape[1]) if dense[r, c]} == set(s)

    def test_shared_database_index(self, chain_db):
        index = DatabaseIndex(chain_db)
        ws = WitnessStructure.build(chain_db, q_chain, index=index)
        assert ws.stats.witnesses_raw == 3


class TestComponents:
    def test_two_cycles_decompose_and_sum(self):
        db = Database()
        for offset in (0, 10):
            a, b, c = offset + 1, offset + 2, offset + 3
            db.add_all("R", [(a, b), (b, c), (c, a)])
        ws = WitnessStructure.build(db, q_chain)
        assert len(ws.components) == 2
        # Components partition the reduced sets and active tuples.
        assert sum(len(c.sets) for c in ws.components) == len(ws.sets)
        ids = [t for c in ws.components for t in c.tuple_ids]
        assert sorted(ids) == sorted(_bitsets(ws.sets))
        assert ws.stats.tuples_final == len(ids)

        # rho = 2 per cycle; per-component solving must sum to 4 and
        # agree with the unreduced solver.
        res = resilience_branch_and_bound(db, q_chain, structure=ws)
        assert res.value == 4
        unreduced = WitnessStructure.build(db, q_chain, reduce=False)
        assert resilience_branch_and_bound(db, q_chain, structure=unreduced).value == 4
        assert is_contingency_set(db, q_chain, set(res.contingency_set))

    def test_component_incidence_is_local(self):
        db = Database()
        for offset in (0, 10):
            a, b, c = offset + 1, offset + 2, offset + 3
            db.add_all("R", [(a, b), (b, c), (c, a)])
        ws = WitnessStructure.build(db, q_chain)
        for comp in ws.components:
            A = comp.incidence_matrix()
            assert A.shape == (len(comp.sets), len(comp.tuple_ids))
            assert A.sum() == sum(len(s) for s in comp.sets)


QUERY_MIX = (
    "q_chain",
    "q_conf",
    "q_perm",
    "q_sj1_rats",
    "q_z3",
    "q_a_chain",
    "q_vc",
)


class TestReductionsPreserveOptimum:
    @pytest.mark.parametrize("name", QUERY_MIX)
    def test_reduced_equals_unreduced_on_random_workloads(self, name):
        query = ALL_QUERIES[name]
        for seed in range(6):
            db = random_database_for_query(
                query, domain_size=4, density=0.45, seed=seed
            )
            reduced = WitnessStructure.build(db, query)
            unreduced = WitnessStructure.build(db, query, reduce=False)
            baseline = resilience_branch_and_bound(db, query, structure=unreduced)
            bnb = resilience_branch_and_bound(db, query, structure=reduced)
            ilp = resilience_ilp(db, query, structure=reduced)
            assert bnb.value == baseline.value == ilp.value, (name, seed)
            if baseline.value:
                assert is_contingency_set(db, query, set(bnb.contingency_set))
                assert is_contingency_set(db, query, set(ilp.contingency_set))

    def test_forced_tuples_are_in_some_optimum(self, chain_db):
        ws = witness_structure(chain_db, q_chain)
        res = resilience_exact(chain_db, q_chain, structure=ws)
        assert ws.forced <= res.contingency_set


class TestGreedyDeterminism:
    def test_tie_break_uses_sort_key(self):
        # Among equally-covering tuples the *smallest* under the
        # canonical DBTuple order wins (the old repr-based rule took the
        # largest repr, picking R(2,3) here).
        first = DBTuple("R", (10, 1))
        second = DBTuple("R", (2, 3))
        assert first < second
        chosen = _greedy_hitting_set([frozenset({first, second})])
        assert chosen == {first}

    def test_result_independent_of_input_order(self):
        ws = WitnessStructure.build(_cycle_db(), q_chain)
        forward = _greedy_hitting_set(list(ws.sets))
        backward = _greedy_hitting_set(list(reversed(ws.sets)))
        assert forward == backward

    def test_works_on_integer_ids(self):
        sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})]
        assert _greedy_hitting_set(sets) == {0, 1}


class TestCache:
    def test_hit_on_identical_contents(self, chain_db):
        clear_witness_cache()
        first = witness_structure(chain_db, q_chain)
        again = witness_structure(chain_db, q_chain)
        assert first is again
        hits, misses, size = witness_cache_info()
        assert (hits, misses, size) == (1, 1, 1)

    def test_miss_after_mutation(self, chain_db):
        clear_witness_cache()
        first = witness_structure(chain_db, q_chain)
        chain_db.add("R", 7, 8)
        second = witness_structure(chain_db, q_chain)
        assert first is not second

    def test_miss_after_flag_change(self, example_11_db):
        from repro.query.zoo import q_sj1_rats

        clear_witness_cache()
        before = resilience_exact(example_11_db, q_sj1_rats)
        example_11_db.set_exogenous("R")
        after = resilience_exact(example_11_db, q_sj1_rats)
        assert (before.value, after.value) == (1, 2)


class TestSolverIntegration:
    def test_solve_accepts_prebuilt_structure(self, chain_db):
        ws = witness_structure(chain_db, q_chain)
        res = solve(chain_db, q_chain, structure=ws)
        assert res.value == 2

    def test_exact_backend_choice_validated(self, chain_db):
        with pytest.raises(ValueError):
            resilience_exact(chain_db, q_chain, prefer="quantum")
