"""Equivalence of the columnar join with the reference evaluator.

The vectorized enumeration of :mod:`repro.query.columnar` must realize
exactly the witnesses of ``D |= q`` (Section 2) that the backtracking
evaluator realizes — as a *multiset of valuations*, not just as
collapsed tuple sets — and the witness structures and solver answers
built on top of it must be identical to the reference path's.
"""

import collections
import random

import pytest
from hypothesis import given, strategies as st

from oracles.engines import forced_engines
from repro.query.columnar import (
    MIN_TUPLES_DEFAULT,
    ColumnarDatabase,
    _use_columnar,
    backend_counters,
    columnar_valuations,
    columnar_witness_incidence,
    columnar_witness_tuple_sets,
    reset_backend_counters,
    try_witness_tuple_sets,
)
from repro.query.evaluation import witness_tuple_sets, witnesses
from repro.query.zoo import ALL_QUERIES
from repro.witness import clear_witness_cache
from repro.witness.structure import WitnessStructure
from repro.resilience.solver import solve
from repro.workloads import (
    random_database_for_query,
    random_sjfree_cq,
    random_ssj_binary_cq,
)


def _with_duplicate_atom(query, rng):
    """A copy of ``query`` whose body literally repeats one atom.

    White-box: the ``ConjunctiveQuery`` constructor dedupes duplicate
    subgoals (conjunction is idempotent), so the repeated-atom body is
    installed directly.  The join layers must still handle it — a body
    with literal duplicates is exactly the shape that exposed the
    signature-collision bug in ``_enumerate_fact_matrix`` (two atoms
    sharing one output column, another left uninitialized).
    """
    from repro.query.cq import ConjunctiveQuery

    atoms = list(query.atoms)
    dup = atoms[rng.randrange(len(atoms))]
    atoms.insert(rng.randrange(len(atoms) + 1), dup)
    clone = ConjunctiveQuery(query.atoms, name=query.name)
    clone.atoms = tuple(atoms)
    return clone


def _random_instance(seed: int, allow_duplicates: bool = True):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        query = random_ssj_binary_cq(rng=rng)
    else:
        query = random_sjfree_cq(rng=rng)
    database = random_database_for_query(
        query,
        domain_size=rng.randint(2, 6),
        density=rng.uniform(0.1, 0.6),
        rng=rng,
    )
    if allow_duplicates and rng.random() < 0.25:
        query = _with_duplicate_atom(query, rng)
    return database, query


class TestEnumerationEquivalence:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_valuation_multisets_match_reference(self, seed):
        """The vectorized join yields exactly the reference witness
        multiset (each valuation once, none missing, none invented)."""
        database, query = _random_instance(seed)
        reference = collections.Counter(
            frozenset(v.items()) for v in witnesses(database, query)
        )
        vectorized = columnar_valuations(database, query)
        assert vectorized is not None
        assert reference == collections.Counter(
            frozenset(v.items()) for v in vectorized
        )

    @given(st.integers(min_value=0, max_value=10**6))
    def test_witness_tuple_sets_match_reference(self, seed):
        """Same deduplicated endogenous witness sets, both flag modes."""
        database, query = _random_instance(seed)
        for endo in (True, False):
            reference = witness_tuple_sets(
                database, query, endogenous_only=endo
            )
            vectorized = columnar_witness_tuple_sets(
                database, query, endogenous_only=endo
            )
            assert vectorized is not None
            assert len(vectorized) == len(reference)
            assert set(vectorized) == set(reference)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_incidence_matches_structure_ids(self, seed):
        """The direct incidence (universe + local-id matrix) encodes the
        same sets under the same sorted-universe id assignment."""
        database, query = _random_instance(seed)
        reference = witness_tuple_sets(database, query)
        if any(not s for s in reference):
            return  # unbreakable; build() raises before ids exist
        incidence = columnar_witness_incidence(database, query)
        assert incidence is not None
        universe, matrix = incidence
        assert list(universe) == sorted(
            {t for s in reference for t in s}, key=lambda t: t.sort_key()
        )
        pad = len(universe)
        decoded = {
            frozenset(universe[t] for t in row if t != pad)
            for row in matrix.tolist()
        }
        assert decoded == set(reference)
        assert matrix.shape[0] == len(reference)

    def test_zoo_queries_supported(self):
        """No zoo query falls back: every shape the paper uses is
        vectorizable."""
        for name in sorted(ALL_QUERIES):
            query = ALL_QUERIES[name]
            database = random_database_for_query(
                query, domain_size=5, density=0.4, seed=7
            )
            reference = witness_tuple_sets(database, query)
            vectorized = columnar_witness_tuple_sets(database, query)
            assert vectorized is not None, name
            assert set(vectorized) == set(reference), name
            assert len(vectorized) == len(reference), name


class TestDuplicateAtoms:
    """Regression for the output-column collision on duplicate atoms.

    ``_enumerate_fact_matrix`` used to map join-ordered columns back to
    body positions by ``atom.signature()`` alone — duplicate atoms
    collapsed onto one dict key, writing one ``np.empty`` column twice
    and leaving another as uninitialized garbage tuple ids.
    """

    def _chain_with_duplicate(self):
        from repro.query.cq import Atom, ConjunctiveQuery

        r = Atom("R", ("x", "y"))
        s = Atom("S", ("y", "z"))
        query = ConjunctiveQuery((r, s), name="dup_chain")
        query.atoms = (r, r, s)  # white-box: bypass idempotent dedup
        return query

    def test_duplicate_atom_columns_are_each_written(self):
        from repro.db.database import Database

        query = self._chain_with_duplicate()
        database = Database()
        for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            database.add("R", u, v)
        for u, v in [(2, 5), (3, 6), (1, 7)]:
            database.add("S", u, v)
        reference = witness_tuple_sets(database, query)
        vectorized = columnar_witness_tuple_sets(database, query)
        assert vectorized is not None
        assert set(vectorized) == set(reference)
        assert len(vectorized) == len(reference)

    def test_duplicate_atom_valuations_match_reference(self):
        query = self._chain_with_duplicate()
        database = random_database_for_query(
            query, domain_size=5, density=0.5, seed=11
        )
        reference = collections.Counter(
            frozenset(v.items()) for v in witnesses(database, query)
        )
        vectorized = columnar_valuations(database, query)
        assert vectorized is not None
        assert reference == collections.Counter(
            frozenset(v.items()) for v in vectorized
        )

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_duplicate_atom_queries_match_reference(self, seed):
        """Every random instance, with one atom force-duplicated."""
        rng = random.Random(seed ^ 0x5EED)
        database, query = _random_instance(seed, allow_duplicates=False)
        query = _with_duplicate_atom(query, rng)
        reference = witness_tuple_sets(database, query)
        vectorized = columnar_witness_tuple_sets(database, query)
        assert vectorized is not None
        assert set(vectorized) == set(reference)
        assert len(vectorized) == len(reference)


class TestStructureAndSolveEquivalence:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_structures_identical_across_join_backends(self, seed):
        """Forced-columnar builds equal reference builds field by field:
        universe, ids, reduced sets, forced tuples, components, stats."""
        database, query = _random_instance(seed)
        built = {}
        for backend in ("reference", "columnar"):
            with forced_engines(join=backend):
                try:
                    built[backend] = WitnessStructure.build(database, query)
                except Exception as exc:  # UnbreakableQueryError etc.
                    built[backend] = type(exc)
        ref, col = built["reference"], built["columnar"]
        if isinstance(ref, type) or isinstance(col, type):
            assert ref == col
            return
        assert col.universe == ref.universe
        assert col.sets == ref.sets
        assert col.forced_ids == ref.forced_ids
        assert set(col.raw_sets) == set(ref.raw_sets)
        assert len(col.raw_sets) == len(ref.raw_sets)
        assert [(c.tuple_ids, c.sets) for c in col.components] == [
            (c.tuple_ids, c.sets) for c in ref.components
        ]
        for field in (
            "witnesses_raw",
            "witnesses_distinct",
            "witnesses_minimal",
            "witnesses_final",
            "tuples_raw",
            "tuples_final",
            "forced_tuples",
            "dominated_tuples",
            "components",
            "rounds",
        ):
            assert getattr(col.stats, field) == getattr(ref.stats, field), field

    @pytest.mark.parametrize("mode", ["exact", "approx", "anytime"])
    def test_solve_answers_identical_across_join_backends(self, mode):
        """End-to-end ``solve`` answers are identical whichever join
        enumerated the witnesses, in every mode."""
        for seed in range(8):
            database, query = _random_instance(seed)
            answers = {}
            for backend in ("reference", "columnar"):
                with forced_engines(join=backend):
                    clear_witness_cache()
                    try:
                        result = solve(database, query, mode=mode)
                    except Exception as exc:
                        answers[backend] = type(exc)
                        continue
                    if mode == "exact":
                        answers[backend] = (
                            result.value,
                            result.contingency_set,
                            result.method,
                        )
                    else:
                        answers[backend] = (
                            result.interval,
                            result.contingency_set,
                            result.method,
                        )
            clear_witness_cache()
            assert answers["reference"] == answers["columnar"], seed


class TestBackendDispatch:
    def test_small_databases_stay_on_reference_path(self):
        """Below the size threshold the dispatcher declines (and counts
        the decline as a reference run, not a fallback)."""
        query = ALL_QUERIES["q_chain"]
        database = random_database_for_query(
            query, domain_size=4, density=0.5, seed=0
        )
        reset_backend_counters()
        assert try_witness_tuple_sets(database, query) is None
        counters = backend_counters()
        assert counters["reference"] == 1
        assert counters["fallback"] == 0
        assert counters["columnar"] == 0

    def test_default_rule_joins_columnar_from_min_tuples(self):
        """An in-memory database joins columnar exactly from
        :data:`MIN_TUPLES_DEFAULT` tuples."""
        from repro.db.database import Database

        query = ALL_QUERIES["q_chain"]
        for size, expected in ((MIN_TUPLES_DEFAULT - 1, "reference"),
                               (MIN_TUPLES_DEFAULT, "columnar")):
            database = Database()
            database.add_all("R", [(i, i + 1) for i in range(size)])
            assert _use_columnar(database) == (expected == "columnar"), size
            reset_backend_counters()
            try_witness_tuple_sets(database, query)
            assert backend_counters()[expected] == 1, size

    def test_forced_columnar_counts_a_columnar_run(self):
        query = ALL_QUERIES["q_chain"]
        database = random_database_for_query(
            query, domain_size=4, density=0.5, seed=0
        )
        reset_backend_counters()
        with forced_engines(join="columnar"):
            assert try_witness_tuple_sets(database, query) is not None
        assert backend_counters()["columnar"] == 1

    def test_disabled_backend_counts_reference(self):
        query = ALL_QUERIES["q_chain"]
        database = random_database_for_query(
            query, domain_size=4, density=0.5, seed=0
        )
        reset_backend_counters()
        with forced_engines(join="reference"):
            assert try_witness_tuple_sets(database, query) is None
        assert backend_counters()["reference"] == 1

    def test_arity_mismatch_falls_back(self):
        """A database relation narrower than the atom cannot be joined
        columnar; the dispatcher reports a fallback."""
        from repro.db.database import Database
        from repro.query.parser import parse_query

        query = parse_query("q() :- R(x,y)")
        database = Database()
        database.declare("R", 1)
        database.add("R", 1)
        reset_backend_counters()
        with forced_engines(join="columnar"):
            assert try_witness_tuple_sets(database, query) is None
        assert backend_counters()["fallback"] == 1

    def test_columnar_database_encoding_roundtrip(self):
        """Dictionary encoding is lossless: codes decode back to the
        original facts, ids are positions into the flat fact list."""
        query = ALL_QUERIES["q_chain"]
        database = random_database_for_query(
            query, domain_size=5, density=0.5, seed=3
        )
        cdb = ColumnarDatabase(database)
        assert len(cdb.facts) == len(database)
        for name, (codes, ids) in cdb.relations.items():
            for row, tid in zip(codes.tolist(), ids.tolist()):
                fact = cdb.facts[tid]
                assert fact.relation == name
                assert tuple(cdb.constants[c] for c in row) == fact.values
