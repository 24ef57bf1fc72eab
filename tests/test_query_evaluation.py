"""Tests for witness enumeration (repro.query.evaluation)."""

import collections
import random

import pytest
from hypothesis import given, strategies as st

from oracles.brute_force import exogenous_relations, witness_fact_sets
from oracles.engines import forced_engines
from test_columnar import _with_duplicate_atom
from repro.db import Database, DBTuple
from repro.query import (
    Atom,
    ConjunctiveQuery,
    iter_witnesses_using,
    parse_query,
    satisfies,
    witness_tuple_sets,
    witnesses,
)
from repro.query.evaluation import witness_tuples
from repro.query.zoo import q_chain, q_triangle, q_vc
from repro.workloads import (
    random_database_for_query,
    random_sjfree_cq,
    random_ssj_binary_cq,
)


class TestWitnesses:
    def test_paper_chain_example(self, chain_db):
        """Section 2: witnesses(D, qchain) = {(1,2,3), (2,3,3), (3,3,3)}."""
        ws = {tuple(w[v] for v in ("x", "y", "z")) for w in witnesses(chain_db, q_chain)}
        assert ws == {(1, 2, 3), (2, 3, 3), (3, 3, 3)}

    def test_paper_chain_tuple_sets(self, chain_db):
        """Their tuple sets are {t1,t2}, {t2,t3}, {t3} (Section 2)."""
        t1, t2, t3 = DBTuple("R", (1, 2)), DBTuple("R", (2, 3)), DBTuple("R", (3, 3))
        sets = set(witness_tuple_sets(chain_db, q_chain))
        assert sets == {frozenset({t1, t2}), frozenset({t2, t3}), frozenset({t3})}

    def test_satisfies(self, chain_db):
        assert satisfies(chain_db, q_chain)
        empty = Database()
        empty.declare("R", 2)
        assert not satisfies(empty, q_chain)

    def test_missing_relation_means_unsatisfied(self):
        db = Database()
        db.add("R", 1)
        assert not satisfies(db, q_vc)  # S missing entirely

    def test_relation_of_another_arity_matches_nothing(self):
        """An atom over a relation of another arity matches no fact, as
        in the brute-force oracle (a wider fact must not match on a
        prefix of its values)."""
        q = parse_query("R(x,y)")
        for values in ((1,), (1, 2, 3)):
            db = Database()
            db.add("R", *values)
            assert not satisfies(db, q)
            assert witnesses(db, q) == []
            assert witness_tuple_sets(db, q) == []

    def test_repeated_variable_constrains(self):
        q = parse_query("R(x,x)")
        db = Database()
        db.add("R", 1, 2)
        assert not satisfies(db, q)
        db.add("R", 2, 2)
        assert satisfies(db, q)

    def test_triangle_witness(self):
        db = Database()
        db.add("R", 1, 2)
        db.add("S", 2, 3)
        db.add("T", 3, 1)
        ws = witnesses(db, q_triangle)
        assert len(ws) == 1
        assert ws[0] == {"x": 1, "y": 2, "z": 3}

    def test_exogenous_tuples_excluded_from_sets(self):
        q = parse_query("A(x), H^x(x,y), B(y)")
        db = Database()
        db.add("A", 1)
        db.declare("H", 2, exogenous=True)
        db.add("H", 1, 2)
        db.add("B", 2)
        (s,) = witness_tuple_sets(db, q)
        assert s == frozenset({DBTuple("A", (1,)), DBTuple("B", (2,))})

    def test_db_exogenous_flag_also_respected(self):
        q = parse_query("A(x), H(x,y), B(y)")
        db = Database()
        db.add("A", 1)
        db.declare("H", 2, exogenous=True)
        db.add("H", 1, 2)
        db.add("B", 2)
        (s,) = witness_tuple_sets(db, q)
        assert DBTuple("H", (1, 2)) not in s

    def test_duplicate_tuple_sets_collapsed(self):
        # qperm witnesses (a,b) and (b,a) use the same two tuples.
        q = parse_query("R(x,y), R(y,x)")
        db = Database()
        db.add_all("R", [(1, 2), (2, 1)])
        sets = witness_tuple_sets(db, q)
        assert len(sets) == 1

    def test_witness_tuples_helper(self, chain_db):
        w = {"x": 1, "y": 2, "z": 3}
        assert witness_tuples(q_chain, w) == {
            DBTuple("R", (1, 2)),
            DBTuple("R", (2, 3)),
        }

    def test_self_join_same_tuple_both_atoms(self):
        """A loop R(3,3) satisfies both chain atoms at once."""
        db = Database()
        db.add("R", 3, 3)
        ws = witnesses(db, q_chain)
        assert len(ws) == 1

    def test_witness_count_on_cross_product(self):
        q = parse_query("R(x,y), S(u,v)")
        db = Database()
        db.add_all("R", [(1, 2), (3, 4)])
        db.add_all("S", [(5, 6), (7, 8), (9, 10)])
        assert len(witnesses(db, q)) == 6


def _repeat_variable(query, rng, earlier):
    """``query`` with one binary atom's two arguments made equal:
    ``R(x, x)`` on a variable of the atom itself, or (``earlier``)
    ``R(y, y)`` on a variable of another atom, which the join may have
    bound before it reaches this one."""
    atoms = list(query.atoms)
    binary = [i for i, atom in enumerate(atoms) if atom.arity == 2]
    if not binary:
        return query
    i = rng.choice(binary)
    others = sorted({v for j, a in enumerate(atoms) if j != i for v in a.args})
    var = rng.choice(others) if earlier and others else rng.choice(atoms[i].args)
    atoms[i] = Atom(atoms[i].relation, (var, var), exogenous=atoms[i].exogenous)
    return ConjunctiveQuery(atoms, name=query.name)


def _instance(seed, repeat, duplicate, exogenous, drop):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        query = random_ssj_binary_cq(rng=rng)
    else:
        query = random_sjfree_cq(rng=rng)
    if repeat is not None:
        query = _repeat_variable(query, rng, earlier=repeat == "earlier")
    database = random_database_for_query(
        query,
        domain_size=rng.randint(2, 5),
        density=rng.uniform(0.2, 0.7),
        rng=rng,
    )
    names = sorted(database.relations)
    if exogenous:
        database.set_exogenous(rng.choice(names))
    if drop:
        dropped = rng.choice(names)
        database = Database(
            [rel for name, rel in database.relations.items() if name != dropped]
        )
    if duplicate:
        query = _with_duplicate_atom(query, rng)
    return database, query


class TestJoinAgainstBruteForce:
    """The backtracking join against the nested-loop oracle of
    ``tests/oracles/brute_force.py``, which shares no code with it, on
    random queries with repeated variables, duplicate atoms,
    database-exogenous and missing relations."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        repeat=st.sampled_from([None, "own", "earlier"]),
        duplicate=st.booleans(),
        exogenous=st.booleans(),
        drop=st.booleans(),
    )
    def test_join_matches_brute_force(
        self, seed, repeat, duplicate, exogenous, drop
    ):
        database, query = _instance(seed, repeat, duplicate, exogenous, drop)
        truth = witness_fact_sets(database, query)
        got = collections.Counter(
            frozenset(witness_tuples(query, v)) for v in witnesses(database, query)
        )
        assert got == collections.Counter(truth)
        assert satisfies(database, query) == bool(truth)

        exo = exogenous_relations(database, query)
        endogenous = {frozenset(f for f in s if f.relation not in exo) for s in truth}
        for join in ("reference", "columnar"):
            with forced_engines(join=join):
                for endo, expected in ((True, endogenous), (False, set(truth))):
                    sets = witness_tuple_sets(database, query, endogenous_only=endo)
                    assert len(sets) == len(set(sets)), (join, endo)
                    assert set(sets) == expected, (join, endo)

        for fact in database:
            using = collections.Counter(
                frozenset(witness_tuples(query, v))
                for v in iter_witnesses_using(database, query, fact)
            )
            assert using == collections.Counter(s for s in truth if fact in s), fact
