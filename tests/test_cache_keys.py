"""Cache-key stability and canonical-form memoization.

Two regression suites pinned against the same invariants:

* **Golden keys** — the streaming-digest rewrite of
  ``pair_cache_key``/``component_cache_key`` (the SHA-256 is now fed
  segment by segment from the memoized ``Database.canonical_text()``
  instead of one concatenated ``material`` string) must produce keys
  bit-for-bit identical to the pre-rewrite implementation, or every
  persisted result-cache entry silently invalidates.  The hexdigests
  below were captured from the original implementation and are the
  authoritative values; they were re-captured when ``CACHE_SCHEMA``
  went from 2 to 3, from 3 to 4 and from 4 to 5 (the salt is the only
  input that changed, and ``test_streaming_matches_joined_material``
  still pins the derivation).

* **Schema bumps** — an entry a schema-2, -3 or -4 store holds is a
  miss at schema 5, whether looked up by the new key or found under it.

* **Memoization epochs** — ``Database.canonical_form()`` (and
  ``canonical_text``/``content_digest``) must materialize exactly once
  per mutation epoch: repeat hash/equality lookups reuse the memo, and
  any mutation (``add``/``discard``/``set_cost``/exogenous flip)
  invalidates it.
"""

import pickle

import pytest

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.zoo import ALL_QUERIES
from repro.resilience.types import Budget
from repro.witness import cache as cache_module
from repro.witness.cache import (
    _canonical_pair_text,
    ResultCache,
    component_cache_key,
    pair_cache_key,
)
from repro.workloads import large_random_database


def _instance_a():
    db = Database()
    for u, v in [(1, 2), (2, 3), (3, 1), (2, 2), ("a", 1)]:
        db.add("R", u, v)
    db.add("A", 1)
    db.add("A", "a")
    db.declare("H", 2, exogenous=True)
    db.add("H", 1, 3)
    return db, ALL_QUERIES["q_chain"]


def _instance_b():
    db = Database()
    db.add("R", 1, 2, cost=5)
    db.add("R", 2, 1)
    db.add("A", 1)
    db.set_cost(DBTuple("R", (2, 1)), 3)
    return db, ALL_QUERIES["q_Aperm"]


class TestGoldenPairKeys:
    """Keys captured from the pre-streaming implementation (schema 5)."""

    def test_default_parameters(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q) == (
            "6d122587a5b62843c4ff12439c613fbac513c1fab7e4816f404cb72c2a158d1a"
        )

    def test_anytime_with_float_budget(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q, mode="anytime", method=None, budget=2.5) == (
            "ef7c5692fb5bea62639841f0ace85380ac43f63e34fe5968307d6303b6a589f8"
        )

    def test_forced_method(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q, mode="exact", method="flow") == (
            "276cf2c66009a2ce75a474d6a0b7aece759cce8fb119a344fd8ad2cd45b6e8b8"
        )

    def test_budget_object(self):
        db, q = _instance_a()
        key = pair_cache_key(
            db,
            q,
            mode="anytime",
            budget=Budget(time_limit=1.5, node_limit=77),
            weighted=False,
        )
        assert key == (
            "6894de90ea40d04fe608386f732914c8412a2229c054a087b4675d35b3b18d8d"
        )

    def test_weighted_instance(self):
        db, q = _instance_b()
        assert pair_cache_key(db, q, weighted=True) == (
            "57b03a6a8a49cf425a4b01d56839e64dbbe54b451135714c07ff786ef18f85ee"
        )
        assert pair_cache_key(db, q, weighted=False) == (
            "de63ed5033aeee84782a4194f36e60c471491ddb26471a09410267c6e4b29219"
        )

    def test_streaming_matches_joined_material(self):
        """Structural cross-check: the streamed digest equals a SHA-256
        over the old one-string material, for every parameter shape."""
        import hashlib

        db, q = _instance_a()
        for kwargs in (
            {},
            {"mode": "anytime", "budget": 2.5},
            {"mode": "exact", "method": "ilp"},
            {"weighted": True},
        ):
            time_limit = node_limit = None
            if kwargs.get("budget") is not None:
                b = Budget.coerce(kwargs["budget"])
                time_limit, node_limit = b.time_limit, b.node_limit
            from repro.witness.cache import CACHE_SCHEMA

            material = "\x1f".join(
                [
                    f"schema={CACHE_SCHEMA}",
                    f"mode={kwargs.get('mode', 'exact')}",
                    f"method={kwargs.get('method')}",
                    f"time_limit={time_limit!r}",
                    f"node_limit={node_limit!r}",
                    f"weighted={bool(kwargs.get('weighted', False))}",
                    _canonical_pair_text(db, q),
                ]
            )
            expected = hashlib.sha256(material.encode()).hexdigest()
            assert pair_cache_key(db, q, **kwargs) == expected


class TestGoldenComponentKeys:
    def test_component_keys(self):
        s1 = frozenset({DBTuple("R", (1, 2)), DBTuple("R", (2, 3))})
        s2 = frozenset({DBTuple("R", (2, 3)), DBTuple("A", (1,))})
        assert component_cache_key([s1, s2], mode="exact", backend="bnb") == (
            "4768ddd6a0cb945e2687241d95c381937fa23900b6ded21ce5627d42aad7c26c"
        )
        assert component_cache_key((s2, s1), mode="exact", backend="ilp") == (
            "d29d4789a4795a1c5e880e4abbe9f4a8098787816392328e96ff09fbe9f56043"
        )
        assert component_cache_key([s1], mode="approx", backend=None) == (
            "462e37de9dfd9da1cf97698b56b62fe419fbfff0d6de911cd3d0937c1becb631"
        )

    def test_order_insensitive(self):
        s1 = frozenset({DBTuple("R", (1, 2))})
        s2 = frozenset({DBTuple("A", (1,))})
        assert component_cache_key([s1, s2]) == component_cache_key([s2, s1])


def _exogenous_instance():
    db, q = _instance_a()
    db.set_exogenous("A")  # the query's A atom is endogenous
    return db, q, {}


def _node_budgeted_instance():
    db, q = _instance_a()
    return db, q, {"mode": "anytime", "budget": Budget(node_limit=5)}


def _approx_instance():
    q = ALL_QUERIES["q_3chain"]
    db = large_random_database([q], n_tuples=40, seed=5)
    return db, q, {"mode": "approx"}


# Every bump changed the result stored under an unchanged key, so no
# entry of an older schema may be served.  Each stale schema comes with
# an instance whose stored answer its bump changed:
# * 2 -> 3: dispatch honours database-exogenous flags, and exact
#   answers carry the per-component solver's sets and method labels;
# * 3 -> 4: the hitting-set search branches by exclusion with unit
#   propagation, so exact answers may carry another optimum on ties or
#   another method label, and node-budgeted anytime intervals may
#   differ;
# * 4 -> 5: the certified bounds add the LP-support greedy and solve
#   large LPs by interior point, so approx and anytime upper bounds may
#   differ (this q_3chain interval went from [15, 17] to [15, 16]).
STALE_SCHEMAS = [
    (2, _exogenous_instance),
    (3, _node_budgeted_instance),
    (4, _approx_instance),
]


@pytest.mark.parametrize(
    "schema, instance", STALE_SCHEMAS, ids=lambda v: getattr(v, "__name__", v)
)
class TestStaleSchemaEntriesMiss:
    def test_stale_store_is_a_miss(
        self, schema, instance, tmp_path, monkeypatch
    ):
        db, q, kwargs = instance()
        with monkeypatch.context() as old:
            old.setattr(cache_module, "CACHE_SCHEMA", schema)
            old_key = pair_cache_key(db, q, **kwargs)
            ResultCache(tmp_path).put(old_key, f"stale schema-{schema} answer")
            assert ResultCache(tmp_path).get(old_key) is not None
        new_key = pair_cache_key(db, q, **kwargs)
        assert new_key != old_key
        assert ResultCache(tmp_path).get(new_key) is None

    def test_stale_payload_under_the_new_key_is_a_miss(
        self, schema, instance, tmp_path
    ):
        db, q, kwargs = instance()
        key = pair_cache_key(db, q, **kwargs)
        cache = ResultCache(tmp_path)
        with open(cache._path(key), "wb") as handle:
            pickle.dump((schema, key, f"stale schema-{schema} answer"), handle)
        assert cache.get(key) is None


class TestCanonicalFormMemoization:
    def _counting(self, db, monkeypatch):
        calls = {"n": 0}
        original = Database._materialize_canonical_form

        def counted(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(Database, "_materialize_canonical_form", counted)
        return calls

    def test_one_materialization_per_epoch(self, monkeypatch):
        db, _ = _instance_a()
        calls = self._counting(db, monkeypatch)
        for _ in range(5):
            hash(db)
            db.canonical_form()
        assert calls["n"] == 1, "unmutated database re-materialized"

        db.add("R", 9, 9)  # mutation: new epoch
        for _ in range(3):
            db.canonical_form()
        assert calls["n"] == 2

        db.set_cost(DBTuple("R", (9, 9)), 4)  # cost change: new epoch
        db.canonical_form()
        db.canonical_form()
        assert calls["n"] == 3

    def test_noop_mutations_keep_the_epoch(self, monkeypatch):
        db, _ = _instance_a()
        calls = self._counting(db, monkeypatch)
        before = db.content_epoch()
        db.canonical_form()
        db.add("R", 1, 2)  # already present: no-op
        db.relation("R").discard(DBTuple("R", (777, 777)))  # absent: no-op
        db.set_exogenous("H")  # already exogenous: no-op
        assert db.content_epoch() == before
        db.canonical_form()
        assert calls["n"] == 1

    def test_every_mutation_kind_invalidates(self):
        db, _ = _instance_a()
        epochs = [db.content_epoch()]

        db.add("S", 7)  # new relation
        epochs.append(db.content_epoch())
        db.add("S", 8)  # new fact
        epochs.append(db.content_epoch())
        db.relation("S").discard(DBTuple("S", (8,)))  # removal
        epochs.append(db.content_epoch())
        db.set_cost(DBTuple("S", (7,)), 3)  # cost set
        epochs.append(db.content_epoch())
        db.set_cost(DBTuple("S", (7,)), 1)  # cost cleared
        epochs.append(db.content_epoch())
        db.set_exogenous("S")  # flag flip
        epochs.append(db.content_epoch())

        assert len(set(epochs)) == len(epochs), "an effective mutation reused an epoch"

    def test_hash_and_eq_track_content(self):
        db1, _ = _instance_a()
        db2, _ = _instance_a()
        assert db1 == db2 and hash(db1) == hash(db2)
        db2.add("R", 42, 42)
        assert db1 != db2
        db2.relation("R").discard(DBTuple("R", (42, 42)))
        assert db1 == db2 and hash(db1) == hash(db2)

    def test_content_digest_is_stable_and_content_keyed(self):
        db1, _ = _instance_a()
        db2, _ = _instance_a()
        assert db1.content_digest() == db2.content_digest()
        assert len(db1.content_digest()) == 64
        db2.add("R", 5, 5)
        assert db1.content_digest() != db2.content_digest()

    def test_canonical_text_matches_pair_text_db_segment(self):
        db, q = _instance_a()
        pair = _canonical_pair_text(db, q)
        assert pair.startswith(db.canonical_text() + "#")

    def test_copy_does_not_share_memo_state(self):
        db, _ = _instance_a()
        db.canonical_form()
        clone = db.copy()
        clone.add("R", 100, 100)
        assert db != clone
        assert db.canonical_form() != clone.canonical_form()

    def test_minus_sees_fresh_epochs(self):
        db, _ = _instance_b()
        fact = DBTuple("R", (1, 2))
        smaller = db.minus([fact])
        assert fact in db and fact not in smaller
        assert db.content_digest() != smaller.content_digest()
