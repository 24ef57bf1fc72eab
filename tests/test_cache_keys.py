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
  went from 2 to 3 (the salt is the only input that changed, and
  ``test_streaming_matches_joined_material`` still pins the derivation).

* **Schema bumps** — an entry a schema-2 store holds is a miss at
  schema 3, whether looked up by the new key or found under it.

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
    """Keys captured from the pre-streaming implementation (schema 3)."""

    def test_default_parameters(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q) == (
            "8872e7dba076bb589a936f99822a8a17153897a3c41bf87d0de967baeddfd2e2"
        )

    def test_anytime_with_float_budget(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q, mode="anytime", method=None, budget=2.5) == (
            "0550409dbbac6ce8e7e411c5a29692ace887b8b1a4d4fe0ed866e8c79f3cb384"
        )

    def test_forced_method(self):
        db, q = _instance_a()
        assert pair_cache_key(db, q, mode="exact", method="flow") == (
            "19b169690527fabc8da5fb40ec4eaf0258ff15acf39c099b4a0f0002a0a97fc9"
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
            "d34da8ddc0918945db42c168d4d32a6d39e59c363e0b1a2e8431614e7199afb8"
        )

    def test_weighted_instance(self):
        db, q = _instance_b()
        assert pair_cache_key(db, q, weighted=True) == (
            "039a364b3362f1c10a6469bde6d984ed18c9c37dffba14f3c3bdf071bf7ec737"
        )
        assert pair_cache_key(db, q, weighted=False) == (
            "5eb67cdfaf372a96a1f1e30e2eb6c1459d09c61809edd174ab88c9a71932fa09"
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
            "b90563d2adc50076d95b708380bee9e4b4889d8ca49d18145ab7887de331f484"
        )
        assert component_cache_key((s2, s1), mode="exact", backend="ilp") == (
            "14f58b7a5470b147bb6af09d316b65aa5d9398b1fc3ec246145a5fc46ebec239"
        )
        assert component_cache_key([s1], mode="approx", backend=None) == (
            "9aa8ff46f11bbbfd9754775a23b4e9ba3cbd2523e8ee43a76039b780bfe955b6"
        )

    def test_order_insensitive(self):
        s1 = frozenset({DBTuple("R", (1, 2))})
        s2 = frozenset({DBTuple("A", (1,))})
        assert component_cache_key([s1, s2]) == component_cache_key([s2, s1])


class TestSchemaTwoEntriesMiss:
    """Schema 3 changed the result stored under an unchanged key (dispatch
    honours database-exogenous flags; exact answers carry the
    per-component solver's sets and labels), so no schema-2 entry may
    be served."""

    def _exogenous_instance(self):
        db, q = _instance_a()
        db.set_exogenous("A")  # the query's A atom is endogenous
        return db, q

    def test_schema_two_store_is_a_miss(self, tmp_path, monkeypatch):
        db, q = self._exogenous_instance()
        with monkeypatch.context() as old:
            old.setattr(cache_module, "CACHE_SCHEMA", 2)
            old_key = pair_cache_key(db, q)
            ResultCache(tmp_path).put(old_key, "stale schema-2 answer")
            assert ResultCache(tmp_path).get(old_key) is not None
        new_key = pair_cache_key(db, q)
        assert new_key != old_key
        assert ResultCache(tmp_path).get(new_key) is None

    def test_schema_two_payload_under_the_new_key_is_a_miss(self, tmp_path):
        db, q = self._exogenous_instance()
        key = pair_cache_key(db, q)
        cache = ResultCache(tmp_path)
        with open(cache._path(key), "wb") as handle:
            pickle.dump((2, key, "stale schema-2 answer"), handle)
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
