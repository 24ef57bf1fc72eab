"""Fault injection for the serving tier and its persistence layer.

The serving stack's failure contract: every fault — a malformed body,
an exploding solver, a corrupted cache entry, a worker process killed
mid-solve — surfaces as a clean HTTP error (4xx/5xx) or a recomputed
answer, never as a wedged coalescing group, a poisoned cache key, or a
hung connection.  Concurrency faults are driven deterministically
(gated/exploding injected solvers, monkeypatched readers), not by
timing luck.

The ``ResultCache`` tests at the bottom are regression tests for two
latent races fixed alongside the serving tier:

* two processes writing the same key concurrently must both leave a
  valid entry behind (atomic-rename audit: ``.part`` temp files live
  outside the ``*.pkl`` entry namespace);
* a reader that fails validation must not blindly unlink the path —
  a concurrent writer may have just replaced it with a valid entry
  (guarded eviction by inode identity).
"""

import json
import multiprocessing
import os
import pickle
import socket
import struct
import threading

import pytest

from repro.db.database import Database
from repro.parallel import WorkerPool, build_shards, execute_shards
from repro.parallel.shards import PairTask
from repro.query.parser import parse_query
from repro.resilience.solver import solve
from repro.serving import (
    WIRE_SCHEMA,
    ResilienceServer,
    ServingClient,
    ServingClientError,
)
from repro.witness.cache import CACHE_SCHEMA, ResultCache, pair_cache_key

Q_CHAIN = parse_query("R(x,y), R(y,z)")


def chain_db(n=4):
    db = Database()
    db.declare("R", 2)
    for i in range(n):
        db.add("R", i, i + 1)
    return db


def _wait_until(predicate, timeout=10.0, message="condition"):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


# ---------------------------------------------------------------------------
# Malformed and hostile requests
# ---------------------------------------------------------------------------


class TestMalformedRequests:
    @pytest.fixture
    def client(self):
        with ResilienceServer(port=0) as server:
            yield ServingClient(server.address, timeout=30)

    def test_invalid_json_is_400(self, client):
        status, body, _ = client.post("/solve", b"{not json")
        assert status == 400
        assert "JSON" in body["error"]

    def test_empty_body_is_400(self, client):
        status, body, _ = client.post("/solve", b"")
        assert status == 400

    def test_non_object_payload_is_400(self, client):
        status, body, _ = client.post("/solve", b"[1, 2, 3]")
        assert status == 400

    def test_missing_wire_schema_is_400(self, client):
        status, body, _ = client.post("/solve", json.dumps({"query": "R(x,y)"}).encode())
        assert status == 400
        assert "wire_schema" in body["error"]

    def test_wrong_wire_schema_is_400(self, client):
        payload = {"wire_schema": 999, "database": {}, "query": "R(x,y)"}
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400
        assert "wire_schema" in body["error"]

    def test_unknown_mode_is_400(self, client):
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "database": {"relations": {}},
            "query": "R(x,y)",
            "mode": "psychic",
        }
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400
        assert "mode" in body["error"]

    def test_arity_mismatch_is_400(self, client):
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "database": {"relations": {"R": {"arity": 2, "tuples": [[1]]}}},
            "query": "R(x,y), R(y,z)",
        }
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400
        assert "arity" in body["error"]

    def test_unparseable_query_is_400(self, client):
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "database": {"relations": {}},
            "query": ")))(((",
        }
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400

    def test_unknown_fields_are_400(self, client):
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "database": {"relations": {}},
            "query": "R(x,y)",
            "frobnicate": True,
        }
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400
        assert "frobnicate" in body["error"]

    def test_batch_without_pairs_is_400(self, client):
        status, body, _ = client.post(
            "/solve_batch", json.dumps({"wire_schema": WIRE_SCHEMA, "pairs": []}).encode()
        )
        assert status == 400

    def test_missing_content_length_is_411(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            # Hand-rolled request with no Content-Length header.
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 411
        finally:
            conn.close()

    def test_oversized_body_is_413(self):
        with ResilienceServer(port=0, max_body_bytes=1024) as server:
            client = ServingClient(server.address, timeout=30)
            big = json.dumps({"wire_schema": WIRE_SCHEMA, "blob": "x" * 10_000}).encode()
            status, body, _ = client.post("/solve", big)
            assert status == 413
            assert "exceeds" in body["error"]

    def test_server_survives_malformed_requests(self):
        """A barrage of garbage must not take the daemon down."""
        with ResilienceServer(port=0) as server:
            client = ServingClient(server.address, timeout=30)
            for payload in (b"", b"\x00\xff" * 50, b"{}", b'{"wire_schema":1}'):
                status, _, _ = client.post("/solve", payload)
                assert 400 <= status < 500
            # Still healthy and still solving.
            assert client.health()["status"] == "ok"
            db = chain_db()
            result, _ = client.solve(db, Q_CHAIN)
            assert result == solve(db, Q_CHAIN)
            assert client.metrics()["errors_total"] >= 4


# ---------------------------------------------------------------------------
# Solver failures under coalescing
# ---------------------------------------------------------------------------


class TestPeerReset:
    def test_reset_mid_request_line_is_a_quiet_disconnect(self, capfd):
        # Half a request line, then an RST instead of a FIN: the handler
        # thread's read fails with ConnectionResetError, which the
        # server must treat as a disconnect, not print as a fault.
        with ResilienceServer(port=0) as server:
            httpd = server._httpd
            finished = threading.Event()

            def shutdown_request(request, _close=httpd.shutdown_request):
                _close(request)
                finished.set()

            httpd.shutdown_request = shutdown_request
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(b"GET /hea")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            assert finished.wait(10), "the reset connection was never closed"
            health = ServingClient(server.address, timeout=30).health()
            assert health["status"] == "ok"
        assert capfd.readouterr().err == ""


class TestSolverFaults:
    def test_solver_exception_is_clean_500(self):
        def exploding(db, q, **kw):
            raise RuntimeError("kaboom")

        with ResilienceServer(port=0, solve_fn=exploding) as server:
            client = ServingClient(server.address, timeout=30)
            with pytest.raises(ServingClientError) as exc_info:
                client.solve(chain_db(), Q_CHAIN)
            assert exc_info.value.status == 500
            assert "kaboom" in str(exc_info.value)
            assert client.health()["status"] == "ok"

    def test_failure_propagates_to_coalesced_followers(self):
        """Every waiter gets the error; nobody hangs."""
        gate = threading.Event()
        calls = []

        def exploding(db, q, **kw):
            calls.append(1)
            assert gate.wait(timeout=30)
            raise RuntimeError("leader died")

        server = ResilienceServer(port=0, solve_fn=exploding)
        db = chain_db()
        statuses = []

        def worker():
            c = ServingClient(server.address, timeout=60)
            try:
                c.solve(db, Q_CHAIN)
                statuses.append(200)
            except ServingClientError as exc:
                statuses.append(exc.status)

        with server:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            _wait_until(
                lambda: server.app.registry.waiters() == 3,
                message="followers to park",
            )
            gate.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive(), "a waiter hung on a failed solve"
            assert statuses == [500, 500, 500, 500]
            assert len(calls) == 1

    def test_failure_does_not_poison_the_key(self):
        """After a failed solve, the next identical request runs fresh
        (the in-flight group is popped before the failure publishes)."""
        attempts = []

        def flaky(db, q, **kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return solve(db, q)

        with ResilienceServer(port=0, solve_fn=flaky) as server:
            client = ServingClient(server.address, timeout=30)
            db = chain_db()
            with pytest.raises(ServingClientError):
                client.solve(db, Q_CHAIN)
            # No wedged group left behind...
            assert len(server.app.registry) == 0
            # ...and the retry succeeds with the true answer.
            result, meta = client.solve(db, Q_CHAIN)
            assert result == solve(db, Q_CHAIN)
            assert len(attempts) == 2

    def test_follower_timeout_is_504(self):
        release = threading.Event()

        def stuck(db, q, **kw):
            assert release.wait(timeout=60)
            return solve(db, q)

        server = ResilienceServer(port=0, solve_fn=stuck, coalesce_timeout=0.2)
        db = chain_db()
        leader_status = []

        def leader():
            c = ServingClient(server.address, timeout=60)
            c.solve(db, Q_CHAIN)
            leader_status.append("ok")

        with server:
            t = threading.Thread(target=leader)
            t.start()
            _wait_until(
                lambda: server.app.metrics.active_solves() == 1,
                message="leader to start solving",
            )
            follower = ServingClient(server.address, timeout=60)
            with pytest.raises(ServingClientError) as exc_info:
                follower.solve(db, Q_CHAIN)
            assert exc_info.value.status == 504
            release.set()
            t.join(timeout=30)
        assert leader_status == ["ok"], "the leader itself must still finish"


# ---------------------------------------------------------------------------
# Worker-process faults
# ---------------------------------------------------------------------------


def _die():
    """Submitted to a worker to simulate a hard crash mid-solve."""
    os._exit(1)


class TestWorkerFaults:
    def test_pool_breakage_is_detected_and_recovered(self):
        from concurrent.futures.process import BrokenProcessPool

        pool = WorkerPool(workers=2)
        try:
            # Healthy first: real shards execute on the pool (two tasks
            # over distinct databases -> two shards, so the pool is
            # actually exercised rather than the in-process fast path).
            db_a, db_b = chain_db(4), chain_db(6)
            shards = build_shards(
                [[PairTask(0, db_a, Q_CHAIN)], [PairTask(1, db_b, Q_CHAIN)]],
                n_shards=2,
            )
            expected = {0: solve(db_a, Q_CHAIN).value, 1: solve(db_b, Q_CHAIN).value}
            outcomes, _ = execute_shards(shards, workers=2, pool=pool)
            assert {tid: r.value for tid, r in outcomes.items()} == expected

            # Kill a worker mid-"solve".
            with pytest.raises(BrokenProcessPool):
                pool.executor().submit(_die).result(timeout=30)

            # The next lease detects the broken executor and replaces it.
            outcomes, _ = execute_shards(shards, workers=2, pool=pool)
            assert {tid: r.value for tid, r in outcomes.items()} == expected
        finally:
            pool.shutdown()

    def test_batch_endpoint_survives_pool_breakage(self):
        with ResilienceServer(port=0, workers=2) as server:
            client = ServingClient(server.address, timeout=120)
            db = chain_db(4)
            results, _ = client.solve_batch([(db, Q_CHAIN)])
            assert results[0] == solve(db, Q_CHAIN)

            # Crash a worker process out from under the server's pool.
            from concurrent.futures.process import BrokenProcessPool

            with pytest.raises(BrokenProcessPool):
                server.app.pool.executor().submit(_die).result(timeout=30)

            # The served batch path recovers on the replacement pool.
            results, _ = client.solve_batch([(db, Q_CHAIN)])
            assert results[0] == solve(db, Q_CHAIN)
            assert client.health()["status"] == "ok"


# ---------------------------------------------------------------------------
# ResultCache corruption and write races
# ---------------------------------------------------------------------------


def _writer_process(cache_dir, key, value, barrier_dir, n_rounds):
    """Hammer ``put`` on one key (two of these race each other)."""
    cache = ResultCache(cache_dir)
    for _ in range(n_rounds):
        cache.put(key, value)


class TestResultCacheFaults:
    def test_corrupt_entry_is_evicted_and_recomputed(self, tmp_path):
        db = chain_db()
        key = pair_cache_key(db, Q_CHAIN)
        with ResilienceServer(port=0, cache_dir=tmp_path) as server:
            client = ServingClient(server.address, timeout=30)
            client.solve(db, Q_CHAIN)  # populate
            path = server.app.cache._path(key)
            assert path.exists()
            path.write_bytes(b"\x00garbage\xff")  # corrupt it in place

            result, meta = client.solve(db, Q_CHAIN)
            assert meta["cache"] == "miss", "corrupt entry must not be served"
            assert result == solve(db, Q_CHAIN)
            # The rewrite healed the entry.
            result2, meta2 = client.solve(db, Q_CHAIN)
            assert meta2["cache"] == "hit"
            assert result2 == result

    def test_wrong_key_entry_is_rejected(self, tmp_path):
        """An entry whose embedded key mismatches its filename (e.g. a
        renamed file) is a miss, not a wrong answer."""
        cache = ResultCache(tmp_path)
        cache.put("key-a", "value-a")
        os.replace(cache._path("key-a"), cache._path("key-b"))
        assert cache.get("key-b") is None
        assert not cache._path("key-b").exists()

    def test_schema_drift_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with open(cache._path("k"), "wb") as handle:
            pickle.dump((CACHE_SCHEMA + 1, "k", "stale"), handle)
        assert cache.get("k") is None

    def test_two_process_writers_leave_a_valid_entry(self, tmp_path):
        """The atomic-rename regression: two processes racing ``put`` on
        the same key must both land on a readable entry — no torn file,
        no visible temp debris."""
        key = "contested-key"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_writer_process,
                args=(str(tmp_path), key, f"value-{i}", None, 200),
            )
            for i in range(2)
        ]
        for p in procs:
            p.start()
        reader = ResultCache(tmp_path)
        # Read concurrently with the write storm: every successful read
        # must be one of the two valid values, never garbage.
        seen = set()
        while any(p.is_alive() for p in procs):
            value = reader.get(key)
            if value is not None:
                seen.add(value)
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert seen <= {"value-0", "value-1"}
        # Afterwards: exactly one valid entry, no temp debris.
        final = reader.get(key)
        assert final in {"value-0", "value-1"}
        assert len(list(tmp_path.glob(".tmp-*"))) == 0
        assert len(reader) == 1

    def test_temp_files_are_outside_the_entry_namespace(self, tmp_path):
        """`.part` temp files must be invisible to the `*.pkl` namespace
        (`__len__`, `clear`) — the root cause of the original race."""
        cache = ResultCache(tmp_path)
        cache.put("real", 42)
        # Simulate a writer dying mid-put: a stale temp file remains.
        stale = tmp_path / ".tmp-deadbeef.part"
        stale.write_bytes(b"half a pickle")
        assert len(cache) == 1, "temp files must not count as entries"
        cache.clear()
        assert not stale.exists(), "clear() sweeps stale temp files"
        assert cache.get("real") is None

    def test_failed_read_does_not_evict_concurrent_rewrite(self, tmp_path, monkeypatch):
        """The guarded-eviction regression, deterministically: between a
        reader's failed validation and its eviction attempt, a writer
        replaces the entry — the fresh entry must survive."""
        cache = ResultCache(tmp_path)
        key = "k"
        path = cache._path(key)
        path.write_bytes(b"corrupt")

        real_load = pickle.load

        def load_then_lose_the_race(handle):
            # The "concurrent writer" lands a valid entry while this
            # reader is mid-validation of the corrupt one.
            ResultCache(tmp_path).put(key, "fresh")
            return real_load(handle)

        monkeypatch.setattr(pickle, "load", load_then_lose_the_race)
        assert cache.get(key) is None  # the corrupt read is still a miss
        monkeypatch.undo()
        # But the racing writer's entry survived the eviction attempt.
        assert cache.get(key) == "fresh"

    def test_blind_eviction_still_removes_stable_corruption(self, tmp_path):
        """Sanity check the other side: with no racing writer, a corrupt
        entry IS removed so the next write starts clean."""
        cache = ResultCache(tmp_path)
        path = cache._path("k")
        path.write_bytes(b"corrupt")
        assert cache.get("k") is None
        assert not path.exists()
