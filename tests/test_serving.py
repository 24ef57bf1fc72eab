"""End-to-end tests for the serving tier (``repro.serving``).

Everything here runs against a real :class:`ResilienceServer` on an
ephemeral localhost port — actual sockets, actual threads — because
the properties under test (coalescing, backpressure, streaming) only
exist under real concurrency.  The contracts:

* served answers are **bit-identical** to direct
  :func:`repro.resilience.solver.solve` calls, in all three modes;
* concurrent identical requests **provably coalesce** onto one solve
  (asserted by counting invocations of an injected solver, not by
  timing);
* streamed anytime intervals are monotone, certified (they always
  contain the exact value), and end on the returned result;
* admission control reroutes oversized exact requests to certified
  anytime intervals and sheds load with 429 rather than queueing, and
  it sizes a request by its endogenous tuple count (Definition 1).
"""

import json
import threading
import time

import pytest

from repro.db.database import Database, endogenous_tuple_count
from repro.query.parser import parse_query
from repro.query.zoo import q_a_chain, q_chain
from repro.resilience.solver import solve
from repro.resilience.types import Budget
from repro.serving import (
    WIRE_SCHEMA,
    AdmissionPolicy,
    ResilienceServer,
    ServingClient,
    ServingClientError,
)
from repro.serving.admission import DEFAULT_MAX_EXACT_TUPLES
from repro.serving.wire import SolveRequest
from repro.workloads import random_database_for_queries


def chain_db(n=6):
    """A path database for q_chain: R(0,1), ..., R(n-1,n)."""
    db = Database()
    db.declare("R", 2)
    for i in range(n):
        db.add("R", i, i + 1)
    return db


def triangle_db():
    db = Database()
    db.declare("R", 2)
    for a, b in [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]:
        db.add("R", a, b)
    return db


Q_CHAIN = parse_query("R(x,y), R(y,z)")


@pytest.fixture
def server():
    with ResilienceServer(port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServingClient(server.address, timeout=60)


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


class TestEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        from repro import __version__

        assert payload["version"] == __version__

    def test_metrics_counts_requests(self, client):
        before = client.metrics()["requests_total"]
        client.health()
        after = client.metrics()["requests_total"]
        assert after > before

    def test_unknown_path_is_404(self, client):
        status, payload = client.get("/nope")
        assert status == 404
        assert "error" in payload

    def test_unknown_post_path_is_404(self, client):
        status, payload, _ = client.post("/nope", b"{}")
        assert status == 404


class TestServedAnswersMatchDirectSolve:
    """The core contract: the daemon is a transparent proxy for solve()."""

    def test_exact_bit_identical(self, client):
        db = triangle_db()
        direct = solve(db, Q_CHAIN)
        served, meta = client.solve(db, Q_CHAIN)
        assert served == direct  # value, contingency set, AND method
        assert meta["mode"] == "exact"
        assert meta["rerouted"] is False

    def test_approx_bit_identical(self, client):
        db = triangle_db()
        direct = solve(db, Q_CHAIN, mode="approx")
        served, meta = client.solve(db, Q_CHAIN, mode="approx")
        assert served == direct
        assert meta["mode"] == "approx"

    def test_anytime_bit_identical(self, client):
        db = chain_db(8)
        budget = Budget(node_limit=50)
        direct = solve(db, Q_CHAIN, mode="anytime", budget=budget)
        served, _ = client.solve(db, Q_CHAIN, mode="anytime", budget=budget)
        assert served == direct

    def test_forced_method_bit_identical(self, client):
        db = chain_db(5)
        direct = solve(db, Q_CHAIN, method="exact")
        served, _ = client.solve(db, Q_CHAIN, method="exact")
        assert served == direct

    def test_batch_matches_direct_and_preserves_order(self, client):
        dbs = [chain_db(3), triangle_db(), chain_db(7)]
        expected = [solve(db, Q_CHAIN) for db in dbs]
        served, meta = client.solve_batch([(db, Q_CHAIN) for db in dbs])
        assert served == expected
        assert meta["stats"]["pairs"] == 3

    def test_unsatisfied_database(self, client):
        db = Database()
        db.declare("R", 2)
        db.add("R", 1, 2)  # no 2-chain
        served, _ = client.solve(db, Q_CHAIN)
        assert served.value == 0
        assert served == solve(db, Q_CHAIN)


class TestCoalescing:
    """Identical concurrent requests share exactly one solve."""

    def _gated_server(self, **kwargs):
        """A server whose solver blocks until we release it, counting
        invocations — coalescing becomes a provable fact, not a race."""
        gate = threading.Event()
        calls = []
        lock = threading.Lock()

        def gated_solve(db, q, **kw):
            with lock:
                calls.append(kw.get("mode", "exact"))
            assert gate.wait(timeout=30), "test gate never released"
            return solve(db, q, mode=kw.get("mode", "exact"),
                         method=kw.get("method"), budget=kw.get("budget"))

        server = ResilienceServer(port=0, solve_fn=gated_solve, **kwargs)
        return server, gate, calls

    def test_identical_requests_coalesce_to_one_solve(self):
        n_clients = 6
        server, gate, calls = self._gated_server()
        db = triangle_db()
        direct = solve(db, Q_CHAIN)
        results = [None] * n_clients
        metas = [None] * n_clients

        def worker(i):
            c = ServingClient(server.address, timeout=60)
            results[i], metas[i] = c.solve(db, Q_CHAIN)

        with server:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            # Followers park in the in-flight registry; once all are
            # there, exactly one leader is inside the solver.
            _wait_until(
                lambda: server.app.registry.waiters() == n_clients - 1,
                message="followers to park in the registry",
            )
            assert len(calls) == 1
            gate.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

        assert len(calls) == 1, "coalescing must run the solver exactly once"
        assert all(r == direct for r in results), "all answers bit-identical"
        coalesced = [m["coalesced"] for m in metas]
        assert coalesced.count(False) == 1  # the leader
        assert coalesced.count(True) == n_clients - 1
        assert server.app.metrics.snapshot()["coalesced_total"] == n_clients - 1
        # The group is gone afterwards: nothing leaks.
        assert len(server.app.registry) == 0

    def test_distinct_requests_do_not_coalesce(self):
        server, gate, calls = self._gated_server()
        db_a, db_b = chain_db(3), chain_db(4)  # different contents
        results = {}

        def worker(name, db):
            c = ServingClient(server.address, timeout=60)
            results[name], _ = c.solve(db, Q_CHAIN)

        with server:
            ta = threading.Thread(target=worker, args=("a", db_a))
            tb = threading.Thread(target=worker, args=("b", db_b))
            ta.start(), tb.start()
            _wait_until(lambda: len(calls) == 2, message="both solves to start")
            gate.set()
            ta.join(timeout=30), tb.join(timeout=30)

        assert len(calls) == 2
        assert results["a"] == solve(db_a, Q_CHAIN)
        assert results["b"] == solve(db_b, Q_CHAIN)

    def test_same_pair_different_mode_does_not_coalesce(self):
        server, gate, calls = self._gated_server()
        db = triangle_db()
        done = []

        def worker(mode):
            c = ServingClient(server.address, timeout=60)
            done.append(c.solve(db, Q_CHAIN, mode=mode))

        with server:
            ta = threading.Thread(target=worker, args=("exact",))
            tb = threading.Thread(target=worker, args=("approx",))
            ta.start(), tb.start()
            _wait_until(lambda: len(calls) == 2, message="both modes to start")
            gate.set()
            ta.join(timeout=30), tb.join(timeout=30)
        assert sorted(calls) == ["approx", "exact"]

    def test_sequential_requests_do_not_coalesce_but_cache_serves(self, tmp_path):
        with ResilienceServer(port=0, cache_dir=tmp_path / "cache") as server:
            c = ServingClient(server.address, timeout=60)
            db = triangle_db()
            r1, m1 = c.solve(db, Q_CHAIN)
            r2, m2 = c.solve(db, Q_CHAIN)
            assert m1["cache"] == "miss"
            assert m2["cache"] == "hit"
            assert r1 == r2 == solve(db, Q_CHAIN)

    def test_open_time_limited_intervals_are_never_served_from_cache(
        self, tmp_path
    ):
        with ResilienceServer(port=0, cache_dir=tmp_path / "cache") as server:
            c = ServingClient(server.address, timeout=60)
            # Every directed edge on three vertices: the polynomial
            # bounds give [3, 4], so a deadline that passes before the
            # search's first node leaves the interval open.
            db = Database()
            db.declare("R", 2)
            for a, b in [(0, 2), (0, 3), (2, 0), (2, 3), (3, 0), (3, 2)]:
                db.add("R", a, b)
            budget = Budget(time_limit=1e-9)
            r1, m1 = c.solve(db, Q_CHAIN, mode="anytime", budget=budget)
            r2, m2 = c.solve(db, Q_CHAIN, mode="anytime", budget=budget)
            assert r1.interval == r2.interval == (3, 4)
            assert m1["cache"] == m2["cache"] == "miss"
            # A node limit is deterministic, so its result is stored.
            nodes = Budget(node_limit=50)
            _, m3 = c.solve(db, Q_CHAIN, mode="anytime", budget=nodes)
            _, m4 = c.solve(db, Q_CHAIN, mode="anytime", budget=nodes)
            assert (m3["cache"], m4["cache"]) == ("miss", "hit")

    def test_cache_survives_restart(self, tmp_path):
        db = triangle_db()
        cache_dir = tmp_path / "cache"
        with ResilienceServer(port=0, cache_dir=cache_dir) as server:
            ServingClient(server.address, timeout=60).solve(db, Q_CHAIN)
        with ResilienceServer(port=0, cache_dir=cache_dir) as server:
            r, meta = ServingClient(server.address, timeout=60).solve(db, Q_CHAIN)
            assert meta["cache"] == "hit"
            assert r == solve(db, Q_CHAIN)


class TestStreaming:
    def test_stream_intervals_monotone_and_certified(self, client):
        db = chain_db(10)
        exact = solve(db, Q_CHAIN).value
        frames = list(client.stream_solve(db, Q_CHAIN))
        assert frames, "stream produced no frames"
        assert frames[-1]["event"] == "result"
        intervals = [f for f in frames if f["event"] == "interval"]
        assert intervals, "anytime stream published no intervals"
        prev_lb, prev_ub = 0, float("inf")
        for f in intervals:
            lb, ub = f["lower_bound"], f["upper_bound"]
            assert lb <= ub
            # Monotone tightening...
            assert lb >= prev_lb
            assert ub <= prev_ub
            # ...and every interval certified (contains the true value).
            assert lb <= exact <= ub
            prev_lb, prev_ub = lb, ub
        # Sequence numbers are contiguous from 1.
        assert [f["seq"] for f in intervals] == list(range(1, len(intervals) + 1))

    def test_stream_final_frame_matches_unstreamed_solve(self, client):
        db = chain_db(10)
        budget = Budget(node_limit=25)
        frames = list(client.stream_solve(db, Q_CHAIN, budget=budget))
        final = frames[-1]
        assert final["event"] == "result"
        direct = solve(db, Q_CHAIN, mode="anytime", budget=budget)
        assert final["result"] == direct
        # The last published interval is the result's interval.
        intervals = [f for f in frames if f["event"] == "interval"]
        last = intervals[-1]
        assert (last["lower_bound"], last["upper_bound"]) == direct.interval

    def test_stream_requires_anytime(self, client):
        payload = {
            "wire_schema": WIRE_SCHEMA,
            "database": {"relations": {"R": {"arity": 2, "tuples": [[1, 2]]}}},
            "query": "R(x,y), R(y,z)",
            "mode": "exact",
            "stream": True,
        }
        status, body, _ = client.post("/solve", json.dumps(payload).encode())
        assert status == 400
        assert "anytime" in body["error"]


class TestAdmissionControl:
    def test_oversized_exact_is_rerouted_to_anytime(self):
        policy = AdmissionPolicy(max_exact_tuples=3)
        with ResilienceServer(port=0, policy=policy) as server:
            c = ServingClient(server.address, timeout=60)
            db = chain_db(10)  # 10 endogenous tuples > 3
            result, meta = c.solve(db, Q_CHAIN)
            assert meta["rerouted"] is True
            assert meta["mode"] == "anytime"
            assert meta["tier"] == "batch"
            assert "reason" in meta and "endogenous" in meta["reason"]
            # The answer is still a certified interval around the truth.
            exact = solve(db, Q_CHAIN).value
            assert result.lower_bound <= exact <= result.upper_bound

    def test_small_exact_stays_interactive(self):
        policy = AdmissionPolicy(max_exact_tuples=1000)
        with ResilienceServer(port=0, policy=policy) as server:
            c = ServingClient(server.address, timeout=60)
            result, meta = c.solve(triangle_db(), Q_CHAIN)
            assert meta["rerouted"] is False
            assert meta["tier"] == "interactive"
            assert result == solve(triangle_db(), Q_CHAIN)

    def test_exogenous_tuples_are_free(self):
        policy = AdmissionPolicy(max_exact_tuples=5)
        db = Database()
        db.declare("R", 2)
        db.declare("W", 1, exogenous=True)
        for i in range(3):
            db.add("R", i, i + 1)
        for i in range(100):  # exogenous bulk must not trigger rerouting
            db.add("W", i)
        with ResilienceServer(port=0, policy=policy) as server:
            _, meta = ServingClient(server.address, timeout=60).solve(db, Q_CHAIN)
            assert meta["rerouted"] is False

    def test_rerouted_polynomial_request_is_a_cache_hit(self, tmp_path):
        """A reroute runs under a time limit, but a query that dispatches
        to a polynomial solver comes back closed, so its repeat is
        served from the cache."""
        policy = AdmissionPolicy(max_exact_tuples=3)
        q = parse_query("R(x,y), R(x,z)")  # linear flow
        with ResilienceServer(
            port=0, policy=policy, cache_dir=tmp_path / "cache"
        ) as server:
            c = ServingClient(server.address, timeout=60)
            db = chain_db(10)
            r1, m1 = c.solve(db, q)
            r2, m2 = c.solve(db, q)
            assert m1["rerouted"] is m2["rerouted"] is True
            assert m1["budget"]["time_limit"] is not None
            assert (m1["cache"], m2["cache"]) == ("miss", "hit")
            assert r1 == r2
            assert r1.is_exact and r1.value == solve(db, q).value

    def test_oversized_anytime_budget_is_clamped(self):
        policy = AdmissionPolicy(
            max_exact_tuples=3, reroute_time_limit=0.5, reroute_node_limit=10
        )
        with ResilienceServer(port=0, policy=policy) as server:
            c = ServingClient(server.address, timeout=60)
            db = chain_db(10)
            # Requests an effectively unlimited budget; the server clamps it.
            _, meta = c.solve(db, Q_CHAIN, mode="anytime", budget=9999.0)
            assert meta["rerouted"] is True
            assert meta["budget"]["time_limit"] == 0.5
            assert meta["budget"]["node_limit"] == 10

    def test_backpressure_returns_429_with_retry_after(self):
        gate = threading.Event()

        def slow_solve(db, q, **kw):
            assert gate.wait(timeout=30)
            return solve(db, q)

        policy = AdmissionPolicy(max_concurrent_solves=1)
        server = ResilienceServer(port=0, policy=policy, solve_fn=slow_solve)
        db_a, db_b = chain_db(3), chain_db(4)
        first = {}

        def leader():
            c = ServingClient(server.address, timeout=60)
            first["result"], _ = c.solve(db_a, Q_CHAIN)

        with server:
            t = threading.Thread(target=leader)
            t.start()
            _wait_until(
                lambda: server.app.metrics.active_solves() == 1,
                message="first solve to occupy the gauge",
            )
            c2 = ServingClient(server.address, timeout=60)
            with pytest.raises(ServingClientError) as exc_info:
                c2.solve(db_b, Q_CHAIN)  # distinct key: cannot coalesce
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after is not None
            gate.set()
            t.join(timeout=30)
        assert first["result"] == solve(db_a, Q_CHAIN)
        assert server.app.metrics.snapshot()["rejected_total"] == 1

    def test_batch_too_large_is_413(self):
        policy = AdmissionPolicy(max_batch_items=2)
        with ResilienceServer(port=0, policy=policy) as server:
            c = ServingClient(server.address, timeout=60)
            pairs = [(chain_db(3), Q_CHAIN)] * 3
            with pytest.raises(ServingClientError) as exc_info:
                c.solve_batch(pairs)
            assert exc_info.value.status == 413

    def test_oversized_batch_pair_reroutes_whole_batch(self):
        policy = AdmissionPolicy(max_exact_tuples=3)
        with ResilienceServer(port=0, policy=policy) as server:
            c = ServingClient(server.address, timeout=60)
            results, meta = c.solve_batch(
                [(chain_db(2), Q_CHAIN), (chain_db(10), Q_CHAIN)]
            )
            assert meta["rerouted"] is True
            assert meta["mode"] == "anytime"
            for (db, _), r in zip(
                [(chain_db(2), Q_CHAIN), (chain_db(10), Q_CHAIN)], results
            ):
                exact = solve(db, Q_CHAIN).value
                assert r.lower_bound <= exact <= r.upper_bound


class TestAdmissionSizing:
    """The policy alone, without a server: requests are sized by their
    endogenous tuple count."""

    @staticmethod
    def _instance(query, seed):
        return random_database_for_queries(
            [query], domain_size=5, density=0.4, seed=seed
        )

    def test_rerouted_request_is_oversized(self):
        policy = AdmissionPolicy()
        db = chain_db(DEFAULT_MAX_EXACT_TUPLES + 100)
        request = SolveRequest(db, q_chain, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and decision.rerouted
        assert decision.mode == "anytime"
        assert policy.oversized(request)
        assert endogenous_tuple_count(db) > DEFAULT_MAX_EXACT_TUPLES

    def test_small_request_is_interactive(self):
        policy = AdmissionPolicy()
        request = SolveRequest(self._instance(q_chain, 2), q_chain, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.accepted and not decision.rerouted
        assert not policy.oversized(request)

    def test_instance_size_is_the_endogenous_count(self):
        policy = AdmissionPolicy()
        db = self._instance(q_a_chain, 3)
        db.set_exogenous("A")
        request = SolveRequest(db, q_a_chain)
        assert policy.instance_size(request) == endogenous_tuple_count(db)
        assert policy.instance_size(request) == len(db.relations["R"])

    def test_custom_threshold_drives_the_reroute(self):
        policy = AdmissionPolicy(max_exact_tuples=10)
        db = self._instance(q_chain, 4)
        request = SolveRequest(db, q_chain, mode="exact")
        decision = policy.admit(request, active_solves=0)
        assert decision.rerouted == policy.oversized(request)
        assert decision.rerouted == (len(db) > 10)


class TestBatchWorkerPool:
    def test_batch_on_worker_pool_matches_serial(self):
        with ResilienceServer(port=0, workers=2) as server:
            c = ServingClient(server.address, timeout=120)
            dbs = [chain_db(n) for n in (3, 5, 7, 9)]
            expected = [solve(db, Q_CHAIN) for db in dbs]
            served, meta = c.solve_batch([(db, Q_CHAIN) for db in dbs])
            assert served == expected
            assert meta["stats"]["workers"] == 2
            # Pool persists across batches (reuse, not respawn).
            served2, _ = c.solve_batch([(db, Q_CHAIN) for db in dbs])
            assert served2 == expected
            assert server.app.pool is not None
