"""Admission control for the serving tier.

Exact resilience is NP-complete in general (Theorem 24), so a shared
server cannot let arbitrary clients run unbounded exact solves: one
oversized instance would head-of-line-block every well-behaved request
behind it.  The policy here makes the latency envelope a *property of
the server*, not of its clients:

* requests are sized by a cheap feature — the number of **endogenous**
  tuples, which bounds the hitting-set variable count (exogenous
  tuples can never enter a contingency set, Definition 1) — and
  oversized ``exact``/``approx`` requests are rerouted to
  ``mode="anytime"`` under a server-owned
  :class:`~repro.resilience.types.Budget`, so they still return a
  certified interval instead of an unbounded search;
* anytime requests may not smuggle in an unlimited budget when they
  are oversized — the budget is clamped to the reroute tier's;
* a concurrency gate rejects work beyond ``max_concurrent_solves``
  with HTTP 429 (clients retry after backoff) rather than queueing
  unboundedly, and batches beyond ``max_batch_items`` are refused with
  413.

Every decision is reported back to the client (``tier``, ``rerouted``,
``reason`` response fields), so a rerouted answer is never mistaken
for an exact one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.db.database import endogenous_tuple_count
from repro.resilience.types import Budget
from repro.serving.wire import SolveRequest

# Defaults; overridable per-server or via REPRO_SERVING_* (from_env).
# Instances with more endogenous tuples than this are too big for the
# interactive exact tier.
DEFAULT_MAX_EXACT_TUPLES = 2000
DEFAULT_REROUTE_TIME_LIMIT = 2.0
DEFAULT_REROUTE_NODE_LIMIT = 200_000
DEFAULT_MAX_CONCURRENT_SOLVES = 32
DEFAULT_MAX_BATCH_ITEMS = 256


@dataclass(frozen=True)
class AdmissionDecision:
    """What the server will actually run for one request.

    ``accepted`` is False only for the 429 path (``retryable`` True) —
    size problems never reject, they reroute.  When ``rerouted`` is
    True the solve runs with this decision's ``mode``/``budget``
    instead of the request's, and ``reason`` says why.
    """

    accepted: bool
    mode: str = "exact"
    method: Optional[str] = None
    budget: Optional[Budget] = None
    tier: str = "interactive"
    rerouted: bool = False
    reason: str = ""
    retryable: bool = False


@dataclass(frozen=True)
class AdmissionPolicy:
    """Sizing thresholds and concurrency limits for one server."""

    max_exact_tuples: int = DEFAULT_MAX_EXACT_TUPLES
    reroute_time_limit: float = DEFAULT_REROUTE_TIME_LIMIT
    reroute_node_limit: int = DEFAULT_REROUTE_NODE_LIMIT
    max_concurrent_solves: int = DEFAULT_MAX_CONCURRENT_SOLVES
    max_batch_items: int = DEFAULT_MAX_BATCH_ITEMS

    @classmethod
    def from_env(cls, env=None) -> "AdmissionPolicy":
        """Build a policy from ``REPRO_SERVING_*`` environment variables.

        Recognized: ``REPRO_SERVING_MAX_EXACT_TUPLES``,
        ``REPRO_SERVING_REROUTE_TIME_LIMIT`` (seconds),
        ``REPRO_SERVING_REROUTE_NODE_LIMIT``,
        ``REPRO_SERVING_MAX_CONCURRENT`` and
        ``REPRO_SERVING_MAX_BATCH_ITEMS``; unset variables keep the
        defaults.  A malformed value raises ``ValueError`` naming the
        variable and its value.
        """
        env = os.environ if env is None else env

        def _parse(name: str, default, kind):
            raw = env.get(name)
            if raw in (None, ""):
                return default
            try:
                return kind(raw)
            except ValueError:
                raise ValueError(
                    f"{name}={raw!r} is not a valid {kind.__name__}"
                ) from None

        return cls(
            max_exact_tuples=_parse(
                "REPRO_SERVING_MAX_EXACT_TUPLES", DEFAULT_MAX_EXACT_TUPLES, int
            ),
            reroute_time_limit=_parse(
                "REPRO_SERVING_REROUTE_TIME_LIMIT",
                DEFAULT_REROUTE_TIME_LIMIT,
                float,
            ),
            reroute_node_limit=_parse(
                "REPRO_SERVING_REROUTE_NODE_LIMIT", DEFAULT_REROUTE_NODE_LIMIT, int
            ),
            max_concurrent_solves=_parse(
                "REPRO_SERVING_MAX_CONCURRENT", DEFAULT_MAX_CONCURRENT_SOLVES, int
            ),
            max_batch_items=_parse(
                "REPRO_SERVING_MAX_BATCH_ITEMS", DEFAULT_MAX_BATCH_ITEMS, int
            ),
        )

    @property
    def reroute_budget(self) -> Budget:
        """The server-owned budget oversized requests run under."""
        return Budget(
            time_limit=self.reroute_time_limit,
            node_limit=self.reroute_node_limit,
        )

    def instance_size(self, request: SolveRequest) -> int:
        """The admission feature: endogenous tuple count.

        Exogenous tuples are free (they cannot be deleted, so they add
        no hitting-set variables); only endogenous tuples grow the
        search space the exact solvers explore.
        """
        return endogenous_tuple_count(request.database)

    def oversized(self, request: SolveRequest) -> bool:
        """Too big for the interactive exact tier?"""
        return self.instance_size(request) > self.max_exact_tuples

    def admit(self, request: SolveRequest, active_solves: int) -> AdmissionDecision:
        """Decide how (whether) to run ``request``.

        ``active_solves`` is the server's current in-flight solve gauge
        (coalesced followers do not count — they run no solver).
        """
        if active_solves >= self.max_concurrent_solves:
            return AdmissionDecision(
                accepted=False,
                retryable=True,
                reason=(
                    f"server at capacity ({active_solves} active solves, "
                    f"limit {self.max_concurrent_solves})"
                ),
            )
        size = self.instance_size(request)
        if size <= self.max_exact_tuples:
            return AdmissionDecision(
                accepted=True,
                mode=request.mode,
                method=request.method,
                budget=request.budget,
                tier="interactive",
            )
        if request.mode == "anytime":
            # Oversized anytime solves keep their mode but may not run
            # with a looser budget than the batch tier allows.
            budget = Budget.coerce(request.budget)
            clamped = Budget(
                time_limit=_tighter(budget.time_limit, self.reroute_time_limit),
                node_limit=_tighter(budget.node_limit, self.reroute_node_limit),
            )
            changed = clamped != budget
            return AdmissionDecision(
                accepted=True,
                mode="anytime",
                budget=clamped,
                tier="batch",
                rerouted=changed,
                reason=(
                    f"instance has {size} endogenous tuples "
                    f"(> {self.max_exact_tuples}); budget clamped"
                    if changed
                    else ""
                ),
            )
        return AdmissionDecision(
            accepted=True,
            mode="anytime",
            budget=self.reroute_budget,
            tier="batch",
            rerouted=True,
            reason=(
                f"instance has {size} endogenous tuples "
                f"(> {self.max_exact_tuples}); exact tier refused, "
                f"serving a certified anytime interval instead"
            ),
        )


def _tighter(requested: Optional[float], ceiling: Optional[float]):
    """The stricter of a requested limit and the tier ceiling."""
    if requested is None:
        return ceiling
    if ceiling is None:
        return requested
    return min(requested, ceiling)
