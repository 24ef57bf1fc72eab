"""Resilience solvers.

Resilience (Definition 1): ``rho(q, D)`` is the size of a minimum set of
endogenous tuples whose deletion makes ``D`` falsify ``q``.  This package
provides:

* :mod:`repro.resilience.exact` — exact minimum hitting set over the
  witness structure, via branch-and-bound and via scipy's ILP solver;
* :mod:`repro.resilience.flow_linear` — the network-flow algorithm for
  linear queries ([31]; extended to duplicated relations per
  Proposition 31);
* :mod:`repro.resilience.flow_special` — the paper's bespoke
  polynomial-time algorithms: ``q_perm``/``q_Aperm`` (Proposition 33),
  ``q_ACconf`` (Proposition 12), ``q_A3perm_R`` (Proposition 13),
  ``q_Swx3perm_R`` (Proposition 44), ``q_TS3conf`` (Proposition 41), and
  ``q_z3`` (Proposition 36);
* :mod:`repro.resilience.approx` — the certified approximate / anytime
  tier for instances beyond exact reach (the NP-complete side of
  Theorem 24): LP-relaxation lower bounds, greedy / LP-rounding upper
  bounds, local search, and a budgeted anytime driver returning
  intervals ``lb <= rho(q, D) <= ub``;
* :mod:`repro.resilience.solver` — a dispatcher that routes a query to
  the appropriate algorithm (flow when the classifier says P, exact
  search otherwise) and can cross-check; ``mode="approx"/"anytime"``
  selects the bounded tier.
"""

from repro.resilience.types import (
    BoundedResilienceResult,
    Budget,
    ResilienceResult,
    UnbreakableQueryError,
)
from repro.resilience.approx import (
    disjoint_witness_lower_bound,
    greedy_hitting_set,
    greedy_ratio_bound,
    resilience_anytime,
    resilience_bounds,
)
from repro.resilience.exact import (
    resilience_exact,
    resilience_ilp,
    resilience_branch_and_bound,
    is_contingency_set,
)
from repro.resilience.flow_linear import LinearFlowSolver, resilience_linear_flow
from repro.resilience.solver import (
    DispatchPlan,
    dispatch_plan,
    dispatch_plan_for,
    in_res,
    resilience,
    solve,
)

__all__ = [
    "DispatchPlan",
    "dispatch_plan",
    "dispatch_plan_for",
    "in_res",
    "Budget",
    "BoundedResilienceResult",
    "ResilienceResult",
    "UnbreakableQueryError",
    "resilience_exact",
    "resilience_ilp",
    "resilience_branch_and_bound",
    "resilience_bounds",
    "resilience_anytime",
    "greedy_hitting_set",
    "greedy_ratio_bound",
    "disjoint_witness_lower_bound",
    "is_contingency_set",
    "LinearFlowSolver",
    "resilience_linear_flow",
    "solve",
    "resilience",
]
