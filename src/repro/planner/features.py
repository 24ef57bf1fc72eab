"""Cheap size features of one (query, database) instance.

The quantities the paper's complexity analysis is phrased in: the
endogenous tuple count bounds the hitting-set variable count
(exogenous tuples never enter a contingency set, Definition 1), the
witness count of ``D |= q`` (Section 2) bounds the constraint count and
is itself bounded by the product of the per-atom relation sizes, and
the dichotomy (Theorem 24) decides whether the instance is solved by a
polynomial flow construction or by exponential search.
:func:`extract_features` reads them without building or enumerating
anything, through the same helpers the engine layers size instances
with.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.db.database import Database, endogenous_tuple_count
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import witness_estimate
from repro.resilience.solver import dispatch_plan_for


@dataclass(frozen=True)
class PlanFeatures:
    """The size features ``repro planner explain`` prints.

    ``storage`` marks a snapshot-backed instance
    (:class:`repro.storage.StoredDatabase`).  ``weighted`` is the
    effective flag: an all-unit database is not weighted.
    """

    total_tuples: int
    endogenous_tuples: int
    witness_estimate: int
    ptime: bool
    weighted: bool
    storage: bool

    def as_dict(self) -> Dict[str, object]:
        """Field name → value, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def extract_features(
    database: Database, query: ConjunctiveQuery, weighted: bool = False
) -> PlanFeatures:
    """The instance's :class:`PlanFeatures`: O(#relations) counting and
    one cached dispatch classification."""
    effective = bool(weighted) and database.has_weighted_costs()
    return PlanFeatures(
        total_tuples=len(database),
        endogenous_tuples=endogenous_tuple_count(database),
        witness_estimate=witness_estimate(database, query),
        ptime=dispatch_plan_for(database, query, weighted=effective).kind
        != "exact",
        weighted=effective,
        storage=getattr(database, "storage_snapshot", None) is not None,
    )
