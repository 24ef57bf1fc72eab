"""A read-only report of the backend each engine layer picks.

Every layer a solve passes through decides its own backend at its own
decision point: witness enumeration (Section 2) in
:func:`repro.query.columnar._use_columnar` and the parallel component
split in :func:`repro.core.analyzer.split_instance`.  The kernel
reduction and the Theorem 24 exact hitting-set search decide per
witness structure and per component while they run, and the PTIME
tier's min cut has one implementation, so none of them has an entry.
:func:`plan_instance` calls exactly those functions for one instance
and collects their answers in a :class:`Plan`, so ``repro planner
explain`` reports what a solve would run without restating any
threshold.  Nothing on the solve or serving path imports this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import split_instance
from repro.db.database import Database
from repro.query.columnar import _use_columnar
from repro.query.cq import ConjunctiveQuery
from repro.planner.features import PlanFeatures, extract_features

__all__ = ["Plan", "PlanFeatures", "extract_features", "plan_instance"]


@dataclass(frozen=True)
class Plan:
    """One instance's backends, every layer in one place.

    ``join`` names the witness enumeration, and ``split`` says whether
    a parallel exact batch shards the instance per witness component.
    """

    join: str
    split: bool
    features: PlanFeatures

    def signature(self) -> str:
        """A compact, stable label."""
        return f"join={self.join},split={'yes' if self.split else 'no'}"


def plan_instance(
    database: Database, query: ConjunctiveQuery, weighted: bool = False
) -> Plan:
    """The :class:`Plan` for one instance, read from each layer's rule.

    Never builds anything.
    """
    features = extract_features(database, query, weighted=weighted)
    return Plan(
        join="columnar" if _use_columnar(database) else "reference",
        split=split_instance(database),
        features=features,
    )
