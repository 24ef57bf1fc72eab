"""A read-only report of the backend each engine layer picks.

Every layer a solve passes through decides its own backend at its own
decision point: witness enumeration (Section 2) in
:func:`repro.query.columnar._use_columnar`, kernel reduction in
:func:`repro.witness.structure._kernel_backend`, the Theorem 24
exact hitting-set search in
:func:`repro.resilience.exact.solver_backend_override`, and the
parallel component split in :func:`repro.core.analyzer.split_instance`.
(The PTIME tier's min cut has one implementation, so it has no entry.)
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
from repro.resilience.exact import solver_backend_override
from repro.witness.structure import _kernel_backend

__all__ = ["Plan", "PlanFeatures", "extract_features", "plan_instance"]


@dataclass(frozen=True)
class Plan:
    """One instance's backends, every layer in one place.

    ``solver`` is the backend ``REPRO_SOLVER_BACKEND`` forces
    (``"bnb"``/``"ilp"``), else ``"auto"``: the exact tier then picks
    per component, running HiGHS only where a row-budgeted branch and
    bound leaves one open.  ``split`` says whether a parallel exact
    batch shards the instance per witness component.
    """

    join: str
    kernel: str
    solver: str
    split: bool
    features: PlanFeatures

    def signature(self) -> str:
        """A compact, stable label."""
        return (
            f"join={self.join},kernel={self.kernel},"
            f"solver={self.solver},split={'yes' if self.split else 'no'}"
        )


def plan_instance(
    database: Database, query: ConjunctiveQuery, weighted: bool = False
) -> Plan:
    """The :class:`Plan` for one instance, read from each layer's rule.

    Never builds anything.
    """
    features = extract_features(database, query, weighted=weighted)
    return Plan(
        join="columnar" if _use_columnar(database) else "reference",
        kernel=_kernel_backend(),
        solver=solver_backend_override() or "auto",
        split=split_instance(database),
        features=features,
    )
