"""Relational database substrate.

This subpackage implements the data model of the paper (Section 2):
relational vocabularies, finite relation instances with an *exogenous*
flag, and database instances viewed as a disjoint union of tuples.

The central objects are:

``DBTuple``
    An immutable fact ``R(a, b, ...)`` with a stable identity, so that
    contingency sets (sets of tuples) are well defined even when the same
    value vector appears in two relations.

``Relation``
    A named, fixed-arity set of value vectors, marked endogenous or
    exogenous.  Exogenous relations provide context and may never appear
    in contingency sets (footnote 5 of the paper).

``Database``
    A collection of relations; supports evaluation bookkeeping (active
    domain, size ``n = |D|``) and functional-style deletion ``D - Gamma``.
"""

from repro.db.tuples import DBTuple
from repro.db.relation import Relation
from repro.db.database import Database, endogenous_tuple_count

__all__ = ["DBTuple", "Relation", "Database", "endogenous_tuple_count"]
