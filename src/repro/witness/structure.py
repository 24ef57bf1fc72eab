"""The shared witness-structure engine.

Every exact resilience computation is a minimum hitting set over the
*witness structure* of a (query, database) pair (the Section 2 /
Definition 1 view of resilience): each witness of
``D |= q`` contributes the set of endogenous tuples it uses, and a
contingency set is exactly a set of endogenous tuples intersecting every
such set.  Before this module existed, each solver call re-enumerated
witnesses from scratch and worked on raw ``FrozenSet[DBTuple]`` objects;
:class:`WitnessStructure` enumerates once, maps tuples to a compact
integer universe, and applies the standard hitting-set kernelization
repertoire *before* any solver runs:

1. **superset elimination** — only inclusion-minimal witness sets
   matter (hitting a subset hits all its supersets);
2. **unit-witness forcing** — a singleton witness ``{t}`` forces ``t``
   into (some) minimum hitting set; ``t`` is committed and every
   witness it hits is removed;
3. **dominated-tuple elimination** — if every remaining witness
   containing ``t`` also contains ``u``, any solution using ``t`` can
   swap it for ``u``; ``t`` is deleted from the candidate pool;
4. **connected-component decomposition** — the tuple/witness incidence
   graph splits into components that are solved independently and
   summed.

Stages 1–3 run to a fixpoint (each can enable the others), and the
whole pipeline frequently solves small instances outright, leaving the
branch-and-bound / ILP backends only the irreducible core.

**Weighted instances.**  With per-tuple costs (``build(...,
weighted=True)``), stages 1, 2, and 4 are cost-oblivious — minimality
and forcing are pure feasibility arguments — but stage 3 must compare
costs: ``t`` may only be swapped for ``u`` when ``cost(u) <= cost(t)``
(a cheaper-or-equal dominator preserves the weighted optimum; a more
expensive one does not).  Both the frozenset reference and the bitset
matrix kernel apply the same cost-aware rule, the structure records
per-id costs (:attr:`WitnessStructure.costs`), and the preserved
invariant becomes ``opt_w(original) = cost(forced) + opt_w(reduced)``.
An unweighted build is bit-for-bit the historical pipeline.

Internally witness sets are ``frozenset``s of integer tuple-ids.  From
:data:`_BITSET_MIN_SETS` sets on, stages 1–3 run on one padded numpy
matrix of those ids instead (:func:`_reduce_matrix`): superset
elimination looks subset keys up among sorted row keys, stage 3's
subset test ``rows(t) ⊆ rows(u)`` becomes ``|rows(t) ∩ rows(u)| ==
deg(t)`` over counts of co-occurring row pairs, and rounds after the
first revisit only what the round before changed.  The scipy CSR
incidence matrix consumed by the ILP backend is built directly from the
same ids via :meth:`WitnessStructure.incidence_matrix` /
:meth:`WitnessComponent.incidence_matrix`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.db.database import Database
from repro.db.tuples import DBTuple
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import (
    DatabaseIndex,
    _witness_tuple_sets_reference,
)


class UnbreakableQueryError(ValueError):
    """Raised when no contingency set exists.

    This happens when some witness uses only exogenous tuples: no
    deletion of endogenous tuples can falsify the query, so resilience
    is undefined (the decision problem answers "no" for every k, and
    the optimization problem has no finite optimum).

    Defined here — where witness enumeration first detects the
    condition — and re-exported by :mod:`repro.resilience.types`, its
    historical home.
    """


@dataclass
class ReductionStats:
    """What preprocessing did to one witness structure.

    All counts refer to *endogenous-restricted, de-duplicated* witness
    sets (the output of :func:`repro.query.evaluation.witness_tuple_sets`).
    """

    witnesses_raw: int = 0
    witnesses_distinct: int = 0
    witnesses_minimal: int = 0
    witnesses_final: int = 0
    tuples_raw: int = 0
    tuples_final: int = 0
    forced_tuples: int = 0
    dominated_tuples: int = 0
    components: int = 0
    rounds: int = 0
    time_enumerate: float = 0.0
    time_reduce: float = 0.0

    def merge(self, other: "ReductionStats") -> None:
        """Accumulate ``other`` into this instance (for batch reports)."""
        self.witnesses_raw += other.witnesses_raw
        self.witnesses_distinct += other.witnesses_distinct
        self.witnesses_minimal += other.witnesses_minimal
        self.witnesses_final += other.witnesses_final
        self.tuples_raw += other.tuples_raw
        self.tuples_final += other.tuples_final
        self.forced_tuples += other.forced_tuples
        self.dominated_tuples += other.dominated_tuples
        self.components += other.components
        self.rounds += other.rounds
        self.time_enumerate += other.time_enumerate
        self.time_reduce += other.time_reduce


@dataclass(frozen=True)
class WitnessComponent:
    """One connected component of the reduced tuple/witness graph.

    ``tuple_ids`` are global ids into the parent structure's universe;
    ``sets`` are the component's witness sets over those same global
    ids.  Components partition both the active tuples and the witness
    sets, so resilience is the sum of per-component minimum hitting
    sets.
    """

    tuple_ids: Tuple[int, ...]
    sets: Tuple[FrozenSet[int], ...]

    def incidence_matrix(self):
        """Sparse CSR 0/1 matrix: rows = witness sets, cols = local
        positions into ``tuple_ids`` (sorted ascending)."""
        local = {t: j for j, t in enumerate(self.tuple_ids)}
        return _csr_from_sets(
            [frozenset(local[t] for t in s) for s in self.sets],
            len(self.tuple_ids),
        )


class WitnessStructure:
    """The preprocessed witness structure of one (query, database) pair.

    Build with :meth:`build`; consume via :attr:`components` (solvers),
    :meth:`incidence_matrix` (whole-structure CSR), or the convenience
    accessors below.  Attributes:

    ``universe``
        All endogenous tuples appearing in any witness, sorted by
        :meth:`DBTuple.sort_key`; a tuple's id is its position here.
    ``raw_sets`` / ``sets``
        Witness sets (frozensets of tuple ids) before / after
        preprocessing.  ``sets`` only contains inclusion-minimal sets
        over non-forced, non-dominated tuples.
    ``forced_ids`` / ``forced``
        Tuples committed by unit-witness forcing; every one belongs to
        some minimum contingency set, so solvers add ``len(forced)`` to
        the optimum of ``sets``.
    ``components``
        The connected components of the reduced structure, ordered by
        smallest tuple id; they partition the active tuples.
    ``satisfied``
        Whether ``D |= q`` at build time (no witnesses ⇒ resilience 0).

    Raises :class:`UnbreakableQueryError` at build time when some
    witness uses only exogenous tuples.
    """

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        universe: Tuple[DBTuple, ...],
        raw_sets: Optional[Tuple[FrozenSet[int], ...]],
        sets: Tuple[FrozenSet[int], ...],
        forced_ids: FrozenSet[int],
        stats: ReductionStats,
        raw_matrix=None,
        weighted: bool = False,
        costs: Optional[Tuple[int, ...]] = None,
    ):
        self.database = database
        self.query = query
        self.universe = universe
        self.weighted = weighted
        # Per-universe-id costs; populated only on weighted builds (an
        # unweighted structure charges 1 per tuple implicitly).
        self.costs: Optional[Tuple[int, ...]] = costs
        self.tuple_index: Dict[DBTuple, int] = {t: i for i, t in enumerate(universe)}
        # raw_sets may arrive as the padded id matrix of the columnar
        # fast path; the frozenset view is materialized on first access
        # (the hot path never reads it).
        self._raw_sets = tuple(raw_sets) if raw_sets is not None else None
        self._raw_matrix = raw_matrix
        self.sets = sets
        self.forced_ids = forced_ids
        self.stats = stats
        self.components: Tuple[WitnessComponent, ...] = _decompose(sets)
        stats.components = len(self.components)
        stats.witnesses_final = len(sets)
        stats.tuples_final = sum(len(c.tuple_ids) for c in self.components)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: Database,
        query: ConjunctiveQuery,
        reduce: bool = True,
        index: Optional[DatabaseIndex] = None,
        weighted: bool = False,
    ) -> "WitnessStructure":
        """Enumerate witnesses and (optionally) run all reductions.

        ``reduce=False`` skips every preprocessing stage — useful for
        cross-checking that the reductions preserve the optimum.  An
        existing :class:`DatabaseIndex` may be passed to reuse per-atom
        hash indexes across many builds on the same database.
        ``weighted=True`` records per-tuple costs and switches
        dominated-tuple elimination to the cost-aware rule (see the
        module doc); with all costs at 1 the result is identical to an
        unweighted build.

        Large instances enumerate through the vectorized columnar join
        (:func:`repro.query.columnar.try_witness_incidence`), which
        hands over the sorted universe and the witness→tuple-id matrix
        directly; otherwise the reference evaluator runs and the ids
        are assigned here.  Either way the ids, sets, and statistics
        are identical.
        """
        from repro.query.columnar import try_witness_incidence

        t0 = time.perf_counter()
        incidence = try_witness_incidence(database, query, index=index)
        if incidence is not None:
            universe, matrix = incidence
            pad = len(universe)
            if matrix.shape[0] and (
                matrix.shape[1] == 0 or bool((matrix[:, 0] == pad).any())
            ):
                raise UnbreakableQueryError(
                    "a witness uses only exogenous tuples; the query cannot "
                    "be falsified by endogenous deletions"
                )
            t1 = time.perf_counter()
            raw = None
            n_raw = matrix.shape[0]
        else:
            # try_witness_incidence already attempted (and counted) the
            # columnar path; enumerate via the reference evaluator
            # directly rather than re-dispatching.
            tuple_sets = _witness_tuple_sets_reference(
                database, query, endogenous_only=True, index=index
            )
            for s in tuple_sets:
                if not s:
                    raise UnbreakableQueryError(
                        "a witness uses only exogenous tuples; the query "
                        "cannot be falsified by endogenous deletions"
                    )
            t1 = time.perf_counter()
            # key= computes each repr-based sort key once instead of per
            # comparison — on thousands of tuples this is a 10x sort.
            universe = tuple(
                sorted({t for s in tuple_sets for t in s}, key=DBTuple.sort_key)
            )
            idx = {t: i for i, t in enumerate(universe)}
            raw = tuple(frozenset(idx[t] for t in s) for s in tuple_sets)
            n_raw = len(raw)
            matrix = None

        stats = ReductionStats(
            witnesses_raw=n_raw,
            tuples_raw=len(universe),
            time_enumerate=t1 - t0,
        )
        costs = (
            tuple(database.cost(t) for t in universe) if weighted else None
        )
        # Both enumeration paths deduplicate witness sets already.
        stats.witnesses_distinct = n_raw if raw is None else len(set(raw))
        if (
            reduce
            and matrix is not None
            and n_raw >= _BITSET_MIN_SETS
            and matrix.shape[1] <= _MINIMAL_SUBSET_ENUM_MAX_LEN
        ):
            # The matrix is already the bitset kernel's working
            # representation — skip the frozenset round-trip.
            out, forced_ids, dominated = _reduce_matrix(
                matrix, len(universe), stats, costs=costs
            )
            sets: List[FrozenSet[int]] = _sets_from_matrix(out, len(universe))
            forced = frozenset(forced_ids)
        else:
            if raw is None:
                raw = tuple(
                    frozenset(t for t in row if t != len(universe))
                    for row in matrix.tolist()
                )
            if reduce:
                sets, forced, dominated = _reduce(list(raw), stats, costs=costs)
            else:
                sets, forced, dominated = list(raw), frozenset(), 0
                stats.witnesses_minimal = len(raw)
        stats.forced_tuples = len(forced)
        stats.dominated_tuples = dominated
        stats.time_reduce = time.perf_counter() - t1
        return cls(
            database,
            query,
            universe,
            raw,
            tuple(sets),
            frozenset(forced),
            stats,
            raw_matrix=matrix,
            weighted=weighted,
            costs=costs,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def raw_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Witness sets before preprocessing (materialized lazily)."""
        if self._raw_sets is None:
            pad = len(self.universe)
            self._raw_sets = tuple(
                frozenset(t for t in row if t != pad)
                for row in self._raw_matrix.tolist()
            )
        return self._raw_sets

    @property
    def satisfied(self) -> bool:
        """``D |= q`` — the structure has at least one witness."""
        return self.stats.witnesses_raw > 0

    @property
    def forced(self) -> FrozenSet[DBTuple]:
        """The forced tuples, as database facts."""
        return frozenset(self.universe[i] for i in self.forced_ids)

    def tuples(self, ids) -> FrozenSet[DBTuple]:
        """Map ids back to database facts."""
        return frozenset(self.universe[i] for i in ids)

    def cost_of(self, ids) -> int:
        """The summed cost of a set of tuple ids.

        On an unweighted structure every tuple costs 1, so this is
        simply the count — solvers can use it unconditionally.
        """
        if self.costs is None:
            return len(ids) if not isinstance(ids, int) else 1
        if isinstance(ids, int):
            return self.costs[ids]
        return sum(self.costs[i] for i in ids)

    @property
    def forced_cost(self) -> int:
        """The summed cost of the forced tuples."""
        return self.cost_of(self.forced_ids)

    def incidence_matrix(self):
        """CSR 0/1 incidence of the *reduced* structure: rows = witness
        sets in ``self.sets``, cols = the full universe."""
        return _csr_from_sets(self.sets, len(self.universe))

    def __repr__(self) -> str:
        return (
            f"WitnessStructure(witnesses={self.stats.witnesses_raw}->{len(self.sets)}, "
            f"tuples={len(self.universe)}->{self.stats.tuples_final}, "
            f"forced={len(self.forced_ids)}, components={len(self.components)})"
        )


def _csr_from_sets(sets: Sequence[FrozenSet[int]], n_cols: int):
    """Sparse CSR 0/1 matrix with one row per set over ``n_cols`` columns."""
    from scipy.sparse import csr_matrix

    indptr = [0]
    indices: List[int] = []
    for s in sets:
        indices.extend(sorted(s))
        indptr.append(len(indices))
    return csr_matrix(
        ([1.0] * len(indices), indices, indptr),
        shape=(len(sets), n_cols),
    )


# ---------------------------------------------------------------------------
# Reduction pipeline
# ---------------------------------------------------------------------------

def _bitsets(sets: Sequence[FrozenSet[int]]) -> Dict[int, int]:
    """Per-tuple bitsets over witness rows: bit ``r`` of ``out[t]`` is
    set iff tuple ``t`` occurs in ``sets[r]``."""
    out: Dict[int, int] = {}
    for row, s in enumerate(sets):
        bit = 1 << row
        for t in s:
            out[t] = out.get(t, 0) | bit
    return out


# Pairwise minimality checking is quadratic in the number of witness
# sets; past this count, and as long as the sets themselves are small
# (witness sets never exceed the query's endogenous atom count), we
# instead enumerate each set's proper subsets and hash-probe for them —
# O(m * 2^k) with tiny constants instead of O(m^2).
_MINIMAL_PAIRWISE_LIMIT = 512
_MINIMAL_SUBSET_ENUM_MAX_LEN = 12


def _minimal_sets(sets: List[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Keep only inclusion-minimal sets (deduplicated, deterministic)."""
    distinct = set(sets)
    ordered = sorted(distinct, key=lambda s: (len(s), sorted(s)))
    max_len = len(ordered[-1]) if ordered else 0
    if (
        len(ordered) > _MINIMAL_PAIRWISE_LIMIT
        and max_len <= _MINIMAL_SUBSET_ENUM_MAX_LEN
    ):
        # A set is non-minimal iff one of its proper subsets is also a
        # witness set; with sets this small, probing every subset beats
        # comparing every pair.
        from itertools import combinations

        kept = []
        for s in ordered:
            elems = sorted(s)
            if not any(
                frozenset(sub) in distinct
                for r in range(1, len(elems))
                for sub in combinations(elems, r)
            ):
                kept.append(s)
        return kept
    kept = []
    for s in ordered:
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _dominated_tuples(
    sets: Sequence[FrozenSet[int]],
    costs: Optional[Sequence[int]] = None,
) -> List[int]:
    """Tuples whose witness rows are covered by another tuple's rows.

    ``t`` is dominated by ``u`` when ``rows(t) ⊆ rows(u)``: any hitting
    set using ``t`` can use ``u`` instead.  For *equal* row sets only
    the smallest tuple id survives, which keeps the choice
    deterministic; a tuple already marked dominated is never used as a
    dominator (domination is transitive, so a live dominator always
    exists).

    With ``costs`` (weighted instances) the swap argument needs
    ``cost(u) <= cost(t)`` — replacing ``t`` by a strictly more
    expensive ``u`` could raise the weighted optimum — and for equal
    row sets the strictly cheaper tuple wins (smallest id on cost
    ties).  ``costs=None`` is exactly the historical unweighted rule.
    """
    bitsets = _bitsets(sets)
    dominated: set = set()
    for t, rows_t in sorted(bitsets.items()):
        # Any dominator of t appears in *every* witness row of t, in
        # particular t's lowest row — so only that row's members are
        # candidates.  Witness sets are small (bounded by the query's
        # endogenous atom count), which makes this linear-ish in the
        # incidence size instead of quadratic in the tuple count.
        lowest_row = (rows_t & -rows_t).bit_length() - 1
        cost_t = 1 if costs is None else costs[t]
        for u in sorted(sets[lowest_row]):
            if u == t or u in dominated:
                continue
            cost_u = 1 if costs is None else costs[u]
            if cost_u > cost_t:
                continue
            rows_u = bitsets[u]
            if rows_t & ~rows_u == 0 and (
                rows_t != rows_u or cost_u < cost_t or u < t
            ):
                dominated.add(t)
                break
    return sorted(dominated)


def _reduce(
    sets: List[FrozenSet[int]],
    stats: ReductionStats,
    costs: Optional[Sequence[int]] = None,
) -> Tuple[List[FrozenSet[int]], FrozenSet[int], int]:
    """Run stages 1–3 to a fixpoint.

    Returns ``(reduced_sets, forced_ids, n_dominated)``.  The invariant
    maintained is that ``opt(original) = len(forced) + opt(reduced)``
    (on weighted instances, ``opt_w(original) = cost(forced) +
    opt_w(reduced)``) and that any hitting set of ``reduced_sets``
    together with the forced tuples hits every original witness set.
    ``costs`` switches domination to the cost-aware rule.

    Runs the vectorized bitset kernel, except that tiny systems (fewer
    than :data:`_BITSET_MIN_SETS` sets) stay on the frozenset reference
    pipeline, where per-call numpy overhead would dominate; outputs are
    identical either way, including the deterministic
    ``(len, sorted elements)`` order of the reduced sets.
    """
    if (
        len(sets) < _BITSET_MIN_SETS
        or any(not s for s in sets)
        # The matrix minimality stage enumerates 2^width subset
        # patterns per row length; wide witness sets stay on the
        # reference pipeline's pairwise scan (same guard it applies
        # to its own subset-enumeration fast path).
        or max(len(s) for s in sets) > _MINIMAL_SUBSET_ENUM_MAX_LEN
    ):
        return _reduce_reference(sets, stats, costs=costs)
    matrix, pad = _matrix_from_sets(sets)
    matrix, forced, dominated_total = _reduce_matrix(
        matrix, pad, stats, costs=costs
    )
    return _sets_from_matrix(matrix, pad), frozenset(forced), dominated_total


def _reduce_reference(
    sets: List[FrozenSet[int]],
    stats: ReductionStats,
    costs: Optional[Sequence[int]] = None,
) -> Tuple[List[FrozenSet[int]], FrozenSet[int], int]:
    """The original frozenset reduction fixpoint (the kernel oracle)."""
    forced: set = set()
    dominated_total = 0
    first = True
    changed = True
    while changed:
        stats.rounds += 1
        changed = False

        minimal = _minimal_sets(sets)
        if len(minimal) != len(sets):
            changed = True
        sets = minimal
        if first:
            stats.witnesses_minimal = len(sets)
            first = False

        units = {next(iter(s)) for s in sets if len(s) == 1}
        if units:
            forced |= units
            sets = [s for s in sets if not (s & units)]
            changed = True

        dominated = set(_dominated_tuples(sets, costs=costs))
        if dominated:
            dominated_total += len(dominated)
            sets = [frozenset(s - dominated) for s in sets]
            changed = True
    return sets, frozenset(forced), dominated_total


# ---------------------------------------------------------------------------
# The bitset kernel (vectorized reduction pipeline)
# ---------------------------------------------------------------------------

# Below this many witness sets the frozenset pipeline wins (fixed numpy
# call overhead per reduction stage); the dispatch is output-invisible
# because both pipelines produce identical results.  Tests lift this
# threshold, :data:`_DECOMPOSE_MATRIX_MIN_SETS` and the search's
# ``_BNB_BITSET_MIN_SETS`` past any input to run the reference paths
# (``tests/oracles/engines.py``).
_BITSET_MIN_SETS = 48
#
# Witness sets are held as one padded numpy int64 matrix: row = witness
# set with its tuple ids ascending, right-padded with ``pad`` (one past
# the largest id, so ascending row sort keeps real ids in front).
# Superset elimination looks subset keys up among sorted row keys, unit
# forcing runs on numpy masks, and dominated-tuple elimination counts
# how often two tuples share a row — no frozenset algebra on the hot
# path.  Every stage reproduces the reference pipeline's deterministic
# output order exactly.  Ids are dense (universe positions), so the
# per-id masks and counts below are no larger than the universe.

def _matrix_from_sets(
    sets: Sequence[FrozenSet[int]],
) -> Tuple[np.ndarray, int]:
    """Pack id sets into a padded, row-sorted matrix; returns (mat, pad)."""
    m = len(sets)
    lengths = np.fromiter((len(s) for s in sets), dtype=np.int64, count=m)
    width = int(lengths.max()) if m else 0
    flat = np.fromiter(
        (t for s in sets for t in s), dtype=np.int64, count=int(lengths.sum())
    )
    pad = int(flat.max()) + 1 if len(flat) else 1
    mat = np.full((m, width), pad, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    row_idx = np.repeat(np.arange(m, dtype=np.int64), lengths)
    col_idx = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets, lengths)
    mat[row_idx, col_idx] = flat
    mat.sort(axis=1)
    return mat, pad


def _sets_from_matrix(mat: np.ndarray, pad: int) -> List[FrozenSet[int]]:
    """Unpack matrix rows back into frozensets (plain Python ints)."""
    return [
        frozenset(t for t in row if t != pad) for row in mat.tolist()
    ]


def _row_keys(mat: np.ndarray, base: int) -> Optional[np.ndarray]:
    """Combine each row's columns into one int64 key, or ``None`` when
    the positional encoding would overflow (the caller then falls back
    to per-pattern key compression)."""
    m, k = mat.shape
    if k == 0:
        return np.zeros(m, dtype=np.int64)
    if k * np.log2(base) >= 62:
        return None
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return mat @ powers


def _minimal_matrix(
    mat: np.ndarray, pad: int, shrunk: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate, order by ``(len, elements)``, drop non-minimal rows.

    A row is non-minimal iff one of its proper subsets is also a row.
    Each row's subsets of every size some row has are keyed, all
    position patterns of one (length, size) at once, and looked up among
    the sorted row keys — the matrix form of the reference
    ``_minimal_sets`` (same output, same order).

    ``shrunk`` marks the rows that lost tuples since the matrix was last
    distinct and minimal.  A row can then only duplicate or strictly
    contain a shrunk row (two other rows relate as they did before, and
    a shrunk row only lost elements), so only the shrunk rows are looked
    up, and only rows holding the smallest id of one are probed.
    Returns the minimal matrix and the rows it removed.
    """
    from itertools import combinations

    from repro.query.columnar import _combine_keys

    base = pad + 1
    m, k = mat.shape
    lengths = (mat != pad).sum(axis=1)
    keys = _row_keys(mat, base)
    if keys is not None and (k + 1) * float(base) ** k < 2**62:
        # One int64 key per row realizes the deduplication *and* the
        # (len, elements) order — rows of equal length share their
        # padding digits, so the positional encoding compares exactly
        # like the element tuples.
        combined = lengths * np.int64(base) ** k + keys
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        first = np.ones(m, dtype=bool)
        first[1:] = combined[1:] != combined[:-1]
        kept = order[first]
    else:
        kept = np.unique(mat, axis=0, return_index=True)[1]
        kept = kept[
            np.lexsort(
                tuple(mat[kept, j] for j in range(k - 1, -1, -1))
                + (lengths[kept],)
            )
        ]
    duplicate = np.ones(m, dtype=bool)
    duplicate[kept] = False
    removed = mat[duplicate]
    mat, lengths = mat[kept], lengths[kept]
    if keys is not None:
        keys = keys[kept]
    if not len(mat) or k <= 1:
        return mat, removed

    # A shrunk row's duplicate that stayed unshrunk has no strict
    # superset either (any would have been one before), so marking
    # only the kept copies of shrunk rows loses nothing.
    target = np.ones(len(mat), dtype=bool) if shrunk is None else shrunk[kept]
    sizes = sorted(set(lengths[target].tolist()))
    present = [mat[target, j] for j in range(k)]
    if keys is not None:
        sorted_keys = np.sort(keys[target])
        powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    # A strict superset of a target holds the target's smallest id.
    holds = np.zeros(base, dtype=bool)
    holds[present[0]] = True
    holds[pad] = False
    candidate = holds[mat].any(axis=1)
    drop = np.zeros(len(mat), dtype=bool)
    for length in sorted(set(lengths[candidate].tolist())):
        rows = np.flatnonzero((lengths == length) & candidate)
        for r in sizes:
            if r >= length:
                break
            patterns = np.array(list(combinations(range(length), r)))
            # Blocks of rows keep each probe under 2**16 keys.
            step = max(1, (1 << 16) // len(patterns))
            for start in range(0, len(rows), step):
                block = rows[start:start + step]
                sub = mat[block]
                cols = [sub[:, patterns[:, i]] for i in range(r)]
                if keys is not None:
                    probe = sum(col * powers[i] for i, col in enumerate(cols))
                    probe += int(pad * powers[r:].sum())
                    pos = np.searchsorted(sorted_keys, probe)
                    pos = np.minimum(pos, len(sorted_keys) - 1)
                    hit = sorted_keys[pos] == probe
                else:
                    fill = [np.full(cols[0].size, pad)] * (k - r)
                    present_key, probe_key = _combine_keys(
                        present, [col.ravel() for col in cols] + fill, base
                    )
                    hit = np.isin(probe_key, present_key).reshape(cols[0].shape)
                drop[block[hit.any(axis=1)]] = True
    return mat[~drop], np.concatenate((removed, mat[drop]))


def _dominated_matrix(
    mat: np.ndarray,
    pad: int,
    costs: Optional[Sequence[int]] = None,
    revisit: Optional[np.ndarray] = None,
) -> List[int]:
    """The dominated tuples of a padded matrix (ascending ids).

    The rule of the reference :func:`_dominated_tuples`: ``t`` is
    dominated iff some ``u != t`` has ``cost(u) <= cost(t)``,
    ``rows(t) ⊆ rows(u)`` and (``rows(t) != rows(u)`` or ``cost(u) <
    cost(t)`` or ``u < t``), every cost being 1 unweighted.  The
    relation is transitive and strictly increases ``(|rows|, -cost,
    -id)``, so every dominated tuple has an undominated dominator: the
    reference scan's skipping of dominators it already marked changes
    nothing, and the set does not depend on any scan order.  One
    vectorized test decides it, with ``|rows(t) ∩ rows(u)| == deg(t)``
    as the subset test over the co-occurrence counts of row pairs.

    ``revisit`` (a boolean mask over ids and ``pad``) tests only those
    tuples, and counts pairs only in the rows that hold one of them.
    """
    base = pad + 1
    deg = np.bincount(mat.ravel(), minlength=base)
    if revisit is not None:
        mat = mat[revisit[mat].any(axis=1)]
    # Rows are ascending with the padding last, so column i < j holds
    # the smaller id of each pair, and a real id in column j has real
    # ids in every column before it.
    pairs = []
    for j in range(1, mat.shape[1]):
        real = mat[:, j] != pad
        high = mat[real, j]
        pairs.extend(mat[real, i] * base + high for i in range(j))
    if not pairs:
        return []
    keys, co = np.unique(np.concatenate(pairs), return_counts=True)
    lo, hi = np.divmod(keys, base)
    lo_dominated = co == deg[lo]
    hi_dominated = co == deg[hi]
    if costs is None:
        lo_dominated &= deg[hi] != deg[lo]
    else:
        cost = np.asarray(costs)
        cost_lo, cost_hi = cost[lo], cost[hi]
        lo_dominated &= (cost_hi < cost_lo) | (
            (cost_hi == cost_lo) & (deg[hi] != deg[lo])
        )
        hi_dominated &= cost_lo <= cost_hi
    dominated = np.union1d(lo[lo_dominated], hi[hi_dominated])
    if revisit is not None:
        dominated = dominated[revisit[dominated]]
    return dominated.tolist()


def _reduce_matrix(
    mat: np.ndarray,
    pad: int,
    stats: ReductionStats,
    costs: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, List[int], int]:
    """The stages 1–3 fixpoint on the padded matrix representation.

    Mirrors :func:`_reduce_reference` round for round (same ``rounds``
    and ``witnesses_minimal`` accounting, same fixpoint condition) and
    returns ``(final_matrix, forced_ids, n_dominated)``.

    Round 1 runs every stage on the whole matrix.  Later rounds revisit
    only what the round before changed, since rows only shrink or go:
    superset elimination probes only for the rows domination shrank, and
    domination retests only the tuples of the rows superset elimination
    removed.  A tuple whose rows all remain was not dominated at the last
    pass and cannot be now.  A round with nothing to revisit changes
    nothing; it is counted and ends the fixpoint.
    """
    forced: Set[int] = set()
    dominated_total = 0
    shrunk: Optional[np.ndarray] = None  # rows the last domination shrank
    changed = True
    while changed:
        stats.rounds += 1
        if shrunk is not None and not shrunk.any():
            break
        minimal, removed = _minimal_matrix(mat, pad, shrunk)
        changed = minimal.shape[0] != mat.shape[0]
        mat = minimal
        if shrunk is None:
            stats.witnesses_minimal = mat.shape[0]

        # The rows are distinct and minimal now, so the only row that
        # holds a unit's tuple is the unit itself: forcing drops just
        # those rows, and no other tuple's rows change.
        unit = (mat != pad).sum(axis=1) == 1
        if unit.any():
            forced.update(mat[unit, 0].tolist())
            mat = mat[~unit]
            changed = True

        revisit = None  # round 1 tests every tuple
        if shrunk is not None:
            revisit = np.zeros(pad + 1, dtype=bool)
            revisit[removed] = True
            revisit[pad] = False
        dominated = []
        if revisit is None or len(removed):
            dominated = _dominated_matrix(mat, pad, costs, revisit)
        shrunk = np.zeros(len(mat), dtype=bool)
        if dominated:
            dominated_total += len(dominated)
            gone = np.zeros(pad + 1, dtype=bool)
            gone[dominated] = True
            hit = gone[mat]
            shrunk = hit.any(axis=1)
            mat = np.where(hit, np.int64(pad), mat)
            mat.sort(axis=1)
            changed = True
    return mat, sorted(forced), dominated_total


#: From this many witness sets components come from
#: :func:`scipy.sparse.csgraph` instead of the union-find.
_DECOMPOSE_MATRIX_MIN_SETS = 512


def _decompose(sets: Sequence[FrozenSet[int]]) -> Tuple[WitnessComponent, ...]:
    """Connected components of the tuple/witness incidence graph.

    Structures of at least :data:`_DECOMPOSE_MATRIX_MIN_SETS` sets route
    through :func:`scipy.sparse.csgraph` (:func:`_decompose_matrix`);
    the union-find below is the reference implementation and the
    small-input fast path.  Output is identical: components ordered by
    smallest member id, members ascending, each component's sets in
    input order.
    """
    if len(sets) >= _DECOMPOSE_MATRIX_MIN_SETS and all(sets):
        return _decompose_matrix(list(sets))
    return _decompose_reference(sets)


def _decompose_matrix(sets: List[FrozenSet[int]]) -> Tuple[WitnessComponent, ...]:
    """csgraph-backed connected components (same output as reference).

    Consecutive elements of each (ascending) row chain the row's tuples
    together, so the tuple–tuple graph of those edges has exactly the
    components of the bipartite tuple/witness graph.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    mat, pad = _matrix_from_sets(sets)
    m, k = mat.shape
    flat = mat[mat != pad]
    nodes = np.unique(flat)
    n = len(nodes)
    edges_a: List[np.ndarray] = []
    edges_b: List[np.ndarray] = []
    for j in range(k - 1):
        a = mat[:, j]
        b = mat[:, j + 1]
        valid = (a != pad) & (b != pad)
        if valid.any():
            edges_a.append(np.searchsorted(nodes, a[valid]))
            edges_b.append(np.searchsorted(nodes, b[valid]))
    if edges_a:
        row_idx = np.concatenate(edges_a)
        col_idx = np.concatenate(edges_b)
        data = np.ones(len(row_idx), dtype=np.int8)
        graph = coo_matrix((data, (row_idx, col_idx)), shape=(n, n))
    else:
        graph = coo_matrix((n, n), dtype=np.int8)
    _, labels = connected_components(graph, directed=False)

    # Components ordered by smallest member: nodes are ascending, so the
    # first occurrence of each label is its minimal member.
    _, first_pos = np.unique(labels, return_index=True)
    rank_of_label = np.empty(len(first_pos), dtype=np.int64)
    rank_of_label[np.argsort(first_pos, kind="stable")] = np.arange(
        len(first_pos)
    )
    comp_of_node = rank_of_label[labels]
    n_comps = len(first_pos)
    members: List[List[int]] = [[] for _ in range(n_comps)]
    for node, comp in zip(nodes.tolist(), comp_of_node.tolist()):
        members[comp].append(node)
    comp_sets: List[List[FrozenSet[int]]] = [[] for _ in range(n_comps)]
    first_col = np.searchsorted(nodes, mat[:, 0])
    row_comp = comp_of_node[first_col]
    for s, comp in zip(sets, row_comp.tolist()):
        comp_sets[comp].append(s)
    return tuple(
        WitnessComponent(tuple(ts), tuple(ss))
        for ts, ss in zip(members, comp_sets)
    )


def _decompose_reference(
    sets: Sequence[FrozenSet[int]],
) -> Tuple[WitnessComponent, ...]:
    """Union-find decomposition (the reference implementation)."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in sets:
        for t in s:
            parent.setdefault(t, t)
        it = iter(s)
        root = find(next(it))
        for t in it:
            r = find(t)
            if r != root:
                parent[r] = root

    groups: Dict[int, List[int]] = {}
    for t in parent:
        groups.setdefault(find(t), []).append(t)
    comp_of = {root: i for i, root in enumerate(sorted(groups, key=lambda r: min(groups[r])))}
    members: List[List[int]] = [[] for _ in comp_of]
    comp_sets: List[List[FrozenSet[int]]] = [[] for _ in comp_of]
    for root, ts in groups.items():
        members[comp_of[find(root)]] = sorted(ts)
    for s in sets:
        comp_sets[comp_of[find(next(iter(s)))]].append(s)
    return tuple(
        WitnessComponent(tuple(ts), tuple(ss))
        for ts, ss in zip(members, comp_sets)
    )
