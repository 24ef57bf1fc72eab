"""Restricted-growth-string enumeration of set partitions (Appendix C.2).

The Appendix C.2 search (Example 62) enumerates every set partition of
the ``k * |vars(q)|`` constants of ``k`` canonical copies — a Bell
number of candidates (B(9) = 21147 for the triangle at three copies,
B(12) ≈ 4.2M for four-variable queries).  The recursive generator the
tests keep as a reference (``tests/oracles/ijp.py``) walks them one
Python list at a time; this module enumerates the same space as
*restricted growth strings* over numpy int arrays so that Definition
48's cheap conditions can be checked on whole batches at once and
entire subtrees skipped before any database is materialized.

A restricted growth string (RGS) of length ``n`` is an int vector
``a`` with ``a[0] = 0`` and ``a[i] <= max(a[:i]) + 1``; it encodes the
partition whose blocks are the index sets sharing a digit, with blocks
numbered in order of first appearance.  RGS of length ``n`` are in
bijection with set partitions of ``n`` items, and enumerating digits
in increasing order visits them in a canonical lexicographic order —
which is what makes contiguous index ranges well-defined shard units
for the distributed sweep (:mod:`repro.ijp.sweep`).

Subtree sizes are closed-form: a prefix with ``r`` positions left and
``c = max + 2`` allowed next digits has ``T(r, c)`` completions where
``T(0, c) = 1`` and ``T(r, c) = (c-1) * T(r-1, c) + T(r-1, c+1)`` (the
restricted Bell recurrence; ``T(n, 1)`` is the Bell number ``B(n)``).
Pruned subtrees are therefore *counted* exactly without being walked,
which keeps partition budgets and progress accounting honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Digits are bounded by n (the string length); int8 caps n at 127,
# far beyond any feasible Bell enumeration.
RGS_DTYPE = np.int8


@lru_cache(maxsize=None)
def restricted_bell(remaining: int, choices: int) -> int:
    """Completions of an RGS prefix: ``remaining`` open positions,
    ``choices = max(prefix) + 2`` allowed values for the next digit.

    ``T(r, c) = (c-1) * T(r-1, c) + T(r-1, c+1)``: any of the ``c-1``
    old digits keeps the ceiling, opening a new block raises it.
    """
    if remaining < 0:
        raise ValueError(f"remaining must be >= 0, got {remaining}")
    if remaining == 0:
        return 1
    return (choices - 1) * restricted_bell(remaining - 1, choices) + restricted_bell(
        remaining - 1, choices + 1
    )


def bell_number(n: int) -> int:
    """The Bell number ``B(n)`` — partitions of an ``n``-element set."""
    return restricted_bell(n, 1)


def blocks_from_rgs(code: Sequence[int]) -> List[List[int]]:
    """The partition blocks (index lists) an RGS encodes, in order of
    first appearance."""
    blocks: List[List[int]] = []
    for index, digit in enumerate(code):
        digit = int(digit)
        while digit >= len(blocks):
            blocks.append([])
        blocks[digit].append(index)
    return blocks


def partition_from_rgs(code: Sequence[int], items: Sequence) -> List[List]:
    """Map an RGS over ``range(len(items))`` to a partition of ``items``."""
    if len(code) != len(items):
        raise ValueError(
            f"RGS length {len(code)} does not match {len(items)} items"
        )
    return [[items[i] for i in block] for block in blocks_from_rgs(code)]


def rgs_from_partition(partition: Sequence[Sequence], items: Sequence) -> Tuple[int, ...]:
    """The RGS encoding a partition of ``items`` (inverse of
    :func:`partition_from_rgs`); blocks are renumbered canonically by
    first appearance, so any block order encodes the same string."""
    position = {item: i for i, item in enumerate(items)}
    digit_of = [None] * len(items)
    for block_id, block in enumerate(partition):
        for item in block:
            digit_of[position[item]] = block_id
    if any(d is None for d in digit_of):
        raise ValueError("partition does not cover the item set")
    relabel = {}
    code = []
    for digit in digit_of:
        if digit not in relabel:
            relabel[digit] = len(relabel)
        code.append(relabel[digit])
    return tuple(code)


def expand_level(
    codes: np.ndarray, maxes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One level of breadth-first RGS expansion, preserving lex order.

    ``codes`` is a ``(rows, level)`` int array of prefixes (in lex
    order) and ``maxes`` their per-row digit ceilings; returns the
    ``(rows', level+1)`` array of all one-digit extensions and the new
    ceilings.  Each prefix expands to ``max + 2`` children with digits
    ascending, so children of earlier prefixes come first — lex order
    is preserved by construction.
    """
    rows = codes.shape[0]
    counts = (maxes.astype(np.int64)) + 2
    total = int(counts.sum())
    parent = np.repeat(np.arange(rows), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    digits = (np.arange(total) - offsets[parent]).astype(codes.dtype)
    out = np.empty((total, codes.shape[1] + 1), dtype=codes.dtype)
    out[:, : codes.shape[1]] = codes[parent]
    out[:, codes.shape[1]] = digits
    return out, np.maximum(maxes[parent], digits)


def completions(n: int, codes: np.ndarray, maxes: np.ndarray) -> np.ndarray:
    """Per-row leaf counts ``T(n - level, max + 2)`` for a prefix batch."""
    level = codes.shape[1]
    uniques, inverse = np.unique(maxes, return_inverse=True)
    table = np.array(
        [restricted_bell(n - level, int(m) + 2) for m in uniques], dtype=object
    )
    return table[inverse]


def root_prefix() -> Tuple[np.ndarray, np.ndarray]:
    """The empty prefix: one row, zero columns, ceiling -1."""
    return (
        np.zeros((1, 0), dtype=RGS_DTYPE),
        np.full(1, -1, dtype=RGS_DTYPE),
    )


@dataclass
class LeafBatch:
    """One lex-contiguous batch of fully expanded RGS leaves.

    ``pruned`` counts the leaves a prune predicate removed while this
    batch was produced (exact, via :func:`restricted_bell`) — callers
    charge ``codes.shape[0] + pruned`` partitions against their budget,
    so pruning never makes a sweep claim more coverage than it proved.
    """

    codes: np.ndarray
    pruned: int


def iter_leaf_batches(
    n: int,
    codes: Optional[np.ndarray] = None,
    maxes: Optional[np.ndarray] = None,
    pruner=None,
    max_rows: int = 65536,
) -> Iterator[LeafBatch]:
    """Expand prefixes to full-length RGS leaves, in lex order, in
    batches of at most ~``max_rows`` rows of working set.

    ``pruner(codes, maxes)`` (if given) is called once per intermediate
    level with the current prefix batch and must return a boolean keep
    mask; dropped prefixes contribute their exact completion counts to
    :attr:`LeafBatch.pruned`.  Subtrees whose estimated size exceeds
    ``max_rows`` are split — row ranges first, then one forced level of
    expansion — so memory stays bounded even at B(12)+ scales.
    """
    if codes is None or maxes is None:
        codes, maxes = root_prefix()
    if n == 0:
        yield LeafBatch(np.zeros((1, 0), dtype=RGS_DTYPE), 0)
        return
    stack: List[Tuple[np.ndarray, np.ndarray]] = [(codes, maxes)]
    while stack:
        codes, maxes = stack.pop()
        if codes.shape[0] == 0:
            continue
        level = codes.shape[1]
        size = int(completions(n, codes, maxes).sum())
        if size > max_rows:
            if codes.shape[0] > 1:
                half = codes.shape[0] // 2
                stack.append((codes[half:], maxes[half:]))
                stack.append((codes[:half], maxes[:half]))
            else:
                child_codes, child_maxes = expand_level(codes, maxes)
                pruned = 0
                if pruner is not None and child_codes.shape[1] < n:
                    keep = pruner(child_codes, child_maxes)
                    if not keep.all():
                        dropped = completions(
                            n, child_codes[~keep], child_maxes[~keep]
                        )
                        pruned = int(sum(dropped))
                        child_codes = child_codes[keep]
                        child_maxes = child_maxes[keep]
                if pruned:
                    yield LeafBatch(
                        np.zeros((0, n), dtype=RGS_DTYPE), pruned
                    )
                stack.append((child_codes, child_maxes))
            continue
        pruned = 0
        while codes.shape[1] < n:
            codes, maxes = expand_level(codes, maxes)
            if pruner is not None and codes.shape[1] < n:
                keep = pruner(codes, maxes)
                if not keep.all():
                    dropped = completions(n, codes[~keep], maxes[~keep])
                    pruned += int(sum(dropped))
                    codes = codes[keep]
                    maxes = maxes[keep]
        yield LeafBatch(codes, pruned)


@dataclass
class RGSShard:
    """A lex-contiguous slice of the RGS space of length ``n``.

    ``codes``/``maxes`` hold the shard's depth-``d`` prefixes (a
    contiguous run in prefix lex order), ``leaves`` the exact number of
    full-length strings below them, and ``start`` the number of leaves
    lexicographically before the shard — so shard boundaries, budgets,
    and progress offsets are all deterministic functions of ``(n,
    shard count)`` alone, independent of workers or timing.
    """

    index: int
    n: int
    codes: np.ndarray
    maxes: np.ndarray
    leaves: int
    start: int


def shard_space(n: int, num_shards: int, max_depth: int = 6) -> List[RGSShard]:
    """Split the length-``n`` RGS space into at most ``num_shards``
    contiguous lexicographic ranges of near-equal leaf count.

    The split depth is the smallest ``d`` with ``B(d)`` at least
    ``4 * num_shards`` (capped at ``min(n, max_depth)``); depth-``d``
    prefixes are then packed greedily, in lex order, into groups of
    roughly ``B(n) / num_shards`` leaves.  Deterministic — resuming a
    sweep re-derives the identical shard table.
    """
    num_shards = max(1, int(num_shards))
    depth = 1
    while depth < min(n, max_depth) and bell_number(depth) < 4 * num_shards:
        depth += 1
    depth = min(depth, n)
    codes, maxes = root_prefix()
    for _ in range(depth):
        codes, maxes = expand_level(codes, maxes)
    counts = completions(n, codes, maxes)
    total = int(sum(counts))
    target = max(1, -(-total // num_shards))  # ceil division
    shards: List[RGSShard] = []
    row = 0
    consumed = 0
    while row < codes.shape[0]:
        acc = 0
        first = row
        while row < codes.shape[0] and (acc == 0 or acc + int(counts[row]) <= target):
            acc += int(counts[row])
            row += 1
        shards.append(
            RGSShard(
                index=len(shards),
                n=n,
                codes=codes[first:row].copy(),
                maxes=maxes[first:row].copy(),
                leaves=acc,
                start=consumed,
            )
        )
        consumed += acc
    return shards
