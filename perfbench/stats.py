"""Percentiles that refuse to be read off too few samples, and digests."""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank
    ``q``-quantile."""
    return n - math.ceil(q * n)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``sorted_values``.

    Refuses (``ValueError``) when fewer than ten samples lie beyond it:
    such a tail is one or two unlucky samples, not a percentile.
    """
    n = len(sorted_values)
    beyond = samples_beyond(n, q)
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted_values[math.ceil(q * n) - 1]


class Digest:
    """An order-sensitive SHA-256 over ``repr`` of the items fed in."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, item) -> None:
        self._h.update(repr(item).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
