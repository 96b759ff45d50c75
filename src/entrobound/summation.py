"""Compensated series summation.

All partial sums in this package accumulate in increasing index order.
Chunks are reduced with numpy's pairwise summation and the chunk totals
are combined exactly with ``math.fsum``, which keeps results reproducible
to well below 1e-12 relative error without a Python-level loop.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

__all__ = ["compensated_sum", "indexed_chunk_sum", "CHUNK"]

CHUNK = 1 << 20


def compensated_sum(values: Iterable[float] | np.ndarray) -> float:
    """Sum ``values`` with compensation, preserving input order."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size <= CHUNK:
        return math.fsum(arr.tolist())
    parts = [
        float(np.sum(arr[lo : lo + CHUNK]))
        for lo in range(0, arr.size, CHUNK)
    ]
    return math.fsum(parts)


def indexed_chunk_sum(
    term: Callable[[int, int], np.ndarray],
    start: int,
    stop: int,
) -> float:
    """Sum the terms for integer k in ``[start, stop]`` without materialising
    the whole range: ``term(lo, hi)`` returns the array of terms for k in
    ``[lo, hi]``, one chunk of at most ``CHUNK`` indices at a time.

    Each chunk's total is one pairwise ``np.add.reduce``; the totals are
    combined with ``math.fsum``. A range of one chunk returns its total
    directly, which is exact: ``math.fsum`` of one float is that float."""
    if stop < start:
        return 0.0
    if stop - start < CHUNK:
        return float(np.add.reduce(term(start, stop)))
    parts = []
    lo = start
    while lo <= stop:
        hi = min(lo + CHUNK - 1, stop)
        parts.append(float(np.add.reduce(term(lo, hi))))
        lo = hi + 1
    return math.fsum(parts)
