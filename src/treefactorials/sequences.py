"""Factorial sequences and derived diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import add, lt

__all__ = ["FactorialSequence", "LimitEstimate", "limit_estimate", "superadditivity_gap"]


@dataclass(frozen=True)
class FactorialSequence:
    """Exact factorial terms a_0..a_{K-1} plus which route produced them."""

    values: tuple[Fraction, ...]
    provenance: str

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _scaled(values) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# Cells compared at once by the numpy sweep: rows of the pair triangle
# times the longest row in the block.
_BLOCK_CELLS = 2**18


def _narrow_array(scaled):
    """The scaled values as an array of the narrowest of int16, int32 and
    int64 that holds twice their largest magnitude, so neither a pairwise
    sum nor the sweep's padding wraps; None when numpy is missing or no
    int64 holds that bound."""
    try:
        import numpy as np
    except ImportError:
        return None
    bound = 2 * max(max(scaled), -min(scaled))
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.array(scaled, dtype=dtype)
    return None


def _row_blocks(K: int):
    """Rows m = 1 .. (K - 1) // 2 of the pair triangle in consecutive
    blocks [m0, m1) of at most _BLOCK_CELLS cells, each row counted as long
    as the block's first, K - 2 * m0."""
    m0, last = 1, (K + 1) // 2
    while m0 < last:
        m1 = min(last, m0 + max(1, _BLOCK_CELLS // (K - 2 * m0)))
        yield m0, m1
        m0 = m1


def _numpy_gap(arr) -> tuple[int, int] | None:
    """superadditivity_gap over an array from _narrow_array.

    Row m compares a_{2m+j} with a_m + a_{m+j} for j = 0 .. K-2m-1.  A block
    of rows reads windows of one fixed width out of two padded copies: past
    the end, the a_{m+n} side reads twice the largest magnitude and the a_n
    side 0, so a padded cell is never below its sum."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    K = len(arr)
    top = 2 * int(np.abs(arr).max())
    lhs = np.concatenate((arr, np.full(K, top, dtype=arr.dtype)))
    rhs = np.concatenate((arr, np.zeros(K, dtype=arr.dtype)))
    for m0, m1 in _row_blocks(K):
        width = K - 2 * m0
        sums = arr[m0:m1, None] + sliding_window_view(rhs, width)[m0:m1]
        bad = sliding_window_view(lhs, width)[2 * m0 : 2 * m1 : 2] < sums  # noqa: E203
        cell = int(bad.argmax())
        if bad.flat[cell]:
            m = m0 + cell // width
            return (m, m + cell % width)
    return None


def superadditivity_gap(values) -> tuple[int, int] | None:
    """First (m, n) with a_{m+n} < a_m + a_n, or None if superadditive.

    Checks every pair m <= n, in order of m, then n, on the values times
    their common denominator, so every comparison is between integers.
    Sequences longer than 1500 terms are checked with numpy when it is
    installed and an int64 holds twice the largest scaled magnitude: the
    values go into the narrowest of int16, int32 and int64 that holds that
    bound, and rows of the pair triangle are compared in blocks of up to
    2**18 cells through sliding windows, padded past the end so no padded
    cell reads as a violation.  Otherwise an exact loop over Python ints
    checks them.
    """
    K = len(values)
    a, _ = _scaled(values)
    arr = _narrow_array(a) if K > 1500 else None
    if arr is not None:
        return _numpy_gap(arr)
    for m in range(1, (K + 1) // 2):
        # a_{m+n} against a_m + a_n for n = m .. K-m-1, stopping at the
        # first n that breaks it.
        sums = map(add, repeat(a[m]), a[m : K - m])  # noqa: E203
        n = next(compress(count(m), map(lt, a[2 * m :], sums)), None)  # noqa: E203
        if n is not None:
            return (m, n)
    return None


@dataclass(frozen=True)
class LimitEstimate:
    """Tail estimate of lim a_n/n."""

    value: Fraction
    lower_bound: Fraction
    tail_window: int
    likely_divergent: bool


def limit_estimate(seq: FactorialSequence) -> LimitEstimate:
    """Estimate lim a_n/n from a finite prefix a_0..a_K.

    value is a_K/K; lower_bound is max a_k/k (every such ratio bounds the
    limit from below for superadditive sequences); the sequence is flagged
    likely-divergent when a_n/n still climbs by more than 1/100 across the
    tail window, the last max(1, K // 4) indices.
    """
    values = seq.values
    K = len(values) - 1
    if K < 1:
        raise ValueError("need at least two terms to estimate a limit")
    tail_window = max(1, K // 4)
    # Quotients come from the scaled integers, so int terms give Fractions
    # too; the largest a_k/k is found by comparing a_k * j with a_j * k, so
    # no quotient is reduced until the last.
    a, den = _scaled(values)
    value = Fraction(a[K], K * den)
    best = 1
    for k in range(2, K + 1):
        if a[k] * best > a[best] * k:
            best = k
    lower = Fraction(a[best], best * den)
    start = K - tail_window
    climb = value - (Fraction(a[start], start * den) if start >= 1 else Fraction(0))
    return LimitEstimate(value, lower, tail_window, climb > Fraction(1, 100))
