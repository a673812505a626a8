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


def _int64_array(scaled):
    """The scaled values as an int64 array, or None when numpy is missing or
    the sum of two values could overflow int64."""
    try:
        import numpy as np
    except ImportError:
        return None
    if max(abs(x) for x in scaled) >= 2**62:
        return None
    return np.array(scaled, dtype=np.int64)


def superadditivity_gap(values) -> tuple[int, int] | None:
    """First (m, n) with a_{m+n} < a_m + a_n, or None if superadditive.

    Checks every pair m <= n, in order of m, then n, on the values times
    their common denominator, so every comparison is between integers.
    Sequences longer than 1500 terms are checked as int64 arrays when numpy
    is installed and every scaled value stays below 2**62 in magnitude, so
    no pairwise sum wraps; otherwise by an exact loop over Python ints.
    """
    K = len(values)
    a, _ = _scaled(values)
    arr = _int64_array(a) if K > 1500 else None
    if arr is None:
        for m in range(1, (K + 1) // 2):
            # a_{m+n} against a_m + a_n for n = m .. K-m-1, stopping at the
            # first n that breaks it.
            sums = map(add, repeat(a[m]), a[m : K - m])  # noqa: E203
            n = next(compress(count(m), map(lt, a[2 * m :], sums)), None)  # noqa: E203
            if n is not None:
                return (m, n)
        return None
    for m in range(1, K):
        rest = arr[2 * m : K]  # noqa: E203
        if rest.size == 0:
            break
        bad = (rest < arr[m] + arr[m : K - m]).nonzero()[0]  # noqa: E203
        if bad.size:
            n = m + int(bad[0])
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
