"""Factorial sequences and derived diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter, sub

from .errors import StructureError

__all__ = ["FactorialSequence", "LimitEstimate", "limit_estimate", "superadditivity_gap"]


@dataclass(frozen=True)
class FactorialSequence:
    """Exact factorial terms a_0..a_{K-1}."""

    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _scaled(values) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    den = lcm(*map(attrgetter("denominator"), values))
    if den == 1:
        return list(map(attrgetter("numerator"), values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _certified(a: list[int]) -> bool:
    """Whether a_0 <= 0 and g(d) >= 0 for 2 <= d < K, where g is the Moebius
    inversion of the differences r_n = a_n - a_{n-1} (r_n sums g(d) over
    the divisors d of n).  Then a_n = a_0 + sum_d g(d) floor(n/d), so
    a_{m+n} - a_m - a_n = -a_0 + sum_{d >= 2} g(d) c_d with every c_d =
    floor((m+n)/d) - floor(m/d) - floor(n/d) in {0, 1}: no gap.  Sufficient
    only: False proves nothing."""
    K = len(a)
    if K < 3:
        return True
    if a[0] > 0:
        return False
    g = [0, *map(sub, a[1:], a[:-1])]
    for d in range(1, (K + 1) // 2):
        gd = g[d]
        if gd < 0 and d > 1:
            return False
        if gd:
            for n in range(2 * d, K, d):
                g[n] -= gd
    return min(g[(K + 1) // 2 :]) >= 0  # noqa: E203


def _swept(a: list[int]) -> tuple[int, int] | None:
    """The first gap, row by row of the pair triangle.

    a_i - min(a) is packed into field i of one int, w bits a field, with w
    a whole number of bytes and B = max - min + max(|min|, |max|) below
    2^(w-1).  Row m takes fields 2m.. with their top (guard) bit set, less
    a_m in each field, less fields m..: field j holds 2^(w-1) + a_{2m+j} -
    a_m - a_{m+j}, within B of 2^(w-1), so it never borrows from the next
    and keeps its guard bit exactly when a_{2m+j} >= a_m + a_{m+j}.  The
    lowest cleared guard bit gives n = m + j."""
    K, lo, hi = len(a), min(a), max(a)
    size = ((hi - lo + max(-lo, hi)).bit_length() + 8) // 8
    w = 8 * size
    packed = int.from_bytes(b"".join([(v - lo).to_bytes(size, "little") for v in a]), "little")
    full = (1 << K * w) - 1
    ones = full // ((1 << w) - 1)
    guards = ones << (w - 1)
    top = packed | guards
    for m in range(1, (K + 1) // 2):
        t = 2 * m * w
        row = guards >> t
        held = ((top >> t) - a[m] * (ones >> t) - ((packed >> m * w) & (full >> t))) & row
        if held != row:
            cleared = row ^ held
            return (m, m + ((cleared & -cleared).bit_length() - 1) // w)
    return None


def superadditivity_gap(values) -> tuple[int, int] | None:
    """First (m, n) with a_{m+n} < a_m + a_n, or None if superadditive.

    Pairs m <= n are ordered by m, then n, and compared exactly, on the
    values times their common denominator.  A tree's factorials are floor
    sums, such as Legendre's v_p(n!) = sum_k floor(n / p^k), and most pass a
    certificate (_certified) that a sieve checks in O(K log K) integer
    steps.  A sequence it cannot prove is swept row by row (_swept), each
    row in a few operations on one packed Python int, so the K^2/4 pairs
    are compared a machine word of fields at a time.
    """
    a, _ = _scaled(values)
    return None if _certified(a) else _swept(a)


@dataclass(frozen=True)
class LimitEstimate:
    """Tail estimate of lim a_n/n."""

    value: Fraction
    lower_bound: Fraction
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
        raise StructureError("need at least two terms to estimate a limit")
    window = max(1, K // 4)
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
    start = K - window
    climb = value - (Fraction(a[start], start * den) if start >= 1 else Fraction(0))
    return LimitEstimate(value, lower, climb > Fraction(1, 100))
