"""Residue trees of integer sets and generalized factorials of integers.

For a finite set S of integers and a prime p, the residue tree has the
residues of S mod p**k as its depth-k vertices (unit edge lengths).  Its
factorial sequence gives the p-adic valuations of the generalized factorials
n!_S, recovered as a product over the primes dividing some pairwise
difference.  Everything here is integer-exact.
"""

from __future__ import annotations

from .engine import Canonical, factorials_weighting
from .errors import IndexOutOfRange, StructureError
from .sequences import FactorialSequence
from .sources import AdelicSetSource, _is_prime

__all__ = [
    "legendre",
    "separating_depth",
    "factorials_prime",
    "bhargava_factorials",
    "greedy_bhargava_oracle",
]


def legendre(n: int, p: int) -> int:
    """Valuation of n! at p: sum of floor(n / p**i)."""
    if n < 0:
        raise StructureError("n must be >= 0")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _val(p: int, x: int) -> int:
    if x == 0:
        raise StructureError("valuation of 0 requested; set elements must be distinct")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _check_set(elements) -> tuple[int, ...]:
    elems = tuple(sorted(elements))
    if not elems:
        raise StructureError("need a nonempty set of integers")
    if len(set(elems)) != len(elems):
        raise StructureError("set elements must be distinct")
    return elems


def separating_depth(elements, p: int) -> int:
    """Smallest h with all elements distinct mod p**h (1 for singletons).

    Equals 1 + max valuation over pairwise differences, so it is bounded by
    log_p(max difference) + 1.
    """
    elems = _check_set(elements)
    if not _is_prime(p):
        raise StructureError(f"{p} is not prime")
    best = 0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            best = max(best, _val(p, elems[j] - elems[i]))
    return best + 1 if len(elems) > 1 else 1


def factorials_prime(elements, p: int, n_max: int) -> FactorialSequence:
    """Valuation sequence val_p(n!_S) for n <= n_max, via the weighting
    process on the residue tree at its separating depth."""
    elems = _check_set(elements)
    if n_max >= len(elems):
        raise IndexOutOfRange(f"set has {len(elems)} boundary elements, requested index {n_max}")
    source = AdelicSetSource(elems, p)
    run = factorials_weighting(source, n_max, Canonical())
    values = run.sequence.values
    assert all(v.denominator == 1 for v in values)
    return FactorialSequence(values, f"adelic(p={p})")


def _relevant_primes(elems: tuple[int, ...]) -> list[int]:
    from sympy import primefactors  # deferred: big import, tiny call site

    primes: set[int] = set()
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            primes.update(primefactors(elems[j] - elems[i]))
    return sorted(primes)


def bhargava_factorials(elements, n_max: int) -> list[int]:
    """n!_S for n <= n_max: product of p**val_p(n!_S) over the primes
    dividing some pairwise difference of S."""
    elems = _check_set(elements)
    if n_max >= len(elems):
        raise IndexOutOfRange(f"set has {len(elems)} boundary elements, requested index {n_max}")
    out = [1] * (n_max + 1)
    for p in _relevant_primes(elems):
        seq = factorials_prime(elems, p, n_max)
        for n, v in enumerate(seq.values):
            out[n] *= p ** int(v)
    return out


def greedy_bhargava_oracle(elements, n_max: int) -> list[int]:
    """n!_S with no tree machinery: for each relevant prime run the
    valuation-greedy ordering directly on the integers, then multiply.

    Step n picks an element minimizing val_p of the product of differences of
    everything chosen so far; that minimum is val_p(n!_S).
    """
    elems = _check_set(elements)
    if n_max >= len(elems):
        raise IndexOutOfRange(f"set has {len(elems)} boundary elements, requested index {n_max}")
    out = [1] * (n_max + 1)
    for p in _relevant_primes(elems):
        chosen: list[int] = []
        remaining = list(elems)
        for n in range(n_max + 1):
            best_v: int | None = None
            best_s = None
            for s in remaining:
                v = sum(_val(p, s - c) for c in chosen)
                if best_v is None or v < best_v:
                    best_v, best_s = v, s
            chosen.append(best_s)
            remaining.remove(best_s)
            out[n] *= p**best_v
    return out
