"""Residue trees of integer sets and generalized factorials of integers.

For a finite set S of integers and a modulus q >= 2, the residue tree has the
residues of S mod q**k as its depth-k vertices (unit edge lengths).  At a
prime p its factorial sequence gives the p-adic valuations of the generalized
factorials n!_S; n!_S itself is a product over a coprime base of the pairwise
differences, which needs no factoring.  Everything here is integer-exact.
"""

from __future__ import annotations

import itertools
import math

from .engine import Canonical, factorials_weighting
from .errors import IndexOutOfRange, StructureError
from .sequences import FactorialSequence
from .sources import AdelicSetSource

__all__ = [
    "legendre",
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


def _check_set(elements, n_max: int) -> tuple[int, ...]:
    """The set sorted, once it is nonempty and distinct and 0 <= n_max <
    |S|, the number of its factorial terms."""
    elems = tuple(sorted(elements))
    if not elems:
        raise StructureError("need a nonempty set of integers")
    if len(set(elems)) != len(elems):
        raise StructureError("set elements must be distinct")
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if n_max >= len(elems):
        raise IndexOutOfRange(f"set has {len(elems)} boundary elements, requested index {n_max}")
    return elems


def factorials_prime(elements, p: int, n_max: int) -> FactorialSequence:
    """Factorial sequence of the residue tree of S mod powers of p, for
    n <= n_max, via the weighting process at its separating depth.

    At a prime p this is val_p(n!_S).  Any modulus p >= 2 gives a residue
    tree; bhargava_factorials runs it on the elements of a coprime base.
    """
    elems = _check_set(elements, n_max)
    source = AdelicSetSource(elems, p)
    run = factorials_weighting(source, n_max, Canonical())
    values = run.sequence.values
    assert all(v.denominator == 1 for v in values)
    return FactorialSequence(values, f"adelic(p={p})")


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1, sorted, such that every |x| for x in
    `numbers` (all nonzero) is a product of their powers.  No factoring:
    a pending y that shares g = gcd(y, b) > 1 with a base element b replaces
    b by g, b // g and y // g, which keeps every x such a product and lowers
    the product of all base and pending values by g, so the loop ends."""
    base: list[int] = []
    pending = list({abs(x) for x in numbers})
    while pending:
        y = pending.pop()
        if y == 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(y, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                pending += (g, b // g, y // g)
                break
        else:
            base.append(y)
    return sorted(base)


def _difference_base(elems: tuple[int, ...]) -> list[int]:
    return _coprime_base(b - a for a, b in itertools.combinations(elems, 2))


def bhargava_factorials(elements, n_max: int) -> list[int]:
    """n!_S for n <= n_max: the product of q**e_q(n) over a coprime base of
    the pairwise differences of S, e_q being factorials_prime at q.

    A prime p dividing a base element q divides no other, so
    val_p(d) = val_p(q) * val_q(d) for every difference d.  The p-adic
    residue tree is then the mod-q**k tree with every level stretched into
    val_p(q) unit edges (a capacity-1 leaf edge never enters a pairing), so
    val_p(n!_S) = val_p(q) * e_q(n), and the p-parts over p | q multiply to
    q**e_q(n).
    """
    elems = _check_set(elements, n_max)
    out = [1] * (n_max + 1)
    for q in _difference_base(elems):
        seq = factorials_prime(elems, q, n_max)
        for n, v in enumerate(seq.values):
            out[n] *= q ** int(v)
    return out


def greedy_bhargava_oracle(elements, n_max: int) -> list[int]:
    """n!_S with no tree machinery: for each element q of the coprime base
    of the differences run the valuation-greedy ordering directly on the
    integers, then multiply.

    Step n picks an element minimizing val_q of the product of differences of
    everything chosen so far; that minimum is val_q(n!_S), the exponent of q
    in n!_S.
    """
    elems = _check_set(elements, n_max)
    out = [1] * (n_max + 1)
    for q in _difference_base(elems):
        chosen: list[int] = []
        remaining = list(elems)
        for n in range(n_max + 1):
            best_v: int | None = None
            best_s = None
            for s in remaining:
                v = sum(_val(q, s - c) for c in chosen)
                if best_v is None or v < best_v:
                    best_v, best_s = v, s
            chosen.append(best_s)
            remaining.remove(best_s)
            out[n] *= q**best_v
    return out
