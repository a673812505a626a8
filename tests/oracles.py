"""Reference implementations the test suite trusts.

Each function recomputes something the package also computes, by a different
route: brute-force enumeration over all choices, subset formulas, or a dense
linear solve.  They are deliberately slow and simple; keep inputs tiny.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from treefactorials import INF


class OracleExhausted(Exception):
    """The brute-force procedure ran out of selectable boundary elements."""


def factorial_valuation(n: int, p: int) -> int:
    """val_p(n!) by factoring the literal factorial."""
    x = math.factorial(n)
    v = 0
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def _strict_path(tree, start: int, first: int) -> list[int]:
    # Maximal path through (start, first) with no interior branching; ends at
    # a leaf or a vertex with >= 2 children.
    chain = [first]
    cur = first
    while len(tree.children[cur]) == 1:
        (cur,) = tree.children[cur]
        chain.append(cur)
    return chain


def all_choice_weighting(tree, n_max: int):
    """Run the weighting process down every permitted choice at once.

    Returns value_sets: value_sets[n] is the set of a_n values reachable by
    some sequence of choices (initial strict path, minimal unsaturated vertex,
    pending edge picks).  The choice-independence theorem says each set is a
    singleton.  State count is exponential; keep trees at a handful of edges.
    """
    if not tree.children[0]:
        raise ValueError("single-vertex trees have no choices to explore")

    def unsaturated(weights: dict[int, int]) -> list[int]:
        verts = {0, *weights}
        out = []
        for v in verts:
            kids = tree.children[v]
            if kids:
                if any(c not in weights for c in kids):
                    out.append(v)
            elif weights[v] < tree.capacities[v]:
                out.append(v)
        return out

    def score(weights: dict[int, int], v: int) -> Fraction:
        s = Fraction(0)
        while v != 0:
            s += weights[v] * tree.lengths[v]
            v = tree.parents[v]
        return s

    def freeze(weights: dict[int, int]):
        return tuple(sorted(weights.items()))

    states: set[tuple] = set()
    for c in tree.children[0]:
        w: dict[int, int] = {}
        for u in _strict_path(tree, 0, c):
            w[u] = 1
        states.add(freeze(w))
    value_sets = [{Fraction(0)}]

    for _ in range(1, n_max + 1):
        values: set[Fraction] = set()
        nxt: set[tuple] = set()
        live = dead = 0
        for frozen in states:
            weights = dict(frozen)
            cand = unsaturated(weights)
            if not cand:
                dead += 1
                continue
            live += 1
            best = min(score(weights, v) for v in cand)
            for x in (v for v in cand if score(weights, v) == best):
                values.add(best)
                kids = tree.children[x]
                pending = [c for c in kids if c not in weights]
                if not kids:
                    w2 = dict(weights)
                    u = x
                    while u != 0:
                        w2[u] += 1
                        u = tree.parents[u]
                    nxt.add(freeze(w2))
                elif len(pending) == len(kids):
                    for c1, c2 in itertools.combinations(pending, 2):
                        w2 = dict(weights)
                        for u in _strict_path(tree, x, c1):
                            w2[u] = 1
                        for u in _strict_path(tree, x, c2):
                            w2[u] = 1
                        u = x
                        while u != 0:
                            w2[u] += 1
                            u = tree.parents[u]
                        nxt.add(freeze(w2))
                else:
                    for c1 in pending:
                        w2 = dict(weights)
                        for u in _strict_path(tree, x, c1):
                            w2[u] = 1
                        u = x
                        while u != 0:
                            w2[u] += 1
                            u = tree.parents[u]
                        nxt.add(freeze(w2))
        if live and dead:
            raise AssertionError("choice paths disagree on when the process terminates")
        if not live:
            break
        if len(values) != 1:
            raise AssertionError(f"choice-dependent step values: {sorted(values)}")
        value_sets.append(values)
        states = nxt
    return value_sets


def _leaf_pairings(tree):
    leaves = [v for v in range(len(tree.parents)) if not tree.children[v]]
    paths = [tree.root_path(m)[1:] for m in leaves]
    pair = {}
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            if i == j:
                common = pi
            else:
                common = []
                for a, b in zip(pi, pj):
                    if a != b:
                        break
                    common.append(a)
            pair[i, j] = sum((tree.lengths[v] for v in common), Fraction(0))
    return leaves, pair


def removed_greedy(tree, t: int, n_max: int) -> list[Fraction]:
    """Greedy over root-to-leaf paths, dropping the t largest pairing terms.

    The score of a candidate is the sum of its pairings with the multiset of
    already-chosen elements, minus the t largest terms; self-pairing is the
    full path length.  Raises OracleExhausted when nothing is selectable.
    """
    leaves, pair = _leaf_pairings(tree)
    counts = [0] * len(leaves)
    values: list[Fraction] = []
    for _ in range(n_max + 1):
        best = None
        best_i = -1
        for i, m in enumerate(leaves):
            if counts[i] >= tree.capacities[m]:
                continue
            terms: list[Fraction] = []
            for j, c in enumerate(counts):
                terms.extend([pair[i, j]] * c)
            terms.sort()
            keep = max(0, len(terms) - t)
            s = sum(terms[:keep], Fraction(0))
            if best is None or s < best:
                best, best_i = s, i
        if best is None:
            raise OracleExhausted(f"nothing selectable after {len(values)} terms")
        values.append(best)
        counts[best_i] += 1
    return values


def minmax_by_compositions(tree, n_max: int) -> list[Fraction]:
    """The min-max recursion read literally: a_n of the subtree at v is the
    minimum, over every composition (n_1..n_d) of n+1 into the children with
    n_j <= N_j, of the largest a_{n_j-1}(T_j) + (n_j-1) * length_j among the
    parts with n_j >= 1; a leaf has capacity many zero terms.  Enumerates
    all compositions; keep trees and n_max tiny."""

    def count(v):
        kids = tree.children[v]
        return tree.capacities[v] if not kids else sum(count(c) for c in kids)

    @functools.cache
    def term(v: int, n: int) -> Fraction:
        kids = tree.children[v]
        if not kids:
            return Fraction(0)
        ranges = [range(min(count(c), n + 1) + 1) for c in kids]
        best = None
        for parts in itertools.product(*ranges):
            if sum(parts) != n + 1:
                continue
            worst = max(
                term(c, k - 1) + (k - 1) * tree.lengths[c]
                for c, k in zip(kids, parts)
                if k
            )
            if best is None or worst < best:
                best = worst
        return best

    return [term(0, n) for n in range(n_max + 1)]


def vandermonde_factorials(elements, n_max: int) -> list[int]:
    """n!_S from the subset characterization: the gcd over all (n+1)-element
    subsets of S of the product of pairwise differences equals the product
    0!_S * 1!_S * ... * n!_S, so consecutive quotients recover each term."""
    elems = sorted(elements)
    if n_max >= len(elems):
        raise ValueError("need n_max < |S|")
    out = [1]
    prev = 1
    for n in range(1, n_max + 1):
        g = 0
        for sub in itertools.combinations(elems, n + 1):
            prod = 1
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    prod *= sub[j] - sub[i]
            g = math.gcd(g, prod)
        out.append(g // prev)
        prev = g
    return out


def dense_resistance(tree) -> Fraction:
    """Root-to-ground resistance by Gaussian elimination on the full vertex
    Laplacian: infinite-capacity leaves are pinned to potential 0, a unit
    current enters at the root, and the root potential is the answer."""
    n = len(tree.parents)
    grounded = {v for v in range(n) if not tree.children[v] and tree.capacities[v] == INF}
    if not grounded:
        raise ValueError("nothing grounded")
    free = [v for v in range(n) if v not in grounded]
    idx = {v: i for i, v in enumerate(free)}
    m = len(free)
    rows = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for v in range(1, n):
        u = tree.parents[v]
        c = 1 / tree.lengths[v]
        for a, b in ((u, v), (v, u)):
            if a in idx:
                i = idx[a]
                rows[i][i] += c
                if b in idx:
                    rows[i][idx[b]] -= c
    rows[idx[0]][m] = Fraction(1)
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows[idx[0]][m]
