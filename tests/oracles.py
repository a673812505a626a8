"""Reference implementations the test suite trusts.

Each function recomputes something the package also computes, by a different
route: brute-force enumeration over all choices, subset formulas, or a dense
linear solve.  They are deliberately slow and simple; keep inputs tiny.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from fractions import Fraction

from helpers import root_path
from treefactorials import INF, DepthBudgetExceeded, Exhausted, FactorialSequence, RootedTree, StructureError
from treefactorials import sources


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


def greedy_by_pairing(tree: RootedTree, n_max: int) -> FactorialSequence:
    """Greedy minimization over the extended boundary, by an L x L pairing
    matrix of Fractions: the reference for engine.factorials_greedy_oracle.

    Boundary elements are root-to-leaf paths, selectable up to the leaf
    capacity; the pairing of two elements is the plain length of their common
    edges, and re-selecting a leaf pairs at the full path length.  Each step
    picks a feasible element of minimum total pairing against everything
    already selected.  It needs an explicit tree, whose leaves it lists.
    """
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if not isinstance(tree, RootedTree):
        raise StructureError("the greedy oracle needs an explicit tree; expand a generated source first")
    leaves = tree.leaves
    paths = [root_path(tree, m) for m in leaves]
    caps = [tree.capacities[m] for m in leaves]
    L = len(leaves)
    pair = [[Fraction(0)] * L for _ in range(L)]
    for i in range(L):
        for j in range(i, L):
            common = Fraction(0)
            for a, b in zip(paths[i][1:], paths[j][1:]):
                if a != b:
                    break
                common += tree.lengths[a]
            pair[i][j] = pair[j][i] = common
    # scores[i] is element i's total pairing against everything selected so
    # far; selecting j adds row j of the symmetric pairing matrix.
    counts = [0] * L
    scores = [Fraction(0)] * L
    values: list[Fraction] = []
    for n in range(n_max + 1):
        best: Fraction | None = None
        best_i = -1
        for i in range(L):
            if counts[i] < caps[i] and (best is None or scores[i] < best):
                best, best_i = scores[i], i
        if best is None:
            raise Exhausted(f"all boundary elements at capacity after {n} terms")
        values.append(best)
        counts[best_i] += 1
        scores = [s + p for s, p in zip(scores, pair[best_i])]
    return FactorialSequence(tuple(values))


def _leaf_pairings(tree):
    leaves = [v for v in range(len(tree.parents)) if not tree.children[v]]
    paths = [root_path(tree, m)[1:] for m in leaves]
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


def _valuation(x: int, p: int) -> int:
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def separating_depth(elements, p: int) -> int:
    """Smallest h with all elements distinct mod p**h (1 for singletons):
    1 + the largest val_p of a pairwise difference."""
    pairs = itertools.combinations(elements, 2)
    return 1 + max((_valuation(b - a, p) for a, b in pairs), default=0)


def _primes_dividing(x: int) -> set[int]:
    x = abs(x)
    out = set()
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.add(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.add(x)
    return out


def bhargava_by_primes(elements, n_max: int) -> list[int]:
    """n!_S as the product of its p-parts over the primes dividing some
    difference, found by trial division (keep differences below ~10**8).
    Each p-part comes from Bhargava's p-ordering: step n picks an element
    minimizing val_p of its product of differences with everything chosen
    so far, and that minimum is val_p(n!_S)."""
    elems = sorted(elements)
    primes = set()
    for a, b in itertools.combinations(elems, 2):
        primes |= _primes_dividing(b - a)
    out = [1] * (n_max + 1)
    for p in primes:
        chosen: list[int] = []
        remaining = list(elems)
        for n in range(n_max + 1):
            v, s = min((sum(_valuation(x - c, p) for c in chosen), x) for x in remaining)
            chosen.append(s)
            remaining.remove(s)
            out[n] *= p**v
    return out


def coprime_base_by_scan(numbers) -> list[int]:
    """The coprime base of adelic._coprime_base by its plain loop: every
    pending value is compared with each base element in turn."""
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


def realize_lengths_by_fractions(seq, orders) -> tuple:
    """Edge lengths (root first, None) of realize.realize_lengths, summed in
    Fraction arithmetic, with its NotBiased check and message."""
    from treefactorials import NotBiased

    d, depth = seq.d, seq.depth
    offsets = [0]
    for n in range(depth + 1):
        offsets.append(offsets[-1] + d**n)
    parents = [-1] * offsets[depth + 1]
    lengths: list = [None] * offsets[depth + 1]
    for gen in range(1, depth + 1):
        for slot in range(d**gen):
            parents[offsets[gen] + slot] = offsets[gen - 1] + slot // d
    for gen in range(1, depth + 1):
        group = seq.groups[gen]
        lo = group[0] / 2
        below: dict[int, int] = {}
        for i, slot in enumerate(orders.slot_order(gen, d**gen)):
            v = offsets[gen] + slot
            acc = Fraction(0)
            u, j = parents[v], gen - 1
            while j >= 1:
                acc += (d ** (gen - j) + below.get(u, 0)) * lengths[u]
                u, j = parents[u], j - 1
            value = group[i] - acc
            if not lo <= value <= group[i]:
                raise NotBiased(
                    f"generation {gen}, position {i + 1}: edge length {value} "
                    f"falls outside [{lo}, {group[i]}]"
                )
            lengths[v] = value
            u = parents[v]
            while u != 0:
                below[u] = below.get(u, 0) + 1
                u = parents[u]
    return tuple(lengths)


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


def profile_by_counts(branching, lam: float, schedule, threshold) -> list[float]:
    """Truncated lam-scaled resistances sum(lam**(k-1) / count_k) at the
    schedule depths of the spherically symmetric tree whose depth-k vertices
    have branching[k % len(branching)] children, from the exact integer
    level counts: term_k = term_(k-1) * lam * (count_(k-1) / count_k), summed
    until the total passes threshold (deeper depths then report that sum)."""
    counts = []
    count = 1
    for k in range(schedule[-1]):
        count *= branching[k % len(branching)]
        counts.append(count)
    out = []
    acc = 0.0
    term = 1.0 / counts[0]
    h = 0
    for depth in schedule:
        while h < depth and acc <= threshold:
            if h > 0:
                term *= lam * (counts[h - 1] / counts[h])
            acc += term
            h += 1
        out.append(acc)
    return out


def expand_by_queue(source, depth: int) -> RootedTree:
    """The truncation at `depth`, built vertex by vertex from a queue that
    asks the source for every vertex's capacity and children: the reference
    for `expand`, which unrolls the (state, depth) DAG instead."""
    parents, lengths, caps = [-1], [None], [None]
    queue = deque([(0, source.root_state(), 0)])
    while queue:
        v, state, d = queue.popleft()
        cap = source.state_capacity(state, d)
        if cap is not None or d == depth:
            caps[v] = INF if cap is None else cap
            continue
        for ln, child_state in source.state_children(state, d):
            parents.append(v)
            lengths.append(ln)
            caps.append(None)
            queue.append((len(parents) - 1, child_state, d + 1))
    return RootedTree(tuple(parents), tuple(lengths), tuple(caps))


class PerVertexView:
    """The lazy view vertex by vertex: every vertex asks the source for its
    capacity and children, and its children past DEFAULT_BUDGET levels raise
    DepthBudgetExceeded.  The reference for `sources.LazyView`, which shares
    one record per (state, depth) node built through the run rule."""

    def __init__(self, source):
        self.source = source
        self._lengths, self._depths, self._states = [None], [0], [source.root_state()]

    def children(self, v: int) -> tuple[int, ...]:
        d, state = self._depths[v], self._states[v]
        if self.source.state_capacity(state, d) is not None:
            return ()
        if d >= sources.DEFAULT_BUDGET:
            raise DepthBudgetExceeded(f"expansion past depth {sources.DEFAULT_BUDGET}")
        start = len(self._depths)
        for ln, child_state in self.source.state_children(state, d):
            self._lengths.append(ln)
            self._depths.append(d + 1)
            self._states.append(child_state)
        return tuple(range(start, len(self._depths)))

    def length(self, v: int):
        return self._lengths[v]

    def capacity(self, v: int):
        return self.source.state_capacity(self._states[v], self._depths[v])

    def length_scale(self):
        return self.source.length_scale()
