"""Factorial sequences of rooted metric trees, by three independent routes.

The primary route is the edge-weighting process: grow a weighted subtree from
the root, at each step selecting an unsaturated vertex of minimum weighted
distance, then opening new unit-weight strict paths and incrementing the
weights back to the root.  The greedy boundary oracle and the min-max
recursion recompute the same sequence by structurally different algorithms
and exist to cross-check the engine.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import Exhausted, IndexOutOfRange, StructureError
from .sequences import FactorialSequence
from .sources import DEFAULT_BUDGET, LambdaScaledSource, RegularSource, SphericalSource, view_of
from .trees import INF, RootedTree

__all__ = [
    "Canonical",
    "SeededRandom",
    "OrderedTieBreak",
    "TraceStep",
    "WeightingRun",
    "factorials_weighting",
    "factorials_removed",
    "factorials_greedy_oracle",
    "factorials_minmax",
    "capacity_bound",
]


class Canonical:
    """Deterministic tie-break: smallest node id wins."""

    def key(self, v: int):
        return v


class SeededRandom:
    """Reproducible uniform tie-break driven by one seeded stream.

    Each vertex draws one uniform key from random.Random(seed) the first time
    a run asks for it and keeps it, so every set of tied minimizers resolves
    uniformly at random; two vertices that tie more than once are ordered the
    same way each time.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._keys: dict[int, tuple[float, int]] = {}

    def key(self, v: int):
        k = self._keys.get(v)
        if k is None:
            k = self._keys[v] = (self.rng.random(), v)
        return k


class OrderedTieBreak:
    """Tie-break by an explicit rank per node id, falling back to the id.

    The realizability workflow passes its generation orders through this so
    the weighting visits equal-valued vertices in the prescribed order.
    """

    def __init__(self, rank: dict[int, int]):
        self.rank = rank

    def key(self, v: int):
        return (self.rank.get(v, v), v)


@dataclass(frozen=True)
class TraceStep:
    n: int
    vertex: int
    case: str  # "init" | "1" | "2.1" | "2.2"
    value: Fraction


@dataclass
class WeightingRun:
    """Everything a weighting run produced: terms, trace, final edge weights."""

    sequence: FactorialSequence
    trace: tuple[TraceStep, ...] | None
    weights: dict[int, int]  # child id -> weight of its parent edge
    view: object

    @property
    def steps(self) -> int:
        return len(self.sequence.values)


def _is_ray(source) -> bool:
    """Whether the source is one infinite path: every vertex has one child."""
    if isinstance(source, LambdaScaledSource):
        return _is_ray(source.base)
    if isinstance(source, RegularSource):
        return source.degree == 1
    return isinstance(source, SphericalSource) and set(source.branching) == {1}


def _run_weighting(source, n_max, policy, t, record_trace, budget, exhaust_error=False) -> WeightingRun:
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if t < 0:
        raise StructureError("t must be >= 0")
    view = view_of(source, budget)
    policy = policy or Canonical()
    # The run keeps lengths, scores and values as integers times `scale`,
    # which turns every weighted edge's length into an integer, and returns
    # values as Fraction(v, scale); int arithmetic beats Fraction by more
    # than an order of magnitude on long runs.  `scale` starts at the
    # source's length_scale() (1 when it has none) and grows when an edge's
    # length needs a denominator it lacks.
    scale = view.length_scale() or 1
    values: list = []
    trace: list[TraceStep] = []
    weights: dict[int, int] = {}

    def finish():
        if exhaust_error and len(values) < n_max + 1:
            raise Exhausted(f"all boundary elements at capacity after {len(values)} terms")
        label = "weighting" if t == 0 else f"weighting-removed(t={t})"
        seq = FactorialSequence(tuple(Fraction(v, scale) for v in values), label)
        return WeightingRun(seq, tuple(trace) if record_trace else None, weights, view)

    root_kids = view.children(0)
    values.append(0)
    if record_trace:
        trace.append(TraceStep(0, 0, "init", Fraction(0)))
    if n_max == 0:
        return finish()
    if _is_ray(source):
        raise StructureError("a single infinite ray has no finite a_1: its only path never branches or ends")

    # Hierarchical argmin over lists indexed by node id.  A vertex enters
    # the lists when it is weighted: kids[v] is its children tuple, par[v]
    # its parent, elen[v] its edge length times `scale`, wt[v] the weight of
    # that edge, and room[v] how often v itself can still be chosen: its
    # count of unweighted children, or for a leaf its capacity minus its
    # weight.  `weights` keeps the order vertices are weighted in and takes
    # their final weights at the end.
    # up[v] is the least (score, key, id) triple over unsaturated vertices in
    # v's weighted subtree, with the score measured from v's parent (v's own
    # edge term included), or None when that subtree has none; key is the
    # policy's key(id), unique per vertex.  Unweighted vertices keep
    # up = None, so a parent compares its children's entries as they stand.
    # A step changes weights only along the selection path, which is the
    # chosen vertex's ancestor chain, and on the freshly weighted chains, so
    # recomputing those entries bottom-up keeps every other entry valid;
    # lexicographic propagation makes the root's entry the smallest key among
    # minimal scores, the choice the policy would make from the full tie set.
    # Children ids ascend, so the lists start just past the root's children
    # and grow, at least doubling, when a vertex's last child is past their
    # end; a lazy view's ids appear as it materializes.
    #
    # The per-edge term max(weight - t, 0) * length is the full removed
    # score: dropping the t largest pairing terms subtracts, level by level,
    # min(t, weight) copies of each edge length (the pairing multiset has
    # weight-difference many copies of each prefix length, and the two sums
    # telescope against each other).
    length = view.length
    children = view.children
    key = policy.key
    size = root_kids[-1] + 1 if root_kids else 1
    kids: list = [None] * size
    par: list = [None] * size
    elen: list = [None] * size
    room: list = [None] * size
    up: list = [None] * size
    wt: list = [None] * size
    kids[0] = root_kids
    # A single-vertex tree's root is its own leaf.
    room[0] = len(root_kids) if root_kids else view.capacity(0) - 1

    def grow(den: int):
        """Make `scale` a multiple of den and at least its own square, so a
        run rescales O(log depth) times, and rescale every stored integer."""
        nonlocal scale
        new = lcm(scale * scale, den)
        f = new // scale
        scale = new
        elen[:] = [e if e is None else e * f for e in elen]
        up[:] = [b if b is None else (b[0] * f, b[1], b[2]) for b in up]
        values[:] = [v * f for v in values]

    # Lazy sources hand out one length object per level or per tree, so the
    # scaled length is recomputed only when the object changes.
    last_len = last_scaled = None

    def weigh_chain(start: int, first: int):
        """Give weight 1 to the strict path through edge (start, first),
        which ends at a branching vertex or a leaf, and set its entries."""
        nonlocal last_len, last_scaled
        prev, cur = start, first
        while True:
            room[prev] -= 1
            ks = children(cur)
            if ks and ks[-1] >= len(kids):
                extra = [None] * (ks[-1] + 1)
                for a in (kids, par, elen, room, up, wt):
                    a += extra
            weights[cur] = wt[cur] = 1
            kids[cur] = ks
            par[cur] = prev
            L = length(cur)
            if L is not last_len:
                den = L.denominator
                if scale % den:
                    grow(den)
                last_len, last_scaled = L, L.numerator * (scale // den)
            elen[cur] = last_scaled
            room[cur] = len(ks) if ks else view.capacity(cur) - 1
            if len(ks) != 1:
                break
            prev, cur = cur, ks[0]
        # The chain's end has no weighted child and the vertices above it on
        # the chain are saturated, so a chain vertex's entry is the end's own
        # plus the chain's edge lengths from that vertex down, which weight 1
        # counts only at t = 0.
        b = (0, key(cur), cur) if room[cur] else None
        while cur != start:
            if b is not None and not t:
                b = (elen[cur] + b[0], b[1], b[2])
            up[cur] = b
            cur = par[cur]

    def settle(u: int):
        """Add 1 to the weight of every edge from u up to the root and reset
        the entries on that path bottom-up; the root adds no edge term."""
        while True:
            # room never drops below 0, so a falsy room means u is saturated.
            b = (0, key(u), u) if room[u] else None
            for c in kids[u]:
                bc = up[c]
                if bc is not None and (b is None or bc < b):
                    b = bc
            if not u:
                up[0] = b
                return
            w = wt[u] + 1
            wt[u] = w
            if b is not None and w > t:
                b = ((w - t) * elen[u] + b[0], b[1], b[2])
            up[u] = b
            u = par[u]

    if root_kids:
        weigh_chain(0, min(root_kids, key=key))
    settle(0)

    for n in range(1, n_max + 1):
        if up[0] is None:
            break  # no unsaturated vertices remain: the sequence is complete
        s, _, x = up[0]
        values.append(s)
        if record_trace:
            # Read before a chain below can grow the scale.
            value = Fraction(s, scale)
        kx = kids[x]
        if not kx:
            case = "2.2"
            room[x] -= 1
        elif room[x] < len(kx):
            case = "1"
            weigh_chain(x, min([c for c in kx if c not in weights], key=key))
        else:
            case = "2.1"
            # A pair is ordered without sort's per-call key list; both ask
            # for keys in child order.
            if len(kx) == 2:
                z, w = kx if key(kx[0]) < key(kx[1]) else kx[::-1]
            else:
                z, w = sorted(kx, key=key)[:2]
            weigh_chain(x, z)
            weigh_chain(x, w)
        # Every edge on the root-to-x path gains weight 1.
        settle(x)
        if record_trace:
            trace.append(TraceStep(n, x, case, value))
    for v in weights:
        weights[v] = wt[v]
    return finish()


def factorials_weighting(
    source,
    n_max: int,
    policy=None,
    *,
    record_trace: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WeightingRun:
    """Run the weighting process; returns terms a_0..a_min(n_max, N-1).

    `source` is a RootedTree or any TreeSource; lazily generated trees are
    materialized only as far as the process reaches, guarded by `budget`.
    """
    return _run_weighting(source, n_max, policy, 0, record_trace, budget)


def factorials_removed(
    source,
    t: int,
    n_max: int,
    policy=None,
    *,
    record_trace: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WeightingRun:
    """t-removed variant: each candidate's score drops its t largest pairing
    terms, so the first t+1 terms are 0.  t=0 is the plain process.

    Unlike factorials_weighting this raises Exhausted when the boundary
    saturates before n_max terms, matching the greedy formulation it
    mirrors."""
    return _run_weighting(source, n_max, policy, t, record_trace, budget, exhaust_error=True)


def capacity_bound(tree: RootedTree):
    """Number of factorial terms N: 1 plus (branching-1) over branching
    vertices plus (capacity-1) over leaves; inf when any capacity is inf."""
    total = 1
    for v in range(len(tree)):
        k = len(tree.children[v])
        if k >= 2:
            total += k - 1
        elif k == 0:
            cap = tree.capacities[v]
            if cap == INF:
                return INF
            total += cap - 1
    return total


def factorials_greedy_oracle(tree: RootedTree, n_max: int) -> FactorialSequence:
    """Greedy minimization over the extended boundary, no weighting state.

    Boundary elements are root-to-leaf paths, selectable up to the leaf
    capacity; the pairing of two elements is the plain length of their common
    edges, and re-selecting a leaf pairs at the full path length.  Each step
    picks a feasible element of minimum total pairing against everything
    already selected.
    """
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    leaves = tree.leaves
    paths = [tree.root_path(m) for m in leaves]
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
    return FactorialSequence(tuple(values), "greedy-oracle")


def _minmax_merge(children, keep: int) -> list:
    """The min-max step at a vertex: the `keep` smallest of the streams
    a_k + k * length over its children's (terms a_0, a_1, ..., length)."""
    streams = [[a + k * ln for k, a in enumerate(terms)] for terms, ln in children]
    return list(itertools.islice(heapq.merge(*streams), keep))


def factorials_minmax(tree: RootedTree, n_max: int) -> FactorialSequence:
    """Min over compositions (n_1..n_d) of n+1 with n_j <= N_j of the max of
    subtree terms a_{n_j-1} + (n_j-1) * edge length, skipping n_j = 0.

    Each child stream b_j(k) = a_k(T_j) + k * length_j is nondecreasing, so
    the minimum over compositions of the maximum is the (n+1)-th smallest
    element of the merged streams: the merge step `_minmax_merge`, which the
    adelic residue trees share.  Node ids are topological, so one pass from
    the last id to the root merges every vertex's children before the vertex
    itself, keeping the first n_max+1 terms; a leaf contributes capacity
    many zeros and a single child is the one-stream case.  Independent of
    the weighting engine: recursive order statistics instead of incremental
    edge weights.  Raises IndexOutOfRange when n_max >= N.
    """
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    bound = capacity_bound(tree)
    if n_max >= bound:
        raise IndexOutOfRange(f"tree has N={bound} terms, requested index {n_max}")
    keep = n_max + 1
    terms: list = [None] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        kids = tree.children[v]
        if not kids:
            terms[v] = [Fraction(0)] * min(tree.capacities[v], keep)
            continue
        terms[v] = _minmax_merge([(terms[c], tree.lengths[c]) for c in kids], keep)
        for c in kids:
            terms[c] = None
    return FactorialSequence(tuple(terms[0]), "minmax")
