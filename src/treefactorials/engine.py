"""Factorial sequences of rooted metric trees, by three independent routes.

The primary route is the edge-weighting process: grow a weighted subtree from
the root, at each step selecting an unsaturated vertex of minimum weighted
distance, then opening new unit-weight strict paths and incrementing the
weights back to the root.  The greedy boundary oracle and the min-max
recursion recompute the same sequence by structurally different algorithms
and exist to cross-check the engine.  The greedy oracle keeps one integer
score per leaf, leaves numbered depth-first so each edge covers a range of
them, and adds a selected leaf's root path to those ranges in O(depth + L)
per step; tests/oracles.py keeps its Fraction pairing-matrix form as the
reference.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import lcm
from operator import add

from . import sources
from .errors import DepthBudgetExceeded, Exhausted, IndexOutOfRange, StructureError
from .sequences import FactorialSequence
from .trees import INF, RootedTree, _int_str

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
        if (k := self._keys.get(v)) is None:
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
    """Everything a weighting run produced: terms, trace, final edge weights,
    and the children ids of the root and of every weighted vertex."""

    sequence: FactorialSequence
    trace: tuple[TraceStep, ...] | None
    weights: dict[int, int]  # child id -> weight of its parent edge
    children: dict[int, tuple[int, ...]]

    @property
    def steps(self) -> int:
        return len(self.sequence.values)


_RAY = "a single infinite ray has no finite a_1: its only path never branches or ends"


def _grown(scale: int, den: int) -> int:
    """The scale that also covers den**2: a new prime adds its square, and
    powers of one prime double their exponent, so a walk grows O(log depth) times."""
    return lcm(scale, den * den)


def _check_listable(source, n_max: int) -> None:
    """IndexOutOfRange when an explicit tree's terms up to n_max would not fit
    in a list: n_max and its bound N are both past sys.maxsize.  A lazy
    source is not checked."""
    if n_max >= sys.maxsize and isinstance(source, RootedTree) and capacity_bound(source) > sys.maxsize:
        raise IndexOutOfRange(f"requested index {_int_str(n_max)}: the terms would not fit in a list")


def _run_weighting(source, n_max, policy, t, record_trace, exhaust_error=False) -> WeightingRun:
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if t < 0:
        raise StructureError("t must be >= 0")
    _check_listable(source, n_max)
    view = sources.view_of(source)
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
        seq = FactorialSequence(tuple(Fraction(v, scale) for v in values))
        return WeightingRun(seq, tuple(trace) if record_trace else None, weights, children_of)

    root_kids = view.children(0)
    children_of = {0: root_kids}
    values.append(0)
    if record_trace:
        trace.append(TraceStep(0, 0, "init", Fraction(0)))
    if n_max == 0:
        return finish()
    if sources._is_ray(source):
        raise StructureError(_RAY)

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
        """Grow `scale` to a multiple of den and rescale every stored integer."""
        nonlocal scale
        new = _grown(scale, den)
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
        children_of[v] = kids[v]
    return finish()


def factorials_weighting(source, n_max: int, policy=None, *, record_trace: bool = False) -> WeightingRun:
    """Run the weighting process; returns terms a_0..a_min(n_max, N-1).

    `source` is a RootedTree or any TreeSource; lazily generated trees are
    materialized only as far as the process reaches, at most
    sources.DEFAULT_BUDGET levels deep.
    """
    return _run_weighting(source, n_max, policy, 0, record_trace)


def factorials_removed(source, t: int, n_max: int, policy=None, *, record_trace: bool = False) -> WeightingRun:
    """t-removed variant: each candidate's score drops its t largest pairing
    terms, so the first t+1 terms are 0.  t=0 is the plain process.

    Unlike factorials_weighting this raises Exhausted when the boundary
    saturates before n_max terms, matching the greedy formulation it
    mirrors."""
    return _run_weighting(source, n_max, policy, t, record_trace, exhaust_error=True)


def capacity_bound(tree: RootedTree):
    """Number of factorial terms N: the sum of the leaf capacities, inf when
    one is; the leaves number 1 plus (children - 1) summed over inner vertices."""
    if not isinstance(tree, RootedTree):
        raise StructureError("the capacity bound needs an explicit tree; expand a generated source first")
    caps = [tree.capacities[v] for v in tree.leaves]
    return INF if INF in caps else sum(caps)


def factorials_greedy_oracle(tree: RootedTree, n_max: int) -> FactorialSequence:
    """Greedy minimization over the extended boundary, no weighting state.

    Boundary elements are root-to-leaf paths, selectable up to the leaf
    capacity; the pairing of two elements is the plain length of their common
    edges, and re-selecting a leaf pairs at the full path length.  Each step
    picks a feasible element of minimum total pairing against everything
    already selected, the smallest leaf id among equals.  It needs an explicit
    tree, whose leaves it lists.

    Leaves are numbered depth-first, so the leaves below each edge form one
    range; selecting a leaf adds each of its root-path edges' lengths to that
    edge's range, by one difference array, on integers times the length scale.
    """
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if not isinstance(tree, RootedTree):
        raise StructureError("the greedy oracle needs an explicit tree; expand a generated source first")
    _check_listable(tree, n_max)
    parents, leaves = tree.parents, tree.leaves
    L, scale = len(leaves), tree.length_scale()
    # size[v]: leaves below v; [lo[v], lo[v] + size[v]) is their depth-first range.
    size = [0 if kids else 1 for kids in tree.children]
    for v in range(len(parents) - 1, 0, -1):
        size[parents[v]] += size[v]
    lo, free = [0] * len(parents), [0] * len(parents)
    for v in range(1, len(parents)):
        lo[v] = free[v] = free[parents[v]]
        free[parents[v]] += size[v]
    # A key is score * L + the leaf's rank in id order, so the least key is
    # the least score and, among equal scores, the smallest leaf id; each
    # edge's length is kept times scale * L.
    weight = [0] + [x.numerator * (scale // x.denominator) * L for x in tree.lengths[1:]]
    # left[p]: selections the leaf at position p has left, a falsy 0 once full.
    keys, left = [0] * L, [0] * L
    for r, m in enumerate(leaves):
        keys[lo[m]], left[lo[m]] = r, tree.capacities[m]
    values: list[Fraction] = []
    for n in range(n_max + 1):
        k = min(compress(keys, left), default=None)
        if k is None:
            raise Exhausted(f"all boundary elements at capacity after {n} terms")
        score, r = divmod(k, L)
        values.append(Fraction(score, scale))
        v = leaves[r]
        left[lo[v]] -= 1
        steps = [0] * (L + 1)
        while v:
            steps[lo[v]] += weight[v]
            steps[lo[v] + size[v]] -= weight[v]
            v = parents[v]
        keys = list(map(add, keys, accumulate(steps)))
    return FactorialSequence(tuple(values))


@dataclass(slots=True)
class _Node:
    """A (state, depth) node: terms so far; once expanded, runs and their heads ([] when spent)."""

    key: tuple
    terms: list | tuple = ()
    runs: list | None = None
    heap: list | None = None


def factorials_minmax(source, n_max: int) -> FactorialSequence:
    """Min over compositions (n_1..n_d) of n+1 with n_j <= N_j of the max of
    subtree terms a_{n_j-1} + (n_j-1) * edge length, skipping n_j = 0.

    The streams b_j(k) = a_k(T_j) + k * length_j are nondecreasing, so a_n
    is the (n+1)-th smallest of their merge.  `source`, a RootedTree or any
    TreeSource, is walked once per (state, depth) node and lazily: a head
    starts at a_0 = 0, a consumed head b gives way to the bound b + length,
    and a child's next term is pulled only when its bound is the least head.
    Independent of the weighting engine.  Raises IndexOutOfRange when
    n_max >= N or a leaf's n_max + 1 terms would not fit in a list,
    DepthBudgetExceeded past sources.DEFAULT_BUDGET levels.
    """
    terms, scale = _minmax(source, n_max)
    return FactorialSequence(tuple(Fraction(v, scale) for v in terms))


def _minmax(source, n_max: int) -> tuple[list[int], int]:
    """The terms of factorials_minmax times a scale, and the scale."""
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if n_max and sources._is_ray(source):
        raise StructureError(_RAY)
    keep, scale, zeros = n_max + 1, source.length_scale() or 1, {}
    nodes: dict = {}  # (state, depth) -> its node; a leaf's is complete when made

    def node(key) -> _Node:
        x = nodes[key] = _Node(key)
        if (cap := source.state_capacity(*key)) is not None:
            # A leaf's terms, as many as it reaches: one tuple per length.
            if (m := min(cap, keep)) > sys.maxsize:
                raise IndexOutOfRange(f"requested index {_int_str(n_max)}: a leaf's terms would not fit in a list")
            x.terms, x.runs, x.heap = zeros.get(m) or zeros.setdefault(m, (0,) * m), [], []
        return x

    root = node((source.root_state(), 0))
    # (node, terms it must have), each node above the one it waits on.
    stack, last_len = [(root, keep)], None
    while stack:
        x, want = stack[-1]
        if x.runs is None:
            state, d = x.key
            k = source.state_whole_levels(state, d)
            kids, d = ([(k - 1, state)], d + k - 1) if k > 1 else (source.state_children(state, d), d + 1)
            # Equal children at equal lengths merge into one run.  Lazy sources
            # hand out one length object per level or per tree.
            x.terms, x.runs, x.heap, run_of = [], [], [], {}
            for ln, child in kids:
                if ln is not last_len:
                    if scale % ln.denominator:
                        # Grow as the engine does; every stored integer follows.
                        f = _grown(scale, ln.denominator) // scale
                        scale *= f
                        for y in nodes.values():
                            if y.runs:
                                y.terms[:] = [t * f for t in y.terms]
                                y.runs[:] = [(b * f, c, m) for b, c, m in y.runs]
                                y.heap[:] = [(b * f, *rest) for b, *rest in y.heap]
                    last_len, scaled = ln, ln.numerator * (scale // ln.denominator)
                if (r := run_of.get((scaled, child))) is None:
                    run_of[scaled, child] = len(x.runs)
                    x.runs.append((scaled, nodes.get(key := (child, d)) or node(key), 1))
                else:
                    x.runs[r] = (scaled, x.runs[r][1], x.runs[r][2] + 1)
            x.heap += [(0, 0, r, 0) for r in range(len(x.runs))]
        # Heads (value or bound, pending, run, k): a value sorts before an equal bound.
        terms, heap, runs, wait = x.terms, x.heap, x.runs, None
        while len(terms) < want and heap:
            b, pending, r, k = heap[0]
            ln, c, m = runs[r]
            if not pending:
                terms += (b,) * m
                k += 1
            # The run's next head: the child's next term if known, else a bound.
            if k < len(c.terms):
                heapq.heapreplace(heap, (c.terms[k] + k * ln, 0, r, k))
            elif c.heap == []:
                heapq.heappop(heap)
            elif not pending:
                heapq.heapreplace(heap, (b + ln, 1, r, k))
            else:
                # Ask for the run's share of the terms owed; a lone run owes all.
                wait = (c, k + max(1, -(-(want - len(terms)) // (m * len(heap)))))
                break
        if wait is None:
            stack.pop()
        elif len(stack) > sources.DEFAULT_BUDGET:
            raise DepthBudgetExceeded(f"expansion past depth {sources.DEFAULT_BUDGET}")
        else:
            stack.append(wait)
    if len(root.terms) < keep:
        raise IndexOutOfRange(f"tree has N={len(root.terms)} terms, requested index {_int_str(n_max)}")
    return root.terms[:keep], scale
