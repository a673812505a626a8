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

from .errors import Exhausted, IndexOutOfRange, StructureError
from .sequences import FactorialSequence
from .sources import DEFAULT_BUDGET, view_of
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
    """Deterministic tie-break: smallest node id wins.

    Does not need the full set of minimizers (needs_tie_set False): a heap
    ordered by (score, id) surfaces exactly this choice, which keeps large
    symmetric trees out of quadratic tie-set scans.
    """

    needs_tie_set = False

    def pick(self, candidates):
        return min(candidates)

    def pick_pending(self, pendings):
        return min(pendings)

    def pick_two(self, pendings):
        a, b = sorted(pendings)[:2]
        return a, b


class SeededRandom:
    """Reproducible uniform tie-break driven by one seeded stream."""

    needs_tie_set = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, candidates):
        return self.rng.choice(sorted(candidates))

    def pick_pending(self, pendings):
        return self.rng.choice(sorted(pendings))

    def pick_two(self, pendings):
        a, b = self.rng.sample(sorted(pendings), 2)
        return (a, b) if a < b else (b, a)


class OrderedTieBreak:
    """Tie-break by an explicit rank per node id, falling back to the id.

    The realizability workflow passes its generation orders through this so
    the weighting visits equal-valued vertices in the prescribed order.
    """

    needs_tie_set = True

    def __init__(self, rank: dict[int, int]):
        self.rank = rank

    def _key(self, v: int):
        return (self.rank.get(v, v), v)

    def pick(self, candidates):
        return min(candidates, key=self._key)

    def pick_pending(self, pendings):
        return min(pendings, key=self._key)

    def pick_two(self, pendings):
        a, b = sorted(pendings, key=self._key)[:2]
        return a, b


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

    def weights_by_address(self) -> dict[tuple[int, ...], int]:
        """Edge weights keyed by the child's structural address, for
        comparing against flows computed on a separate expansion."""
        view = self.view
        return {view.address(v): w for v, w in self.weights.items()}

    def normalized_weights_by_address(self) -> dict[tuple[int, ...], Fraction]:
        n = self.steps
        return {a: Fraction(w, n) for a, w in self.weights_by_address().items()}


def _run_weighting(source, n_max, policy, t, record_trace, budget, exhaust_error=False) -> WeightingRun:
    if n_max < 0:
        raise StructureError("n_max must be >= 0")
    if t < 0:
        raise StructureError("t must be >= 0")
    view = view_of(source, budget)
    policy = policy or Canonical()
    # When every edge length times `scale` is an integer, the whole run works
    # in scaled integers and converts back on the way out; int arithmetic
    # beats Fraction by more than an order of magnitude on long runs.
    scale = view.length_scale()
    zero = 0 if scale is not None else Fraction(0)
    if scale is not None:
        def tofrac(v):
            return Fraction(v, scale)
    else:
        def tofrac(v):
            return v
    values: list = []
    trace: list[TraceStep] = []
    weights: dict[int, int] = {}

    def finish():
        if exhaust_error and len(values) < n_max + 1:
            raise Exhausted(f"all boundary elements at capacity after {len(values)} terms")
        label = "weighting" if t == 0 else f"weighting-removed(t={t})"
        seq = FactorialSequence(tuple(tofrac(v) for v in values), label)
        return WeightingRun(seq, tuple(trace) if record_trace else None, weights, view)

    root_kids = view.children(0)
    if not root_kids:
        # Single-vertex tree: the root is its own leaf; capacity many zeros.
        cap = view.capacity(0)
        count = n_max + 1 if cap == INF else min(n_max + 1, int(cap))
        for n in range(count):
            values.append(zero)
            if record_trace:
                trace.append(TraceStep(n, 0, "init" if n == 0 else "2.2", tofrac(zero)))
        return finish()

    values.append(zero)
    if record_trace:
        trace.append(TraceStep(0, 0, "init", tofrac(zero)))
    if n_max == 0:
        return finish()

    parent = view.parent
    length = view.length
    children = view.children

    _elen: dict[int, object] = {}

    def elen(v: int):
        L = _elen.get(v)
        if L is None:
            # Integral by the length_scale contract.
            L = (length(v) * scale).numerator if scale is not None else length(v)
            _elen[v] = L
        return L

    def weight_strict_path(start: int, first: int) -> list[int]:
        """Give weight 1 to the strict path through edge (start, first);
        the returned chain ends at a branching vertex or a leaf."""
        cur = first
        weights[cur] = 1
        chain = [cur]
        while True:
            kids = children(cur)
            if len(kids) != 1:
                return chain
            (cur,) = kids
            weights[cur] = 1
            chain.append(cur)

    def increment_path(v: int):
        while v != 0:
            weights[v] += 1
            v = parent(v)

    if not policy.needs_tie_set:
        # Hierarchical argmin.  best[v] is the least (score, id) pair over
        # unsaturated vertices in v's weighted subtree, score relative to v,
        # or None when that subtree has none.  A step changes weights only
        # along the selection path and the freshly weighted chains, so
        # recomputing the entries bottom-up along those paths keeps every
        # other subtree summary valid; lexicographic propagation makes the
        # root entry the smallest id among minimal scores, the same choice
        # the canonical policy would make from the full tie set.
        #
        # The per-edge term max(weight - t, 0) * length is the full removed
        # score: dropping the t largest pairing terms subtracts, level by
        # level, min(t, weight) copies of each edge length (the pairing
        # multiset has weight-difference many copies of each prefix length,
        # and the two sums telescope against each other).
        best: dict[int, tuple | None] = {}

        def recompute(v: int):
            kids = children(v)
            if kids:
                b = (zero, v) if any(c not in weights for c in kids) else None
            else:
                b = (zero, v) if weights[v] < view.capacity(v) else None
            for c in kids:
                w = weights.get(c)
                if w is None:
                    continue
                bc = best[c]
                if bc is None:
                    continue
                cand = ((w - t) * elen(c) + bc[0], bc[1]) if w > t else bc
                if b is None or cand < b:
                    b = cand
            best[v] = b

        for u in reversed(weight_strict_path(0, policy.pick_pending(root_kids))):
            recompute(u)
        recompute(0)

        for n in range(1, n_max + 1):
            b0 = best[0]
            if b0 is None:
                break  # no unsaturated vertices remain: the sequence is complete
            s, x = b0
            values.append(s)
            # Recover the root-to-x path by following the recorded argmin ids.
            path = [0]
            u = 0
            while u != x:
                for c in children(u):
                    bc = best.get(c)
                    if bc is not None and bc[1] == x:
                        u = c
                        break
                else:
                    raise StructureError("selection walk lost its argmin")
                path.append(u)

            kids = children(x)
            if not kids:
                case = "2.2"
                increment_path(x)
            else:
                pendings = [c for c in kids if c not in weights]
                if len(pendings) < len(kids):
                    case = "1"
                    y = policy.pick_pending(pendings)
                    increment_path(x)
                    for u in reversed(weight_strict_path(x, y)):
                        recompute(u)
                else:
                    case = "2.1"
                    z, w = policy.pick_two(pendings)
                    increment_path(x)
                    for u in reversed(weight_strict_path(x, z)):
                        recompute(u)
                    for u in reversed(weight_strict_path(x, w)):
                        recompute(u)
            for u in reversed(path):
                recompute(u)
            if record_trace:
                trace.append(TraceStep(n, x, case, tofrac(s)))
        return finish()

    # Lazy heap for policies that need the full set of minimizers, with or
    # without removal; the removed variant alone runs on the path above.
    heap: list = []
    live_key: dict = {}

    def push(v: int, key):
        live_key[v] = key
        heapq.heappush(heap, (key, v))

    def score(v: int):
        """Weighted distance to the root, minus the t largest pairing terms.

        The pairing multiset of a boundary element leaving the weighted tree
        at v has, level by level from v upward, weight-difference many copies
        of the plain prefix length; dropping its t largest elements removes
        min(t, weight) copies of each edge length, so the whole score
        telescopes to a per-edge sum of max(weight - t, 0) * length.
        """
        dist = zero
        u = v
        while u != 0:
            w = weights[u]
            if w > t:
                dist += (w - t) * elen(u)
            u = parent(u)
        return dist

    def push_if_unsaturated(v: int):
        kids = children(v)
        if kids:
            if any(c not in weights for c in kids):
                push(v, score(v))
        else:
            cap = view.capacity(v)
            if weights[v] < cap:
                push(v, score(v))

    first = policy.pick_pending(root_kids)
    end = weight_strict_path(0, first)[-1]
    push_if_unsaturated(0)
    push_if_unsaturated(end)

    need_ties = policy.needs_tie_set

    for n in range(1, n_max + 1):
        # Keys never overstate the live score (scores only grow), so a
        # popped entry whose recomputed score equals its key is a true
        # minimizer, and entries with larger keys cannot beat it.
        best = None
        x = None
        if need_ties:
            # Drain every key at or below the best recomputed score so the
            # policy sees the complete set of minimizers.
            buffered: list[tuple[int, object]] = []
            while heap:
                key, v = heap[0]
                if live_key.get(v) != key:
                    heapq.heappop(heap)
                    continue
                if best is not None and key > best:
                    break
                heapq.heappop(heap)
                del live_key[v]
                s = score(v)
                buffered.append((v, s))
                if best is None or s < best:
                    best = s
            if best is not None:
                candidates = [v for v, s in buffered if s == best]
                for v, s in buffered:
                    if s > best:
                        push(v, s)
                x = candidates[0] if len(candidates) == 1 else policy.pick(candidates)
                for v in candidates:
                    if v != x:
                        push(v, best)
        else:
            # First settled pop; the (key, id) heap order makes it the
            # smallest id among minimal scores, stale entries refresh in
            # place without touching true ties.
            while heap:
                key, v = heap[0]
                if live_key.get(v) != key:
                    heapq.heappop(heap)
                    continue
                heapq.heappop(heap)
                del live_key[v]
                s = score(v)
                if s == key:
                    best, x = s, v
                    break
                push(v, s)
        if best is None:
            break  # no unsaturated vertices remain: the sequence is complete
        values.append(best)

        kids = children(x)
        if not kids:
            case = "2.2"
            increment_path(x)
            push_if_unsaturated(x)
        else:
            pendings = [c for c in kids if c not in weights]
            if len(pendings) < len(kids):
                case = "1"
                y = policy.pick_pending(pendings)
                increment_path(x)
                end = weight_strict_path(x, y)[-1]
                push_if_unsaturated(end)
                if len(pendings) > 1:
                    push(x, score(x))
            else:
                case = "2.1"
                z, w = policy.pick_two(pendings)
                increment_path(x)
                end1 = weight_strict_path(x, z)[-1]
                end2 = weight_strict_path(x, w)[-1]
                push_if_unsaturated(end1)
                push_if_unsaturated(end2)
                if len(pendings) > 2:
                    push(x, score(x))
        if record_trace:
            trace.append(TraceStep(n, x, case, tofrac(best)))
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
    counts = [0] * L
    values: list[Fraction] = []
    for n in range(n_max + 1):
        best: Fraction | None = None
        best_i = -1
        for i in range(L):
            if counts[i] >= caps[i]:
                continue
            s = Fraction(0)
            row = pair[i]
            for j in range(L):
                c = counts[j]
                if c:
                    s += c * row[j]
            if best is None or s < best:
                best, best_i = s, i
        if best is None:
            raise Exhausted(f"all boundary elements at capacity after {n} terms")
        values.append(best)
        counts[best_i] += 1
    return FactorialSequence(tuple(values), "greedy-oracle")


def factorials_minmax(tree: RootedTree, n_max: int) -> FactorialSequence:
    """Min over compositions (n_1..n_d) of n+1 with n_j <= N_j of the max of
    subtree terms a_{n_j-1} + (n_j-1) * edge length, skipping n_j = 0.

    Each child stream b_j(k) = a_k(T_j) + k * length_j is nondecreasing, so
    the minimum over compositions of the maximum is the (n+1)-th smallest
    element of the merged streams.  Node ids are topological, so one pass
    from the last id to the root merges every vertex's children before the
    vertex itself, keeping the first n_max+1 terms; a leaf contributes
    capacity many zeros and a single child is the one-stream case.
    Independent of the weighting engine: recursive order statistics instead
    of incremental edge weights.  Raises IndexOutOfRange when n_max >= N.
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
        streams = []
        for c in kids:
            ln = tree.lengths[c]
            streams.append([a + k * ln for k, a in enumerate(terms[c])])
            terms[c] = None
        terms[v] = list(itertools.islice(heapq.merge(*streams), keep))
    return FactorialSequence(tuple(terms[0]), "minmax")
