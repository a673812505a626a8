"""Electrical-network views of capacitated trees.

A tree becomes a resistor network by reading each edge length as a
resistance.  Leaves of infinite capacity are grounded (they stand for
infinite continuations); leaves of finite capacity are left open, no current
exits there.  On that network this module computes exact effective
resistances, unit current flows, escape probabilities of the associated
random walk, and bracketing intervals for the branching number of a
generated tree.

Each query walks its source once into a DAG of (state, depth) nodes; equal
pairs root equal subtrees, so a symmetric source has one node per depth.  The
walk's nodes at depth <= h form the truncation at h, solved by one reverse
pass: R = 1 / sum(m / (length + R_child)) over (length, child, multiplicity)
runs.  Only the per-edge flows and the Monte Carlo walk unroll the DAG.

All network quantities are exact rationals; floats appear only in Monte
Carlo estimates and in the final bisection report.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import itemgetter

from . import sources
from .engine import WeightingRun
from .errors import AllOpenCircuit, DepthBudgetExceeded, Inconclusive, StructureError
from .sources import LambdaScaledSource, TreeSource, _dag, _unroll, level_branching
from .trees import INF, RootedTree, _float, _int_str, format_length

__all__ = [
    "ResistanceResult",
    "effective_resistance",
    "laplacian_voltage_gap",
    "FlowAssignment",
    "unit_current_flow",
    "EquidistributionReport",
    "equidistribution_check",
    "WalkResult",
    "exact_escape_probability",
    "random_walk_escape",
    "BranchingReport",
    "branching_number_estimate",
]

_ZERO = Fraction(0)


def _solve(dag, h: int) -> dict:
    """R (None if open) of each node of the truncation at depth h of a
    `_dag` walk at depth h or deeper; AllOpenCircuit if the root is open.

    One reverse pass over the walk's breadth-first prefix at depth <= h: a
    leaf is grounded (R = 0) at capacity inf and open otherwise, a node cut
    at depth h is grounded, and any other node has R = 1 / sum(m / (length
    + R_child)) over its runs into children that are not open, or is open
    when there are none.
    """
    order, runs, caps = dag
    r = {}
    for node in reversed(order[: bisect_right(order, h, key=itemgetter(1))]):
        cap = caps.get(node, INF if node[1] == h else None)
        if cap is not None:
            r[node] = _ZERO if cap == INF else None
            continue
        g = _ZERO
        for ln, child, m in runs[node]:
            if (x := r[child]) is not None:
                g += m / (ln + x)
        r[node] = 1 / g if g else None
    if r[order[0]] is None:
        # A cut vertex is grounded, so an open truncation cuts none: the tree
        # ends at its deepest level, the first truncation that is open.
        opened = max(order[-1][1], 1)
        raise AllOpenCircuit(f"no infinite-capacity leaf at truncation depth {opened}")
    return r


@dataclass(frozen=True)
class ResistanceResult:
    """Effective resistance of a depth-truncated tree.

    per_depth holds the resistance at every truncation depth 1..depth; the
    values never decrease, each is a lower bound for any deeper truncation.
    """

    value: Fraction
    depth: int
    per_depth: tuple[Fraction, ...]


def effective_resistance(source: TreeSource | RootedTree, depth: int) -> ResistanceResult:
    """Exact resistance between the root and the grounded boundary of the
    depth-truncation.  Raises AllOpenCircuit when no leaf is grounded, and
    DepthBudgetExceeded past sources.DEFAULT_BUDGET levels, one value each."""
    if depth > sources.DEFAULT_BUDGET:
        raise DepthBudgetExceeded(f"depth {_int_str(depth)}: one resistance per level, past the budget of "
                                  f"{sources.DEFAULT_BUDGET} levels")
    fl = unit_current_flow(source, depth)
    dag = order, _, _ = fl.network[0]
    # Shallower truncations of a grounded one are grounded too; from the
    # walk's deepest level on, every truncation is the whole tree.
    per_depth = [_solve(dag, h)[order[0]] for h in range(1, min(depth, order[-1][1]))]
    per_depth += [fl.energy] * (depth - len(per_depth))
    return ResistanceResult(fl.energy, depth, tuple(per_depth))


def laplacian_voltage_gap(tree: RootedTree) -> Fraction:
    """Voltage difference produced by a unit current from the root to the
    merged grounded leaves, computed from the full graph Laplacian by exact
    Gaussian elimination.  Equals the effective resistance of the tree.
    """
    n = len(tree.parents)
    sink = {v for v in tree.leaves if tree.capacities[v] == INF}
    if not sink:
        raise AllOpenCircuit("no infinite-capacity leaf to ground")
    # Node indices: root is eliminated (potential 0), all grounded leaves
    # merge into one sink variable, every other vertex keeps its own.
    col = {v: i for i, v in enumerate(v for v in range(1, n) if v not in sink)}
    sink_col = len(col)
    m = sink_col + 1
    col |= dict.fromkeys(sink, sink_col) | {0: None}
    # Row for vertex w states: sum over neighbors u of c_uw (F(w) - F(u))
    # equals the external injection at w, which is -1 at the sink and 0 at
    # every other non-root vertex.
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [Fraction(0)] * m
    b[sink_col] = Fraction(-1)
    for v in range(1, n):
        u = tree.parents[v]
        c = 1 / tree.lengths[v]
        for x, y in ((col[u], col[v]), (col[v], col[u])):
            if x is None:
                continue
            a[x][x] += c
            if y is not None:
                a[x][y] -= c

    # Gaussian elimination, first nonzero pivot (exact, no stability issue).
    for k in range(m):
        piv = next(r for r in range(k, m) if a[r][k])
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            b[k], b[piv] = b[piv], b[k]
        inv = 1 / a[k][k]
        for r in range(k + 1, m):
            if not a[r][k]:
                continue
            f = a[r][k] * inv
            for c in range(k, m):
                a[r][c] -= f * a[k][c]
            b[r] -= f * b[k]
    x = [Fraction(0)] * m
    for k in range(m - 1, -1, -1):
        s = b[k]
        for c in range(k + 1, m):
            s -= a[k][c] * x[c]
        x[k] = s / a[k][k]
    # Unit current flows root -> sink; with F(root) = 0 the sink potential is
    # -R, and the gap F(root) - F(sink) is the resistance.
    return -x[sink_col]


@dataclass(frozen=True)
class FlowAssignment:
    """Unit flow from the root to the grounded boundary.

    The energy sum(length * flow**2) equals the effective resistance
    (Thomson's principle).  `tree`, the truncation unrolled from the flow's
    own DAG, and `flows` are built on first use: flows[v] is the current on
    the edge into v (0 on edges into open subtrees).
    """

    source: TreeSource | RootedTree
    depth: int
    energy: Fraction
    network: tuple = field(repr=False, compare=False)

    @cached_property
    def tree(self) -> RootedTree:
        return _unroll(self.network[0])

    @cached_property
    def flows(self) -> dict[int, Fraction]:
        """Current divider: a vertex's current splits among its children
        proportionally to 1/(length + subtree resistance)."""
        (order, runs, _), r = self.network
        # A vertex's children are its node's runs, each repeated m times.
        nodes, flows = {0: order[0]}, {}
        for v, kids in enumerate(self.tree.children):
            f, node, kid = flows[v] if v else Fraction(1), nodes[v], iter(kids)
            for ln, child, m in runs[node]:
                rc = r[child]
                share = _ZERO if rc is None or f == 0 else f * r[node] / (ln + rc)
                for c in islice(kid, m):
                    nodes[c], flows[c] = child, share
        return flows

    @property
    def escape(self) -> Fraction:
        """Escape probability of the walk from the root."""
        return 1 / (sum(1 / ln for ln, _ in _root_edges(self.source)) * self.energy)


def unit_current_flow(source: TreeSource | RootedTree, depth: int) -> FlowAssignment:
    """Unit current flow on the depth-truncation."""
    if depth < 1:
        raise StructureError("depth must be >= 1")
    dag = _dag(source, depth)
    r = _solve(dag, depth)
    return FlowAssignment(source, depth, r[dag[0][0]], (dag, r))


@dataclass(frozen=True)
class EquidistributionReport:
    """Comparison of normalized edge weights of a weighting run against the
    harmonic flow on the same truncation, keyed by child address."""

    depth: int
    steps: int
    rows: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]
    max_deviation: Fraction


def equidistribution_check(run: WeightingRun, flow: FlowAssignment) -> EquidistributionReport:
    """How far the empirical edge frequencies of a run sit from the flow.

    The run's normalized weight of the edge into v is the fraction of terms
    whose chosen vertex passed through v, so it is the empirical measure of
    the branch at v; the flow is its harmonic limit.  There is a row for
    every edge of the flow's truncation; an edge leaving the run's weighted
    subtree has weight 0.
    """
    tree, children, weights = flow.tree, run.children, run.weights
    # Flow-tree vertex -> weighted run vertex (or the root), parents first.
    at = {0: 0}
    for v, kids in enumerate(tree.children):
        if v in at:
            at.update((c, u) for c, u in zip(kids, children[at[v]]) if u in weights)
    addr_of, n = tree.addresses, run.steps
    rows = tuple(
        (addr_of[v], Fraction(weights[at[v]], n) if v in at else _ZERO, f)
        for v, f in sorted(flow.flows.items(), key=lambda item: addr_of[item[0]])
    )
    # Rounding to float is monotone, so deviations meet in an exact (and, at
    # tens of thousands of digits, slow) comparison only on a float tie.
    worst = max((abs(w - f) for _, w, f in rows), key=lambda x: (_float(x), x), default=_ZERO)
    return EquidistributionReport(flow.depth, run.steps, rows, worst)


@dataclass(frozen=True)
class WalkResult:
    trials: int
    escaped: int
    timeouts: int
    seed: int

    @property
    def fraction(self) -> float:
        return self.escaped / self.trials


def _root_edges(source: TreeSource | RootedTree):
    """The root's (length, child state) pairs; StructureError if none (no walk)."""
    root = source.root_state()
    if source.state_capacity(root, 0) is None and (edges := source.state_children(root, 0)):
        return edges
    raise StructureError("the tree has no edge, so the walk from the root cannot move")


def exact_escape_probability(source: TreeSource | RootedTree, depth: int) -> Fraction:
    """Probability that the conductance-biased walk from the root hits the
    grounded boundary before returning to the root: 1 over (total root
    conductance times effective resistance)."""
    return unit_current_flow(source, depth).escape


_MAX_STEPS = 10**6


def random_walk_escape(source: TreeSource | RootedTree, depth: int, trials: int, seed: int) -> WalkResult:
    """Monte Carlo estimate of the escape probability.

    Each trial walks from the root, stepping to a neighbor with probability
    proportional to the conductance (1/length) of the joining edge, until it
    either reaches a grounded leaf (escape) or re-enters the root (failure).
    Trials exceeding _MAX_STEPS steps count as failures and are tallied.
    """
    return _walk(unit_current_flow(source, depth).tree, trials, seed)


def _walk(tree: RootedTree, trials: int, seed: int) -> WalkResult:
    """random_walk_escape on an already grounded truncation."""
    if trials < 1:
        raise StructureError("trials must be >= 1")
    if trials > sys.maxsize:
        raise StructureError(f"trials must be <= {sys.maxsize}, got {_int_str(trials)}")
    _root_edges(tree)
    # A vertex's neighbors are its parent, then its children; an edge's
    # conductance is 1 over the length into its deeper end, taken relative to
    # the vertex's shortest edge: an exact ratio, at most 1 and never 1/0.0.
    neighbors = [([p] if p >= 0 else []) + list(kids) for p, kids in zip(tree.parents, tree.children)]
    cumulative = []
    for v, nb in enumerate(neighbors):
        lengths = [tree.lengths[max(u, v)] for u in nb]
        shortest = min(lengths)
        cumulative.append(list(accumulate(float(shortest / ln) for ln in lengths)))
    grounded = {v for v in tree.leaves if tree.capacities[v] == INF}

    rng = random.Random(seed)
    escaped = timeouts = 0
    for _ in range(trials):
        v = 0
        for _ in range(_MAX_STEPS):
            acc = cumulative[v]
            u = rng.random() * acc[-1]
            v = neighbors[v][bisect_right(acc, u, 0, len(acc) - 1)]
            if v == 0:
                break
            if v in grounded:
                escaped += 1
                break
        else:
            timeouts += 1
    return WalkResult(trials, escaped, timeouts, seed)


@dataclass(frozen=True)
class BranchingReport:
    """Bisection bracket for the branching number.

    Scaling the edge into each depth-k vertex to length lam**(k-1) makes the
    truncated resistances diverge for lam at or above the branching number
    and stay bounded below it; each evaluation row records (lam, verdict,
    last resistance reached).  Resistances here are floats (inf past their
    range), the one place outside Monte Carlo that trades exactness for depth.
    """

    low: Fraction
    high: Fraction
    status: str
    evaluations: tuple[tuple[Fraction, str, float], ...]


def _schedule(depth: int) -> tuple[int, ...]:
    """The branching schedule to `depth`: depth >> k for k = 8, 6, 4, 2, 1, 0."""
    return tuple(sorted({max(1, depth >> k) for k in (8, 6, 4, 2, 1, 0)}))


def _profile_resistances(branching, lam: float, schedule, threshold) -> list[float]:
    """Truncated resistances sum(lam**(k-1) / count_k) at the schedule depths,
    where count_k = branching[0] * ... * branching[k-1] is the edge count
    of level k.

    Floats, built incrementally as term_k = term_(k-1) * lam / branching[k-1],
    so neither lam**k nor a level count is ever formed; accumulation stops
    once the sum passes the divergence threshold (every term is positive,
    deeper values are then reported at the reached level).
    """
    out = []
    acc = 0.0
    term = 1 / branching[0]
    h = 0
    for depth in schedule:
        while h < depth and acc <= threshold:
            if h > 0:
                # lam * (1 / b), not lam / b: the two round differently.
                term *= lam * (1 / branching[h])
            acc += term
            h += 1
        out.append(acc)
    return out


def branching_number_estimate(
    source: TreeSource | RootedTree, lam_lo, lam_hi, depth: int = 4096, tol=Fraction(1, 20)
) -> BranchingReport:
    """Bracket the branching number of the generated tree within tol.

    At each candidate lam the lam-scaled truncated resistances at the depths
    max(1, depth >> k) for k = 8, 6, 4, 2, 1, 0 are classified as divergent
    (past a 10**6 threshold, or still nearly doubling between the last two
    depths) or convergent (Cauchy within tol/8 at the tail).  An endpoint already on the wrong side collapses the
    interval to that endpoint.  An unclassifiable candidate raises
    Inconclusive rather than guessing.
    """
    lo, hi = Fraction(lam_lo), Fraction(lam_hi)
    if not 0 < lo < hi:
        raise StructureError("need 0 < lam_lo < lam_hi")
    tol = Fraction(tol)
    if tol <= 0:
        raise StructureError(f"tol must be > 0, got {format_length(tol)}")
    if depth < 1:
        raise StructureError(f"depth must be >= 1, got {_int_str(depth)}")
    _root_edges(source)
    schedule = _schedule(depth)
    res_tol = _float(tol) / 8
    threshold = 10**6
    branching = level_branching(source, schedule[-1])
    evals: list[tuple[Fraction, str, float]] = []

    def classify(lam: Fraction) -> str:
        if branching is not None:
            values = _profile_resistances(branching, _float(lam), schedule, threshold)
        else:
            # One walk; a depth past its deepest level cuts nothing more.
            dag = order, _, _ = _dag(LambdaScaledSource(source, lam), schedule[-1])
            cut = [min(h, order[-1][1]) for h in schedule]
            solved = {h: _float(_solve(dag, h)[order[0]]) for h in dict.fromkeys(cut)}
            values = [solved[h] for h in cut]
        last = values[-1]
        if last > threshold or (len(values) >= 2 and values[-2] > 0 and last / values[-2] >= 1.8):
            verdict = "divergent"
        elif len(values) >= 2 and last - values[-2] < res_tol:
            verdict = "convergent"
        else:
            verdict = "inconclusive"
        evals.append((lam, verdict, last))
        if verdict == "inconclusive":
            raise Inconclusive(f"resistance at lam={format_length(lam)} neither settles nor "
                               "diverges over the schedule")
        return verdict

    if classify(lo) == "divergent":
        return BranchingReport(lo, lo, "collapsed-low", tuple(evals))
    if classify(hi) == "convergent":
        return BranchingReport(hi, hi, "collapsed-high", tuple(evals))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if classify(mid) == "convergent":
            lo = mid
        else:
            hi = mid
    return BranchingReport(lo, hi, "bracketed", tuple(evals))
