"""Building trees whose factorial windows hit prescribed values.

Input: a generation-indexed table of target values, strongly increasing
between generations (sufficiently biased).  Output: a rooted tree in which
every non-leaf vertex has the same number d of children and whose weighting
process visits each vertex for the first time at exactly the prescribed
value.  For d = 2 the full emitted sequence equals the flattened input; for
d >= 3 later visits of a vertex interleave inside a generation window, so
the roundtrip check compares first-visit values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import sources
from .engine import OrderedTieBreak, factorials_weighting
from .errors import Mismatch, NotBiased, StructureError
from .trees import INF, RootedTree, _denominator_lcm, format_length

__all__ = [
    "BiasedSequence",
    "OrderChoice",
    "is_sufficiently_biased",
    "realize_lengths",
    "RoundtripReport",
    "verify_roundtrip",
]


@dataclass(frozen=True)
class BiasedSequence:
    """Target first-visit values, grouped by generation.

    groups[0] must be d zeros (the root is selected d times, always at
    distance 0); groups[n] holds the d**n values for generation n in
    nondecreasing order.
    """

    d: int
    groups: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.d < 2:
            raise StructureError("need branching degree d >= 2")
        if not self.groups:
            raise StructureError("need at least the generation-0 group")
        norm = []
        for n, group in enumerate(self.groups):
            vals = tuple(Fraction(v) for v in group)
            size = self.d if n == 0 else self.d**n
            if len(vals) != size:
                raise StructureError(f"generation {n} needs {size} values, got {len(vals)}")
            if any(v < 0 for v in vals):
                raise StructureError(f"generation {n} has a negative value")
            if n == 0 and any(v != 0 for v in vals):
                raise StructureError("generation 0 values must all be 0")
            if list(vals) != sorted(vals):
                raise StructureError(f"generation {n} values must be nondecreasing")
            if n >= 1 and vals[0] <= 0:
                raise StructureError(f"generation {n} values must be positive")
            norm.append(vals)
        object.__setattr__(self, "groups", tuple(norm))

    @property
    def depth(self) -> int:
        return len(self.groups) - 1

    def flattened(self) -> tuple[Fraction, ...]:
        return tuple(v for group in self.groups for v in group)


@dataclass(frozen=True)
class OrderChoice:
    """Per-generation processing orders.

    perms[n][i] is the within-generation slot (0-based, in fixed tree order)
    of the vertex processed i-th in generation n.  Missing generations use
    the identity.
    """

    perms: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def slot_order(self, n: int, size: int) -> tuple[int, ...]:
        perm = self.perms.get(n)
        if perm is None:
            return tuple(range(size))
        if sorted(perm) != list(range(size)):
            raise StructureError(f"generation {n} order is not a permutation of 0..{size - 1}")
        return tuple(perm)


def is_sufficiently_biased(seq: BiasedSequence) -> tuple[bool, int | None]:
    """Whether each generation's first value dominates twice the d**(n+1)
    multiple of the sum of all previous generations' last values.  Returns
    the first failing generation index, or None."""
    d = seq.d
    running = Fraction(0)
    for n in range(len(seq.groups) - 1):
        running += seq.groups[n][-1]
        if seq.groups[n + 1][0] <= 2 * d ** (n + 1) * running:
            return False, n + 1
    return True, None


def _processing_order(seq: BiasedSequence, orders: OrderChoice):
    """Each generation n >= 1 as (n, its vertices in processing order), a
    vertex as (breadth-first id, rank): the children of u are d*u+1 .. d*u+d,
    and the i-th vertex processed in a generation ranks i-th among its ids.
    Generations come one at a time, each order checked as it is reached."""
    start = 1
    for gen in range(1, seq.depth + 1):
        size = seq.d**gen
        yield gen, [(start + slot, start + i) for i, slot in enumerate(orders.slot_order(gen, size))]
        start += size


def realize_lengths(seq: BiasedSequence, orders: OrderChoice | None = None) -> RootedTree:
    """Edge lengths of the realizing d-ary tree.

    Working down the generations in processing order, the length of the edge
    into the i-th vertex u of generation n+1 is its target value minus the
    weighted root-path contribution that the weighting process will have
    accumulated by u's first visit: ancestor edge j carries weight
    d**(n+1-j) + (number of earlier generation-(n+1) vertices below it).

    Each computed length must land in [first_target / 2, target]; a value
    outside that window means the input was not biased enough and raises
    NotBiased.  Integer targets yield integer lengths.  The sums run on the
    targets times the LCM of their denominators, in integers.  It does not
    run the weighting: a table that passes these checks can still give a
    tree whose first visits miss their targets, which verify_roundtrip finds.
    """
    ok, bad = is_sufficiently_biased(seq)
    if not ok:
        raise NotBiased(f"generation {bad} first value fails the bias inequality")
    d, depth = seq.d, seq.depth
    first_leaf = (d**depth - 1) // (d - 1)
    n_vertices = first_leaf + d**depth
    parents = [-1] + [(v - 1) // d for v in range(1, n_vertices)]
    scaled: list[int] = [0] * n_vertices  # lengths times `scale`
    scale = _denominator_lcm(seq.flattened())
    for gen, order in _processing_order(seq, orders or OrderChoice()):
        group = seq.groups[gen]
        targets = [t.numerator * (scale // t.denominator) for t in group]
        below: dict[int, int] = {}
        for i, (v, _) in enumerate(order):
            acc, u = 0, parents[v]
            for j in range(gen - 1, 0, -1):
                acc += (d ** (gen - j) + below.get(u, 0)) * scaled[u]
                u = parents[u]
            value = targets[i] - acc
            if not targets[0] <= 2 * value <= 2 * targets[i]:
                raise NotBiased(
                    f"generation {gen}, position {i + 1}: edge length "
                    f"{format_length(Fraction(value, scale))} falls outside "
                    f"[{format_length(group[0] / 2)}, {format_length(group[i])}]"
                )
            scaled[v] = value
            u = parents[v]
            while u != 0:
                below[u] = below.get(u, 0) + 1
                u = parents[u]
    caps = (None,) * first_leaf + (INF,) * (n_vertices - first_leaf)
    return RootedTree(tuple(parents), (None, *(Fraction(x, scale) for x in scaled[1:])), caps)


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of re-running the weighting on a realized tree.

    first_visits[n] lists the realized first-visit values of generation n in
    processing order; they equal the input groups whenever this report is
    returned (a discrepancy raises Mismatch instead).  full_prefix_match
    additionally states whether the raw emitted sequence equals the
    flattened input, which holds exactly when d = 2.
    """

    tree: RootedTree
    first_visits: tuple[tuple[Fraction, ...], ...]
    full_prefix_match: bool
    coherent: bool


def verify_roundtrip(seq: BiasedSequence, orders: OrderChoice | None = None) -> RoundtripReport:
    """Realize the sequence, re-run the weighting with ties broken in
    processing order, and compare first-visit values generation by
    generation.  Raises Mismatch (with the flattened index) on any
    disagreement, and checks that selections never jump back a generation.
    """
    orders = orders or OrderChoice()
    tree = realize_lengths(seq, orders)
    generations = list(_processing_order(seq, orders))
    d = seq.d
    rank = {0: 0} | {v: r for _, order in generations for v, r in order}
    # The run doubles its step count until every vertex of the table has its
    # first visit or an emitted value passes the last target, past which no
    # first visit can match, since values never decrease.
    n_max, last_target, limit = 2 * d ** (seq.depth + 1), seq.groups[-1][-1], sources.DEFAULT_BUDGET
    while True:
        run = factorials_weighting(tree, n_max, OrderedTieBreak(rank), record_trace=True)
        first_value: dict[int, Fraction] = {}
        for step in run.trace:
            first_value.setdefault(step.vertex, step.value)
        if len(first_value) == len(tree) or run.trace[-1].value > last_target or n_max >= limit:
            break
        n_max = min(2 * n_max, limit)

    gen_of = tree.depths
    coherent = True
    last_gen = 0
    for step in run.trace:
        g = gen_of[step.vertex]
        if g < last_gen:
            coherent = False
        last_gen = max(last_gen, g)

    zeros = tuple(s.value for s in run.trace[:d] if s.vertex == 0)
    if len(zeros) != d or any(z != 0 for z in zeros):
        raise Mismatch("root window is not d zeros", index=0)
    for gen, order in generations:
        for i, (v, r) in enumerate(order):
            # The flattened input holds d zeros, then the ranks 1, 2, ...
            index = r + d - 1
            if v not in first_value:
                raise Mismatch(
                    f"generation {gen} vertex in position {i + 1} was never selected "
                    f"within {n_max} steps (at most {limit})",
                    index=index,
                )
            actual, expected = first_value[v], seq.groups[gen][i]
            if actual != expected:
                raise Mismatch(
                    f"generation {gen}, position {i + 1}: first visit at "
                    f"{format_length(actual)}, wanted {format_length(expected)}",
                    index=index,
                )

    flat = seq.flattened()
    values = run.sequence.values
    full_prefix = len(values) >= len(flat) and tuple(values[: len(flat)]) == flat
    if not coherent:
        raise Mismatch("a selection jumped back to an earlier generation", index=0)
    return RoundtripReport(tree, seq.groups, full_prefix, coherent)
