"""Tree sources: explicit trees and lazily generated infinite families.

A source describes a possibly infinite rooted metric tree.  `expand` cuts it
at a depth, marking cut vertices with capacity inf (they stand for infinite
continuations); views hand the weighting engine a node-by-node interface that
materializes children on demand under a safety budget.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

from .errors import DepthBudgetExceeded, ParseError, StructureError
from .trees import INF, Capacity, RootedTree, _denominator_lcm, _int_str, _str_int, parse_length

__all__ = [
    "TreeSource",
    "RegularSource",
    "SphericalSource",
    "LambdaScaledSource",
    "AdelicSetSource",
    "expand",
    "LazyView",
    "view_of",
    "parse_generator_spec",
    "level_branching",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


class TreeSource:
    """Rule producing a rooted metric tree level by level.

    Subclasses implement a tiny protocol over opaque node states: the root
    state, each state's children as (edge length, child state) pairs, and the
    capacity when a state is a leaf of the underlying tree (None otherwise).
    States must be hashable: truncations walk a DAG keyed by (state, depth).
    A RootedTree implements the same protocol over its node ids.
    """

    def root_state(self):
        raise NotImplementedError

    def state_children(self, state, depth: int):
        """(length, child_state) pairs, in canonical order."""
        raise NotImplementedError

    def state_capacity(self, state, depth: int) -> Capacity | None:
        raise NotImplementedError

    def length_scale(self) -> int | None:
        """A positive integer multiplying every edge length to an integer,
        or None when none is known.  The engine and the min-max start their
        integer scale here, or at 1, and grow it as they meet denominators."""
        return None

    def state_whole_levels(self, state, depth: int) -> int:
        """A k >= 1: from `depth` on, for k - 1 levels, the state's one child is itself at length 1."""
        return 1


@dataclass(frozen=True)
class SphericalSource(TreeSource):
    """Spherically symmetric tree from branching and length sequences.

    branching[k] children (at lengths[k]) hang below every vertex of depth k.
    Both sequences repeat cyclically past their end; a branching value of 0
    ends the tree at that level with capacity-1 leaves.
    """

    branching: tuple[int, ...]
    lengths: tuple[Fraction, ...] = (Fraction(1),)
    # Children per level of one period of both sequences, built on first
    # use, and the levels (mod len(branching)) where the tree ends.
    _period: int = field(init=False, repr=False, compare=False)
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ends: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.branching or not self.lengths:
            raise StructureError("spherical source needs nonempty sequences")
        if any(b < 0 for b in self.branching):
            raise StructureError("branching values must be >= 0")
        object.__setattr__(self, "lengths", tuple(Fraction(x) for x in self.lengths))
        if any(x <= 0 for x in self.lengths):
            raise StructureError("edge lengths must be positive")
        object.__setattr__(self, "_period", lcm(len(self.branching), len(self.lengths)))
        object.__setattr__(self, "_ends", frozenset(k for k, b in enumerate(self.branching) if b == 0))

    def root_state(self):
        return None

    def state_children(self, state, depth):
        k = depth % self._period
        if (kids := self._levels.get(k)) is None:
            ln, b = self.lengths[k % len(self.lengths)], self.branching[k % len(self.branching)]
            if b > sys.maxsize:
                raise DepthBudgetExceeded(f"depth {depth}: {_int_str(b)} children per vertex, more than a list holds")
            kids = self._levels[k] = ((ln, None),) * b
        return kids

    def state_capacity(self, state, depth):
        return 1 if self._ends and depth % len(self.branching) in self._ends else None

    def length_scale(self):
        return _denominator_lcm(self.lengths)


class RegularSource(SphericalSource):
    """Every vertex has exactly `degree` children at the same edge length:
    the spherical source with one level."""

    def __init__(self, degree: int, length=Fraction(1)):
        if degree < 1:
            raise StructureError("regular source needs degree >= 1")
        if Fraction(length) <= 0:
            raise StructureError("edge length must be positive")
        super().__init__((degree,), (length,))

    @property
    def degree(self) -> int:
        return self.branching[0]

    @property
    def length(self) -> Fraction:
        return self.lengths[0]


@dataclass(frozen=True)
class LambdaScaledSource(TreeSource):
    """Same shape as `base`, but an edge leaving a depth-k vertex has length
    lam**k regardless of the base length."""

    base: TreeSource
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam <= 0:
            raise StructureError("lambda must be positive")

    def root_state(self):
        return self.base.root_state()

    def state_children(self, state, depth):
        scaled = self.lam**depth
        return [(scaled, child) for _, child in self.base.state_children(state, depth)]

    def state_capacity(self, state, depth):
        return self.base.state_capacity(state, depth)

    def length_scale(self):
        # Every lam**k has one integer multiplier only when lam is an integer;
        # otherwise the engine grows its scale level by level.
        return 1 if self.lam.denominator == 1 else None


# Miller-Rabin over the first 13 prime bases decides primality for every
# n below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A witness proves n composite at any size;
    an n at or above _MR_PROVEN_BELOW that no base witnesses raises
    StructureError, since its primality is not proven."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise StructureError(
            f"cannot prove {_int_str(n)} prime: the test is a proof only below {_MR_PROVEN_BELOW}"
        )
    return True


def _integer_set(elements) -> tuple[int, ...]:
    """The elements sorted, once they are a nonempty set of distinct
    integers; StructureError otherwise."""
    for x in (elems := tuple(elements)):
        if not isinstance(x, int):
            raise StructureError(f"set elements must be integers, got {x!r}")
    if not elems:
        raise StructureError("need a nonempty set of integers")
    if len(set(elems)) != len(elems):
        raise StructureError("set elements must be distinct")
    return tuple(sorted(elems))


def _val(p: int, x: int) -> int:
    """Exponent of p in x != 0."""
    if x == 0:
        raise StructureError("valuation of 0 requested; set elements must be distinct")
    v, x = 0, abs(x)
    while x % p == 0:
        v, x = v + 1, x // p
    return v


def _check_modulus(p) -> None:
    """StructureError unless p is an integer >= 2."""
    if not isinstance(p, int) or p < 2:
        raise StructureError(f"modulus must be an integer >= 2, got {_int_str(p) if isinstance(p, int) else repr(p)}")


def _require_prime(n: int) -> None:
    """StructureError unless n is a proven prime; for a prime that comes
    from outside the program (CLI --p, the adelic spec)."""
    if not _is_prime(n):
        raise StructureError(f"{_int_str(n)} is not prime")


@dataclass(frozen=True)
class AdelicSetSource(TreeSource):
    """Residue tree of a finite integer set modulo powers of p, unit edge
    lengths.

    Depth-k vertices are the residues mod p**k attained by the set; any
    integer p >= 2 defines the tree, and at a prime p its factorial
    sequence is the p-adic valuation of the generalized factorials.  A class
    that shrinks to a single element at depth >= 1 becomes a capacity-1 leaf
    (its continuation is a bare path that never meets another element, so the
    cut does not change any factorial term); all such leaves are one subtree,
    with the state ().
    """

    elements: tuple[int, ...]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "elements", _integer_set(self.elements))
        _check_modulus(self.p)

    def root_state(self):
        return self.elements

    def state_children(self, state, depth):
        mod = self.p ** (depth + 1)
        groups: dict[int, list[int]] = {}
        for s in state:
            groups.setdefault(s % mod, []).append(s)
        one = Fraction(1)
        return [(one, tuple(g) if len(g) > 1 else ()) for _, g in sorted(groups.items())]

    def state_capacity(self, state, depth):
        return None if state else 1

    def state_whole_levels(self, state, depth):
        # A class stays whole down to depth val_p(gcd of its differences).
        g = gcd(*(s - state[0] for s in state))
        return _val(self.p, g // self.p**depth) + 1 if g else 1

    def length_scale(self):
        return 1


def _dag(source: TreeSource | RootedTree, depth: int):
    """The truncation at `depth` as a DAG of (state, depth) nodes: (nodes
    breadth first, runs, caps).  runs[node] groups equal consecutive children
    as (length, child node, multiplicity), () at a leaf; caps[node] is a
    leaf's capacity, inf where the truncation cuts."""
    root = (source.root_state(), 0)
    order, runs, caps = [root], {root: ()}, {}
    for node in order:
        state, d = node
        cap = source.state_capacity(state, d)
        if cap is not None or d == depth:
            caps[node] = INF if cap is None else cap
            continue
        runs[node] = kids = []
        for ln, child in source.state_children(state, d):
            # The child state first: on an explicit tree, ids always differ.
            if kids and kids[-1][1][0] == child and kids[-1][0] == ln:
                kids[-1] = (ln, kids[-1][1], kids[-1][2] + 1)
                continue
            kids.append((ln, c := (child, d + 1), 1))
            if c not in runs:
                runs[c] = ()
                order.append(c)
    return order, runs, caps


def _unroll(dag) -> RootedTree:
    """The tree a DAG of `_dag` stands for, numbered breadth first; past
    DEFAULT_BUDGET vertices, DepthBudgetExceeded before any is built."""
    order, runs, caps = dag
    # Root paths per node; breadth-first order lists a node after its parents.
    paths = {order[0]: 1}
    for node in order:
        for _, child, m in runs[node]:
            paths[child] = paths.get(child, 0) + m * paths[node]
    if (size := sum(paths.values())) > DEFAULT_BUDGET:
        raise DepthBudgetExceeded(f"the truncation has {size} vertices, past the budget of {DEFAULT_BUDGET}")
    parents, lengths, nodes = [-1], [None], [order[0]]
    for v, node in enumerate(nodes):
        for ln, child, m in runs[node]:
            parents += [v] * m
            lengths += [ln] * m
            nodes += [child] * m
    return RootedTree(tuple(parents), tuple(lengths), tuple(caps.get(node) for node in nodes))


def expand(source: TreeSource, depth: int) -> RootedTree:
    """Materialize the source down to `depth` edges, numbered breadth first
    so expansions at increasing depths agree node by node.  Vertices cut
    mid-growth get capacity inf (standing for the infinite part below);
    natural leaves keep their own capacity."""
    if depth < 0:
        raise StructureError("depth must be >= 0")
    return _unroll(_dag(source, depth))


class LazyView:
    """Engine-facing view that materializes a source on demand.

    Node ids are assigned in materialization order (so parent < child), and
    each vertex's children are materialized once, on the one call that asks
    for them.  Asking for children past DEFAULT_BUDGET levels raises
    DepthBudgetExceeded rather than looping forever.
    """

    def __init__(self, source: TreeSource):
        self.source = source
        self._lengths, self._depths, self._states = [None], [0], [source.root_state()]

    def children(self, v: int) -> tuple[int, ...]:
        d = self._depths[v]
        state = self._states[v]
        if self.source.state_capacity(state, d) is not None:
            return ()
        if d >= DEFAULT_BUDGET:
            raise DepthBudgetExceeded(f"expansion past depth {DEFAULT_BUDGET}")
        start = len(self._depths)
        for ln, child_state in self.source.state_children(state, d):
            self._lengths.append(ln)
            self._depths.append(d + 1)
            self._states.append(child_state)
        return tuple(range(start, len(self._depths)))

    def length(self, v: int) -> Fraction:
        return self._lengths[v]

    def capacity(self, v: int) -> Capacity | None:
        return self.source.state_capacity(self._states[v], self._depths[v])

    def length_scale(self) -> int | None:
        return self.source.length_scale()


def view_of(source_or_tree):
    """The engine's view: children, length and capacity by vertex id, and
    length_scale.  Explicit inputs keep their ids; generated ones go lazy."""
    if isinstance(tree := source_or_tree, RootedTree):
        return SimpleNamespace(children=tree.children.__getitem__, length=tree.lengths.__getitem__,
                               capacity=tree.capacities.__getitem__, length_scale=tree.length_scale)
    return LazyView(source_or_tree)


def _spherical_base(source):
    """The spherical source under any lambda-scalings of `source`, or None:
    its branching numbers are the source's."""
    while isinstance(source, LambdaScaledSource):
        source = source.base
    return source if isinstance(source, SphericalSource) else None


def _is_ray(source) -> bool:
    """Whether the source is one infinite path: every vertex has one child."""
    base = _spherical_base(source)
    return base is not None and set(base.branching) == {1}


def level_branching(source: TreeSource, depth: int) -> list[int] | None:
    """Children per vertex at depths 0..depth-1, when the source is
    spherically symmetric by construction and does not end above `depth`;
    None otherwise.  A lambda-scaled source has its base's numbers.

    Supports the deep-resistance fast path: for such trees the network is a
    series of uniform parallel levels, so R = sum(length_k / count_k), where
    count_k is the product of the first k branching numbers.
    """
    if (base := _spherical_base(source)) is None:
        return None
    if depth > sys.maxsize:
        raise DepthBudgetExceeded(f"depth {_int_str(depth)}: its levels would not fit in a list")
    levels = (list(base.branching) * (depth // len(base.branching) + 1))[:depth]
    return None if 0 in levels else levels


def _split_fields(text: str) -> list[str]:
    """Split on whitespace but keep parenthesized groups together."""
    out, start, level = [], 0, 0
    for i, ch in enumerate(text + " "):
        level += (ch == "(") - (ch == ")")
        if level < 0:
            raise ParseError("unbalanced ')' in generator spec")
        if ch.isspace() and not level:
            if i > start:
                out.append(text[start:i])
            start = i + 1
    if level:
        raise ParseError("unbalanced '(' in generator spec")
    return out


def parse_generator_spec(text: str) -> TreeSource:
    """Parse generator specs:

    - ``regular d=<int> length=<rat>``
    - ``spherical b=<int,int,...> length=<rat,...>``
    - ``lambda base=(<spec>) lambda=<rat>``
    - ``adelic p=<prime> set=<int,...>``

    Rationals are <num>[/<den>].  The lambda wrapper takes its base spec in
    parentheses.
    """
    tokens = _split_fields(text.strip())
    if not tokens:
        raise ParseError("empty generator spec")
    kind, *rest = tokens
    fields: dict[str, str] = {}
    for tok in rest:
        key, sep, value = tok.partition("=")
        if not sep or key in fields:
            raise ParseError(f"bad generator field {tok!r}")
        fields[key] = value

    def need(*keys: str) -> list[str]:
        # A trailing "length" key may be omitted; it defaults to 1.
        missing = [k for k in keys if k not in fields and k != "length"]
        extra = [k for k in fields if k not in keys]
        if missing or extra:
            raise ParseError(f"{kind} spec takes fields {list(keys)}, got {sorted(fields)}")
        return [fields.get(k, "1") for k in keys]

    try:
        if kind == "regular":
            d, length = need("d", "length")
            return RegularSource(_str_int(d), parse_length(length))
        if kind == "spherical":
            b, length = need("b", "length")
            branching = tuple(_str_int(x) for x in b.split(","))
            lens = tuple(parse_length(x) for x in length.split(","))
            return SphericalSource(branching, lens)
        if kind == "lambda":
            base, lam = need("base", "lambda")
            if not (base.startswith("(") and base.endswith(")")):
                raise ParseError("lambda base spec must be parenthesized")
            return LambdaScaledSource(parse_generator_spec(base[1:-1]), parse_length(lam))
        if kind == "adelic":
            p, elements = need("p", "set")
            _require_prime(q := _str_int(p))
            return AdelicSetSource(tuple(_str_int(x) for x in elements.split(",")), q)
    except ValueError as exc:
        raise ParseError(f"bad value in generator spec: {exc}") from None
    raise ParseError(f"unknown generator kind {kind!r}")
