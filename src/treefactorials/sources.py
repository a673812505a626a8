"""Tree sources: explicit trees and lazily generated infinite families.

A source describes a possibly infinite rooted metric tree.  `expand` cuts it
at a depth, marking cut vertices with capacity inf (they stand for infinite
continuations); views hand the weighting engine a node-by-node interface that
materializes children on demand under a safety budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthBudgetExceeded, ParseError, StructureError
from .trees import INF, Capacity, RootedTree, _denominator_lcm, parse_length

__all__ = [
    "TreeSource",
    "RegularSource",
    "SphericalSource",
    "LambdaScaledSource",
    "AdelicSetSource",
    "expand",
    "ExplicitView",
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
        or None when no finite common denominator is known.  The weighting
        engine starts its integer scale here; from None it starts at 1 and
        grows as the run meets new denominators."""
        return None


@dataclass(frozen=True)
class RegularSource(TreeSource):
    """Every vertex has exactly `degree` children at the same edge length."""

    degree: int
    length: Fraction = Fraction(1)

    def __post_init__(self):
        if self.degree < 1:
            raise StructureError("regular source needs degree >= 1")
        object.__setattr__(self, "length", Fraction(self.length))
        if self.length <= 0:
            raise StructureError("edge length must be positive")

    def root_state(self):
        return None

    def state_children(self, state, depth):
        return [(self.length, None)] * self.degree

    def state_capacity(self, state, depth):
        return None

    def length_scale(self):
        return self.length.denominator


@dataclass(frozen=True)
class SphericalSource(TreeSource):
    """Spherically symmetric tree from branching and length sequences.

    branching[k] children (at lengths[k]) hang below every vertex of depth k.
    Both sequences repeat cyclically past their end; a branching value of 0
    ends the tree at that level with capacity-1 leaves.
    """

    branching: tuple[int, ...]
    lengths: tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self):
        if not self.branching or not self.lengths:
            raise StructureError("spherical source needs nonempty sequences")
        if any(b < 0 for b in self.branching):
            raise StructureError("branching values must be >= 0")
        object.__setattr__(self, "lengths", tuple(Fraction(x) for x in self.lengths))
        if any(x <= 0 for x in self.lengths):
            raise StructureError("edge lengths must be positive")

    def _b(self, depth: int) -> int:
        return self.branching[depth % len(self.branching)]

    def _len(self, depth: int) -> Fraction:
        return self.lengths[depth % len(self.lengths)]

    def root_state(self):
        return None

    def state_children(self, state, depth):
        return [(self._len(depth), None)] * self._b(depth)

    def state_capacity(self, state, depth):
        return 1 if self._b(depth) == 0 else None

    def length_scale(self):
        return _denominator_lcm(self.lengths)


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
        # lam**k for every k has a single integer multiplier only when lam
        # itself is an integer; otherwise the engine grows its scale level
        # by level.
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
            f"cannot prove {n} prime: the test is a proof only below {_MR_PROVEN_BELOW}"
        )
    return True


def _integer_tuple(elements) -> tuple[int, ...]:
    """The set's elements as a tuple; StructureError names one not an int."""
    for x in (elems := tuple(elements)):
        if not isinstance(x, int):
            raise StructureError(f"set elements must be integers, got {x!r}")
    return elems


def _require_prime(n: int) -> None:
    """StructureError unless n is a proven prime; for a prime that comes
    from outside the program (CLI --p, the adelic spec)."""
    if not _is_prime(n):
        raise StructureError(f"{n} is not prime")


@dataclass(frozen=True)
class AdelicSetSource(TreeSource):
    """Residue tree of a finite integer set modulo powers of p, unit edge
    lengths.

    Depth-k vertices are the residues mod p**k attained by the set; any
    integer p >= 2 defines the tree, and at a prime p its factorial
    sequence is the p-adic valuation of the generalized factorials.  A class
    that shrinks to a single element at depth >= 1 becomes a capacity-1 leaf
    (its continuation is a bare path that never meets another element, so the
    cut does not change any factorial term).
    """

    elements: tuple[int, ...]
    p: int

    def __post_init__(self):
        if not self.elements:
            raise StructureError("adelic source needs a nonempty set")
        _integer_tuple(self.elements)
        if len(set(self.elements)) != len(self.elements):
            raise StructureError("adelic source elements must be distinct")
        if not isinstance(self.p, int) or self.p < 2:
            raise StructureError(f"modulus must be an integer >= 2, got {self.p!r}")

    def root_state(self):
        return tuple(sorted(self.elements))

    def state_children(self, state, depth):
        mod = self.p ** (depth + 1)
        groups: dict[int, list[int]] = {}
        for s in state:
            groups.setdefault(s % mod, []).append(s)
        one = Fraction(1)
        return [(one, tuple(groups[r])) for r in sorted(groups)]

    def state_capacity(self, state, depth):
        if len(state) == 1 and depth >= 1:
            return 1
        return None

    def length_scale(self):
        return 1


def expand(source: TreeSource, depth: int) -> RootedTree:
    """Materialize the source down to `depth` edges.

    Vertices cut mid-growth get capacity inf (standing for the infinite part
    below); natural leaves keep their own capacity.  Nodes are numbered
    breadth first, so expansions at increasing depths agree node by node.
    """
    if depth < 0:
        raise StructureError("depth must be >= 0")
    root = source.root_state()
    parents: list[int] = [-1]
    lengths: list[Fraction | None] = [None]
    caps: list[Capacity | None] = [None]
    queue: deque[tuple[int, object, int]] = deque([(0, root, 0)])
    while queue:
        v, state, d = queue.popleft()
        cap = source.state_capacity(state, d)
        if cap is not None:
            caps[v] = cap
            continue
        if d == depth:
            caps[v] = INF
            continue
        for ln, child_state in source.state_children(state, d):
            parents.append(v)
            lengths.append(ln)
            caps.append(None)
            queue.append((len(parents) - 1, child_state, d + 1))
    return RootedTree(tuple(parents), tuple(lengths), tuple(caps))


class ExplicitView:
    """Engine-facing view of an explicit tree, keeping its node ids."""

    def __init__(self, tree: RootedTree):
        self.tree = tree

    def children(self, v: int) -> tuple[int, ...]:
        return self.tree.children[v]

    def length(self, v: int) -> Fraction:
        return self.tree.lengths[v]

    def capacity(self, v: int) -> Capacity | None:
        return self.tree.capacities[v]

    def length_scale(self) -> int:
        return self.tree.length_scale()


class LazyView:
    """Engine-facing view that materializes a source on demand.

    Node ids are assigned in materialization order (so parent < child).
    Asking for children past the depth budget raises DepthBudgetExceeded
    rather than looping forever.
    """

    def __init__(self, source: TreeSource, budget: int = DEFAULT_BUDGET):
        self.source = source
        self.budget = budget
        self._lengths: list[Fraction | None] = [None]
        self._depths: list[int] = [0]
        self._states: list[object] = [source.root_state()]
        self._children: dict[int, tuple[int, ...]] = {}

    def children(self, v: int) -> tuple[int, ...]:
        got = self._children.get(v)
        if got is not None:
            return got
        d = self._depths[v]
        state = self._states[v]
        if self.source.state_capacity(state, d) is not None:
            kids: tuple[int, ...] = ()
        else:
            if d >= self.budget:
                raise DepthBudgetExceeded(f"expansion past depth {self.budget}")
            ids = []
            for ln, child_state in self.source.state_children(state, d):
                ids.append(len(self._depths))
                self._lengths.append(ln)
                self._depths.append(d + 1)
                self._states.append(child_state)
            kids = tuple(ids)
        self._children[v] = kids
        return kids

    def length(self, v: int) -> Fraction:
        return self._lengths[v]

    def capacity(self, v: int) -> Capacity | None:
        return self.source.state_capacity(self._states[v], self._depths[v])

    def length_scale(self) -> int | None:
        return self.source.length_scale()


def view_of(source_or_tree, budget: int = DEFAULT_BUDGET):
    """Explicit inputs keep their ids; generated ones get a lazy view."""
    if isinstance(source_or_tree, RootedTree):
        return ExplicitView(source_or_tree)
    return LazyView(source_or_tree, budget)


def level_branching(source: TreeSource, depth: int) -> list[int] | None:
    """Children per vertex at depths 0..depth-1, when the source is
    spherically symmetric by construction and does not end above `depth`;
    None otherwise.  A lambda-scaled source has its base's numbers.

    Supports the deep-resistance fast path: for such trees the network is a
    series of uniform parallel levels, so R = sum(length_k / count_k), where
    count_k is the product of the first k branching numbers.
    """
    if isinstance(source, RegularSource):
        return [source.degree] * depth
    if isinstance(source, SphericalSource):
        branching = [source._b(k) for k in range(depth)]
        return None if 0 in branching else branching
    if isinstance(source, LambdaScaledSource):
        return level_branching(source.base, depth)
    return None


def _split_fields(text: str) -> list[str]:
    """Split on whitespace but keep parenthesized groups together."""
    out: list[str] = []
    buf: list[str] = []
    level = 0
    for ch in text:
        if ch == "(":
            level += 1
        elif ch == ")":
            level -= 1
            if level < 0:
                raise ParseError("unbalanced ')' in generator spec")
        if ch.isspace() and level == 0:
            if buf:
                out.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if level != 0:
        raise ParseError("unbalanced '(' in generator spec")
    if buf:
        out.append("".join(buf))
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
            return RegularSource(int(d), parse_length(length))
        if kind == "spherical":
            b, length = need("b", "length")
            branching = tuple(int(x) for x in b.split(","))
            lens = tuple(parse_length(x) for x in length.split(","))
            return SphericalSource(branching, lens)
        if kind == "lambda":
            base, lam = need("base", "lambda")
            if not (base.startswith("(") and base.endswith(")")):
                raise ParseError("lambda base spec must be parenthesized")
            return LambdaScaledSource(parse_generator_spec(base[1:-1]), parse_length(lam))
        if kind == "adelic":
            p, elements = need("p", "set")
            _require_prime(int(p))
            return AdelicSetSource(tuple(int(x) for x in elements.split(",")), int(p))
    except ValueError as exc:
        raise ParseError(f"bad value in generator spec: {exc}") from None
    raise ParseError(f"unknown generator kind {kind!r}")
