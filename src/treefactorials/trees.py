"""Finite rooted metric trees with leaf capacities.

A tree is stored as three parallel tuples indexed by node id: parent id,
length of the edge to the parent, and leaf capacity.  Ids are topological
(parent < child, root = 0) so that deterministic tie-breaking by smallest id
is well defined across runs.  Lengths are exact rationals; capacities are
positive integers or math.inf.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ParseError, StructureError

__all__ = [
    "INF",
    "RootedTree",
    "parse_tree_file",
    "serialize_tree",
    "parse_length",
    "format_length",
]

INF = math.inf

# A capacity is a positive int or INF.  Internal vertices carry None.
Capacity = int | float


def _valid_capacity(c) -> bool:
    return c == INF or (isinstance(c, int) and not isinstance(c, bool) and c >= 1)


def _denominator_lcm(lengths) -> int:
    """Least common multiple of the denominators of `lengths` (1 when empty)."""
    return math.lcm(*(x.denominator for x in lengths))


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted metric tree with capacities on leaves.

    parents[0] == -1 marks the root; lengths[0] is None.  capacities[v] is
    None exactly when v is an internal vertex (a single-vertex tree has a
    capacity on the root, which counts as a leaf there).

    A tree is also a tree source (the protocol of `sources.TreeSource`,
    which it does not subclass because `sources` imports this module) whose
    states are its node ids, so everything that takes a source takes a tree.
    """

    parents: tuple[int, ...]
    lengths: tuple[Fraction | None, ...]
    capacities: tuple[Capacity | None, ...]

    def __post_init__(self):
        n = len(self.parents)
        if n == 0:
            raise StructureError("tree must have at least one node")
        if len(self.lengths) != n or len(self.capacities) != n:
            raise StructureError("parents/lengths/capacities must have equal length")
        if self.parents[0] != -1 or self.lengths[0] is not None:
            raise StructureError("node 0 must be the root (parent -1, no length)")
        child_count = [0] * n
        for v in range(1, n):
            p = self.parents[v]
            if not 0 <= p < v:
                got = _int_str(p) if isinstance(p, int) else p
                raise StructureError(f"node {v}: parent must be an earlier node, got {got}")
            ln = self.lengths[v]
            if not isinstance(ln, Fraction) or ln <= 0:
                raise StructureError(f"node {v}: edge length must be a positive rational")
            child_count[p] += 1
        for v in range(n):
            is_leaf = child_count[v] == 0
            cap = self.capacities[v]
            if is_leaf:
                if not _valid_capacity(cap):
                    raise StructureError(f"node {v}: leaf needs a capacity (positive int or inf)")
            elif cap is not None:
                raise StructureError(f"node {v}: capacity on an internal vertex")

    def __len__(self) -> int:
        return len(self.parents)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.parents]
        for v in range(1, len(self.parents)):
            kids[self.parents[v]].append(v)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        d = [0] * len(self.parents)
        for v in range(1, len(self.parents)):
            d[v] = d[self.parents[v]] + 1
        return tuple(d)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(len(self)) if self.is_leaf(v))

    @cached_property
    def addresses(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the path of child indices from the root: coordinates
        that align the edges of two expansions of the same source."""
        addr: list[tuple[int, ...]] = [()] * len(self)
        for v in range(len(self)):
            for i, c in enumerate(self.children[v]):
                addr[c] = addr[v] + (i,)
        return tuple(addr)

    def root_state(self) -> int:
        return 0

    def state_children(self, state: int, depth: int) -> list[tuple[Fraction, int]]:
        return [(self.lengths[c], c) for c in self.children[state]]

    def state_capacity(self, state: int, depth: int) -> Capacity | None:
        return self.capacities[state]

    def state_whole_levels(self, state: int, depth: int) -> int:
        return 1

    def length_scale(self) -> int:
        return _denominator_lcm(self.lengths[1:])

    @classmethod
    def build(cls, parents, lengths, capacities=None) -> "RootedTree":
        """Construct from plain sequences; leaf capacities default to 1.

        `capacities` maps node id to capacity for the leaves that need one.
        """
        parents = tuple(parents)
        n = len(parents)
        lens: list[Fraction | None] = [None] * n
        for v in range(1, n):
            lens[v] = Fraction(lengths[v])
        caps: list[Capacity | None] = [None] * n
        # A set, not an index, so a bad parent id reaches __post_init__.
        internal = set(parents[1:])
        given = dict(capacities or {})
        for v in range(n):
            if v not in internal:
                caps[v] = given.pop(v, 1)
        if given:
            raise StructureError(f"capacity given for internal vertices: {sorted(given)}")
        return cls(parents, tuple(lens), tuple(caps))


# Digits converted at once between ints and strings: below 640, the smallest
# int-string digit cap the interpreter accepts, so values of any length
# convert under any cap without the process-wide setting being changed.
_PIECE_DIGITS = 600
_PIECE_BITS = 1993  # an int below 2**1993 has at most 600 digits
_INT = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


def _int_str(n: int) -> str:
    """str(n) for an int of any size, in pieces."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of its digits
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _str_int(text: str) -> int:
    """int(text) for a decimal integer of any length, in pieces; ValueError
    on what int() would reject."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    m = _INT.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    digits = m.group(2).replace("_", "")

    def read(lo: int, hi: int) -> int:
        if hi - lo <= _PIECE_DIGITS:
            return int(digits[lo:hi])
        mid = (lo + hi) // 2
        return read(lo, mid) * 10 ** (hi - mid) + read(mid, hi)

    value = read(0, len(digits))
    return -value if m.group(1) == "-" else value


def parse_length(text: str) -> Fraction:
    """Parse <num>[/<den>] into a Fraction. Raises ValueError on junk and on n/0."""
    if "/" in text:
        num, _, den = text.partition("/")
        if (d := _str_int(den)) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_str_int(num), d)
    return Fraction(_str_int(text))


def format_length(x: Fraction) -> str:
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


def _float(x: Fraction) -> float:
    """float(x) of an x >= 0, read as inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return INF


def _content_lines(text: str):
    """(line number, line) of each nonblank line, its '#' comment removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def _parse_capacity(text: str) -> Capacity:
    if text == "inf":
        return INF
    value = _str_int(text)
    if value < 1:
        raise ValueError("capacity must be >= 1")
    return value


def parse_tree_file(text: str) -> RootedTree:
    """Parse the node-per-line tree format.

    Lines: ``node <id> parent=<id|-> [length=<num>[/<den>]] [capacity=<uint|inf>]``.
    '#' starts a comment; blank lines are ignored.  Ids must be 0..n-1 in
    order of first appearance, with node 0 the root.
    """
    parents: list[int] = []
    lengths: list[Fraction | None] = []
    caps_given: dict[int, Capacity] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] != "node":
            raise ParseError(f"expected 'node', got {tokens[0]!r}", lineno)
        if len(tokens) < 3:
            raise ParseError("need at least 'node <id> parent=<id|->'", lineno)
        try:
            node_id = _str_int(tokens[1])
        except ValueError:
            raise ParseError(f"bad node id {tokens[1]!r}", lineno) from None
        if node_id != len(parents):
            raise ParseError(f"node ids must be consecutive; expected {len(parents)}, got {_int_str(node_id)}", lineno)
        fields: dict[str, str] = {}
        for tok in tokens[2:]:
            key, sep, value = tok.partition("=")
            if not sep or key not in ("parent", "length", "capacity") or key in fields:
                raise ParseError(f"bad field {tok!r}", lineno)
            fields[key] = value
        if "parent" not in fields:
            raise ParseError("missing parent field", lineno)
        if fields["parent"] == "-":
            parent = -1
            if "length" in fields:
                raise ParseError("root must not have a length", lineno)
        else:
            try:
                parent = _str_int(fields["parent"])
            except ValueError:
                raise ParseError(f"bad parent {fields['parent']!r}", lineno) from None
            if "length" not in fields:
                raise ParseError("non-root node needs length=", lineno)
        if node_id == 0:
            if parent != -1:
                raise ParseError("node 0 must have parent=-", lineno)
        elif parent == -1:
            raise ParseError("only node 0 may be the root", lineno)
        length: Fraction | None = None
        if "length" in fields:
            try:
                length = parse_length(fields["length"])
            except ValueError:
                raise ParseError(f"bad length {fields['length']!r}", lineno) from None
            if length <= 0:
                raise ParseError("length must be positive", lineno)
        if "capacity" in fields:
            try:
                caps_given[node_id] = _parse_capacity(fields["capacity"])
            except ValueError:
                raise ParseError(f"bad capacity {fields['capacity']!r}", lineno) from None
        parents.append(parent)
        lengths.append(length)
    if not parents:
        raise ParseError("empty tree file", None)
    return RootedTree.build(parents, lengths, caps_given)


def serialize_tree(tree: RootedTree) -> str:
    """Inverse of parse_tree_file; leaf capacities are always written."""
    lines = []
    for v in range(len(tree)):
        if v == 0:
            parts = ["node 0 parent=-"]
        else:
            parts = [f"node {v} parent={tree.parents[v]}", f"length={format_length(tree.lengths[v])}"]
        cap = tree.capacities[v]
        if cap is not None:
            parts.append("capacity=inf" if cap == INF else f"capacity={_int_str(cap)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"

