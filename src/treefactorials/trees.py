"""Finite rooted metric trees with leaf capacities.

A tree is stored as three parallel tuples indexed by node id: parent id,
length of the edge to the parent, and leaf capacity.  Ids are topological
(parent < child, root = 0) so that deterministic tie-breaking by smallest id
is well defined across runs.  Lengths are exact rationals; capacities are
positive integers or math.inf.
"""

from __future__ import annotations

import math
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
    "canonical_skeleton",
    "canonical_form",
]

INF = math.inf

# A capacity is a positive int or INF.  Internal vertices carry None.
Capacity = int | float


def _valid_capacity(c) -> bool:
    return c == INF or (isinstance(c, int) and not isinstance(c, bool) and c >= 1)


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted metric tree with capacities on leaves.

    parents[0] == -1 marks the root; lengths[0] is None.  capacities[v] is
    None exactly when v is an internal vertex (a single-vertex tree has a
    capacity on the root, which counts as a leaf there).
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
                raise StructureError(f"node {v}: parent must be an earlier node, got {p}")
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

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v, inclusive."""
        path = []
        while v != -1:
            path.append(v)
            v = self.parents[v]
        path.reverse()
        return path

    def path_length(self, v: int) -> Fraction:
        """Plain metric length of the segment [root, v]."""
        total = Fraction(0)
        while v != 0:
            total += self.lengths[v]
            v = self.parents[v]
        return total

    @cached_property
    def addresses(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the path of child indices from the root.

        Structural coordinates shared with lazily generated views of the
        same source, used to align edges between independent computations.
        """
        addr: list[tuple[int, ...]] = [()] * len(self)
        for v in range(len(self)):
            for i, c in enumerate(self.children[v]):
                addr[c] = addr[v] + (i,)
        return tuple(addr)

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
        has_child = [False] * n
        for v in range(1, n):
            has_child[parents[v]] = True
        given = dict(capacities or {})
        for v in range(n):
            if not has_child[v]:
                caps[v] = given.pop(v, 1)
        if given:
            raise StructureError(f"capacity given for internal vertices: {sorted(given)}")
        return cls(parents, tuple(lens), tuple(caps))


def parse_length(text: str) -> Fraction:
    """Parse <num>[/<den>] into a Fraction. Raises ValueError on junk."""
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_length(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_capacity(text: str) -> Capacity:
    if text == "inf":
        return INF
    value = int(text)
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "node":
            raise ParseError(f"expected 'node', got {tokens[0]!r}", lineno)
        if len(tokens) < 3:
            raise ParseError("need at least 'node <id> parent=<id|->'", lineno)
        try:
            node_id = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad node id {tokens[1]!r}", lineno) from None
        if node_id != len(parents):
            raise ParseError(f"node ids must be consecutive; expected {len(parents)}, got {node_id}", lineno)
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
                parent = int(fields["parent"])
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
            except (ValueError, ZeroDivisionError):
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
    n = len(parents)
    has_child = [False] * n
    for v in range(1, n):
        if not 0 <= parents[v] < v:
            raise StructureError(f"node {v}: parent {parents[v]} is not an earlier node")
        has_child[parents[v]] = True
    caps: list[Capacity | None] = [None] * n
    for v in range(n):
        if not has_child[v]:
            caps[v] = caps_given.pop(v, 1)
    if caps_given:
        raise StructureError(f"capacity given for internal vertices: {sorted(caps_given)}")
    return RootedTree(tuple(parents), tuple(lengths), tuple(caps))


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
            parts.append("capacity=inf" if cap == INF else f"capacity={cap}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def canonical_skeleton(tree: RootedTree) -> RootedTree:
    """Suppress non-root valence-2 vertices, summing lengths through them.

    Two subdivisions of the same metric tree map to the same skeleton.  The
    operation is idempotent; leaf capacities are preserved and ids are
    renumbered breadth first.
    """
    new_parent: dict[int, int] = {0: -1}
    new_length: dict[int, Fraction] = {}
    order = [0]
    queue = [0]
    while queue:
        u = queue.pop(0)
        for c in tree.children[u]:
            # Slide through chains of single-child internal vertices.
            length = tree.lengths[c]
            v = c
            while len(tree.children[v]) == 1:
                (w,) = tree.children[v]
                length += tree.lengths[w]
                v = w
            new_parent[v] = u
            new_length[v] = length
            order.append(v)
            queue.append(v)
    renum = {old: new for new, old in enumerate(order)}
    parents = tuple(-1 if old == 0 else renum[new_parent[old]] for old in order)
    lengths = tuple(None if old == 0 else new_length[old] for old in order)
    capacities = tuple(tree.capacities[old] for old in order)
    return RootedTree(parents, lengths, capacities)


def canonical_form(tree: RootedTree) -> str:
    """Order-independent encoding; equal strings mean isomorphic rooted
    metric trees (same lengths and capacities up to child permutation)."""
    # Ids are topological, so every child is encoded before its parent.
    codes: list = [None] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        kids = tree.children[v]
        if not kids:
            cap = tree.capacities[v]
            codes[v] = f"L{'inf' if cap == INF else cap}"
            continue
        parts = sorted((tree.lengths[c], codes[c]) for c in kids)
        for c in kids:
            codes[c] = None
        codes[v] = "(" + ",".join(f"{format_length(ln)}:{sub}" for ln, sub in parts) + ")"
    return codes[0]
