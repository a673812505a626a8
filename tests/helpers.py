"""Tree builders, canonical forms and the small-tree enumeration corpus
shared by the tests."""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from treefactorials import INF, RootedTree
from treefactorials.sources import TreeSource
from treefactorials.trees import format_length

LENGTHS3 = (Fraction(1), Fraction(3, 2), Fraction(2))
CAPS3 = (1, 2, INF)


def build(parents, lengths, caps=None) -> RootedTree:
    return RootedTree.build(parents, [0, *lengths], caps)


def single_edge(length=1, cap=INF) -> RootedTree:
    return build([-1, 0], [length], {1: cap})


def star(lengths, caps) -> RootedTree:
    k = len(lengths)
    return build([-1] + [0] * k, lengths, {i + 1: c for i, c in enumerate(caps)})


def path_tree(lengths, cap=1) -> RootedTree:
    k = len(lengths)
    return build([-1] + list(range(k)), lengths, {k: cap})


def binary_tree(depth: int, cap=INF) -> RootedTree:
    # Complete binary tree, unit lengths, BFS ids.
    n = 2 ** (depth + 1) - 1
    parents = [-1] + [(v - 1) // 2 for v in range(1, n)]
    leaves = {v: cap for v in range(n // 2, n)}
    return build(parents, [1] * (n - 1), leaves)


def two_leaf_star(l1=1, l2=1, c1=INF, c2=INF) -> RootedTree:
    return star([l1, l2], [c1, c2])


class FibonacciSource(TreeSource):
    """A source whose state DAG shares nodes between different parents:
    state "a" has children "a" and "b", state "b" one child "a"."""

    def root_state(self):
        return "a"

    def state_children(self, state, depth):
        return [(Fraction(1), "a"), (Fraction(2), "b")] if state == "a" else [(Fraction(1, 2), "a")]

    def state_capacity(self, state, depth):
        return None


def root_path(tree: RootedTree, v: int) -> list[int]:
    """Vertices from the root down to v, inclusive."""
    path = []
    while v != -1:
        path.append(v)
        v = tree.parents[v]
    path.reverse()
    return path


def prepend_root_edge(tree: RootedTree, length) -> RootedTree:
    """New root joined to the old one by a single edge of the given length."""
    n = len(tree.parents)
    parents = [-1, 0] + [tree.parents[v] + 1 for v in range(1, n)]
    lengths = [length] + [tree.lengths[v] for v in range(1, n)]
    caps = {v + 1: tree.capacities[v] for v in range(n) if tree.capacities[v] is not None}
    return build(parents, lengths, caps)


def subdivide(tree: RootedTree, v: int, ratio=Fraction(1, 3)) -> RootedTree:
    """Split the edge into v at the given ratio; the new vertex takes id v."""
    assert v != 0 and 0 < ratio < 1
    n = len(tree.parents)

    def shift(x):
        return x if x < v else x + 1

    parents = [-1]
    lengths = []
    caps = {}
    for u in range(1, n + 1):
        if u < v:
            parents.append(tree.parents[u])
            lengths.append(tree.lengths[u])
        elif u == v:
            parents.append(tree.parents[v])
            lengths.append(tree.lengths[v] * ratio)
        else:
            old = u - 1
            if old == v:
                parents.append(v)
                lengths.append(tree.lengths[v] * (1 - ratio))
            else:
                parents.append(shift(tree.parents[old]))
                lengths.append(tree.lengths[old])
    for u in range(n):
        if tree.capacities[u] is not None:
            caps[shift(u) if u != v else u + 1] = tree.capacities[u]
    return build(parents, lengths, caps)


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


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time pass,
    so a stall fails the test instead of hanging it (main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Replace owner.name (a module function or a method) by a wrapper that
    records the positional arguments of each call; returns the record."""
    real = getattr(owner, name)
    calls: list[tuple] = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def random_tree(
    rng: random.Random,
    max_edges: int = 7,
    lengths=LENGTHS3,
    caps=CAPS3,
    require_inf: bool = False,
    min_edges: int = 1,
) -> RootedTree:
    E = rng.randint(min_edges, max_edges)
    parents = [-1] + [rng.randrange(v) for v in range(1, E + 1)]
    lens = [rng.choice(lengths) for _ in range(E)]
    internal = set(parents[1:])
    leaf_ids = [v for v in range(E + 1) if v not in internal]
    caps_map = {v: rng.choice(caps) for v in leaf_ids}
    if require_inf and INF not in caps_map.values():
        caps_map[rng.choice(leaf_ids)] = INF
    return build(parents, lens, caps_map)


@lru_cache(maxsize=1)
def corpus_shapes() -> dict[int, list[tuple[int, ...]]]:
    """Rooted tree shapes up to isomorphism, keyed by edge count 1..6.

    Every shape appears among increasing parent vectors (label by BFS), so
    enumerating those and deduplicating by canonical form is exhaustive.
    """
    out: dict[int, list[tuple[int, ...]]] = {}
    for E in range(1, 7):
        seen: dict[str, tuple[int, ...]] = {}
        for tail in itertools.product(*[range(v) for v in range(1, E + 1)]):
            parents = (-1, *tail)
            key = canonical_form(build(parents, [1] * E))
            if key not in seen:
                seen[key] = parents
        out[E] = list(seen.values())
    return out


def _leaf_ids(parents) -> list[int]:
    internal = set(parents[1:])
    return [v for v in range(len(parents)) if v not in internal]


@lru_cache(maxsize=1)
def corpus_decorated() -> list[RootedTree]:
    """The oracle-equivalence corpus.

    Shapes with up to 4 edges carry every length/capacity assignment over
    {1, 3/2, 2} x {1, 2, inf}, deduplicated up to decorated isomorphism;
    5- and 6-edge shapes carry 18 systematic decorations each (9 constant,
    9 cyclic mixed).
    """
    shapes = corpus_shapes()
    seen: set[str] = set()
    trees: list[RootedTree] = []

    def add(parents, lens, caps_map):
        t = build(parents, lens, caps_map)
        key = canonical_form(t)
        if key not in seen:
            seen.add(key)
            trees.append(t)

    for E in range(1, 5):
        for parents in shapes[E]:
            leaves = _leaf_ids(parents)
            for lens in itertools.product(LENGTHS3, repeat=E):
                for caps in itertools.product(CAPS3, repeat=len(leaves)):
                    add(parents, lens, dict(zip(leaves, caps)))
    for E in (5, 6):
        for parents in shapes[E]:
            leaves = _leaf_ids(parents)
            for a in range(3):
                for b in range(3):
                    add(
                        parents,
                        [LENGTHS3[a]] * E,
                        {m: CAPS3[b] for m in leaves},
                    )
                    add(
                        parents,
                        [LENGTHS3[(a + i) % 3] for i in range(E)],
                        {m: CAPS3[(b + j) % 3] for j, m in enumerate(leaves)},
                    )
    return trees


@st.composite
def small_trees(draw, max_edges=6, lengths=LENGTHS3, caps=CAPS3):
    E = draw(st.integers(1, max_edges))
    parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, E + 1)]
    lens = [draw(st.sampled_from(lengths)) for _ in range(E)]
    caps_map = {v: draw(st.sampled_from(caps)) for v in _leaf_ids(parents)}
    return build(parents, lens, caps_map)
