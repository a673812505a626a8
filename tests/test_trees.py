"""Rooted tree construction, file format, and canonical skeletons."""

from fractions import Fraction

import pytest
from hypothesis import given

import helpers
from treefactorials import (
    INF,
    ParseError,
    RootedTree,
    StructureError,
    canonical_form,
    canonical_skeleton,
    parse_tree_file,
    serialize_tree,
)
from treefactorials.trees import format_length, parse_length


class TestConstruction:
    def test_smallest_tree(self):
        t = RootedTree.build((-1, 0), (0, 1), {1: 1})
        assert len(t) == 2
        assert t.leaves == (1,)
        assert t.capacities == (None, 1)

    def test_single_vertex_root_is_a_leaf(self):
        t = RootedTree.build((-1,), (0,), {0: 5})
        assert t.leaves == (0,)
        assert t.capacities[0] == 5

    def test_leaf_capacity_defaults_to_one(self):
        t = helpers.build([-1, 0, 0], [1, 2])
        assert t.capacities[1] == 1 and t.capacities[2] == 1

    def test_internal_capacity_rejected(self):
        with pytest.raises(StructureError):
            RootedTree.build((-1, 0, 1), (0, 1, 1), {1: 2, 2: 1})

    def test_parent_must_precede_child(self):
        with pytest.raises(StructureError):
            RootedTree.build((-1, 2, 0), (0, 1, 1), None)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(StructureError):
            helpers.build([-1, 0], [0])
        with pytest.raises(StructureError):
            helpers.build([-1, 0], [Fraction(-1, 2)])

    def test_empty_tree_rejected(self):
        with pytest.raises(StructureError):
            RootedTree((), (), ())

    def test_root_path_and_length(self):
        t = helpers.path_tree([1, Fraction(3, 2), 2])
        assert t.root_path(3) == [0, 1, 2, 3]
        assert t.path_length(3) == Fraction(9, 2)
        assert t.path_length(0) == 0

    def test_addresses_follow_child_order(self):
        t = helpers.binary_tree(2)
        assert t.addresses[0] == ()
        assert t.addresses[1] == (0,)
        assert t.addresses[2] == (1,)
        assert t.addresses[6] == (1, 1)

    def test_depths(self):
        t = helpers.binary_tree(2)
        assert t.depths == (0, 1, 1, 2, 2, 2, 2)


class TestFileFormat:
    def test_two_node_path(self):
        t = parse_tree_file("node 0 parent=-\nnode 1 parent=0 length=1 capacity=1\n")
        assert t.parents == (-1, 0)
        assert t.lengths[1] == 1
        assert t.capacities[1] == 1

    def test_zero_length_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_tree_file("node 0 parent=-\nnode 1 parent=0 length=0\n")
        assert e.value.line == 2

    def test_three_leaf_star(self):
        text = (
            "# star\n"
            "node 0 parent=-\n"
            "node 1 parent=0 length=1\n"
            "node 2 parent=0 length=2\n"
            "node 3 parent=0 length=3\n"
        )
        t = parse_tree_file(text)
        assert len(t) == 4
        assert t.lengths[1:] == (1, 2, 3)

    def test_comments_and_blank_lines_ignored(self):
        t = parse_tree_file("\n# c\nnode 0 parent=-\n\nnode 1 parent=0 length=2 capacity=inf\n")
        assert t.capacities[1] == INF

    def test_fractional_length(self):
        t = parse_tree_file("node 0 parent=-\nnode 1 parent=0 length=3/2\n")
        assert t.lengths[1] == Fraction(3, 2)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError):
            parse_tree_file("node 0 parent=-\nnode 1 parent=0 length=1\nnode 1 parent=0 length=1\n")

    def test_missing_length_rejected(self):
        with pytest.raises(ParseError):
            parse_tree_file("node 0 parent=-\nnode 1 parent=0\n")

    def test_root_with_length_rejected(self):
        with pytest.raises(ParseError):
            parse_tree_file("node 0 parent=- length=1\n")

    def test_second_root_rejected(self):
        with pytest.raises(ParseError):
            parse_tree_file("node 0 parent=-\nnode 1 parent=-\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_tree_file("# nothing here\n")

    def test_capacity_on_internal_vertex_rejected(self):
        text = (
            "node 0 parent=-\n"
            "node 1 parent=0 length=1 capacity=2\n"
            "node 2 parent=1 length=1\n"
        )
        with pytest.raises(StructureError):
            parse_tree_file(text)

    def test_serialize_parse_roundtrip_fixed(self):
        t = helpers.star([1, Fraction(3, 2), 2], [1, 2, INF])
        assert parse_tree_file(serialize_tree(t)) == t

    @given(helpers.small_trees())
    def test_serialize_parse_roundtrip(self, t):
        assert parse_tree_file(serialize_tree(t)) == t


class TestCanonicalSkeleton:
    def test_series_merge(self):
        t = RootedTree.build((-1, 0, 1), (0, 1, 2), {2: 1})
        sk = canonical_skeleton(t)
        assert sk.parents == (-1, 0)
        assert sk.lengths[1] == 3
        assert sk.capacities[1] == 1

    def test_branching_tree_unchanged(self):
        t = helpers.binary_tree(2)
        assert canonical_skeleton(t) == t

    def test_two_subdivisions_agree(self):
        base = helpers.single_edge(3, cap=1)
        a = helpers.subdivide(base, 1, Fraction(1, 3))
        b = helpers.subdivide(base, 1, Fraction(2, 3))
        assert a != b
        assert canonical_form(canonical_skeleton(a)) == canonical_form(canonical_skeleton(b))
        assert canonical_form(canonical_skeleton(a)) == canonical_form(base)

    def test_idempotent_fixed(self):
        t = helpers.subdivide(helpers.star([1, 2], [1, INF]), 2)
        once = canonical_skeleton(t)
        assert canonical_skeleton(once) == once

    @given(helpers.small_trees())
    def test_idempotent(self, t):
        once = canonical_skeleton(t)
        assert canonical_skeleton(once) == once

    @given(helpers.small_trees())
    def test_no_suppressible_vertex_remains(self, t):
        sk = canonical_skeleton(t)
        for v in range(1, len(sk)):
            if not sk.is_leaf(v):
                assert len(sk.children[v]) >= 2

    def test_canonical_form_ignores_sibling_order(self):
        a = helpers.star([1, 2], [1, 2])
        b = helpers.star([2, 1], [2, 1])
        assert canonical_form(a) == canonical_form(b)

    def test_canonical_form_separates_lengths_and_caps(self):
        assert canonical_form(helpers.single_edge(1, 1)) != canonical_form(helpers.single_edge(2, 1))
        assert canonical_form(helpers.single_edge(1, 1)) != canonical_form(helpers.single_edge(1, 2))

    def test_canonical_form_deep_path(self):
        # Deeper than the interpreter's recursion limit.
        t = helpers.path_tree([1] * 3000, cap=2)
        assert canonical_form(t) == "(1:" * 3000 + "L2" + ")" * 3000


def test_parse_length_formats():
    assert parse_length("3/2") == Fraction(3, 2)
    assert parse_length("7") == 7
    assert format_length(Fraction(3, 2)) == "3/2"
    assert format_length(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_length("x")
