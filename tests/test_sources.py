"""Tree generators, lazy expansion, and the generator spec mini-language."""

from fractions import Fraction

import pytest

import helpers
from treefactorials import (
    INF,
    AdelicSetSource,
    LambdaScaledSource,
    ParseError,
    RegularSource,
    RootedTree,
    SphericalSource,
    StructureError,
    expand,
    factorials_weighting,
    parse_generator_spec,
)
from treefactorials.errors import DepthBudgetExceeded
from treefactorials.sources import level_branching


class TestExpand:
    def test_regular_depth2_counts(self):
        t = expand(RegularSource(2), 2)
        assert len(t) == 7
        cut = [v for v in t.leaves if t.capacities[v] == INF]
        assert len(cut) == 4
        assert all(t.depths[v] == 2 for v in cut)

    def test_depth_zero_is_single_root(self):
        t = expand(RegularSource(2), 0)
        assert len(t) == 1
        assert t.capacities[0] == INF

    def test_lambda_scaled_lengths(self):
        t = expand(LambdaScaledSource(RegularSource(2), Fraction(3)), 2)
        by_depth = {k: {t.lengths[v] for v in range(1, len(t)) if t.depths[v] == k} for k in (1, 2)}
        assert by_depth[1] == {1}
        assert by_depth[2] == {3}

    def test_explicit_source_reproduces_tree(self):
        tree = helpers.star([1, Fraction(3, 2)], [2, INF])
        assert expand(tree, 5) == tree

    def test_explicit_source_truncation_marks_cut_inf(self):
        tree = helpers.path_tree([1, 1, 1], cap=1)
        cut = expand(tree, 2)
        assert len(cut) == 3
        assert cut.capacities[2] == INF

    def test_restriction_consistency(self):
        # expand(src, h) is expand(src, h+1) cut at depth h.
        for src in (RegularSource(2), SphericalSource((2, 3), (Fraction(1), Fraction(1, 2)))):
            big = expand(src, 3)
            small = expand(src, 2)
            keep = [v for v in range(len(big)) if big.depths[v] <= 2]
            assert [big.parents[v] for v in keep] == list(small.parents)
            assert [big.lengths[v] for v in keep][1:] == list(small.lengths[1:])

    def test_spherical_cycle_and_termination(self):
        sph = SphericalSource((2, 3), (Fraction(1), Fraction(1, 2)))
        t = expand(sph, 4)
        counts = [sum(1 for d in t.depths if d == k) for k in range(5)]
        assert counts == [1, 2, 6, 12, 36]
        ends = expand(SphericalSource((2, 0)), 5)
        # branching 0 at depth 1 ends the tree with capacity-1 leaves
        assert len(ends) == 3
        assert ends.capacities[1:] == (1, 1)


class TestSourceValidation:
    def test_regular_degree(self):
        with pytest.raises(StructureError):
            RegularSource(0)

    def test_regular_coerces_length(self):
        assert RegularSource(2, 2).length == Fraction(2)

    def test_nonpositive_lengths(self):
        with pytest.raises(StructureError):
            RegularSource(2, 0)
        with pytest.raises(StructureError):
            SphericalSource((2,), (0,))
        with pytest.raises(StructureError):
            LambdaScaledSource(RegularSource(2), Fraction(-1))

    def test_adelic_validation(self):
        with pytest.raises(StructureError):
            AdelicSetSource((), 2)
        with pytest.raises(StructureError):
            AdelicSetSource((1, 1), 2)
        with pytest.raises(StructureError):
            AdelicSetSource((0, 1), 1)

    def test_length_scale(self):
        assert RegularSource(2).length_scale() == 1
        assert RegularSource(2, Fraction(3, 2)).length_scale() == 2
        assert SphericalSource((2,), (Fraction(1, 2), Fraction(1, 3))).length_scale() == 6
        assert LambdaScaledSource(RegularSource(2), Fraction(2)).length_scale() == 1
        assert LambdaScaledSource(RegularSource(2), Fraction(1, 2)).length_scale() is None


class TestLevelProfile:
    """level_branching: children per vertex at each depth of a spherically
    symmetric source."""

    def test_spherical(self):
        sph = SphericalSource((2, 3), (Fraction(1), Fraction(1, 2)))
        assert level_branching(sph, 4) == [2, 3, 2, 3]
        assert level_branching(sph, 1) == [2]

    def test_regular(self):
        assert level_branching(RegularSource(3, Fraction(1, 2)), 5) == [3] * 5

    def test_spherical_ending_above_depth_returns_none(self):
        sph = SphericalSource((2, 3, 0))
        assert level_branching(sph, 2) == [2, 3]
        assert level_branching(sph, 3) is None

    def test_lambda_scaled_has_its_base_numbers(self):
        sph = SphericalSource((1, 4, 2), (Fraction(1, 3),))
        scaled = LambdaScaledSource(sph, Fraction(3, 2))
        assert level_branching(scaled, 7) == level_branching(sph, 7) == [1, 4, 2, 1, 4, 2, 1]
        assert level_branching(LambdaScaledSource(SphericalSource((2, 0)), 2), 2) is None

    def test_non_symmetric_returns_none(self):
        tree = helpers.star([1, 2], [INF, INF])
        assert level_branching(tree, 2) is None
        assert level_branching(expand(RegularSource(2), 3), 2) is None
        assert level_branching(AdelicSetSource((0, 1, 2, 3), 2), 2) is None


class TestGeneratorSpec:
    def test_regular(self):
        src = parse_generator_spec("regular d=3 length=3/2")
        assert src == RegularSource(3, Fraction(3, 2))

    def test_length_defaults_to_one(self):
        assert parse_generator_spec("regular d=2") == RegularSource(2)

    def test_spherical(self):
        src = parse_generator_spec("spherical b=2,3 length=1,1/2")
        assert src == SphericalSource((2, 3), (Fraction(1), Fraction(1, 2)))

    def test_lambda_nested(self):
        src = parse_generator_spec("lambda base=(regular d=2) lambda=1/2")
        assert isinstance(src, LambdaScaledSource)
        assert src.base == RegularSource(2)
        assert src.lam == Fraction(1, 2)

    def test_adelic(self):
        src = parse_generator_spec("adelic p=2 set=0,1,2,3")
        assert src == AdelicSetSource((0, 1, 2, 3), 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "hexagonal q=3",
            "regular d=2 q=5",
            "regular",
            "regular d=zero",
            "regular d=2 length=1/0",
            "lambda base=regular d=2 lambda=2",
            "adelic p=4 set=0,1",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises((ParseError, StructureError)):
            parse_generator_spec(bad)


def test_budget_exceeded_is_an_error():
    # Expanding past the safety depth must refuse, never truncate silently.
    with pytest.raises(DepthBudgetExceeded):
        factorials_weighting(SphericalSource((1,) * 50 + (2,)), 3, budget=10)
    with pytest.raises(DepthBudgetExceeded):
        factorials_weighting(SphericalSource((1,) * 50 + (0,)), 1, budget=10)


def test_infinite_path_still_emits_a0():
    # The bare ray has no branching and no leaf; only the zeroth term exists
    # and asking for it must not walk the chain.
    run = factorials_weighting(RegularSource(1), 0)
    assert run.sequence.values == (0,)


def test_finite_lazy_path_within_budget():
    run = factorials_weighting(SphericalSource((1,) * 50 + (0,)), 5, budget=100)
    # capacity-1 end: the sequence stops after a_0
    assert run.sequence.values == (0,)
