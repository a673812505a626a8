"""Tree generators, lazy expansion, and the generator spec mini-language."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from treefactorials import (
    INF,
    AdelicSetSource,
    BiasedSequence,
    LambdaScaledSource,
    Mismatch,
    ParseError,
    RegularSource,
    RootedTree,
    SeededRandom,
    SphericalSource,
    StructureError,
    branching_number_estimate,
    effective_resistance,
    engine,
    expand,
    factorials_minmax,
    factorials_prime,
    factorials_removed,
    factorials_weighting,
    parse_generator_spec,
    unit_current_flow,
    verify_roundtrip,
)
from treefactorials import sources
from treefactorials.errors import DepthBudgetExceeded
from treefactorials.sources import LazyView, TreeSource, _dag, _is_ray, level_branching


class RunsSource(TreeSource):
    """Equal children in runs broken by other children or by another length
    to the same state, and a state that ends at a finite capacity deep down:
    `expand` must group only consecutive equal (length, state) pairs."""

    def root_state(self):
        return 0

    def state_children(self, state, depth):
        if state == 0:
            return [(Fraction(1), 0), (Fraction(1), 0), (Fraction(3), 0), (Fraction(2), 1), (Fraction(1), 0)]
        return [(Fraction(1, 2), 0)]

    def state_capacity(self, state, depth):
        return 2 if state == 1 and depth > 3 else None


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

    def test_matches_the_per_vertex_queue(self):
        rng = random.Random(20261019)
        trees = [helpers.random_tree(rng, max_edges=12) for _ in range(150)]
        lazy = [
            RegularSource(2),
            RegularSource(1),  # a ray
            RegularSource(3, Fraction(1, 2)),
            SphericalSource((2, 0)),
            SphericalSource((1, 3, 0, 2)),
            SphericalSource((2, 3), (Fraction(1), Fraction(1, 2))),
            LambdaScaledSource(RegularSource(2), Fraction(3, 2)),
            LambdaScaledSource(SphericalSource((1, 2)), Fraction(2, 3)),
            AdelicSetSource((0, 1, 3, 4, 9, 12, 20), 2),
            AdelicSetSource((0, 5, 7, 25, 32, 50), 5),
            RunsSource(),
        ]
        sources = trees + [LambdaScaledSource(t, Fraction(2, 3)) for t in trees[:20]] + lazy
        for src in sources:
            for depth in range(7):
                assert expand(src, depth) == oracles.expand_by_queue(src, depth), (src, depth)


class TestRegularIsOneLevelSpherical:
    """RegularSource(d, L) is SphericalSource((d,), (L,)): it adds no
    protocol method, and every layer gives both the same results."""

    PAIRS = [(2, Fraction(1)), (3, Fraction(3, 2)), (1, Fraction(2, 5)), (4, Fraction(7))]

    def test_defines_no_protocol_method(self):
        assert issubclass(RegularSource, SphericalSource)
        for name in ("root_state", "state_children", "state_capacity", "length_scale"):
            assert name not in vars(RegularSource)
        src = RegularSource(3, Fraction(3, 2))
        assert (src.degree, src.length, src.length_scale()) == (3, Fraction(3, 2), 2)

    def test_engine_imports_no_source_class(self):
        assert not [v for v in vars(engine).values() if isinstance(v, type) and issubclass(v, TreeSource)]

    @pytest.mark.parametrize("d, length", PAIRS)
    def test_same_dag_and_flow(self, d, length):
        reg, sph = RegularSource(d, length), SphericalSource((d,), (length,))
        for depth in range(5):
            assert _dag(reg, depth) == _dag(sph, depth)
        assert level_branching(reg, 4096) == level_branching(sph, 4096) == [d] * 4096
        assert effective_resistance(reg, 6) == effective_resistance(sph, 6)
        a, b = unit_current_flow(reg, 4), unit_current_flow(sph, 4)
        assert (a.energy, a.flows, a.escape) == (b.energy, b.flows, b.escape)
        if d > 1:
            assert branching_number_estimate(reg, 1, d + 1) == branching_number_estimate(sph, 1, d + 1)

    @pytest.mark.parametrize("d, length", [pair for pair in PAIRS if pair[0] > 1])
    def test_same_weighting_runs(self, d, length):
        reg, sph = RegularSource(d, length), SphericalSource((d,), (length,))
        runs = [
            lambda src: factorials_weighting(src, 300, record_trace=True),
            lambda src: factorials_removed(src, 1, 300, record_trace=True),
            lambda src: factorials_weighting(src, 300, SeededRandom(7), record_trace=True),
        ]
        for run in runs:
            a, b = run(reg), run(sph)
            assert (a.sequence.values, a.trace, a.weights) == (b.sequence.values, b.trace, b.weights)

    def test_ray_and_branching_through_nested_scalings(self):
        for base, ray in ((RegularSource(1, Fraction(1, 3)), True), (SphericalSource((1, 1)), True),
                          (RegularSource(2), False), (SphericalSource((1, 2)), False)):
            nested = LambdaScaledSource(LambdaScaledSource(base, Fraction(3, 2)), Fraction(1, 2))
            assert _is_ray(nested) is _is_ray(base) is ray
            assert level_branching(nested, 9) == level_branching(base, 9)
        assert not _is_ray(AdelicSetSource((0, 1), 2))
        assert not _is_ray(helpers.path_tree([1, 1]))
        assert level_branching(LambdaScaledSource(LambdaScaledSource(SphericalSource((2, 0)), 2), 3), 2) is None

    def test_children_are_built_once_per_level_of_the_period(self):
        src = SphericalSource((2, 3), (Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        kids = [src.state_children(None, k) for k in range(24)]
        assert [len(k) for k in kids] == [2, 3] * 12
        assert [k[0][0] for k in kids] == [Fraction(1), Fraction(1, 2), Fraction(1, 3)] * 8
        assert all(kids[k] is kids[k + 6] for k in range(18))
        assert src == SphericalSource((2, 3), (Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        assert hash(src) == hash(SphericalSource((2, 3), (Fraction(1), Fraction(1, 2), Fraction(1, 3))))


class TestSourceValidation:
    def test_regular_degree(self):
        with pytest.raises(StructureError, match="^regular source needs degree >= 1$"):
            RegularSource(0)

    def test_regular_coerces_length(self):
        assert RegularSource(2, 2).length == Fraction(2)

    def test_nonpositive_lengths(self):
        with pytest.raises(StructureError, match="^edge length must be positive$"):
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


def test_budget_exceeded_is_an_error(monkeypatch):
    # Expanding past the safety depth must refuse, never truncate silently.
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 10)
    with pytest.raises(DepthBudgetExceeded):
        factorials_weighting(SphericalSource((1,) * 50 + (2,)), 3)
    with pytest.raises(DepthBudgetExceeded):
        factorials_weighting(SphericalSource((1,) * 50 + (0,)), 1)


def test_infinite_path_still_emits_a0():
    # The bare ray has no branching and no leaf; only the zeroth term exists
    # and asking for it must not walk the chain.
    run = factorials_weighting(RegularSource(1), 0)
    assert run.sequence.values == (0,)


def test_finite_lazy_path_within_budget(monkeypatch):
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 100)
    run = factorials_weighting(SphericalSource((1,) * 50 + (0,)), 5)
    # capacity-1 end: the sequence stops after a_0
    assert run.sequence.values == (0,)


def test_one_budget_bounds_every_walk(monkeypatch):
    # The weighting, the min-max, expand and the roundtrip check all read
    # sources.DEFAULT_BUDGET when they run.
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 20)
    deep = SphericalSource((1,) * 50 + (2,))
    with pytest.raises(DepthBudgetExceeded):
        factorials_weighting(deep, 3)
    with pytest.raises(DepthBudgetExceeded):
        factorials_minmax(deep, 3)
    with pytest.raises(DepthBudgetExceeded):
        expand(RegularSource(2), 5)
    # The last vertex is first visited after about 1000 steps; the check
    # doubles its steps from 8 and stops at the budget.
    late = BiasedSequence(2, ((0, 0), (1, 1000)))
    with pytest.raises(Mismatch, match=r"never selected within 20 steps \(at most 20\)$"):
        verify_roundtrip(late)


def test_flow_walk_stops_at_the_level_budget(monkeypatch):
    # The flow DAG expands its nodes as the min-max does, so it stops where
    # the lazy view does, whatever depth a query asks for.
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 20)
    assert unit_current_flow(RegularSource(2), 20).energy == 1 - Fraction(1, 2**20)
    for depth in (sources.DEFAULT_BUDGET + 1, 10**5000):
        with pytest.raises(DepthBudgetExceeded, match="^expansion past depth 20$"):
            unit_current_flow(RegularSource(2), depth)


def test_whole_level_chain_counts_its_levels(monkeypatch):
    # The min-max crosses a class that stays whole for 30 levels as one run,
    # and the split below it is at depth 30, inside a budget of 31 levels.
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 31)
    assert factorials_prime((0, 2**30), 2, 1).values == (0, 30)
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 30)
    with pytest.raises(DepthBudgetExceeded, match="^expansion past depth 30$"):
        factorials_prime((0, 2**30), 2, 1)


def test_walks_expand_through_one_run_rule(monkeypatch):
    # expand and the min-max take every non-leaf node's runs from _runs;
    # the min-max on a finite tree, to its last term, expands each once.
    expanded, runs = [], sources._runs
    monkeypatch.setattr(sources, "_runs", lambda src, state, d: expanded.append((state, d)) or runs(src, state, d))
    expand(RunsSource(), 3)
    assert expanded == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    expanded.clear()
    finite = RootedTree.build([-1, 0, 0, 1, 1, 2, 2], [0] + [1] * 6)
    assert factorials_minmax(finite, 3).values == (0, 0, 1, 1)
    assert sorted(expanded) == [(0, 0), (1, 1), (2, 1)]
    # Only consecutive equal children merge, the child state compared first.
    assert runs(RunsSource(), 0, 0) == [(1, 0, 2), (3, 0, 1), (2, 1, 1), (1, 0, 1)]


def test_expand_refuses_more_vertices_than_the_budget(monkeypatch):
    # The count comes from the DAG's run multiplicities before any vertex is
    # built; a DAG node reached by several paths counts once per path.
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 15)
    assert len(expand(RegularSource(2), 3)) == 15
    with pytest.raises(DepthBudgetExceeded, match="^the truncation has 31 vertices, past the budget of 15$"):
        expand(RegularSource(2), 4)
    monkeypatch.setattr(sources, "DEFAULT_BUDGET", 11)
    fib = helpers.FibonacciSource()
    assert len(expand(fib, 3)) == 11
    with pytest.raises(DepthBudgetExceeded, match="has 19 vertices"):
        expand(fib, 4)


# Every lazy kind: equal children in one run, an ending level, a
# non-integer lambda over an ending base, residue classes with shared leaf
# states, and states reached from several parents or by another length.
LAZY_KINDS = {
    "regular": RegularSource(3, Fraction(2, 3)),
    "spherical-ending": SphericalSource((2, 1, 3, 0), (Fraction(1, 2), Fraction(5))),
    "lambda": LambdaScaledSource(SphericalSource((3, 1, 2, 0)), Fraction(5, 7)),
    "lambda-regular": LambdaScaledSource(RegularSource(2), Fraction(3, 2)),
    "adelic": AdelicSetSource((0, 1, 2, 3, 5, 8, 13, 21, 34, 55), 2),
    "fibonacci": helpers.FibonacciSource(),
    "runs": RunsSource(),
}


class TestLazyView:
    """LazyView shares one record per (state, depth) node; the per-vertex
    view of tests/oracles.py is its reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(LAZY_KINDS)), st.lists(st.integers(0, 10**6), max_size=40))
    def test_matches_the_per_vertex_view(self, kind, picks):
        source = LAZY_KINDS[kind]
        view, ref = LazyView(source), oracles.PerVertexView(source)
        # Ask for the children of a vertex not yet asked, chosen by each pick,
        # and read every known vertex's capacity, asked or not.
        frontier, seen = [0], 1
        for pick in picks:
            if not frontier:
                break
            v = frontier.pop(pick % len(frontier))
            assert view.capacity(v) == ref.capacity(v)
            kids = view.children(v)
            assert kids == ref.children(v)
            frontier += kids
            seen += len(kids)
            for c in kids:
                assert view.length(c) == ref.length(c)
        assert [view.capacity(v) for v in range(seen)] == [ref.capacity(v) for v in range(seen)]

    @pytest.mark.parametrize("kind", sorted(LAZY_KINDS))
    def test_weighting_runs_match_on_the_per_vertex_view(self, kind, monkeypatch):
        source = LAZY_KINDS[kind]
        got = factorials_weighting(source, 300, record_trace=True)
        monkeypatch.setattr(sources, "view_of", oracles.PerVertexView)
        ref = factorials_weighting(source, 300, record_trace=True)
        assert (got.sequence, got.trace, got.weights, got.children) == (ref.sequence, ref.trace, ref.weights, ref.children)

    @pytest.mark.parametrize("kind", sorted(LAZY_KINDS))
    def test_reads_each_node_once(self, kind, monkeypatch):
        source = LAZY_KINDS[kind]
        calls = helpers.count_calls(monkeypatch, type(source), "state_children")
        run = factorials_weighting(source, 2000)
        nodes = [(state, d) for _, state, d in calls]
        assert len(set(nodes)) == len(nodes)
        assert len(nodes) < len(run.weights)

    def test_one_read_per_level_of_a_spherical_source(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, SphericalSource, "state_children")
        run = factorials_weighting(RegularSource(2), 2**10)
        assert [d for _, _, d in calls] == list(range(max(d for _, _, d in calls) + 1))
        assert len(run.weights) > 2**10

    def test_children_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(sources, "DEFAULT_BUDGET", 20)
        for view in (LazyView(SphericalSource((1,) * 50 + (2,))), oracles.PerVertexView(SphericalSource((1,) * 50 + (2,)))):
            assert [view.children(v) for v in range(20)] == [(v + 1,) for v in range(20)]
            with pytest.raises(DepthBudgetExceeded, match="^expansion past depth 20$"):
                view.children(20)
        # A leaf at the budget has no children to refuse.
        view = LazyView(SphericalSource((1,) * 20 + (0,)))
        assert [view.children(v) for v in range(21)] == [(v + 1,) for v in range(20)] + [()]
        assert view.capacity(20) == 1


class TestDepthPastTheBudget:
    """A depth past the budget on a source that never ends is refused before
    the DAG walk builds a level; finite sources walk to their end."""

    @pytest.mark.parametrize(
        "source", [RegularSource(2), LambdaScaledSource(RegularSource(2), Fraction(3, 2)), SphericalSource((1, 3))]
    )
    def test_infinite_source_refused_before_any_run(self, source, monkeypatch):
        walked = helpers.count_calls(monkeypatch, sources, "_runs")
        for depth in (sources.DEFAULT_BUDGET + 1, 10**5000):
            for walk in (expand, unit_current_flow):
                with pytest.raises(DepthBudgetExceeded, match=f"^expansion past depth {sources.DEFAULT_BUDGET}$"):
                    walk(source, depth)
        assert walked == []

    def test_finite_sources_walk_to_their_end(self):
        big = 10**5000
        assert expand(SphericalSource((2, 0)), big) == expand(SphericalSource((2, 0)), 1)
        assert expand(LambdaScaledSource(SphericalSource((2, 0)), 3), big) == expand(
            LambdaScaledSource(SphericalSource((2, 0)), 3), 1)
        adelic = AdelicSetSource((0, 1, 5, 27), 3)
        assert expand(adelic, big) == expand(adelic, 4)
        tree = helpers.binary_tree(3)
        assert expand(tree, big) == tree
