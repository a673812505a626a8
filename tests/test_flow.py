"""Electrical computations: resistance, flows, walks, branching brackets."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from treefactorials import (
    INF,
    AdelicSetSource,
    AllOpenCircuit,
    DepthBudgetExceeded,
    Inconclusive,
    LambdaScaledSource,
    RegularSource,
    RootedTree,
    SphericalSource,
    StructureError,
    branching_number_estimate,
    effective_resistance,
    equidistribution_check,
    exact_escape_probability,
    expand,
    factorials_weighting,
    flow,
    laplacian_voltage_gap,
    level_branching,
    random_walk_escape,
    unit_current_flow,
)
from treefactorials import sources

F = Fraction


class TestEffectiveResistance:
    def test_single_edge(self):
        t = helpers.single_edge(F(5, 2), INF)
        assert effective_resistance(t, 1).value == F(5, 2)

    def test_parallel_edges(self):
        assert effective_resistance(helpers.two_leaf_star(), 1).value == F(1, 2)
        assert effective_resistance(helpers.star([2, 3], [INF, INF]), 1).value == F(6, 5)

    def test_binary_levels(self):
        for h in range(1, 11):
            r = effective_resistance(RegularSource(2), h)
            assert r.value == 1 - F(1, 2**h)
        assert effective_resistance(RegularSource(2), 4).per_depth == (
            F(1, 2), F(3, 4), F(7, 8), F(15, 16),
        )

    def test_depth_past_the_budget(self, monkeypatch):
        # per_depth holds one value per level, so a depth past the level
        # budget is refused before any walk, not padded into a huge tuple.
        tree = RootedTree.build([-1, 0], [0, 1], {1: INF})
        with helpers.deadline(2), pytest.raises(DepthBudgetExceeded) as exc:
            effective_resistance(tree, 10**20)
        assert str(exc.value) == (
            "depth 100000000000000000000: one resistance per level, past the budget of 1000000 levels"
        )
        monkeypatch.setattr(sources, "DEFAULT_BUDGET", 5)
        assert effective_resistance(tree, 5).per_depth == (1,) * 5
        with pytest.raises(DepthBudgetExceeded, match="^depth 6: "):
            effective_resistance(tree, 6)

    def test_per_depth_monotone(self):
        rng = random.Random(11)
        for _ in range(20):
            t = helpers.random_tree(rng, max_edges=7, require_inf=True)
            pd = effective_resistance(t, max(t.depths) + 1).per_depth
            assert all(a <= b for a, b in zip(pd, pd[1:]))

    def test_finite_capacity_branch_is_open(self):
        # the capacity-1 leaf contributes no conductance
        t = helpers.star([1, 1], [1, INF])
        assert effective_resistance(t, 1).value == 1

    def test_all_open_raises(self):
        with pytest.raises(AllOpenCircuit):
            effective_resistance(helpers.star([1, 2], [1, 2]), 1)
        with pytest.raises(AllOpenCircuit):
            laplacian_voltage_gap(helpers.star([1, 2], [1, 2]))

    def test_open_message_names_first_open_depth(self):
        # grounded while cut at depth 1, open once it ends at depth 2
        src = SphericalSource((2, 1, 0))
        assert effective_resistance(src, 1).value == F(1, 2)
        for query in (effective_resistance, unit_current_flow, exact_escape_probability):
            with pytest.raises(AllOpenCircuit, match="at truncation depth 2$"):
                query(src, 5)

    def test_depth_zero_is_structure_error(self):
        for query in (effective_resistance, unit_current_flow, exact_escape_probability):
            with pytest.raises(StructureError):
                query(RegularSource(2), 0)

    def test_exhausted_tree_repeats_last_value(self):
        t = helpers.path_tree([1, 2], cap=INF)
        assert effective_resistance(t, 5).per_depth == (1, 3, 3, 3, 3)
        root_only = RootedTree.build((-1,), (None,), {0: INF})
        assert effective_resistance(root_only, 3).per_depth == (0, 0, 0)


class TestPerDepthSweep:
    """A flow query reads one (state, depth) network of its source and
    expands nothing; each per-depth value read off that network matches a
    dense Laplacian solve of the truncation expanded on its own."""

    LAZY = (
        RegularSource(2),
        SphericalSource((2, 3), (F(1), F(1, 2))),
        SphericalSource((3, 1), (F(1, 3), F(2))),
        LambdaScaledSource(RegularSource(2), F(3, 2)),
        AdelicSetSource((0, 1, 3, 4, 9, 12, 20), 2),
        helpers.FibonacciSource(),
    )

    @staticmethod
    def check(src, depth):
        per_depth = effective_resistance(src, depth).per_depth
        checked = 0
        for h in range(1, depth + 1):
            t = expand(src, h)
            if any(t.capacities[v] == INF for v in t.leaves):
                assert per_depth[h - 1] == oracles.dense_resistance(t), (src, h)
                checked += 1
        return checked

    def test_random_trees(self):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(60):
            t = helpers.random_tree(rng, max_edges=9, require_inf=True)
            checked += self.check(t, max(t.depths) + 2)
        assert checked >= 150
        # Larger trees, and lambda-scaled ones, whose lengths vary by depth.
        rng = random.Random(20261106)
        lengths = (F(1), F(2), F(1, 2), F(3, 2))
        for i in range(12):
            t = helpers.random_tree(
                rng, max_edges=24, lengths=lengths, caps=(1, 2, INF), require_inf=True, min_edges=12
            )
            src = LambdaScaledSource(t, F(2, 3)) if i % 3 == 0 else t
            checked += self.check(src, max(t.depths) + 1)
        assert checked >= 200

    def test_deep_binary_is_fast(self):
        with helpers.deadline(1):
            rr = effective_resistance(RegularSource(2), 16)
        assert rr.per_depth == tuple(1 - F(1, 2**h) for h in range(1, 17))

    def test_lazy_sources(self):
        for src in self.LAZY:
            assert self.check(src, 4) == 4
        assert self.check(helpers.FibonacciSource(), 7) == 7

    def test_only_the_walk_expands(self, monkeypatch):
        # Each query walks its source once; the Monte Carlo walk unrolls the
        # flow's own DAG instead of walking the source again, and only
        # effective_resistance solves the shallower truncations, each once.
        walks = helpers.count_calls(monkeypatch, flow, "_dag")
        unrolls = helpers.count_calls(monkeypatch, flow, "_unroll")
        solves = helpers.count_calls(monkeypatch, flow, "_solve")
        queries = (
            (effective_resistance, 0, True),
            (unit_current_flow, 0, False),
            (exact_escape_probability, 0, False),
            (lambda src, h: random_walk_escape(src, h, trials=5, seed=1), 1, False),
        )
        for query, want, shallower in queries:
            for src, deepest in ((RegularSource(2), 5), (helpers.binary_tree(3), 3)):
                for calls in (walks, unrolls, solves):
                    calls.clear()
                query(src, 5)
                assert [depth for _, depth in walks] == [5]
                assert len(unrolls) == want
                assert [h for _, h in solves] == [5] + list(range(1, deepest)) * shallower


class TestLaplacianAgreement:
    def test_fixed_points(self):
        for t, want in (
            (helpers.single_edge(2, INF), 2),
            (helpers.star([2, 3], [INF, INF]), F(6, 5)),
            (helpers.binary_tree(2), F(3, 4)),
        ):
            assert laplacian_voltage_gap(t) == oracles.dense_resistance(t) == want

    def test_three_way_agreement_random(self):
        rng = random.Random(20260819)
        for _ in range(60):
            t = helpers.random_tree(rng, max_edges=8, require_inf=True)
            gap = laplacian_voltage_gap(t)
            red = effective_resistance(t, max(t.depths) + 1).value
            dense = oracles.dense_resistance(t)
            assert gap == red == dense


class TestUnitCurrentFlow:
    def test_current_divider(self):
        fl = unit_current_flow(helpers.star([2, 3], [INF, INF]), 1)
        assert fl.flows[1] == F(3, 5) and fl.flows[2] == F(2, 5)

    def test_binary_symmetry(self):
        fl = unit_current_flow(RegularSource(2), 3)
        depths = fl.tree.depths
        assert len(fl.flows) == 14
        assert all(f == F(1, 2 ** depths[v]) for v, f in fl.flows.items())

    def test_path_carries_unit_flow(self):
        t = helpers.path_tree([1, F(3, 2), 2], cap=INF)
        fl = unit_current_flow(t, 3)
        assert set(fl.flows.values()) == {F(1)}

    def test_open_branch_carries_nothing(self):
        t = helpers.star([1, 1], [1, INF])
        fl = unit_current_flow(t, 1)
        assert fl.flows[1] == 0 and fl.flows[2] == 1

    def test_conservation_and_energy(self):
        rng = random.Random(7)
        for _ in range(30):
            t = helpers.random_tree(rng, max_edges=8, require_inf=True)
            fl = unit_current_flow(t, max(t.depths) + 1)
            ft = fl.tree  # flow ids follow its own truncated expansion
            assert sum(fl.flows[c] for c in ft.children[0]) == 1
            for v in range(1, len(ft)):
                if ft.children[v]:
                    assert fl.flows[v] == sum(fl.flows[c] for c in ft.children[v])
            energy = sum(ft.lengths[v] * fl.flows[v] ** 2 for v in fl.flows)
            assert energy == fl.energy == effective_resistance(t, max(t.depths) + 1).value


class TestEquidistribution:
    def test_two_leaf_star_exact_bound(self):
        t = helpers.two_leaf_star()
        fl = unit_current_flow(t, 1)
        for n in (1, 2, 9, 100):
            run = factorials_weighting(t, n)
            rep = equidistribution_check(run, fl)
            assert rep.max_deviation <= F(1, 2 * rep.steps)

    def test_single_step_bounded_by_one(self):
        run = factorials_weighting(RegularSource(2), 1)
        fl = unit_current_flow(RegularSource(2), 2)
        rep = equidistribution_check(run, fl)
        assert rep.max_deviation <= 1

    def test_binary_convergence(self):
        run = factorials_weighting(RegularSource(2), 2**10)
        fl = unit_current_flow(RegularSource(2), 3)
        rep = equidistribution_check(run, fl)
        assert float(rep.max_deviation) < 0.01

    @settings(max_examples=40, deadline=None)
    @given(helpers.small_trees(max_edges=8), st.integers(1, 12), st.integers(1, 4))
    def test_weights_keyed_by_address(self, t, n, depth):
        # An explicit tree's view keeps its ids, so tree.addresses keys every
        # weighted edge; an edge the run never reached reads 0.
        run = factorials_weighting(t, n)
        try:
            fl = unit_current_flow(t, depth)
        except AllOpenCircuit:
            return
        omega = {t.addresses[v]: F(w, run.steps) for v, w in run.weights.items()}
        rows = equidistribution_check(run, fl).rows
        assert [a for a, _, _ in rows] == sorted(fl.tree.addresses[1:])
        assert all(w == omega.get(a, 0) for a, w, _ in rows)

    def test_reads_only_weighted_vertices(self, monkeypatch):
        # A short run weights a few vertices of a deep truncation; the lookup
        # reads the run's children, never the source, and the unreached
        # edges read 0.
        run = factorials_weighting(RegularSource(3), 5)
        fl = unit_current_flow(RegularSource(3), 4)
        calls = [
            helpers.count_calls(monkeypatch, RegularSource, name)
            for name in ("root_state", "state_children", "state_capacity", "length_scale")
        ]
        rep = equidistribution_check(run, fl)
        assert calls == [[], [], [], []]
        assert len(rep.rows) == 3 + 9 + 27 + 81
        assert sum(w > 0 for _, w, _ in rep.rows) == len(run.weights)

    def test_max_deviation_is_exact_among_float_ties(self):
        # Two deviations read 3.3333333333333333e-31 as floats; the second
        # is the larger by about 2 * 10**-61.
        e = F(1, 10**30)
        t = helpers.star([1 + e, 1 + 2 * e, 1], [INF] * 3)
        rep = equidistribution_check(factorials_weighting(t, 2), unit_current_flow(t, 1))
        deviations = [abs(w - f) for _, w, f in rep.rows]
        assert float(deviations[1]) == float(deviations[2]) and deviations[1] < deviations[2]
        assert rep.max_deviation == deviations[2]

    def test_huge_exact_deviations_are_fast(self):
        # 150 distinct 400-digit lengths give deviations of tens of thousands
        # of digits, where one exact comparison takes about 20 ms.
        rng = random.Random(5)
        lengths = [F(rng.randrange(10**399, 10**400), rng.randrange(10**399, 10**400)) for _ in range(150)]
        t = helpers.star(lengths, [INF] * 150)
        run, fl = factorials_weighting(t, 16), unit_current_flow(t, 1)
        assert len(fl.flows) == 150
        with helpers.deadline(1):
            rep = equidistribution_check(run, fl)
        assert float(rep.max_deviation) == max(float(abs(w - f)) for _, w, f in rep.rows)


class TestEscape:
    def test_depth_one_always_escapes(self):
        assert exact_escape_probability(RegularSource(2), 1) == 1
        assert random_walk_escape(RegularSource(2), 1, trials=50, seed=1).fraction == 1.0

    def test_binary_depth3(self):
        assert exact_escape_probability(RegularSource(2), 3) == F(4, 7)

    def test_path_gamblers_ruin(self):
        assert exact_escape_probability(RegularSource(1), 10) == F(1, 10)

    def test_walk_reproducible(self):
        a = random_walk_escape(RegularSource(2), 5, trials=500, seed=42)
        b = random_walk_escape(RegularSource(2), 5, trials=500, seed=42)
        assert (a.escaped, a.timeouts) == (b.escaped, b.timeouts)

    def test_walk_within_three_sigma(self):
        p = exact_escape_probability(RegularSource(1), 10)
        w = random_walk_escape(RegularSource(1), 10, trials=10**4, seed=11)
        sigma = math.sqrt(float(p) * (1 - float(p)) / 10**4)
        assert abs(w.fraction - float(p)) <= 3 * sigma

    @pytest.mark.parametrize(
        "query",
        [
            exact_escape_probability,
            lambda t, h: unit_current_flow(t, h).escape,
            lambda t, h: random_walk_escape(t, h, trials=3, seed=1),
        ],
        ids=["exact", "flow", "walk"],
    )
    def test_edgeless_tree_is_a_structure_error(self, query):
        # The grounded root is the whole network: R = 0, and a walk from it
        # has no edge to take.
        root_only = RootedTree.build((-1,), (None,), {0: INF})
        with pytest.raises(StructureError, match="no edge"):
            query(root_only, 1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_walk_needs_a_trial(self, trials):
        with pytest.raises(StructureError):
            random_walk_escape(RegularSource(2), 3, trials=trials, seed=1)

    def test_trials_past_any_count(self):
        # Refused before the walk, which would loop range(trials) for ever.
        with helpers.deadline(2), pytest.raises(StructureError) as exc:
            random_walk_escape(RegularSource(2), 2, 10**5000, 0)
        assert str(exc.value) == f"trials must be <= {sys.maxsize}, got 1" + "0" * 5000

    def test_timeouts_reported(self, monkeypatch):
        monkeypatch.setattr(flow, "_MAX_STEPS", 2)
        w = random_walk_escape(RegularSource(2), 3, trials=200, seed=4)
        assert w.timeouts > 0
        assert w.escaped + w.timeouts <= w.trials


class TestBranching:
    def test_binary_bracket(self):
        rep = branching_number_estimate(RegularSource(2), F(1), F(4))
        assert rep.status == "bracketed"
        assert rep.low <= 2 <= rep.high
        assert rep.high - rep.low <= F(1, 20)

    def test_ternary_bracket(self):
        rep = branching_number_estimate(RegularSource(3), F(1), F(3))
        assert rep.status == "bracketed"
        assert rep.low <= 3 <= rep.high
        assert rep.high - rep.low <= F(1, 20)

    def test_path_collapses_low(self):
        rep = branching_number_estimate(RegularSource(1), F(1), F(2))
        assert rep.status == "collapsed-low"
        assert rep.low == rep.high == 1

    def test_collapses_high_when_range_is_below(self):
        rep = branching_number_estimate(RegularSource(2), F(1), F(3, 2))
        assert rep.status == "collapsed-high"
        assert rep.low == rep.high == F(3, 2)

    def test_inconclusive_is_an_error(self):
        # Depth 8 gives the schedule (1, 2, 4, 8).
        with pytest.raises(Inconclusive):
            branching_number_estimate(RegularSource(2), F(15, 8), F(31, 16), depth=8, tol=F(1, 10**6))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": 0}, "tol must be > 0, got 0"),
            ({"tol": F(-1, 3)}, "tol must be > 0, got -1/3"),
            ({"depth": 0}, "depth must be >= 1, got 0"),
            ({"depth": -5}, "depth must be >= 1, got -5"),
        ],
        ids=["tol-zero", "tol-negative", "depth-zero", "depth-negative"],
    )
    def test_bad_parameters_are_rejected_before_any_evaluation(self, monkeypatch, kwargs, message):
        # Not Inconclusive: a parameter error says nothing about the tree.
        counts = helpers.count_calls(monkeypatch, flow, "level_branching")
        walks = helpers.count_calls(monkeypatch, flow, "_dag")
        with pytest.raises(StructureError) as exc:
            branching_number_estimate(RegularSource(2), F(1), F(4), **kwargs)
        assert str(exc.value) == message
        assert (counts, walks) == ([], [])

    def test_evaluations_recorded(self):
        rep = branching_number_estimate(RegularSource(2), F(1), F(4))
        assert all(verdict in {"convergent", "divergent"} for _, verdict, _ in rep.evaluations)

    def test_explicit_tree_does_not_stall(self):
        # 40 edges; the default schedule reaches depth 4096
        tree = expand(SphericalSource((4, 3, 2)), 3)
        with helpers.deadline(2):
            rep = branching_number_estimate(tree, F(1), F(4))
        assert rep.status == "collapsed-high"

    def test_explicit_tree_evaluations_match_per_depth_calls(self, monkeypatch):
        # One walk per evaluation at the deepest schedule depth, and one
        # solve per schedule depth up to the tree's height (3): depth 64
        # gives the schedule (1, 4, 16, 32, 64), cut to (1, 3).
        tree = expand(SphericalSource((4, 3, 2)), 3)
        walks = helpers.count_calls(monkeypatch, flow, "_dag")
        solves = helpers.count_calls(monkeypatch, flow, "_solve")
        rep = branching_number_estimate(tree, F(1), F(4), depth=64)
        assert [depth for _, depth in walks] == [64] * len(rep.evaluations)
        assert [h for _, h in solves] == [1, 3] * len(rep.evaluations)
        monkeypatch.undo()
        want = []
        for lam, _, _ in rep.evaluations:
            scaled = LambdaScaledSource(tree, lam)
            values = [float(effective_resistance(scaled, h).value) for h in flow._schedule(64)]
            assert values[0] < values[1] == values[2] == values[3] == values[4]
            want.append((lam, "convergent", values[-1]))
        assert list(rep.evaluations) == want

    def test_path_walks_once_per_lambda_and_solves_its_height_once(self, monkeypatch):
        # Depth 256 gives the schedule (1, 4, 16, 64, 128, 256); its depths
        # 64, 128 and 256 all cut nothing of a 40-edge path.
        path = helpers.path_tree([1] * 40, cap=INF)
        walks = helpers.count_calls(monkeypatch, flow, "_dag")
        solves = helpers.count_calls(monkeypatch, flow, "_solve")
        rep = branching_number_estimate(path, F(1), F(2), depth=256)
        assert len(rep.evaluations) > 2
        assert [depth for _, depth in walks] == [256] * len(rep.evaluations)
        assert [h for _, h in solves] == [1, 4, 16, 40] * len(rep.evaluations)

    def test_level_profile_read_once(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, flow, "level_branching")
        rep = branching_number_estimate(RegularSource(3), F(1), F(5))
        assert rep.status == "bracketed" and len(rep.evaluations) > 2
        assert [depth for _, depth in calls] == [4096]

    def test_branching_numbers_match_count_ratios(self):
        # lam * (1 / b_h) is the correctly rounded count_(h-1) / count_h, so
        # the per-level numbers give the count-ratio floats exactly.
        rng = random.Random(20261019)
        threshold = 10**6
        full_depth = 0
        for i in range(200):
            b = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            src = SphericalSource(b, (F(rng.randint(1, 4), rng.randint(1, 3)),))
            if rng.random() < 0.4:
                src = LambdaScaledSource(src, F(rng.randint(1, 9), rng.randint(1, 4)))
            lam = float(F(rng.randint(1, 60), rng.randint(1, 12)))
            if i % 10 == 0:
                schedule = flow._schedule(4096)
            else:
                schedule = tuple(sorted({rng.randint(1, 600) for _ in range(4)}))
            got = flow._profile_resistances(level_branching(src, schedule[-1]), lam, schedule, threshold)
            assert got == oracles.profile_by_counts(b, lam, schedule, threshold), (src, lam, schedule)
            full_depth += got[-1] <= threshold
        assert full_depth >= 50
