"""The weighting process and its two independent reference procedures."""

import hashlib
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from treefactorials import (
    INF,
    AdelicSetSource,
    Canonical,
    DepthBudgetExceeded,
    Exhausted,
    IndexOutOfRange,
    LambdaScaledSource,
    OrderedTieBreak,
    RegularSource,
    RootedTree,
    SeededRandom,
    SphericalSource,
    StructureError,
    capacity_bound,
    equidistribution_check,
    expand,
    factorials_greedy_oracle,
    factorials_minmax,
    factorials_removed,
    factorials_weighting,
    unit_current_flow,
)
from treefactorials import sources
from treefactorials.sources import LazyView, TreeSource

F = Fraction


def weighting_values(tree, n_max, policy=None, **kw):
    return factorials_weighting(tree, n_max, policy, **kw).sequence.values


class TestKnownSequences:
    def test_binary_matches_legendre(self):
        vals = factorials_weighting(RegularSource(2), 8).sequence.values
        assert vals == (0, 0, 1, 1, 3, 3, 4, 4, 7)
        assert [int(v) for v in vals] == [oracles.factorial_valuation(n, 2) for n in range(9)]

    def test_two_leaf_star(self):
        t = helpers.two_leaf_star()
        assert weighting_values(t, 5) == (0, 0, 1, 1, 2, 2)

    def test_single_edge_linear(self):
        t = helpers.single_edge(F(3, 2), INF)
        assert weighting_values(t, 4) == (0, F(3, 2), 3, F(9, 2), 6)

    def test_capacity_one_star_terminates(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        # N = 3: the sequence is complete after three terms, not an error
        assert weighting_values(t, 12) == (0, 0, 0)

    def test_greedy_star(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        assert factorials_greedy_oracle(t, 2).values == (0, 0, 0)

    def test_greedy_repeated_path_uses_full_length(self):
        t = RootedTree.build((-1, 0, 1), (0, 1, 2), {2: 2})
        assert factorials_greedy_oracle(t, 1).values == (0, 3)

    def test_greedy_binary_depth2(self):
        assert factorials_greedy_oracle(helpers.binary_tree(2), 4).values == (0, 0, 1, 1, 3)

    def test_minmax_values(self):
        assert factorials_minmax(helpers.two_leaf_star(), 4).values[4] == 2
        assert factorials_minmax(helpers.binary_tree(2), 4).values[4] == 3
        assert factorials_minmax(helpers.star([1, 2, 3], [1, 1, 1]), 0).values == (0,)

    def test_minmax_deep_path(self):
        # Deeper than the interpreter's recursion limit.
        t = helpers.path_tree([1] * 3000, cap=2)
        assert factorials_minmax(t, 1).values == (0, 3000)

    def test_minmax_out_of_range(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        with pytest.raises(IndexOutOfRange):
            factorials_minmax(t, 3)

    def test_greedy_exhausted(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        with pytest.raises(Exhausted):
            factorials_greedy_oracle(t, 3)

    def test_negative_n_rejected(self):
        with pytest.raises(StructureError):
            factorials_greedy_oracle(helpers.two_leaf_star(), -1)
        with pytest.raises(StructureError):
            factorials_weighting(RegularSource(2), -1)
        with pytest.raises(StructureError):
            factorials_minmax(helpers.two_leaf_star(), -1)


class TestCapacityBound:
    def test_star_all_ones(self):
        assert capacity_bound(helpers.star([1, 2, 3], [1, 1, 1])) == 3

    def test_single_vertex(self):
        assert capacity_bound(RootedTree.build((-1,), (0,), {0: 5})) == 5

    def test_infinity_propagates(self):
        assert capacity_bound(helpers.single_edge(1, INF)) == INF

    def test_generated_source_is_structure_error(self):
        with pytest.raises(StructureError, match="expand a generated source first"):
            capacity_bound(RegularSource(2))
        assert capacity_bound(expand(RegularSource(2), 3)) == INF

    def test_branching_and_capacity_terms(self):
        # 1 + (3-1) branching + (2-1)+(1-1)+(4-1) leaf slack
        t = helpers.star([1, 1, 1], [2, 1, 4])
        assert capacity_bound(t) == 7

    def test_matches_weighting_termination(self):
        rng = random.Random(5)
        for _ in range(40):
            t = helpers.random_tree(rng, max_edges=5)
            n = capacity_bound(t)
            if n is INF:
                continue
            vals = weighting_values(t, n + 5)
            assert len(vals) == n


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(helpers.small_trees(max_edges=5))
    def test_three_procedures_agree(self, t):
        bound = capacity_bound(t)
        n_max = 9 if bound is INF else min(int(bound) - 1, 9)
        w = weighting_values(t, n_max)
        g = factorials_greedy_oracle(t, n_max).values
        m = factorials_minmax(t, n_max).values
        assert w == g == m

    @settings(max_examples=60, deadline=None)
    @given(helpers.small_trees(max_edges=4))
    def test_minmax_matches_composition_search(self, t):
        bound = capacity_bound(t)
        n_max = 8 if bound is INF else min(int(bound) - 1, 8)
        assert factorials_minmax(t, n_max).values == tuple(oracles.minmax_by_compositions(t, n_max))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
    @given(helpers.small_trees(max_edges=4))
    def test_every_choice_gives_the_same_values(self, t):
        bound = capacity_bound(t)
        n_max = 6 if bound is INF else min(int(bound) - 1, 6)
        sets = oracles.all_choice_weighting(t, n_max)
        vals = weighting_values(t, n_max)
        assert len(sets) == len(vals)
        for n, s in enumerate(sets):
            assert s == {vals[n]}

    @settings(max_examples=40, deadline=None)
    @given(helpers.small_trees(max_edges=6))
    def test_seeded_policies_agree_with_canonical(self, t):
        bound = capacity_bound(t)
        n_max = 8 if bound is INF else min(int(bound) - 1, 8)
        base = weighting_values(t, n_max, Canonical())
        for seed in (0, 1, 17):
            assert weighting_values(t, n_max, SeededRandom(seed)) == base

    def test_seeded_policy_reproducible(self):
        t = helpers.binary_tree(3)
        a = factorials_weighting(t, 20, SeededRandom(9), record_trace=True)
        b = factorials_weighting(t, 20, SeededRandom(9), record_trace=True)
        assert a.trace == b.trace
        # a key that ignored the seed would give every seed the same trace
        c = factorials_weighting(t, 20, SeededRandom(10), record_trace=True)
        assert c.sequence.values == a.sequence.values
        assert c.trace != a.trace


class TestGreedyOracle:
    """The leaf-range greedy against the pairing-matrix reference."""

    @staticmethod
    def outcome(greedy, tree, n_max):
        try:
            return greedy(tree, n_max).values
        except Exhausted as exc:
            return f"Exhausted: {exc}"

    @settings(max_examples=150, deadline=None)
    @given(helpers.small_trees(max_edges=6, caps=(1, 2, 3, INF)), st.integers(-4, 3))
    def test_matches_pairing_reference(self, t, offset):
        # offset < 0 stops below the capacity bound, offset >= 0 runs past it.
        bound = capacity_bound(t)
        n_max = 10 + offset if bound is INF else max(0, int(bound) - 1 + offset)
        got = self.outcome(factorials_greedy_oracle, t, n_max)
        assert got == self.outcome(oracles.greedy_by_pairing, t, n_max)
        if bound is not INF and n_max >= bound:
            assert got == f"Exhausted: all boundary elements at capacity after {int(bound)} terms"

    def test_depth_first_order_differs_from_ids(self):
        # Leaf 3 (under vertex 1) comes first depth-first, leaf 2 first by id;
        # the first step ties at 0 and takes leaf 2.
        t = RootedTree.build([-1, 0, 0, 1], [0, 1, 2, 3], {2: 2, 3: 2})
        assert factorials_greedy_oracle(t, 3).values == oracles.greedy_by_pairing(t, 3).values == (0, 0, 2, 4)
        with pytest.raises(Exhausted, match="^all boundary elements at capacity after 4 terms$"):
            factorials_greedy_oracle(t, 4)


class TestSequenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(helpers.small_trees(max_edges=6))
    def test_superadditive_and_monotone(self, t):
        vals = weighting_values(t, 10)
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        for m in range(len(vals)):
            for n in range(m, len(vals)):
                if m + n < len(vals):
                    assert vals[m + n] >= vals[m] + vals[n]

    @settings(max_examples=40, deadline=None)
    @given(helpers.small_trees(max_edges=5, caps=(INF,)))
    def test_root_path_reduction(self, t):
        vals = weighting_values(t, 8)
        L = F(5, 2)
        shifted = weighting_values(helpers.prepend_root_edge(t, L), 8)
        assert shifted == tuple(v + i * L for i, v in enumerate(vals))

    @settings(max_examples=40, deadline=None)
    @given(helpers.small_trees(max_edges=6))
    def test_skeleton_preserves_factorials(self, t):
        sk = helpers.canonical_skeleton(t)
        assert weighting_values(t, 12) == weighting_values(sk, 12)

    def test_skeleton_preserves_factorials_subdivided(self):
        t = helpers.binary_tree(2)
        sub = helpers.subdivide(helpers.subdivide(t, 1, F(1, 4)), 4, F(2, 3))
        assert weighting_values(sub, 24) == weighting_values(t, 24)

    def test_inclusion_is_rigid(self):
        # Dropping a leaf (keeping its parent branching) changes the sequence
        # within 2|E| terms, counting termination as a difference.
        for t, keep in [
            (helpers.binary_tree(2), 5),
            (helpers.star([1, 1, 2], [INF, INF, 1]), 2),
            (helpers.star([1, 1], [2, 2]), 1),
        ]:
            sub = _drop_leaf(t)
            horizon = 2 * (len(t) - 1)
            a = weighting_values(t, horizon)
            b = weighting_values(sub, horizon)
            assert a != b

    @settings(max_examples=40, deadline=None)
    @given(helpers.small_trees(max_edges=6))
    def test_exhaustive_coverage_below_the_last_value(self, t):
        """Vertices strictly closer than a_n are fully explored by step n."""
        run = factorials_weighting(t, 10)
        vals = run.sequence.values
        a_last = vals[-1]
        weighted = run.weights
        for v, w in weighted.items():
            dist = _weighted_distance(t, weighted, v)
            if dist < a_last:
                kids = t.children[v]
                if kids:
                    assert all(c in weighted for c in kids)
                else:
                    cap = t.capacities[v]
                    assert cap is not INF and w >= cap


def _drop_leaf(t: RootedTree) -> RootedTree:
    """Remove the highest-id leaf whose parent keeps at least one child."""
    for v in reversed(t.leaves):
        p = t.parents[v]
        if sum(1 for c in t.children[p] if c != v) >= 1:
            keep = [u for u in range(len(t)) if u != v]
            remap = {u: i for i, u in enumerate(keep)}
            parents = [-1] + [remap[t.parents[u]] for u in keep[1:]]
            lengths = [0] + [t.lengths[u] for u in keep[1:]]
            caps = {}
            for u in keep[1:]:
                if t.capacities[u] is not None:
                    caps[remap[u]] = t.capacities[u]
            caps.pop(remap[p], None)  # parent may have become a leaf: default it
            return RootedTree.build(parents, lengths, caps or None)
    raise AssertionError("no removable leaf")


def _weighted_distance(t: RootedTree, weights, v: int) -> Fraction:
    total = F(0)
    while v != 0:
        total += weights[v] * t.lengths[v]
        v = t.parents[v]
    return total


class TestPartialUnitFlow:
    @settings(max_examples=60, deadline=None)
    @given(helpers.small_trees(max_edges=6))
    def test_conservation_and_total(self, t):
        run = factorials_weighting(t, 12)
        w = run.weights
        # total at the root counts one unit per step
        assert sum(w[c] for c in t.children[0] if c in w) == run.steps
        for v in list(w):
            kids = [c for c in t.children[v] if c in w]
            if not t.children[v]:
                continue
            if kids and len(kids) == len(t.children[v]):
                assert w[v] == sum(w[c] for c in kids)
            elif kids:
                assert w[v] >= sum(w[c] for c in kids)

    def test_normalized_weights_sum_to_one_per_level(self):
        run = factorials_weighting(RegularSource(2), 500)
        rows = equidistribution_check(run, unit_current_flow(RegularSource(2), 2)).rows
        for depth in (1, 2):
            level = [w for a, w, _ in rows if len(a) == depth]
            assert len(level) == 2**depth and sum(level) == 1


class TestTrace:
    def test_trace_structure(self):
        t = helpers.binary_tree(2)
        run = factorials_weighting(t, 6, record_trace=True)
        assert run.trace is not None
        assert run.trace[0].case == "init"
        assert all(s.case in {"1", "2.1", "2.2"} for s in run.trace[1:])
        assert [s.value for s in run.trace] == list(run.sequence.values)

    def test_trace_off_by_default(self):
        run = factorials_weighting(RegularSource(2), 4)
        assert run.trace is None

    def test_steps_counts_terms(self):
        run = factorials_weighting(RegularSource(2), 7)
        assert run.steps == 8


class TestRemovedVariant:
    def test_t0_equals_greedy(self):
        t = helpers.star([1, F(3, 2)], [2, INF])
        a = factorials_removed(t, 0, 8).sequence.values
        b = factorials_greedy_oracle(t, 8).values
        assert a == b

    def test_single_path_t1(self):
        t = helpers.single_edge(1, INF)
        vals = factorials_removed(t, 1, 10).sequence.values
        assert vals == tuple(max(n - 1, 0) for n in range(11))

    def test_single_path_t1_scales_with_length(self):
        t = helpers.single_edge(3, INF)
        vals = factorials_removed(t, 1, 6).sequence.values
        assert vals == tuple(3 * max(n - 1, 0) for n in range(7))

    def test_binary_frozen_prefixes(self):
        r1 = factorials_removed(RegularSource(2), 1, 15).sequence.values
        r2 = factorials_removed(RegularSource(2), 2, 15).sequence.values
        assert [int(v) for v in r1] == [0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 5, 5, 7, 7, 8, 8]
        assert [int(v) for v in r2] == [0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 5, 5, 6, 6]

    def test_termwise_monotone_in_t(self):
        base = factorials_weighting(RegularSource(2), 64).sequence.values
        prev = base
        for t in (1, 2, 3):
            cur = factorials_removed(RegularSource(2), t, 64).sequence.values
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur

    @settings(max_examples=30, deadline=None)
    @given(helpers.small_trees(max_edges=5))
    def test_matches_direct_oracle(self, t):
        for tt in (1, 2):
            n_max = 7
            try:
                expected = oracles.removed_greedy(t, tt, n_max)
            except oracles.OracleExhausted:
                with pytest.raises(Exhausted):
                    factorials_removed(t, tt, n_max)
                continue
            got = factorials_removed(t, tt, n_max).sequence.values
            assert list(got) == expected

    def test_exhausted_when_capacity_runs_out(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        with pytest.raises(Exhausted):
            factorials_removed(t, 1, 5)


class TestTieBreakPolicies:
    def test_seeded_binary_tree_is_fast(self):
        # Nearly every step of a regular tree is a tie; a selection that
        # scans the whole tie set is quadratic and takes seconds at this size.
        n = 2**12
        start = time.perf_counter()
        vals = factorials_weighting(RegularSource(2), n, SeededRandom(5)).sequence.values
        assert time.perf_counter() - start < 5
        # Legendre: v_2(k!) = k - (binary digit sum of k)
        assert list(vals) == [k - bin(k).count("1") for k in range(n + 1)]

    def test_lazy_children_read_once_per_weighted_vertex(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, LazyView, "children")
        n = 2**12
        run = factorials_weighting(RegularSource(2), n)
        assert list(run.sequence.values) == [k - bin(k).count("1") for k in range(n + 1)]
        # the root's children, then each weighted vertex's children once:
        # the view has no memo, so a second call would number them again
        assert len(calls) <= len(run.weights) + 1
        assert len({v for _, v in calls}) == len(calls)

    def test_ordered_tie_break_follows_rank(self):
        t = helpers.star([1, 1, 1], [INF, INF, INF])
        fwd = factorials_weighting(t, 6, OrderedTieBreak({1: 0, 2: 1, 3: 2}), record_trace=True)
        rev = factorials_weighting(t, 6, OrderedTieBreak({1: 2, 2: 1, 3: 0}), record_trace=True)
        assert fwd.sequence.values == rev.sequence.values
        assert fwd.trace != rev.trace


class TestGoldenTraces:
    """One digest over the values, traces and weights of a fixed set of runs,
    so any change to a selection shows up, whichever policy makes it."""

    DIGEST = "d5203390db9acd223f5715c217d109b9b5d7c51bcf33de186fdb0d19870d149e"

    @staticmethod
    def outcomes():
        rng = random.Random(2016)
        inputs = []
        for _ in range(60):
            tree = helpers.random_tree(rng, max_edges=13, lengths=(F(1), F(2), F(1, 2), F(3, 2)), caps=(1, 2, 3, INF))
            inputs.append((tree, 25, len(tree)))
        for src in (
            RegularSource(2),
            SphericalSource((2, 3), (F(1, 2), F(2, 3))),
            LambdaScaledSource(RegularSource(2), F(3, 2)),
            # A finite lazy tree whose root children include leaves.
            AdelicSetSource((0, 1, 3, 5, 9, 17, 33), 2),
        ):
            inputs.append((src, 200, 600))
        for i, (src, n, ids) in enumerate(inputs):
            # Ranks cover most ids and collide, so the id fallback runs too.
            rank = {v: rng.randrange(ids) for v in range(ids) if rng.random() < 0.8}
            for policy in (Canonical, lambda: OrderedTieBreak(rank), lambda: SeededRandom(i)):
                for t in (0, 1):
                    try:
                        if t:
                            run = factorials_removed(src, t, n, policy(), record_trace=True)
                        else:
                            run = factorials_weighting(src, n, policy(), record_trace=True)
                    except Exhausted as e:
                        yield repr(e)
                        continue
                    yield repr((run.sequence.values, run.trace, run.weights))

    def test_runs_match_the_pinned_digest(self):
        outcomes = list(self.outcomes())
        assert len(outcomes) == 64 * 6
        assert sum(o.startswith("Exhausted(") for o in outcomes) > 20
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST

    SINGLE_VERTEX_DIGEST = "6267c9ae3fda9df261c7b7405c62a0ea0d235431994341cec70ff964429add5a"

    @staticmethod
    def single_vertex_outcomes():
        # The root is the tree's only leaf, so every term is 0 and the
        # root is chosen up to its capacity.
        sources = [RootedTree.build((-1,), (0,), {0: cap}) for cap in (1, 2, 3, INF)]
        sources.append(SphericalSource((0,)))
        for src in sources:
            for n in range(7):
                for policy in (Canonical, lambda: SeededRandom(n)):
                    for t in (None, 0, 1, 2):
                        try:
                            if t is None:
                                run = factorials_weighting(src, n, policy(), record_trace=True)
                            else:
                                run = factorials_removed(src, t, n, policy(), record_trace=True)
                        except Exhausted as e:
                            yield repr(e)
                            continue
                        yield repr((run.sequence.values, run.trace, run.weights))

    def test_single_vertex_runs_match_the_pinned_digest(self):
        outcomes = list(self.single_vertex_outcomes())
        assert len(outcomes) == 5 * 7 * 2 * 4
        assert sum(o.startswith("Exhausted(") for o in outcomes) > 20
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.SINGLE_VERTEX_DIGEST

    LAMBDA_DIGEST = "6221bdb6a1bcac16d82e41a81f960eb11f3d9bbe628fe25e3736128ccaa3723a"

    @staticmethod
    def lambda_outcomes():
        # Non-integer lambdas give every level a new denominator, so the
        # engine's length scale has to cover each level as the run reaches it.
        # Each base comes with its last index: the adelic set has 19 terms.
        bases = (
            (RegularSource(2), 600),
            (RegularSource(3), 600),
            (SphericalSource((2, 3), (F(1, 2), F(2, 3))), 600),
            # Classes that stay whole for 30 to 50 levels: long unary chains.
            (AdelicSetSource(tuple(range(0, 48, 3)) + (2**40, 2**40 + 2**30, 7 * 2**50), 2), 18),
        )
        for i, (base, n) in enumerate(bases):
            for lam in (F(1, 2), F(2, 3), F(5, 7)):
                src = LambdaScaledSource(base, lam)
                for policy in (Canonical, lambda: SeededRandom(i)):
                    for t in (0, 1):
                        run = factorials_removed(src, t, n, policy(), record_trace=True)
                        yield repr((run.sequence.values, run.trace, run.weights))

    def test_lambda_runs_match_the_pinned_digest(self):
        outcomes = list(self.lambda_outcomes())
        assert len(outcomes) == 4 * 3 * 2 * 2
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.LAMBDA_DIGEST


class TestDeepLengthScale:
    def test_halving_chain_of_3000_levels_stays_fast(self):
        # Edge k of the chain has length 2^-k, so each level needs a larger
        # common denominator; 0.135 s on a 2-vCPU VM, where covering each
        # level by its own rescale took 1.15 s.
        src = LambdaScaledSource(AdelicSetSource((0, 2**3000), 2), F(1, 2))
        with helpers.deadline(0.6):
            values = weighting_values(src, 2)
        assert values == (0, 2 - F(1, 2**2999))


class TestRaySource:
    """A source whose every vertex has one child is a single infinite path,
    which never reaches a branching vertex or a leaf."""

    RAYS = (
        RegularSource(1),
        RegularSource(1, F(1, 3)),
        SphericalSource((1,)),
        SphericalSource((1, 1), (F(1, 2), F(2))),
        LambdaScaledSource(RegularSource(1), F(1, 2)),
        LambdaScaledSource(SphericalSource((1,)), F(3)),
        LambdaScaledSource(LambdaScaledSource(RegularSource(1), F(2, 3)), F(1, 2)),
    )

    @pytest.mark.parametrize("src", RAYS)
    @pytest.mark.parametrize("t", (0, 1))
    def test_ray_fails_fast(self, src, t):
        with helpers.deadline(1):
            with pytest.raises(StructureError, match="single infinite ray has no finite a_1"):
                factorials_removed(src, t, 3)
            assert factorials_removed(src, t, 0).sequence.values == (0,)

    @pytest.mark.parametrize(
        "src, values",
        (
            (SphericalSource((1, 1, 0)), (0,)),
            (SphericalSource((1, 2)), (0, 1, 4)),
            (LambdaScaledSource(SphericalSource((1, 2)), F(1, 2)), (0, 1, F(11, 4))),
        ),
    )
    def test_unary_levels_that_end_or_branch_are_not_rays(self, src, values):
        assert weighting_values(src, 2) == values

    @pytest.mark.parametrize("src", RAYS)
    def test_minmax_on_a_ray_fails_fast(self, src):
        with helpers.deadline(1):
            with pytest.raises(StructureError, match="single infinite ray has no finite a_1"):
                factorials_minmax(src, 3)
            assert factorials_minmax(src, 0).values == (0,)


class TwoRays(TreeSource):
    """A root with two children, each the start of an infinite path: no
    spherical source, so only the depth budget stops a walk for a_2."""

    def root_state(self):
        return "root"

    def state_children(self, state, depth):
        return [(F(1), "ray")] * (2 if state == "root" else 1)

    def state_capacity(self, state, depth):
        return None


class NewPrimeLengths(TreeSource):
    """A path that branches in two at every 8th level, with length 1/(k+2)
    at level k: nearly every level brings a new prime denominator."""

    def root_state(self):
        return None

    def state_children(self, state, depth):
        return [(F(1, depth + 2), None)] * (2 if depth % 8 == 0 else 1)

    def state_capacity(self, state, depth):
        return None


class TestMinmaxOnSources:
    """factorials_minmax walks explicit trees and generated sources alike,
    one (state, depth) node at a time; the engine is the reference."""

    SOURCES = (
        RegularSource(2),
        RegularSource(3),
        SphericalSource((2, 3), (F(1, 2), F(2, 3))),
        SphericalSource((3, 2, 0)),
        SphericalSource((1, 2), (F(1), F(5, 2))),
        LambdaScaledSource(RegularSource(2), F(3, 2)),
        LambdaScaledSource(RegularSource(2), F(1, 2)),
        LambdaScaledSource(SphericalSource((3, 1, 2)), F(2, 3)),
        AdelicSetSource(tuple(range(0, 60, 3)), 6),
        AdelicSetSource((5, 17, 41, 65, 89, 113, 1000, 1024, 4096), 12),
        AdelicSetSource(tuple(7 + 4**9 * x for x in (0, 1, 3, 4, 9, 12)), 4),
        helpers.FibonacciSource(),
    )

    @pytest.mark.parametrize("src", SOURCES)
    def test_matches_weighting(self, src):
        want = weighting_values(src, 300)
        assert factorials_minmax(src, len(want) - 1).values == want

    def test_matches_weighting_on_seeded_trees(self):
        rng = random.Random(21)
        lengths = (F(1), F(1, 2), F(2, 3), F(5, 4), F(3))
        for _ in range(60):
            t = helpers.random_tree(rng, max_edges=25, lengths=lengths)
            want = weighting_values(t, 40)
            assert factorials_minmax(t, len(want) - 1).values == want

    def test_binary_tree_gives_legendre(self):
        n = 10**5
        with helpers.deadline(2):
            values = factorials_minmax(RegularSource(2), n).values
        assert values[-1] == n - bin(n).count("1")
        assert all(v == k - bin(k).count("1") for k, v in enumerate(values))

    def test_deep_expansion_is_fast(self):
        tree = expand(RegularSource(2), 11)
        with helpers.deadline(2):
            values = factorials_minmax(tree, 1000).values
        assert values == weighting_values(tree, 1000)

    def test_halving_chain_of_3000_levels(self):
        src = LambdaScaledSource(AdelicSetSource((0, 2**3000), 2), F(1, 2))
        with helpers.deadline(2):
            assert factorials_minmax(src, 1).values == (0, 2 - F(1, 2**2999))

    def test_new_denominators_grow_the_scale_by_their_squares(self):
        # Squaring the scale at each new prime would give it hundreds of
        # thousands of bits by n = 128; the values need under 80.
        with helpers.deadline(1):
            want = weighting_values(NewPrimeLengths(), 128)
            assert factorials_minmax(NewPrimeLengths(), 128).values == want

    def test_finite_source_past_its_terms(self):
        with pytest.raises(IndexOutOfRange, match="^tree has N=6 terms, requested index 6$"):
            factorials_minmax(SphericalSource((3, 2, 0)), 6)
        assert factorials_minmax(SphericalSource((1,) * 50 + (0,)), 0).values == (0,)

    def test_index_far_past_the_terms(self):
        # Leaves of capacity 1 and 2 hold only the terms they reach, so an
        # index far past N = 3 allocates nothing for it.
        t = helpers.star([1, 2], [1, 2])
        tracemalloc.start()
        try:
            with pytest.raises(IndexOutOfRange, match="^tree has N=3 terms, requested index 10000000$"):
                factorials_minmax(t, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(IndexOutOfRange) as exc:
            factorials_minmax(t, 10**5000)
        assert str(exc.value) == "tree has N=3 terms, requested index 1" + "0" * 5000

    def test_infinite_leaf_past_any_list(self):
        # A leaf of infinite capacity reaches every index, but no list holds
        # more than sys.maxsize terms.
        with pytest.raises(IndexOutOfRange) as exc:
            factorials_minmax(helpers.two_leaf_star(), 10**5000)
        assert str(exc.value) == "requested index 1" + "0" * 5000 + ": a leaf's terms would not fit in a list"

    def test_explicit_tree_past_any_list(self):
        # The weighting run, its removed variant and the greedy oracle refuse
        # at once, as the min-max does, where they would append terms forever.
        removed = lambda tree, n: factorials_removed(tree, 1, n)  # noqa: E731
        for run in (factorials_weighting, removed, factorials_greedy_oracle):
            with helpers.deadline(2), pytest.raises(IndexOutOfRange) as exc:
                run(helpers.two_leaf_star(), 10**5000)
            assert str(exc.value) == "requested index 1" + "0" * 5000 + ": the terms would not fit in a list"
        # A finite tree keeps its outcomes: its N terms, or Exhausted.
        t = helpers.star([1, 2], [1, 2])
        assert factorials_weighting(t, 10**5000).sequence == factorials_weighting(t, 2).sequence
        for run in (removed, factorials_greedy_oracle):
            with pytest.raises(Exhausted, match="after 3 terms"):
                run(t, 10**5000)

    def test_walk_past_the_depth_budget(self, monkeypatch):
        monkeypatch.setattr(sources, "DEFAULT_BUDGET", 50)
        assert factorials_minmax(TwoRays(), 1).values == (0, 0)
        with pytest.raises(DepthBudgetExceeded):
            factorials_minmax(TwoRays(), 2)

    def test_greedy_oracle_needs_an_explicit_tree(self):
        with pytest.raises(StructureError, match="greedy oracle needs an explicit tree"):
            factorials_greedy_oracle(RegularSource(2), 5)
