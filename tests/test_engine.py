"""The weighting process and its two independent reference procedures."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

import helpers
import oracles
from treefactorials import (
    INF,
    Canonical,
    Exhausted,
    ExplicitSource,
    IndexOutOfRange,
    OrderedTieBreak,
    RegularSource,
    RootedTree,
    SeededRandom,
    StructureError,
    canonical_skeleton,
    capacity_bound,
    factorials_greedy_oracle,
    factorials_minmax,
    factorials_removed,
    factorials_weighting,
)

F = Fraction


def weighting_values(tree, n_max, policy=None, **kw):
    return factorials_weighting(ExplicitSource(tree), n_max, policy, **kw).sequence.values


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


class TestCapacityBound:
    def test_star_all_ones(self):
        assert capacity_bound(helpers.star([1, 2, 3], [1, 1, 1])) == 3

    def test_single_vertex(self):
        assert capacity_bound(RootedTree.build((-1,), (0,), {0: 5})) == 5

    def test_infinity_propagates(self):
        assert capacity_bound(helpers.single_edge(1, INF)) == INF

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
        a = factorials_weighting(ExplicitSource(t), 20, SeededRandom(9), record_trace=True)
        b = factorials_weighting(ExplicitSource(t), 20, SeededRandom(9), record_trace=True)
        assert a.trace == b.trace


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
        sk = canonical_skeleton(t)
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
        run = factorials_weighting(ExplicitSource(t), 10)
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
        run = factorials_weighting(ExplicitSource(t), 12)
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
        norm = run.normalized_weights_by_address()
        for depth in (1, 2):
            level = [x for a, x in norm.items() if len(a) == depth]
            assert sum(level) == 1


class TestTrace:
    def test_trace_structure(self):
        t = helpers.binary_tree(2)
        run = factorials_weighting(ExplicitSource(t), 6, record_trace=True)
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
        a = factorials_removed(ExplicitSource(t), 0, 8).sequence.values
        b = factorials_greedy_oracle(t, 8).values
        assert a == b

    def test_single_path_t1(self):
        t = helpers.single_edge(1, INF)
        vals = factorials_removed(ExplicitSource(t), 1, 10).sequence.values
        assert vals == tuple(max(n - 1, 0) for n in range(11))

    def test_single_path_t1_scales_with_length(self):
        t = helpers.single_edge(3, INF)
        vals = factorials_removed(ExplicitSource(t), 1, 6).sequence.values
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
                    factorials_removed(ExplicitSource(t), tt, n_max)
                continue
            got = factorials_removed(ExplicitSource(t), tt, n_max).sequence.values
            assert list(got) == expected

    def test_exhausted_when_capacity_runs_out(self):
        t = helpers.star([1, 2, 3], [1, 1, 1])
        with pytest.raises(Exhausted):
            factorials_removed(ExplicitSource(t), 1, 5)


class TestTieBreakPolicies:
    def test_ordered_tie_break_follows_rank(self):
        t = helpers.star([1, 1, 1], [INF, INF, INF])
        fwd = factorials_weighting(ExplicitSource(t), 6, OrderedTieBreak({1: 0, 2: 1, 3: 2}), record_trace=True)
        rev = factorials_weighting(ExplicitSource(t), 6, OrderedTieBreak({1: 2, 2: 1, 3: 0}), record_trace=True)
        assert fwd.sequence.values == rev.sequence.values
        assert fwd.trace != rev.trace
