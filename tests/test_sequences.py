"""Sequence containers, the superadditivity check, and limit estimation."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treefactorials import (
    FactorialSequence,
    RegularSource,
    factorials_weighting,
    limit_estimate,
    sequences,
    superadditivity_gap,
)

F = Fraction


def seq(values):
    return FactorialSequence(tuple(F(v) for v in values))


def literal_gap(values):
    """The definition, pair by pair in Fraction arithmetic."""
    K = len(values)
    for m in range(1, K):
        for n in range(m, K - m):
            if values[m + n] < values[m] + values[n]:
                return (m, n)
    return None


@st.composite
def long_fractional_sequences(draw):
    """Sequences around the 40-term switch to numpy, or about 1,500 terms
    long, maybe with one term moved down or up.  a_n = lam*n - c*(distance
    from n to the nearest multiple of p) is superadditive, as that distance
    is subadditive, and full of exact ties a_{m+n} = a_m + a_n."""
    K = draw(st.one_of(st.integers(20, 60), st.integers(1450, 1550)))
    p = draw(st.integers(2, 9))
    lam, c, delta = (F(draw(st.integers(1, 9)), draw(st.sampled_from((1, 2, 3, 5, 7)))) for _ in range(3))
    values = [lam * n - c * min(n % p, -n % p) for n in range(K)]
    move = draw(st.sampled_from((-1, 1, None)))
    if move is not None:
        values[draw(st.integers(1, K - 1))] += move * delta
    return values


class TestContainer:
    def test_len_getitem_floats(self):
        s = seq([0, F(1, 2), 2])
        assert len(s) == 3
        assert s[1] == F(1, 2)
        assert tuple(map(float, s)) == (0.0, 0.5, 2.0)


class TestSuperadditivity:
    def test_clean_sequence_has_no_gap(self):
        assert superadditivity_gap([F(n // 2) for n in range(40)]) is None

    def test_first_violation_reported(self):
        # a_4 = 1 < a_2 + a_2 = 2
        vals = [F(0), F(0), F(1), F(1), F(1)]
        assert superadditivity_gap(vals) == (2, 2)

    def test_empty_and_singleton(self):
        assert superadditivity_gap([]) is None
        assert superadditivity_gap([F(0)]) is None

    def test_long_sequence_fast_path(self):
        # past the pairwise threshold the check switches to vectorized form
        vals = [F(n // 2) for n in range(4000)]
        assert superadditivity_gap(vals) is None
        bad = list(vals)
        bad[3999] = F(1000)
        assert superadditivity_gap(bad) is not None

    def test_long_sequence_near_int64_limit(self):
        # a_2 = 2**62 < a_1 + a_1 = 2**63, a sum that int64 cannot hold
        vals = [F(0)] + [F(2**62)] * 1600
        assert superadditivity_gap(vals) == (1, 1)

    def test_long_sequence_without_numpy(self, monkeypatch):
        vals = [n // 2 for n in range(1600)]
        bad = vals[:-1] + [0]
        assert superadditivity_gap(bad) == (1, 1598)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert superadditivity_gap(vals) is None
        assert superadditivity_gap(bad) == (1, 1598)

    def test_long_sequence_fractional(self):
        vals = [F(n, 3) for n in range(2000)]
        assert superadditivity_gap(vals) is None

    def test_long_fractional_sequence_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        # Convex with a_0 = 0, hence superadditive: every pair is checked.
        vals = [F(n * n, 7) + F(n, 3) for n in range(8001)]
        with helpers.deadline(10):
            assert superadditivity_gap(vals) is None

    @settings(max_examples=6, deadline=None)
    @given(long_fractional_sequences())
    def test_int_loop_numpy_and_definition_agree(self, values):
        want = literal_gap(values)
        assert superadditivity_gap(values) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "numpy", None)
            assert superadditivity_gap(values) == want

    def test_weighting_output_is_superadditive(self):
        vals = factorials_weighting(RegularSource(3), 200).sequence.values
        assert superadditivity_gap(vals) is None


def step_at(m, K, slope=1, rise=1):
    """a_n = slope * n, plus `rise` from n = m on: additive before and after
    the step, so rows below m hold and the first pair that breaks is (m, m)."""
    return [slope * n + (rise if n >= m else 0) for n in range(K)]


class TestBlockedSweep:
    """The numpy sweep against the int loop and the literal definition."""

    @staticmethod
    def three_ways(values, monkeypatch):
        calls = helpers.count_calls(monkeypatch, sequences, "_numpy_gap")
        swept = superadditivity_gap(values)
        assert len(calls) == 1
        with monkeypatch.context() as mp:
            mp.setitem(sys.modules, "numpy", None)
            looped = superadditivity_gap(values)
        assert len(calls) == 1
        return swept, looped, literal_gap(values)

    @pytest.mark.parametrize(
        "bound, dtype",
        (
            (2**14 - 1, "int16"),
            (2**14, "int32"),
            (2**15 - 1, "int32"),
            (2**15, "int32"),
            (2**30 - 1, "int32"),
            (2**30, "int64"),
            (2**31 - 1, "int64"),
            (2**31, "int64"),
            (2**62 - 1, "int64"),
        ),
    )
    @pytest.mark.parametrize("sign", (1, -1))
    def test_bounds(self, bound, dtype, sign, monkeypatch):
        # The largest magnitude is exactly `bound`.  Raising the last term,
        # which only ever stands for a_{m+n}, or lowering a_1, which never
        # does, adds no violation.
        K = 1501
        values = step_at(600, K, slope=sign * (bound // (2 * K)))
        if sign > 0:
            values[-1] = bound
        else:
            values[1] = -bound
        assert str(sequences._narrow_array(values).dtype) == dtype
        assert self.three_ways(values, monkeypatch) == ((600, 600),) * 3
        values[600:-1] = [v - 1 for v in values[600:-1]]
        assert self.three_ways(values, monkeypatch) == (None,) * 3

    @pytest.mark.parametrize("bound", (2**62, 2**63, 2**100))
    def test_bound_past_int64_takes_the_int_loop(self, bound, monkeypatch):
        values = step_at(700, 1501)
        values[-1] = bound
        assert sequences._narrow_array(values) is None
        calls = helpers.count_calls(monkeypatch, sequences, "_numpy_gap")
        assert superadditivity_gap(values) == literal_gap(values) == (700, 700)
        assert calls == []

    def test_negative_values(self, monkeypatch):
        # A linear shift keeps every a_{m+n} - a_m - a_n.
        values = [n * n - 3000 * n for n in range(1600)]
        assert self.three_ways(values, monkeypatch) == (None,) * 3
        values[1599] -= 2 * 1598 + 1
        assert self.three_ways(values, monkeypatch) == ((1, 1598),) * 3

    @pytest.mark.parametrize("K", (1501, 1800))
    def test_violation_in_the_last_row_of_each_block(self, K, monkeypatch):
        blocks = list(sequences._row_blocks(K))
        assert len(blocks) > 2
        for m0, m1 in blocks:
            m = m1 - 1
            assert self.three_ways(step_at(m, K, slope=3), monkeypatch) == ((m, m),) * 3

    def test_violations_in_the_final_block(self, monkeypatch):
        K = 1601
        m0, m1 = list(sequences._row_blocks(K))[-1]
        for m in (m0, (m0 + m1) // 2, m1 - 1):
            assert self.three_ways(step_at(m, K), monkeypatch) == ((m, m),) * 3
        # The final cell of the triangle, (800, 800), next to the padding.
        assert m1 - 1 == 800

    def test_the_numpy_switch_is_past_40_terms(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, sequences, "_numpy_gap")
        assert superadditivity_gap(step_at(5, 12)) == (5, 5)
        assert superadditivity_gap(step_at(15, 40)) == (15, 15)
        assert calls == []
        assert self.three_ways(step_at(15, 41), monkeypatch) == ((15, 15),) * 3


class TestLimitEstimate:
    def test_floor_half(self):
        est = limit_estimate(seq([n // 2 for n in range(1001)]))
        assert est.value == F(1, 2)
        assert est.lower_bound == F(1, 2)
        assert not est.likely_divergent

    def test_linear_exact(self):
        est = limit_estimate(seq([F(3, 2) * n for n in range(65)]))
        assert est.value == F(3, 2)
        assert est.lower_bound == F(3, 2)

    def test_lower_bound_is_max_over_k(self):
        # a_k/k peaks at k=1 here even though the tail is lower
        est = limit_estimate(seq([0, 5, 5, 5, 5, 5, 5, 5]))
        assert est.lower_bound == 5
        assert est.value == F(5, 7)

    @given(st.lists(st.fractions(-50, 50, max_denominator=12), min_size=2, max_size=40))
    def test_lower_bound_is_the_literal_max(self, values):
        est = limit_estimate(seq(values))
        assert est.lower_bound == max(values[k] / k for k in range(1, len(values)))

    def test_divergent_flagged(self):
        vals = [F(n * n, 100) for n in range(200)]
        assert limit_estimate(seq(vals)).likely_divergent

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            limit_estimate(seq([0]))

    def test_binary_tree_limit_near_one(self):
        run = factorials_weighting(RegularSource(2), 4096)
        est = limit_estimate(run.sequence)
        assert abs(float(est.value) - 1) < 0.01
        assert not est.likely_divergent
