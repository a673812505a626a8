"""Sequence containers, the superadditivity check, and limit estimation."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treefactorials import (
    FactorialSequence,
    RegularSource,
    StructureError,
    factorials_removed,
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
def gapped_sequences(draw, lengths):
    """a_n = s + t*n - c*(distance from n to the nearest multiple of p),
    maybe with one term moved down or up.  The distance is subadditive, so
    with c >= 0 and s <= 0 the sequence is superadditive, and with s = 0 it
    is full of exact ties a_{m+n} = a_m + a_n.  The slope t, which leaves
    every a_{m+n} - a_m - a_n as it is, takes the largest magnitude near
    2**62, 2**100 or 400 digits, of either sign.  Terms are ints or
    Fractions."""
    K = draw(lengths)
    fractional = draw(st.booleans())
    den = st.sampled_from((2, 3, 5, 7)) if fractional else st.just(1)

    def small(lo, hi):
        return F(draw(st.integers(lo, hi)), draw(den))

    p = draw(st.integers(2, 9))
    scale = draw(st.sampled_from((1, 2**62, 2**100, 10**400)))
    t = draw(st.sampled_from((1, -1))) * (scale // max(K, 1)) + small(-9, 9)
    s = draw(st.sampled_from((0, 0, -1, 1))) * small(1, 9)
    c = small(0, 9)
    values = [s + t * n - c * min(n % p, -n % p) for n in range(K)]
    move = draw(st.sampled_from((None, -1, 1)))
    if move is not None and K > 1:
        values[draw(st.integers(1, K - 1))] += move * small(1, 9)
    return values if fractional else [int(v) for v in values]


@st.composite
def floor_sums(draw):
    """a_0 + sum_d g(d) floor(n/d) with a_0 <= 0, g(d) >= 0 for d >= 2 and
    g(1) of either sign: superadditive, by the certificate's argument."""
    K = draw(st.integers(0, 60))
    a0 = draw(st.integers(-2**70, 0))
    g1 = draw(st.integers(-2**70, 2**70))
    g = {d: draw(st.integers(0, 2**70)) for d in draw(st.sets(st.integers(2, 60), max_size=8))}
    return [a0 + g1 * n + sum(gd * (n // d) for d, gd in g.items()) for n in range(K)]


def certified(values):
    return sequences._certified(sequences._scaled(values)[0])


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
        # The certificate proves floor(n/2); a raised last term is no floor
        # sum with g(d) >= 0, so the sweep finds its gap.
        vals = [F(n // 2) for n in range(4000)]
        assert certified(vals)
        assert superadditivity_gap(vals) is None
        bad = list(vals)
        bad[3999] = F(1000)
        assert not certified(bad)
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

    @settings(max_examples=300, deadline=None)
    @given(gapped_sequences(st.integers(0, 60)))
    def test_certificate_sweep_and_definition_agree(self, values):
        want = literal_gap(values)
        assert superadditivity_gap(values) == want
        if len(values) >= 3:
            assert sequences._swept(sequences._scaled(values)[0]) == want
        assert want is None or not certified(values)

    @settings(max_examples=6, deadline=None)
    @given(gapped_sequences(st.integers(1450, 1550)))
    def test_long_sequences_agree_with_the_definition(self, values):
        assert superadditivity_gap(values) == literal_gap(values)

    @pytest.mark.parametrize("K, m", ((12, 5), (40, 15), (41, 15), (1501, 600)))
    def test_step_rows_agree_with_the_definition(self, K, m):
        for values in (step_at(m, K), step_at(m, K, slope=-3)):
            assert superadditivity_gap(values) == literal_gap(values) == (m, m)

    @given(floor_sums())
    def test_certificate_proves_floor_sums(self, values):
        assert certified(values)
        assert superadditivity_gap(values) is literal_gap(values) is None

    @given(st.lists(st.integers(-6, 6), max_size=14), st.integers(-3, 3))
    def test_certified_sequences_have_no_gap(self, steps, a0):
        # Partial sums of small steps: nondecreasing or not, certified or not.
        values = [a0]
        for r in steps:
            values.append(values[-1] + r)
        if certified(values):
            assert literal_gap(values) is None

    def test_removed_sequence_is_swept_in_a_fifth_of_a_second(self, monkeypatch):
        # The t = 1 removed sequence is no floor sum with g(d) >= 0 (g(30)
        # is negative), so every pair of its 4,097 terms is swept.
        monkeypatch.setitem(sys.modules, "numpy", None)
        values = factorials_removed(RegularSource(2), 1, 2**12).sequence.values
        assert not certified(values)
        start = time.perf_counter()
        assert superadditivity_gap(values) is None
        assert time.perf_counter() - start < 0.2

    def test_weighting_output_is_superadditive(self):
        vals = factorials_weighting(RegularSource(3), 200).sequence.values
        assert superadditivity_gap(vals) is None

    def test_library_runs_without_numpy(self):
        # A fresh interpreter: the checks on deep sequences import nothing
        # beyond the standard library.
        code = (
            "import sys\n"
            "from treefactorials import RegularSource, factorials_removed, factorials_weighting\n"
            "from treefactorials.sequences import limit_estimate, superadditivity_gap\n"
            "for run in (factorials_weighting(RegularSource(2), 2**14),\n"
            "            factorials_removed(RegularSource(2), 1, 2**12)):\n"
            "    assert superadditivity_gap(run.sequence.values) is None\n"
            "    limit_estimate(run.sequence)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(sequences.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def step_at(m, K, slope=1, rise=1):
    """a_n = slope * n, plus `rise` from n = m on: additive before and after
    the step, so rows below m hold and the first pair that breaks is (m, m)."""
    return [slope * n + (rise if n >= m else 0) for n in range(K)]


def row_blocks(K, cells=2**18):
    """Rows m = 1 .. (K - 1) // 2 of the pair triangle in consecutive blocks
    [m0, m1) of at most `cells` cells, each row counted as long as the
    block's first, K - 2 * m0: a spread of rows, sparse near the top of the
    triangle and dense near its last row."""
    m0, last = 1, (K + 1) // 2
    while m0 < last:
        m1 = min(last, m0 + max(1, cells // (K - 2 * m0)))
        yield m0, m1
        m0 = m1


class TestBlockedSweep:
    """The sweep against the literal definition on steps the certificate
    cannot prove, at magnitudes on both sides of the fixed-width integer
    bounds and at rows spread over the whole pair triangle."""

    @staticmethod
    def three_ways(values):
        """The gap by superadditivity_gap, by the sweep alone and by the
        definition."""
        return superadditivity_gap(values), sequences._swept(sequences._scaled(values)[0]), literal_gap(values)

    @pytest.mark.parametrize(
        "bound, width",
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
    def test_bounds(self, bound, width, sign):
        # `width` is the narrowest fixed-width int that holds twice the
        # largest magnitude, which is exactly `bound`.  Raising the last
        # term, which only ever stands for a_{m+n}, or lowering a_1, which
        # never does, adds no violation.
        assert width == next(f"int{b}" for b in (16, 32, 64) if 2 * bound < 2 ** (b - 1))
        K = 1501
        values = step_at(600, K, slope=sign * (bound // (2 * K)))
        if sign > 0:
            values[-1] = bound
        else:
            values[1] = -bound
        assert max(map(abs, values)) == bound
        assert self.three_ways(values) == ((600, 600),) * 3
        values[600:-1] = [v - 1 for v in values[600:-1]]
        assert self.three_ways(values) == (None,) * 3

    @pytest.mark.parametrize("bound", (2**62, 2**63, 2**100))
    def test_bound_past_int64_takes_the_int_loop(self, bound):
        # The packed-int rows take any magnitude.
        values = step_at(700, 1501)
        values[-1] = bound
        assert self.three_ways(values) == ((700, 700),) * 3

    def test_negative_values(self):
        # A linear shift keeps every a_{m+n} - a_m - a_n.
        values = [n * n - 3000 * n for n in range(1600)]
        assert self.three_ways(values) == (None,) * 3
        values[1599] -= 2 * 1598 + 1
        assert self.three_ways(values) == ((1, 1598),) * 3

    @pytest.mark.parametrize("K", (1501, 1800))
    def test_violation_in_the_last_row_of_each_block(self, K):
        blocks = list(row_blocks(K))
        assert len(blocks) > 2
        for m0, m1 in blocks:
            m = m1 - 1
            assert self.three_ways(step_at(m, K, slope=3)) == ((m, m),) * 3

    def test_violations_in_the_final_block(self):
        K = 1601
        m0, m1 = list(row_blocks(K))[-1]
        for m in (m0, (m0 + m1) // 2, m1 - 1):
            assert self.three_ways(step_at(m, K)) == ((m, m),) * 3
        # The final cell of the triangle, (800, 800).
        assert m1 - 1 == 800


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
        with pytest.raises(StructureError):
            limit_estimate(seq([0]))

    def test_binary_tree_limit_near_one(self):
        run = factorials_weighting(RegularSource(2), 4096)
        est = limit_estimate(run.sequence)
        assert abs(float(est.value) - 1) < 0.01
        assert not est.likely_divergent
