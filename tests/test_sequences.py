"""Sequence containers, the superadditivity check, and limit estimation."""

import sys
from fractions import Fraction

import pytest

from treefactorials import (
    FactorialSequence,
    RegularSource,
    factorials_weighting,
    limit_estimate,
    superadditivity_gap,
)

F = Fraction


def seq(values, provenance="weighting"):
    return FactorialSequence(tuple(F(v) for v in values), provenance)


class TestContainer:
    def test_len_getitem_floats(self):
        s = seq([0, F(1, 2), 2])
        assert len(s) == 3
        assert s[1] == F(1, 2)
        assert s.floats() == (0.0, 0.5, 2.0)

    def test_provenance_label(self):
        run = factorials_weighting(RegularSource(2), 4)
        assert run.sequence.provenance == "weighting"


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

    def test_weighting_output_is_superadditive(self):
        vals = factorials_weighting(RegularSource(3), 200).sequence.values
        assert superadditivity_gap(vals) is None


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
