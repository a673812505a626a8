"""Closed forms and generators the workload checks rely on."""

import math
import random
from fractions import Fraction

import pytest

from treefactorials import cli
from treefactorials.realize import verify_roundtrip
from treefactorials import INF, laplacian_voltage_gap
from workloads import _biased_rows, _random_tree, legendre_closed_form, level_closed_form, series_parallel_resistance


@pytest.mark.parametrize("p", [2, 3, 5])
def test_legendre_closed_form_counts_factors_of_p(p):
    for n in range(200):
        v, m = 0, math.factorial(n)
        while m % p == 0:
            m //= p
            v += 1
        assert legendre_closed_form(n, p) == v


def test_level_closed_form_of_a_regular_tree_is_legendre():
    for n in range(300):
        assert level_closed_form(n, lambda k: 3, lambda k: Fraction(1)) == legendre_closed_form(n, 3)


@pytest.mark.parametrize("seed", range(20))
def test_biased_rows_realize_with_a_full_prefix_match(seed, tmp_path):
    rows = _biased_rows(random.Random(seed), 2, 5)
    seq = cli._parse_sequence_file(rows, 2)
    report = verify_roundtrip(seq)
    assert report.full_prefix_match


@pytest.mark.parametrize("seed", range(10))
def test_series_parallel_resistance_matches_the_laplacian(seed):
    rng = random.Random(seed)
    tree = _random_tree(rng, 12, (Fraction(1), Fraction(1, 2), Fraction(3, 2)), (1, 2, INF), need_inf=True)
    assert series_parallel_resistance(tree) == laplacian_voltage_gap(tree)
