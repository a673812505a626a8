"""Acceptance gate: end-to-end checks at the tolerances the package commits to.

Each criterion is one test; run `pytest tests/test_acceptance.py -v` for the
full gate.  Sequences produced by criteria 1-5 are recorded in-process and
swept for superadditivity by criterion 6, which falls back to a standalone
pool when run in isolation.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

import helpers
import oracles
from test_realize import TWINS, staircase
from treefactorials import INF
from treefactorials.adelic import bhargava_factorials, factorials_prime, legendre
from treefactorials.engine import (
    SeededRandom,
    capacity_bound,
    factorials_greedy_oracle,
    factorials_minmax,
    factorials_removed,
    factorials_weighting,
)
from treefactorials.flow import (
    branching_number_estimate,
    effective_resistance,
    equidistribution_check,
    exact_escape_probability,
    random_walk_escape,
    unit_current_flow,
)
from treefactorials.realize import OrderChoice, verify_roundtrip
from treefactorials.sources import RegularSource

# Sequences recorded for the criterion-6 sweep.  Values are stored as floats:
# every sequence below has terms in (1/2)Z far under 2**53, so float64 holds
# them, and their pairwise sums, exactly.
RECORDED: dict[str, list[tuple[float, ...]]] = {}


def record(key: str, values) -> None:
    RECORDED.setdefault(key, []).append(tuple(float(v) for v in values))


def assert_superadditive(values) -> None:
    """Check a[m+n] >= a[m] + a[n] over every index pair."""
    a = np.asarray(values, dtype=np.float64)
    length = len(a)
    for m in range(1, length // 2 + 1):
        bad = a[m:] < a[m] + a[: length - m]
        if bad.any():
            n = int(np.argmax(bad))
            raise AssertionError(f"a[{m + n}] < a[{m}] + a[{n}] in {values[:12]}...")
    if length and not a[0] <= 0:
        raise AssertionError("a[0] > 0 breaks the pair (0, 0)")


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    corpus = helpers.corpus_decorated()
    assert len(corpus) > 7000
    for tree in corpus:
        cap = capacity_bound(tree)
        n_max = (12 if cap == INF else min(cap, 12)) - 1
        weighting = factorials_weighting(tree, n_max).sequence.values
        assert weighting == factorials_greedy_oracle(tree, n_max).values
        assert weighting == factorials_minmax(tree, n_max).values
        record("criterion 1", weighting)
    assert time.perf_counter() - t0 < 60


def test_criterion_02_choice_independence():
    t0 = time.perf_counter()
    rng = random.Random(2)
    for _ in range(200):
        tree = helpers.random_tree(rng, max_edges=6)
        base = factorials_weighting(tree, 16).sequence.values
        for seed in range(20):
            assert factorials_weighting(tree, 16, SeededRandom(seed)).sequence.values == base
        record("criterion 2", base)
    assert time.perf_counter() - t0 < 30


def test_criterion_03_bhargava_reproduction():
    t0 = time.perf_counter()
    assert bhargava_factorials(range(13), 12) == [math.factorial(k) for k in range(13)]
    for p in (2, 3, 5):
        seq = factorials_weighting(RegularSource(p), 64).sequence
        assert seq.values == tuple(Fraction(legendre(n, p)) for n in range(65))
        record("criterion 3", seq.values)
        record("criterion 3", factorials_prime(range(13), p, 12).values)
    assert time.perf_counter() - t0 < 10


def test_criterion_04_binary_limit_and_resistance():
    t0 = time.perf_counter()
    seq = factorials_weighting(RegularSource(2), 4096).sequence
    assert abs(seq.values[-1] / 4096 - 1) < Fraction(1, 100)
    record("criterion 4", seq.values)
    res = effective_resistance(RegularSource(2), 16)
    assert res.per_depth == tuple(1 - Fraction(1, 2**h) for h in range(1, 17))
    assert all(x < y for x, y in zip(res.per_depth, res.per_depth[1:]))
    assert res.value == res.per_depth[-1]
    assert time.perf_counter() - t0 < 30


def test_criterion_05_finite_tree_formula():
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    lengths = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for _ in range(100):
        tree = helpers.random_tree(
            rng, max_edges=7, lengths=lengths, caps=(1, INF), require_inf=True
        )
        res = effective_resistance(tree, max(tree.depths)).value
        assert oracles.dense_resistance(tree) == res
        seq = factorials_weighting(tree, 10**4).sequence
        assert abs(seq.values[-1] / 10**4 - res) < Fraction(1, 1000)
        record("criterion 5", seq.values)
    assert time.perf_counter() - t0 < 120


def _standalone_pool() -> dict[str, list[tuple[float, ...]]]:
    pool: dict[str, list[tuple[float, ...]]] = {}

    def add(key, values):
        pool.setdefault(key, []).append(tuple(float(v) for v in values))

    for d in (2, 3):
        add("regular", factorials_weighting(RegularSource(d), 256).sequence.values)
    rng = random.Random(6)
    for _ in range(50):
        add("random", factorials_weighting(helpers.random_tree(rng, max_edges=6), 24).sequence.values)
    for p in (2, 3, 5):
        add("prime set", factorials_prime(range(13), p, 12).values)
    return pool


def test_criterion_06_superadditivity():
    pools = RECORDED or _standalone_pool()
    checked = 0
    for key in sorted(pools):
        for values in pools[key]:
            assert_superadditive(values)
            checked += 1
    assert checked > 0


def test_criterion_07_equidistribution():
    t0 = time.perf_counter()
    src = RegularSource(2)
    run = factorials_weighting(src, 2**14)
    report = equidistribution_check(run, unit_current_flow(src, 3))
    # the harmonic flow through a depth-k edge of the binary tree is 2**-k,
    # so max_deviation is exactly the quantity the bound is about
    assert len(report.rows) == 2 + 4 + 8
    for address, _, flow in report.rows:
        assert flow == Fraction(1, 2 ** len(address))
    assert report.max_deviation < Fraction(1, 50)
    assert time.perf_counter() - t0 < 30


def test_criterion_08_branching_brackets():
    t0 = time.perf_counter()
    binary = branching_number_estimate(RegularSource(2), Fraction(1), Fraction(4))
    assert binary.status == "bracketed"
    assert binary.low <= 2 <= binary.high
    assert binary.high - binary.low <= Fraction(1, 20)
    ternary = branching_number_estimate(RegularSource(3), Fraction(1), Fraction(3))
    assert ternary.status == "bracketed"
    assert ternary.low <= 3 <= ternary.high
    assert ternary.high - ternary.low <= Fraction(1, 20)
    assert time.perf_counter() - t0 < 60


def test_criterion_09_realizability_roundtrip():
    t0 = time.perf_counter()
    for d in (2, 3):
        for depth in (1, 2, 3, 4):
            seq = staircase(d, depth)
            report = verify_roundtrip(seq)
            assert report.coherent
            assert report.first_visits == seq.groups
            if d == 2:
                assert report.full_prefix_match
            # integer inputs realize to integer edge lengths
            assert all(x.denominator == 1 for x in report.tree.lengths[1:])
    plain = verify_roundtrip(TWINS)
    swapped = verify_roundtrip(TWINS, OrderChoice({2: (0, 2, 1, 3)}))
    key_a = helpers.canonical_form(helpers.canonical_skeleton(plain.tree))
    key_b = helpers.canonical_form(helpers.canonical_skeleton(swapped.tree))
    assert key_a != key_b
    assert time.perf_counter() - t0 < 30


def test_criterion_10_removed_variant():
    src = RegularSource(2)
    base = factorials_weighting(src, 2048).sequence.values
    for t in (1, 2):
        removed = factorials_removed(src, t, 2048).sequence.values
        assert len(removed) == 2049
        assert all(r <= b for r, b in zip(removed, base))
        assert abs(removed[2048] - base[2048]) / 2048 < Fraction(1, 20)


def test_criterion_11_random_walk_escape():
    t0 = time.perf_counter()
    trials = 10**5

    path_exact = exact_escape_probability(RegularSource(1), 10)
    assert path_exact == Fraction(1, 10)
    path_mc = random_walk_escape(RegularSource(1), 10, trials, 11)
    sigma = math.sqrt(float(path_exact) * (1 - float(path_exact)) / trials)
    assert abs(path_mc.fraction - float(path_exact)) <= 3 * sigma

    binary_exact = exact_escape_probability(RegularSource(2), 10)
    binary_mc = random_walk_escape(RegularSource(2), 10, trials, 7)
    p = float(binary_exact)
    assert abs(binary_mc.fraction - p) <= 3 * math.sqrt(p * (1 - p) / trials)

    assert path_mc.timeouts == 0 and binary_mc.timeouts == 0
    assert time.perf_counter() - t0 < 60
