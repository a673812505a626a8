"""Residue trees of integer sets and multiplicative factorials."""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from treefactorials import (
    AdelicSetSource,
    IndexOutOfRange,
    StructureError,
    bhargava_factorials,
    expand,
    factorials_prime,
    factorials_weighting,
    greedy_bhargava_oracle,
    legendre,
    limit_estimate,
    parse_generator_spec,
    superadditivity_gap,
)
from treefactorials import adelic
from treefactorials.adelic import _coprime_base, _difference_base, _exponents
from treefactorials.sources import _is_prime, _val

F = Fraction

small_sets = st.lists(st.integers(-100, 100), min_size=1, max_size=8, unique=True).map(tuple)


class TestLegendre:
    def test_values(self):
        assert legendre(8, 2) == 7
        assert legendre(0, 7) == 0
        assert legendre(10, 5) == 2

    @given(st.integers(0, 400), st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_factored_factorial(self, n, p):
        assert legendre(n, p) == oracles.factorial_valuation(n, p)

    def test_rejects_negative(self):
        with pytest.raises(StructureError):
            legendre(-1, 2)

    @pytest.mark.parametrize("p", [0, -2, 1, -1, 2.0, Fraction(3)])
    def test_bad_prime_is_structure_error(self, p):
        # The deadline: a loop multiplying by p = 1 would never end.
        with helpers.deadline(2):
            with pytest.raises(StructureError, match=re.escape(f"modulus must be an integer >= 2, got {p!r}")):
                legendre(10, p)

    def test_huge_bad_modulus_is_named_in_full(self):
        # Past the interpreter's int-string digit cap, as a CLI value can be.
        p = -(10**5000)
        want = "modulus must be an integer >= 2, got -1" + "0" * 5000
        for call in (lambda: legendre(5, p), lambda: AdelicSetSource((0, 1), p)):
            with pytest.raises(StructureError) as exc:
                call()
            assert str(exc.value) == want


class TestAdelicTree:
    """The residue tree is the expansion of AdelicSetSource."""

    def test_full_residues_mod4(self):
        t = expand(AdelicSetSource((0, 1, 2, 3), 2), 2)
        assert len(t) == 7
        assert t.depths == (0, 1, 1, 2, 2, 2, 2)
        assert all(t.capacities[v] == 1 for v in t.leaves)

    def test_singleton(self):
        t = expand(AdelicSetSource((0,), 5), 1)
        assert t.parents == (-1, 0)
        assert t.capacities[1] == 1

    def test_early_separation_caps_at_one(self):
        # 0 and 4 split mod 8, so both classes end as leaves at depth 3
        # even when more depth was requested
        t = expand(AdelicSetSource((0, 4), 2), 5)
        assert all(t.capacities[v] == 1 for v in t.leaves)
        assert sorted(t.depths[v] for v in t.leaves) == [3, 3]

    def test_unit_lengths(self):
        t = expand(AdelicSetSource((0, 1, 5), 2), 3)
        assert all(t.lengths[v] == 1 for v in range(1, len(t)))


class TestPrimality:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine
        # prime bases respectively
        with helpers.deadline(2):
            for n in (3215031751, 3825123056546413051):
                assert not _is_prime(n)
                with pytest.raises(StructureError, match="not prime"):
                    parse_generator_spec(f"adelic p={n} set=0,1")

    def test_large_primes(self):
        with helpers.deadline(2):
            assert _is_prime(2**61 - 1)
            assert _is_prime(2**31 - 1)
            assert not _is_prime(2**61 + 1)

    def test_unproven_prime_is_structure_error(self):
        # 2**89 - 1 is prime but above the proven bound of the test
        with helpers.deadline(2):
            with pytest.raises(StructureError, match="cannot prove"):
                _is_prime(2**89 - 1)
            # compositeness is proven at any size
            assert not _is_prime(2**89 + 1)


class TestCoprimeBase:
    # products of a few primes and prime powers, so that gcd splits happen
    numbers = st.lists(
        st.one_of(
            st.lists(st.sampled_from([-1, 2, 3, 4, 5, 9, 49, 11, 2**61 - 1]), max_size=5).map(math.prod),
            st.integers(-(10**12), 10**12),
        ).filter(bool),
        min_size=1,
        max_size=12,
    )

    @given(numbers)
    def test_pairwise_coprime_and_spanning(self, numbers):
        base = _coprime_base(numbers)
        assert all(q > 1 for q in base)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        assert all(any(x % q == 0 for x in numbers) for q in base)
        for x in numbers:
            x = abs(x)
            for q in base:
                while x % q == 0:
                    x //= q
            assert x == 1

    def test_splits_shared_factors(self):
        assert _coprime_base([12, 18]) == [2, 3]
        assert _coprime_base([6, 10, 15, -1]) == [2, 3, 5]
        assert _coprime_base([4, 8]) == [2]
        assert _coprime_base([1, -1]) == []


class TestSeparatingDepth:
    def test_powers_of_p(self):
        assert oracles.separating_depth((0, 8), 2) == 4
        assert oracles.separating_depth((0, 1), 2) == 1
        assert oracles.separating_depth((5,), 2) == 1

    @given(small_sets, st.sampled_from([2, 3, 5]))
    def test_separates(self, s, p):
        h = oracles.separating_depth(s, p)
        assert len({x % p**h for x in s}) == len(s)


class TestFactorialsPrime:
    def test_initial_segment_is_legendre(self):
        vals = factorials_prime(tuple(range(8)), 2, 7).values
        assert [int(v) for v in vals] == [legendre(n, 2) for n in range(8)]

    def test_collision_example(self):
        assert int(factorials_prime((0, 1, 2, 3), 3, 3).values[3]) == 1

    def test_distinct_mod_p_all_zero(self):
        assert factorials_prime((0, 1, 2), 5, 2).values == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            factorials_prime((0, 1, 2), 2, 3)

    def test_index_past_the_digit_cap(self):
        with pytest.raises(IndexOutOfRange) as exc:
            factorials_prime((0, 1), 2, 10**5000)
        assert str(exc.value) == "set has 2 boundary elements, requested index 1" + "0" * 5000

    def test_translation_and_unit_scaling_invariance(self):
        base = factorials_prime((0, 3, 7, 12), 2, 3).values
        assert factorials_prime((5, 8, 12, 17), 2, 3).values == base  # S + 5
        assert factorials_prime((0, 9, 21, 36), 2, 3).values == base  # 3S, 3 odd

    def test_superadditive(self):
        vals = factorials_prime(tuple(range(12)), 3, 11).values
        assert superadditivity_gap(vals) is None


def weighting_reference(elements, q, n_max):
    """e_q by the engine route: a weighting run on the lazy residue tree."""
    source = AdelicSetSource(tuple(sorted(elements)), q)
    return factorials_weighting(source, n_max).sequence.values


class TestResidueMerge:
    """factorials_prime is the min-max on the residue tree; the weighting run
    on AdelicSetSource is the reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_weighting_run(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            k = rng.randint(1, 14)
            kind = rng.randrange(4)
            if kind == 0:
                s = rng.sample(range(-300, 300), k)
            elif kind == 1:
                s = list({rng.randrange(10**39, 10**40) for _ in range(k)})
            elif kind == 2:
                # every difference divisible by c: the root is a unary chain
                c, r = rng.choice([2**12, 3**9, 6**6, 10**5]), rng.randrange(10**6)
                s = [r + c * x for x in rng.sample(range(-60, 60), k)]
            else:
                s = rng.sample(range(10**6), k)
            q = rng.choice([2, 3, 4, 6, 9, 10, 12, 35, 97, 1000003])
            n = rng.randrange(len(s))
            assert factorials_prime(s, q, n).values == weighting_reference(s, q, n), (s, q, n)

    def test_full_length_on_composite_moduli(self):
        rng = random.Random(77)
        for q in (4, 6, 12, 2**5 * 3, 10**3):
            s = rng.sample(range(-10**5, 10**5), 25)
            assert factorials_prime(s, q, 24).values == weighting_reference(s, q, 24)

    def test_modulus_dividing_every_difference(self):
        # S = 7 + 5**12 * T: the root is a chain of 12 whole levels above
        # the residue tree of T.
        t = (0, 1, 3, 4, 9, 12, 20)
        s = tuple(7 + 5**12 * x for x in t)
        want = tuple(v + 12 * n for n, v in enumerate(factorials_prime(t, 5, 6).values))
        assert factorials_prime(s, 5, 6).values == want == weighting_reference(s, 5, 6)

    def test_long_chain(self):
        with helpers.deadline(2):
            assert factorials_prime((0, 2**3000), 2, 1).values == (0, 3000)

    def test_chain_costs_one_gcd(self):
        # 20,000 whole levels above one split: walked a level at a time they
        # took 3.5 s, as one gcd 0.11 s.
        with helpers.deadline(1):
            assert factorials_prime((0, 2**20000), 2, 1).values == (0, 20000)

    def test_one_split_per_level(self):
        s = (0,) + tuple(2**k for k in range(300))
        with helpers.deadline(5):
            got = factorials_prime(s, 2, len(s) - 1).values
        assert got == weighting_reference(s, 2, len(s) - 1)

    def test_terms_are_ints(self):
        seq = factorials_prime(range(9), 2, 8)
        assert all(type(v) is int for v in seq.values)
        # The limit estimate stays exact on int terms.
        lim = limit_estimate(seq)
        assert (lim.value, lim.lower_bound) == (F(7, 8), F(7, 8))
        assert type(lim.value) is F

    def test_bad_modulus(self):
        for p in (1, 0, -3, 2.0):
            with pytest.raises(StructureError, match="modulus must be an integer >= 2"):
                factorials_prime((0, 1, 2), p, 1)


class TestElementCheck:
    """Set elements must be ints; the error names the first one that is not."""

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, 2.0, "3", None])
    def test_every_entry_point_rejects(self, bad):
        text = re.escape(f"set elements must be integers, got {bad!r}")
        for call in (
            lambda: factorials_prime((0, bad), 2, 1),
            lambda: bhargava_factorials((0, bad), 1),
            lambda: greedy_bhargava_oracle((0, bad), 1),
            lambda: AdelicSetSource((0, bad), 2),
        ):
            with pytest.raises(StructureError, match=text):
                call()

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "need a nonempty set of integers"),
            ((3, 1, 3), "set elements must be distinct"),
            ((0, 1.0), "set elements must be integers, got 1.0"),
        ],
        ids=["empty", "duplicate", "non-integer"],
    )
    def test_one_rule_one_message(self, elements, message):
        for call in (
            lambda: factorials_prime(elements, 2, 0),
            lambda: bhargava_factorials(elements, 0),
            lambda: greedy_bhargava_oracle(elements, 0),
            lambda: AdelicSetSource(elements, 2),
        ):
            with pytest.raises(StructureError) as exc:
                call()
            assert str(exc.value) == message

    def test_source_keeps_the_sorted_set(self):
        assert AdelicSetSource([9, -4, 0], 3).elements == (-4, 0, 9)
        assert AdelicSetSource((9, -4, 0), 3) == AdelicSetSource((0, 9, -4), 3)

    def test_no_modulus_error_for_a_bad_element(self):
        with pytest.raises(StructureError) as exc:
            bhargava_factorials((0, 1.5), 1)
        assert "modulus" not in str(exc.value) and "1.5" in str(exc.value)


class TestCoprimeBaseByProduct:
    @settings(max_examples=80, deadline=None)
    @given(TestCoprimeBase.numbers)
    def test_same_base_as_the_plain_scan(self, numbers):
        assert _coprime_base(numbers) == oracles.coprime_base_by_scan(numbers)

    def test_difference_bases_of_wide_sets(self):
        # The primes below 200 that divide a difference come out first, then
        # the plain scan runs on what is left.
        rng = random.Random(11)
        for digits in (3, 12, 18, 40):
            for _ in range(5):
                s = list({rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(16)})
                diffs = [b - a for a, b in itertools.combinations(sorted(s), 2)]
                small, rest = split_small_primes(diffs)
                want = sorted(small + oracles.coprime_base_by_scan(rest))
                assert _difference_base(tuple(sorted(s))) == want


SMALL_PRIMES = [p for p in range(200) if _is_prime(p)]


def split_small_primes(numbers):
    """The primes below 200 dividing some number, and the numbers with those
    primes divided out."""
    small, rest = set(), []
    for x in numbers:
        for p in SMALL_PRIMES:
            while x % p == 0:
                small.add(p)
                x //= p
        rest.append(x)
    return sorted(small), rest


def class_split(elems, q):
    """(|S| - |T|, T): T the elements whose class mod q has another."""
    t = [s for s in elems if sum((s - x) % q == 0 for x in elems) > 1]
    return len(elems) - len(t), tuple(t)


@st.composite
def clustered_sets(draw):
    """Sets whose differences share primes: clusters r + p*k over a prime
    p > 200 (pairs and triples), a few loose elements, and scalings by
    products of small primes.  Differences stay below ~10**8, where
    oracles.bhargava_by_primes factors by trial division."""
    elems = set(draw(st.lists(st.integers(-(10**4), 10**4), max_size=4)))
    primes = []
    for _ in range(draw(st.integers(1, 3))):
        primes.append(p := draw(st.sampled_from([211, 1009, 10007, 65537])))
        r = draw(st.integers(-(10**4), 10**4))
        elems.update(r + p * k for k in draw(st.lists(st.integers(-20, 20), min_size=2, max_size=3, unique=True)))
    # The classes mod each cluster prime stay the same under the scaling.
    c = draw(st.sampled_from([1, 1, 2, 6, 12, 30, 2**5 * 3**2]))
    return tuple(sorted(c * x for x in elems)), max(primes)


class TestClassRule:
    """e_q(S) = (0,) * (|S| - |T|) + e_q(T), T the union of the classes mod q
    with two or more elements; a pair {a, b} gives (0, val_q(b - a))."""

    @settings(max_examples=60, deadline=None)
    @given(clustered_sets(), st.data())
    def test_matches_both_oracles(self, drawn, data):
        s, q = drawn
        # Indices below, at and above |S| - |T| of the largest cluster.
        lead = class_split(s, q)[0]
        n_max = data.draw(st.sampled_from(sorted({max(lead - 1, 0), lead, min(lead + 1, len(s) - 1)})))
        got = bhargava_factorials(s, n_max)
        assert got == greedy_bhargava_oracle(s, n_max) == oracles.bhargava_by_primes(s, n_max)

    @pytest.mark.parametrize("seed", range(4))
    def test_leading_zeros_and_the_rest(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            q = rng.choice([2, 3, 4, 6, 9, 10, 12, 35, 97, 211])
            s = tuple(sorted(rng.sample(range(-3 * q, 3 * q), rng.randint(1, min(12, 6 * q)))))
            lead, t = class_split(s, q)
            full = factorials_prime(s, q, len(s) - 1).values
            assert _exponents(s, q, len(s) - 1) == full
            assert full[:lead] == (0,) * lead
            if t:
                assert full[lead:] == factorials_prime(t, q, len(t) - 1).values
            for n in range(len(s)):
                assert _exponents(s, q, n) == full[: n + 1] == factorials_prime(s, q, n).values

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**30),
        st.integers(0, 60),
        st.sampled_from([2, 3, 6, 10, 211, 10**9 + 7]),
    )
    def test_pair_form(self, a, m, k, q):
        b = a + m * q**k
        want = (0, _val(q, b - a))
        assert factorials_prime((a, b), q, 1).values == want == _exponents((a, b), q, 1)

    def test_only_larger_classes_run_the_min_max(self, monkeypatch):
        rng = random.Random(2026)
        s = tuple(sorted(rng.sample(range(10**11, 10**12), 20)))
        base = _difference_base(s)
        calls = helpers.count_calls(monkeypatch, adelic, "factorials_prime")
        bhargava_factorials(s, 19)
        wide = [q for q in base if len(class_split(s, q)[1]) >= 3]
        assert [q for _, q, _ in calls] == wide
        assert all(len(t) >= 3 for t, _, _ in calls)
        assert 0 < len(wide) < len(base) // 2


class TestCoprimeBaseByChunks:
    def test_bases_over_many_chunks(self):
        # Bases of up to a few hundred elements, so removals and splits hit
        # every position in a chunk, the last chunk and chunks that empty.
        rng = random.Random(16)
        for _ in range(300):
            numbers = []
            for _ in range(rng.randrange(1, 80)):
                if rng.random() < 0.5:
                    numbers.append(rng.randrange(1, 10 ** rng.randrange(1, 20)))
                else:
                    numbers.append(rng.randrange(1, 60) * rng.choice((6, 10, 15, 2**40, 3**20, 2**61 - 1)))
            numbers = [x * rng.choice((1, -1)) for x in numbers]
            assert _coprime_base(numbers) == oracles.coprime_base_by_scan(numbers)


class TestBhargava:
    def test_initial_segment_gives_plain_factorials(self):
        got = bhargava_factorials(tuple(range(13)), 12)
        assert got == [math.factorial(n) for n in range(13)]

    def test_odds(self):
        assert bhargava_factorials((1, 3, 5), 2) == [1, 2, 8]

    def test_evens_double_per_step(self):
        # 2S multiplies the n-th factorial by 2^n
        assert bhargava_factorials((0, 2, 4, 6, 8), 2)[2] == 8
        base = bhargava_factorials((0, 1, 2, 3, 4), 4)
        doubled = bhargava_factorials((0, 2, 4, 6, 8), 4)
        assert doubled == [b * 2**n for n, b in enumerate(base)]

    def test_singleton(self):
        assert bhargava_factorials((7,), 0) == [1]
        assert greedy_bhargava_oracle((7,), 0) == [1]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            bhargava_factorials((0, 1), 2)

    @settings(max_examples=60, deadline=None)
    @given(small_sets)
    def test_matches_greedy_oracle(self, s):
        n_max = len(s) - 1
        assert bhargava_factorials(s, n_max) == greedy_bhargava_oracle(s, n_max)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True).map(tuple))
    def test_matches_subset_gcd_characterization(self, s):
        n_max = len(s) - 1
        assert bhargava_factorials(s, n_max) == oracles.vandermonde_factorials(s, n_max)

    def test_scaling_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            s = tuple(rng.sample(range(-40, 40), 5))
            base = bhargava_factorials(s, 4)
            for c in (2, 3, 6):
                scaled = bhargava_factorials(tuple(c * x for x in s), 4)
                assert scaled == [b * c**n for n, b in enumerate(base)]

    def test_rejects_duplicates(self):
        with pytest.raises(StructureError):
            bhargava_factorials((1, 1, 2), 1)

    @pytest.mark.parametrize("fn", [bhargava_factorials, greedy_bhargava_oracle])
    def test_rejects_negative_n(self, fn):
        # (0, 1) has no difference above 1, so no per-modulus run checks n.
        with pytest.raises(StructureError):
            fn((0, 1), -1)

    def test_matches_per_prime_reference(self):
        rng = random.Random(20261018)
        for _ in range(16):
            k = rng.randint(2, 8)
            if rng.random() < 0.5:
                s = tuple(rng.sample(range(10**8), k))
            else:
                # a common factor with prime powers: composite base elements
                c = rng.choice([12, 360, 9991, 2**10 * 3**4])
                s = tuple(c * x for x in rng.sample(range(-40, 40), k))
            assert bhargava_factorials(s, k - 1) == oracles.bhargava_by_primes(s, k - 1)

    def test_huge_prime_differences(self):
        p89 = 2**89 - 1  # prime, past the range where primality is proven
        q = 10000000000000000000123456813  # a 29-digit prime
        wide = (1, 0, 6 * q, 10 * q, 15 * q)
        with helpers.deadline(2):
            assert bhargava_factorials((0, p89, 2 * p89), 2) == [1, p89, 2 * p89**2]
            assert greedy_bhargava_oracle((0, p89, 2 * p89), 2) == [1, p89, 2 * p89**2]
            got = bhargava_factorials(wide, 4)
        assert got == oracles.vandermonde_factorials(wide, 4)

    def test_difference_past_the_digit_cap(self):
        # A 5,001-digit difference is its own base element.
        q = 10**5000 + 7
        assert bhargava_factorials((0, q), 1) == [1, q]

    def test_needs_no_sympy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)
        s = (0, 4, 6, 9, 18, 35)
        want = oracles.vandermonde_factorials(s, 5)
        assert bhargava_factorials(s, 5) == greedy_bhargava_oracle(s, 5) == want
