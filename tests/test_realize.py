"""Inverting biased sequences into length functions on the regular tree."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from helpers import canonical_form, canonical_skeleton
from treefactorials import realize
from treefactorials import (
    BiasedSequence,
    Mismatch,
    NotBiased,
    OrderChoice,
    StructureError,
    is_sufficiently_biased,
    realize_lengths,
    verify_roundtrip,
)

F = Fraction


def staircase(d: int, depth: int) -> BiasedSequence:
    """Biased sequence whose within-generation step beats every ancestor-path
    shift: step > sum of previous generations' last values, base large enough
    that no second visit interleaves with the first sweep."""
    groups = [(0,) * d]
    running = 0
    for n in range(1, depth + 1):
        running += groups[-1][-1]
        step = running + 1
        base = 4 * d**n * (running + d**n * step) + d**n
        groups.append(tuple(base + j * step for j in range(d**n)))
    return BiasedSequence(d, tuple(groups))


TWINS = BiasedSequence(2, ((0, 0), (100, 130), (3000, 3400, 3900, 4500)))


class TestBiasedSequence:
    def test_group_shapes_enforced(self):
        with pytest.raises(StructureError):
            BiasedSequence(2, ((0, 0), (10,)))  # generation 1 needs d terms
        with pytest.raises(StructureError):
            BiasedSequence(2, ((0,), (10, 12)))
        with pytest.raises(StructureError):
            BiasedSequence(1, ((0,),))

    def test_groups_must_be_sorted(self):
        with pytest.raises(StructureError):
            BiasedSequence(2, ((0, 0), (12, 10)))

    def test_zero_terms_past_generation_zero_rejected(self):
        with pytest.raises(StructureError):
            BiasedSequence(2, ((0, 0), (0, 0)))


class TestBiasCheck:
    def test_fast_growth_is_biased(self):
        seq = BiasedSequence(2, ((0, 0), (100, 100), (100000, 100001, 100002, 100003)))
        assert is_sufficiently_biased(seq) == (True, None)

    def test_zero_sum_needs_only_positivity(self):
        assert is_sufficiently_biased(BiasedSequence(2, ((0, 0), (1, 1)))) == (True, None)

    def test_constant_positive_fails_at_next_generation(self):
        seq = BiasedSequence(2, ((0, 0), (5, 5), (5, 5, 5, 5)))
        assert is_sufficiently_biased(seq) == (False, 2)

    def test_threshold_uses_generation_largest_term(self):
        # d=3: the running sum takes each generation's last entry (index d^i),
        # so a huge last entry in generation 1 defeats a head of 10000
        seq = BiasedSequence(3, ((0, 0, 0), (10, 11, 1000),
                                 tuple(range(10000, 10009))))
        assert is_sufficiently_biased(seq) == (False, 2)

    def test_staircases_are_biased(self):
        for d in (2, 3):
            assert is_sufficiently_biased(staircase(d, 3)) == (True, None)


class TestRealizeLengths:
    def test_generation_one_copies_values(self):
        t = realize_lengths(BiasedSequence(2, ((0, 0), (10, 12))))
        assert t.lengths[1:] == (10, 12)
        assert all(c == float("inf") for c in t.capacities[1:])

    def test_first_processed_grandchild_formula(self):
        t = realize_lengths(TWINS)
        # head slot sits below the first generation-1 vertex; no earlier
        # generation-2 vertex exists, so l = a - d * l(parent edge)
        assert t.lengths[3] == 3000 - 2 * 100

    def test_integer_inputs_give_integer_lengths(self):
        for d in (2, 3):
            t = realize_lengths(staircase(d, 3))
            assert all(x.denominator == 1 for x in t.lengths[1:])

    def test_length_bounds(self):
        seq = staircase(2, 3)
        t = realize_lengths(seq)
        flat_targets = {}
        gen_start = {1: 1, 2: 3, 3: 7}
        for gen in (1, 2, 3):
            group = seq.groups[gen]
            for k, v in enumerate(range(gen_start[gen], gen_start[gen] + len(group))):
                flat_targets[v] = (group[0], group[k])
        for v, (head, target) in flat_targets.items():
            assert F(head, 2) <= t.lengths[v] <= target

    def test_not_biased_rejected(self):
        seq = BiasedSequence(2, ((0, 0), (10, 12), (30, 31, 32, 33)))
        with pytest.raises(NotBiased):
            realize_lengths(seq)

    def test_order_choice_must_be_a_permutation(self):
        with pytest.raises(StructureError):
            verify_roundtrip(TWINS, OrderChoice({2: (0, 0, 1, 3)}))


def rational_sequence(rng, d, depth, denominators) -> BiasedSequence:
    """A staircase-like biased sequence whose targets carry random fractional
    parts over the given denominators."""
    groups = [(0,) * d]
    running = 0
    for n in range(1, depth + 1):
        running += groups[-1][-1]
        step = math.ceil(running) + 1
        value = 4 * d**n * (step + 2 * d**n * step) + d**n
        group = []
        for _ in range(d**n):
            value += step + rng.randrange(step)
            q = rng.choice(denominators)
            group.append(value + F(rng.randrange(q), q))
        groups.append(tuple(group))
    return BiasedSequence(d, tuple(groups))


class TestScaledLengths:
    """realize_lengths sums scaled integers; the Fraction loop is the
    reference for every length and for the NotBiased message."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rational_rows_match_fraction_reference(self, seed):
        rng = random.Random(seed)
        d = rng.choice((2, 3))
        seq = rational_sequence(rng, d, rng.randint(1, 5 if d == 2 else 3), (2, 3, 7, 10, 11, 97))
        assert any(x.denominator > 1 for x in seq.flattened())
        perm = list(range(d**seq.depth))
        rng.shuffle(perm)
        for orders in (OrderChoice(), OrderChoice({seq.depth: tuple(perm)})):
            got = realize_lengths(seq, orders).lengths
            assert got == oracles.realize_lengths_by_fractions(seq, orders)
            assert all(type(x) is F for x in got[1:])

    def test_not_biased_message_is_unchanged(self):
        seq = BiasedSequence(2, ((0, 0), (10, 12), (30, 31, 32, 33)))
        with pytest.raises(NotBiased) as exc:
            realize_lengths(seq)
        assert str(exc.value) == "generation 2 first value fails the bias inequality"

    def test_window_message_matches_reference(self, monkeypatch):
        # The bias inequality keeps every length inside its window, so the
        # window check is reached only with the inequality switched off.
        monkeypatch.setattr(realize, "is_sufficiently_biased", lambda seq: (True, None))
        seq = BiasedSequence(2, ((0, 0), (F(10, 3), F(25, 6)), (F(31, 2), 16, 17, F(35, 2))))
        with pytest.raises(NotBiased) as want:
            oracles.realize_lengths_by_fractions(seq, OrderChoice())
        with pytest.raises(NotBiased) as got:
            realize_lengths(seq)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "generation 2, position 2: edge length 6 falls outside [31/4, 16]"


class TestHugeTargets:
    """Targets past the interpreter's 4,300-digit cap on int-string
    conversion end in the domain error, printed in full."""

    B = 10**4400
    ZEROS = "0" * 4400

    def test_window_message(self, monkeypatch):
        # test_window_message_matches_reference's table times B.
        monkeypatch.setattr(realize, "is_sufficiently_biased", lambda seq: (True, None))
        B = self.B
        seq = BiasedSequence(2, ((0, 0), (F(10, 3) * B, F(25, 6) * B), (F(31, 2) * B, 16 * B, 17 * B, F(35, 2) * B)))
        with pytest.raises(NotBiased) as exc:
            realize_lengths(seq)
        z = self.ZEROS
        assert str(exc.value) == f"generation 2, position 2: edge length 6{z} falls outside [775{z[2:]}, 16{z}]"

    def test_mismatch_message(self):
        B = self.B
        seq = BiasedSequence(2, ((0, 0), (B, B + 1), (100 * B, 100 * B, 100 * B, 1000 * B)))
        with pytest.raises(Mismatch) as exc:
            verify_roundtrip(seq)
        z = self.ZEROS
        assert exc.value.index == 4
        assert str(exc.value) == f"generation 2, position 1: first visit at 101{z}, wanted 100{z}"


class TestRoundtrip:
    def test_depth_one(self):
        rep = verify_roundtrip(BiasedSequence(2, ((0, 0), (10, 12))))
        assert rep.full_prefix_match and rep.coherent

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_binary_staircase_full_prefix(self, depth):
        rep = verify_roundtrip(staircase(2, depth))
        assert rep.full_prefix_match
        assert rep.coherent

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_ternary_staircase_first_visits(self, depth):
        rep = verify_roundtrip(staircase(3, depth))
        assert rep.coherent
        # d=2 is special: beyond it the emitted sequence interleaves repeat
        # visits, so only the first-visit schedule is pinned
        if depth == 1:
            assert rep.full_prefix_match

    def test_fractional_targets(self):
        groups = ((0, 0), (F(201, 2), F(267, 2)), (3000, 3400, 3900, 4500))
        rep = verify_roundtrip(BiasedSequence(2, groups))
        assert rep.coherent

    def test_tight_spacing_detected_as_mismatch(self):
        # Passes the bias inequality, but the within-generation spacing is
        # smaller than the ancestor-path shifts, so later slots get shorter
        # edges and are visited first. The check must refuse, not paper over.
        seq = BiasedSequence(2, ((0, 0), (100, 103), (1024, 1027, 1030, 1033)))
        assert is_sufficiently_biased(seq) == (True, None)
        with pytest.raises(Mismatch):
            verify_roundtrip(seq)


class TestTwins:
    def test_two_orders_roundtrip_to_different_trees(self):
        a = verify_roundtrip(TWINS)
        b = verify_roundtrip(TWINS, OrderChoice({2: (0, 2, 1, 3)}))
        assert a.full_prefix_match and b.full_prefix_match
        ka = canonical_form(canonical_skeleton(a.tree))
        kb = canonical_form(canonical_skeleton(b.tree))
        assert ka != kb

    def test_same_order_is_deterministic(self):
        assert realize_lengths(TWINS) == realize_lengths(TWINS)
