import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim.errors import DimensionError, ParameterError
from totsim.patterns import (
    BipolarPattern,
    SlotMap,
    flip_by_rate,
    overlap,
    random_pattern,
    slot_match,
)

from helpers import hamming

units = st.sampled_from((1, -1))
patterns = st.lists(units, min_size=1, max_size=32).map(BipolarPattern)


def paired_patterns(max_size=32):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(units, min_size=n, max_size=n).map(BipolarPattern),
            st.lists(units, min_size=n, max_size=n).map(BipolarPattern),
        )
    )


class TestBipolarPattern:
    def test_rejects_invalid_units(self):
        with pytest.raises(ParameterError):
            BipolarPattern([1, 0, -1])
        with pytest.raises(ParameterError):
            BipolarPattern([2, 1])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            BipolarPattern([])

    def test_units_are_read_only(self):
        p = BipolarPattern([1, -1, 1])
        with pytest.raises(ValueError):
            p.units[0] = -1

    def test_equality_and_negate(self):
        p = BipolarPattern([1, -1, 1])
        assert p == BipolarPattern([1, -1, 1])
        assert p != BipolarPattern([1, -1, -1])
        assert p.negate() == BipolarPattern([-1, 1, -1])
        assert p.negate().negate() == p

    def test_with_flipped(self):
        p = BipolarPattern([1, 1, 1, 1])
        assert p.with_flipped([0, 2]) == BipolarPattern([-1, 1, -1, 1])
        assert p.with_flipped([]) == p
        with pytest.raises(DimensionError):
            p.with_flipped([4])

    def test_text_round_trip(self):
        p = BipolarPattern([1, 1, -1, 1, -1])
        assert p.to_text() == "++-+-"
        assert BipolarPattern.from_text("++-+-") == p

    @given(patterns)
    def test_text_round_trip_property(self, p):
        assert BipolarPattern.from_text(p.to_text()) == p

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ParameterError):
            BipolarPattern.from_text("++*")
        with pytest.raises(ParameterError):
            BipolarPattern.from_text("")


class TestRandomPattern:
    def test_deterministic_given_stream_state(self):
        a = random_pattern(4, default_rng(SeedSequence(9)))
        b = random_pattern(4, default_rng(SeedSequence(9)))
        assert a == b

    def test_length_one(self):
        p = random_pattern(1, default_rng(0))
        assert len(p) == 1 and p[0] in (1, -1)

    def test_zero_length_rejected(self):
        with pytest.raises(ParameterError):
            random_pattern(0, default_rng(0))

    def test_per_position_mean_is_centered(self):
        # Monte Carlo check against Bernoulli(1/2): 100000 draws at n=16.
        rng = default_rng(SeedSequence(20260810))
        totals = np.zeros(16, dtype=np.int64)
        draws = 100000
        for _ in range(draws):
            totals += random_pattern(16, rng).units
        means = totals / draws
        assert np.all(np.abs(means) <= 0.02)


class TestOverlap:
    def test_self_overlap(self):
        p = random_pattern(9, default_rng(1))
        assert overlap(p, p) == 9

    def test_negation(self):
        p = random_pattern(9, default_rng(2))
        assert overlap(p, p.negate()) == -9

    def test_two_of_nine_differ(self):
        p = random_pattern(9, default_rng(3))
        assert overlap(p, p.with_flipped([4, 7])) == 5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            overlap(BipolarPattern([1, 1]), BipolarPattern([1, 1, 1]))

    @given(paired_patterns())
    def test_symmetry(self, pair):
        a, b = pair
        assert overlap(a, b) == overlap(b, a)

    @given(paired_patterns())
    def test_parity_matches_length(self, pair):
        a, b = pair
        assert overlap(a, b) % 2 == len(a) % 2

    @given(paired_patterns())
    def test_negation_antisymmetry(self, pair):
        a, b = pair
        assert overlap(a, b.negate()) == -overlap(a, b)

    @given(paired_patterns())
    def test_hamming_relation(self, pair):
        a, b = pair
        assert overlap(a, b) == len(a) - 2 * hamming(a, b)


class TestFlipByRate:
    def test_rate_zero_identity(self):
        p = random_pattern(12, default_rng(4))
        assert flip_by_rate(p, 0.0, default_rng(5)) == p

    def test_rate_one_negates(self):
        p = random_pattern(12, default_rng(6))
        assert flip_by_rate(p, 1.0, default_rng(7)) == p.negate()

    def test_invalid_rate(self):
        p = random_pattern(3, default_rng(8))
        with pytest.raises(ParameterError):
            flip_by_rate(p, 1.5, default_rng(9))


class TestSlotMap:
    def test_valid_map(self):
        m = SlotMap(10, {"first_letter": [0, 1, 2], "gender": [8, 9]})
        assert m.names() == ("first_letter", "gender")
        assert m.slots["first_letter"] == (0, 1, 2)

    def test_overlapping_slots_rejected(self):
        with pytest.raises(ParameterError):
            SlotMap(10, {"a": [0, 1], "b": [1, 2]})

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            SlotMap(4, {"a": [3, 4]})

    def test_empty_slot_rejected(self):
        with pytest.raises(ParameterError):
            SlotMap(4, {"a": []})


class TestSlotMatch:
    def setup_method(self):
        self.slots = SlotMap(9, {"first_letter": [0, 1, 2], "ending": [7, 8]})
        self.ref = BipolarPattern.from_text("++-+--++-")

    def test_identical_all_true(self):
        assert slot_match(self.ref, self.ref, self.slots) == {
            "first_letter": True,
            "ending": True,
        }

    def test_mismatch_outside_slots_ignored(self):
        out = self.ref.with_flipped([4, 5])
        assert all(slot_match(out, self.ref, self.slots).values())

    def test_single_flip_inside_slot(self):
        out = self.ref.with_flipped([1])
        got = slot_match(out, self.ref, self.slots)
        assert got == {"first_letter": False, "ending": True}

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            slot_match(BipolarPattern([1, 1]), BipolarPattern([1, 1]), self.slots)

    @given(st.data())
    def test_agreement_monotone(self, data):
        # Agreeing on a superset of indices never flips a slot true -> false.
        n = 9
        ref = self.ref
        agree_small = data.draw(st.sets(st.integers(0, n - 1)))
        extra = data.draw(st.sets(st.integers(0, n - 1)))
        agree_big = agree_small | extra
        out_small = ref.with_flipped(set(range(n)) - agree_small)
        out_big = ref.with_flipped(set(range(n)) - agree_big)
        small = slot_match(out_small, ref, self.slots)
        big = slot_match(out_big, ref, self.slots)
        for name in self.slots.names():
            if small[name]:
                assert big[name]
