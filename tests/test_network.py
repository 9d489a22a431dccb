import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.random import SeedSequence, default_rng

from totsim.errors import DimensionError, ParameterError, TrainingError
from totsim.network import ComponentNetwork, train
from totsim.patterns import BipolarPattern, overlap, random_pattern

from helpers import assert_uniform_subsets

units = st.sampled_from((1, -1))
odd_n = st.integers(min_value=2, max_value=31).map(lambda k: 2 * k + 1)


def all_probes(n):
    """Every +1/-1 unit row of length n."""
    for bits in itertools.product((1, -1), repeat=n):
        yield np.array(bits)


def hadamard_patterns(n):
    """Mutually orthogonal bipolar patterns from the Sylvester construction."""
    h = np.array([[1]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return [BipolarPattern(row) for row in h]


class TestConstruction:
    def test_writable_matrix_is_copied(self):
        w = np.array([[1, -1], [-1, 1]], dtype=np.int64)
        net = ComponentNetwork(w, (BipolarPattern([1, -1]),))
        w[0, 0] = 5
        assert net.w_int[0, 0] == 1
        assert not net.w_int.flags.writeable

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ParameterError):
            ComponentNetwork(np.array([[1, 1], [-1, 1]]), (BipolarPattern([1, 1]),))


class TestTrain:
    def test_single_pattern_weights(self):
        p = BipolarPattern([1, -1, -1, 1])
        net = train([p])
        expected = np.outer(p.units, p.units)
        assert np.array_equal(net.w_int, expected)
        assert set(np.unique(net.w_int)) == {1, -1}
        assert net.damage_fraction == 0.0 and not net.mask

    def test_two_orthogonal_patterns_sum(self):
        a = BipolarPattern([1, 1, -1, -1])
        b = BipolarPattern([1, -1, 1, -1])
        assert overlap(a.units, b.units) == 0
        net = train([a, b])
        expected = np.outer(a.units, a.units) + np.outer(b.units, b.units)
        assert np.array_equal(net.w_int, expected)

    def test_orthogonal_patterns_are_retrieved_exactly(self):
        pats = hadamard_patterns(16)[:4]
        net = train(pats)
        for p in pats:
            assert np.array_equal(net.retrieve_once(p.units), p.units)

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            train([])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(TrainingError):
            train([BipolarPattern([1, 1]), BipolarPattern([1, 1, 1])])

    def test_weights_symmetric(self):
        rng = default_rng(SeedSequence(11))
        net = train([random_pattern(10, rng) for _ in range(3)])
        assert np.array_equal(net.w_int, net.w_int.T)


class TestRetrieveOnce:
    def test_stored_pattern_is_fixed_point(self):
        p = random_pattern(9, default_rng(0))
        net = train([p])
        assert np.array_equal(net.retrieve_once(p.units), p.units)

    def test_negated_pattern_is_fixed_point(self):
        p = random_pattern(9, default_rng(1))
        net = train([p])
        assert np.array_equal(net.retrieve_once(p.negate().units), p.negate().units)

    def test_majority_probe_recovers_pattern(self):
        # Probe agreeing on 6 of 9 units (overlap 3 > 0) retrieves p exactly.
        p = random_pattern(9, default_rng(2))
        net = train([p])
        probe = p.with_flipped([0, 3, 6])
        assert overlap(p.units, probe.units) == 3
        assert np.array_equal(net.retrieve_once(probe.units), p.units)

    def test_one_pass_law_by_enumeration(self):
        # Single stored pattern, odd n: output is p iff overlap > 0, else -p.
        p = random_pattern(7, default_rng(3))
        net = train([p])
        for probe in all_probes(7):
            expected = p if overlap(p.units, probe) > 0 else p.negate()
            assert np.array_equal(net.retrieve_once(probe), expected.units)

    def test_tie_rule_gives_all_plus_one(self):
        p = BipolarPattern([1, 1, -1, -1])
        probe = BipolarPattern([1, -1, 1, -1])
        net = train([p])
        assert overlap(p.units, probe.units) == 0
        assert np.array_equal(
            net.retrieve_once(probe.units), BipolarPattern([1, 1, 1, 1]).units
        )

    def test_length_mismatch(self):
        net = train([BipolarPattern([1, -1, 1])])
        with pytest.raises(DimensionError):
            net.retrieve_once(BipolarPattern([1, -1]).units)

    def test_image_is_one_pass_and_its_overlap_also_when_held(self):
        """`image` answers as `retrieve_once` and `overlap` do, on the call
        that fills its slot, on a repeat, and for another row; a row of the
        wrong shape is rejected even when a row is held."""
        p = BipolarPattern.from_text("++-+--++-")
        net = train([p, p.with_flipped([0, 1, 2, 3])])
        for row in (p, p, p.with_flipped([4]), p):
            out, score = net.image(row.units)
            assert np.array_equal(out, net.retrieve_once(row.units))
            assert score == overlap(out, row.units)
        for bad in (p.units[:8], p.units[None]):
            with pytest.raises(DimensionError):
                net.image(bad)

    @given(odd_n, st.integers(0, 2**32 - 1))
    def test_fixed_point_property(self, n, seed):
        p = random_pattern(n, default_rng(SeedSequence(seed)))
        net = train([p])
        assert np.array_equal(net.retrieve_once(p.units), p.units)
        assert np.array_equal(net.retrieve_once(p.negate().units), p.negate().units)

    @given(st.integers(0, 2**32 - 1))
    def test_sign_equivariance_without_ties(self, seed):
        rng = default_rng(SeedSequence(seed))
        pats = [random_pattern(9, rng) for _ in range(2)]
        net = train(pats)
        probe = random_pattern(9, rng)
        assume(np.all(net.w_int @ probe.units != 0))
        assert np.array_equal(
            net.retrieve_once(probe.negate().units), -net.retrieve_once(probe.units)
        )


class TestDamage:
    def test_zero_damage_is_identity(self):
        p = random_pattern(9, default_rng(4))
        net = train([p])
        damaged = net.damage(0.0, default_rng(5))
        assert np.array_equal(damaged.w_int, net.w_int)

    def test_full_damage_zeroes_everything(self):
        p = random_pattern(9, default_rng(6))
        net = train([p])
        damaged = net.damage(1.0, default_rng(7))
        assert not damaged.w_int.any()
        assert np.array_equal(damaged.retrieve_once(p.units), BipolarPattern([1] * 9).units)

    def test_pair_count_and_symmetry(self):
        p = random_pattern(9, default_rng(8))
        net = train([p])
        damaged = net.damage(0.5, default_rng(9))
        upper = damaged.w_int[np.triu_indices(9)]
        assert np.sum(upper == 0) == int(0.5 * 45)  # floor(d * n(n+1)/2)
        assert np.array_equal(damaged.w_int, damaged.w_int.T)

    def test_original_unmodified(self):
        p = random_pattern(9, default_rng(10))
        net = train([p])
        before = net.w_int.copy()
        net.damage(0.9, default_rng(11))
        assert np.array_equal(net.w_int, before)

    def test_out_of_range_rejected(self):
        net = train([BipolarPattern([1, -1, 1])])
        with pytest.raises(ParameterError):
            net.damage(1.1, default_rng(0))
        with pytest.raises(ParameterError):
            net.damage(-0.1, default_rng(0))

    def test_protected_indices_untouched(self):
        p = random_pattern(12, default_rng(12))
        net = train([p])
        protected = (0, 1, 2)
        damaged = net.damage(1.0, default_rng(13), protected=protected)
        for i in protected:
            assert np.array_equal(damaged.w_int[i], net.w_int[i])
            assert np.array_equal(damaged.w_int[:, i], net.w_int[:, i])
        outside = np.ix_(range(3, 12), range(3, 12))
        assert not damaged.w_int[outside].any()

    def test_success_drops_with_heavy_damage(self):
        # Free-recall success is exactly 1/2 intact; heavy damage pushes the
        # network toward the all-plus-one tie output.
        p = random_pattern(9, default_rng(14))
        net = train([p])
        count = lambda n: sum(
            np.array_equal(n.retrieve_once(probe), p.units) for probe in all_probes(9)
        )
        assert count(net) == 256
        damaged = net.damage(0.75, default_rng(15))
        assert count(damaged) < 256


class TestApplyMask:
    def test_zero_mask_behaves_identically(self):
        p = random_pattern(7, default_rng(16))
        net = train([p])
        masked = net.apply_mask(0.0, default_rng(17))
        for probe in all_probes(7):
            assert np.array_equal(masked.retrieve_once(probe), net.retrieve_once(probe))

    def test_full_mask_silences_everything(self):
        p = random_pattern(7, default_rng(18))
        net = train([p])
        masked = net.apply_mask(1.0, default_rng(19))
        all_plus = BipolarPattern([1] * 7).units
        assert np.array_equal(masked.retrieve_once(p.units), all_plus)
        assert np.array_equal(masked.retrieve_once(p.negate().units), all_plus)

    def test_out_of_range_rejected(self):
        net = train([BipolarPattern([1, -1, 1])])
        with pytest.raises(ParameterError):
            net.apply_mask(2.0, default_rng(0))

    def test_mask_equals_zeroed_rows_and_columns(self):
        # Masking is zeroing the masked rows and columns (the tie rule then
        # outputs +1 on them), whether the mask is drawn or given to the
        # constructor, and damaging a masked network keeps them zero.
        rng = default_rng(SeedSequence(20))
        pats = [random_pattern(7, rng) for _ in range(2)]
        net = train(pats)
        masked = net.apply_mask(0.4, default_rng(21))  # floor(0.4 * 7) = 2 units
        assert len(masked.mask) == 2
        w = net.w_int.copy()
        idx = sorted(masked.mask)
        w[idx, :] = 0
        w[:, idx] = 0
        built = ComponentNetwork(net.w_int, net.stored, mask=masked.mask)
        assert np.array_equal(masked.w_int, w) and np.array_equal(built.w_int, w)
        damaged = masked.damage(0.5, default_rng(31))
        assert damaged.mask == masked.mask
        assert not damaged.w_int[idx, :].any() and not damaged.w_int[:, idx].any()
        zeroed = ComponentNetwork(w, net.stored)
        for probe in all_probes(7):
            assert np.array_equal(masked.retrieve_once(probe), zeroed.retrieve_once(probe))

    def test_masking_zeroes_a_copy_and_draws_once(self):
        """The mask is the units of the k smallest of one row of 15 uniform
        keys, a row drawn also when k is 0 or 15, and the stream ends where
        drawing that row leaves it, with or without a uint32 buffered. The
        masked network's matrix is a read-only copy of the parent's with the
        rows and columns of the whole mask zeroed, and the parent's matrix
        is left as it was, also when the parent is itself masked."""
        damaged = train([random_pattern(15, default_rng(25))]).damage(0.2, default_rng(26))
        for net in (damaged, damaged.apply_mask(0.2, default_rng(30))):
            before, mask = net.w_int.copy(), net.mask
            for fraction, k in ((0.4, 6), (0.0, 0), (1.0, 15)):  # floor(0.4 * 15) = 6
                for buffered in (False, True):
                    rng, twin = default_rng(27), default_rng(27)
                    if buffered:
                        for g in (rng, twin):
                            g.integers(0, 2**32, dtype=np.uint32)
                    masked = net.apply_mask(fraction, rng)
                    want = np.argpartition(twin.random(15), k - 1)[:k]
                    assert masked.mask == net.mask | frozenset(want.tolist())
                    assert rng.bit_generator.state == twin.bit_generator.state
                    assert masked.stored is net.stored
                    assert masked.damage_fraction == net.damage_fraction
                    zeroed = before.copy()
                    zeroed[sorted(masked.mask), :] = 0
                    zeroed[:, sorted(masked.mask)] = 0
                    assert np.array_equal(masked.w_int, zeroed)
                    assert np.array_equal(net.w_int, before) and net.mask == mask
                    assert not masked.w_int.flags.writeable and not net.w_int.flags.writeable

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3)])
    def test_masks_are_uniform_over_the_subsets(self, n, k):
        net, rng = train([random_pattern(n, default_rng(28))]), default_rng(29)
        draws = [net.apply_mask(Fraction(k, n), rng).mask for _ in range(20_000)]
        assert_uniform_subsets(draws, n, k)

    def test_mask_union_with_existing(self):
        p = random_pattern(10, default_rng(22))
        net = train([p]).apply_mask(0.3, default_rng(23))
        again = net.apply_mask(0.3, default_rng(24))
        assert net.mask <= again.mask
