"""Coding-model laws: one-hot masks, encode/project/lift equivalence."""

import numpy as np
import pytest

from codedlf import coding
from codedlf import multitask as mt


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestRandomMask:
    def test_one_hot_everywhere(self):
        for seed in range(25):
            m = coding.random_mask(6, 7, 13, seed)
            assert coding.is_one_hot(m)
            assert np.all(m.sum(axis=-1) == 1.0)

    def test_single_channel_all_ones(self):
        m = coding.random_mask(4, 5, 1, 3)
        assert np.all(m == 1.0)

    def test_deterministic_in_seed(self):
        a = coding.random_mask(8, 8, 5, 123)
        b = coding.random_mask(8, 8, 5, 123)
        c = coding.random_mask(8, 8, 5, 124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_channel_frequencies_uniform(self):
        # 64*64 pixels, 13 channels: each fraction within 1/13 +- 0.02
        # (a > 4 sigma band for the binomial count).
        m = coding.random_mask(64, 64, 13, seed=2024)
        frac = m.reshape(-1, 13).mean(axis=0)
        assert np.all(np.abs(frac - 1.0 / 13.0) < 0.02)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            coding.random_mask(0, 4, 3, 0)
        with pytest.raises(ValueError):
            coding.random_mask(4, 4, 0, 0)


class TestEncodeProjectLift:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.l = rng.normal(size=(3, 3, 4, 4, 5)).astype(np.float32)
        self.m = coding.random_mask(4, 4, 5, seed=11)

    def test_all_pass_identity(self):
        l = np.random.default_rng(0).uniform(size=(2, 2, 3, 3, 1)).astype(np.float32)
        m = coding.random_mask(3, 3, 1, 0)
        assert np.array_equal(coding.encode(l, m), l)

    def test_zero_field(self):
        z = np.zeros_like(self.l)
        assert np.all(coding.encode(z, self.m) == 0.0)

    def test_elementwise_oracle(self):
        # Scalar-loop oracle on a small tensor with a hand-picked mask.
        l = np.arange(2 * 2 * 2 * 2 * 2, dtype=np.float32).reshape(2, 2, 2, 2, 2)
        m = np.zeros((2, 2, 2), dtype=np.float32)
        m[0, 0, 1] = m[0, 1, 0] = m[1, 0, 0] = m[1, 1, 1] = 1.0
        coded = coding.encode(l, m)
        for u in range(2):
            for v in range(2):
                for s in range(2):
                    for t in range(2):
                        for c in range(2):
                            assert coded[u, v, s, t, c] == m[s, t, c] * l[u, v, s, t, c]

    def test_projection_keeps_surviving_channel(self):
        coded = coding.encode(self.l, self.m)
        proj = coding.project(coded)
        sel = self.m.astype(bool)
        # the projected value equals the single surviving channel value
        survivors = coded[:, :, sel]
        assert np.array_equal(proj[:, :, :, :, 0].reshape(3, 3, -1), survivors)

    def test_project_single_channel_identity(self):
        l = np.random.default_rng(1).normal(size=(2, 2, 3, 3, 1)).astype(np.float32)
        assert np.array_equal(coding.project(l), l)

    def test_project_all_ones(self):
        l = np.ones((1, 1, 2, 2, 13), dtype=np.float32)
        assert np.all(coding.project(l) == 13.0)

    def test_lift_round_trip_bit_exact(self):
        coded = coding.encode(self.l, self.m)
        lifted = coding.lift(coding.project(coded), self.m)
        assert np.array_equal(bits(lifted), bits(coded))

    def test_lift_round_trip_many_seeds(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            l = rng.normal(size=(3, 3, 8, 8, 5)).astype(np.float32)
            m = coding.random_mask(8, 8, 5, seed)
            coded = coding.encode(l, m)
            lifted = coding.lift(coding.project(coded), m)
            assert np.array_equal(bits(lifted), bits(coded))

    def test_lift_zero(self):
        lp = np.zeros((3, 3, 4, 4, 1), dtype=np.float32)
        assert np.all(coding.lift(lp, self.m) == 0.0)

    def test_encode_idempotent(self):
        coded = coding.encode(self.l, self.m)
        again = coding.encode(coded, self.m)
        assert np.array_equal(bits(coded), bits(again))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coding.encode(self.l, coding.random_mask(5, 4, 5, 0))
        with pytest.raises(ValueError):
            coding.lift(self.l, self.m)  # C != 1

    def test_nan_field_is_a_value_error(self):
        l = self.l.copy()
        l[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="light field contains non-finite values"):
            coding.encode(l, self.m)

    def test_non_one_hot_mask_rejected(self):
        bad = self.m.copy()
        bad[0, 0, :] = 0.5
        with pytest.raises(ValueError):
            coding.encode(self.l, bad)
        with pytest.raises(ValueError):
            coding.lift(np.zeros((3, 3, 4, 4, 1), dtype=np.float32), bad)


# Extreme seeds, the benchmark's training seeds (seed, 2, epoch, sample) and
# its validation seeds (seed, 1, sample).
MASK_SEEDS = (
    [0, 1, 2**63, 2**64 - 1]
    + [mt._derive_seed(seed, 2, epoch, i)
       for seed in (0, 4243) for epoch in range(5) for i in range(0, 160, 9)]
    + [mt._derive_seed(0, 1, i) for i in range(40)]
)


@pytest.mark.parametrize("dims", [(8, 8, 5), (3, 7, 13), (4, 5, 1)])
def test_batched_masks_equal_per_seed_masks(mask_oracle, dims):
    masks = coding.random_masks(*dims, MASK_SEEDS)
    assert masks.shape == (len(MASK_SEEDS), *dims) and masks.dtype == np.float32
    for seed, m in zip(MASK_SEEDS, masks):
        assert np.array_equal(bits(m), bits(mask_oracle(*dims, seed))), seed
        assert np.array_equal(bits(m), bits(coding.random_mask(*dims, seed))), seed


def test_batched_masks_reject_zero_dims():
    with pytest.raises(ValueError, match="each mask dim must be an integer >= 1, got 0"):
        coding.random_masks(4, 0, 3, [1, 2])


def test_encode_batch_equals_per_sample_coding(encode_oracle):
    rng = np.random.default_rng(3)
    lfs = rng.normal(size=(6, 3, 3, 8, 8, 5)).astype(np.float32)
    lfs[:, :, :, 0] = -0.0  # a signed zero is copied like any value
    masks = coding.random_masks(8, 8, 5, MASK_SEEDS[:6])
    coded = coding.encode_batch(lfs, masks)
    assert coded.dtype == np.float32
    for l, m, c in zip(lfs, masks, coded):
        assert np.array_equal(bits(c), bits(encode_oracle(l, m)))
        assert np.array_equal(bits(c), bits(coding.encode(l, m)))


def test_encode_batch_rejects_mismatched_masks():
    lfs = np.zeros((2, 1, 1, 4, 4, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="do not match masks"):
        coding.encode_batch(lfs, coding.random_masks(4, 4, 3, [0, 1, 2]))
    with pytest.raises(ValueError, match="do not match masks"):
        coding.encode_batch(lfs, coding.random_masks(4, 5, 3, [0, 1]))
