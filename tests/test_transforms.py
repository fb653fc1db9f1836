"""Separable 5D DCT and fidelity-gradient tests."""

import math

import numpy as np
import pytest

from codedlf import coding, transforms


def dense_dct_matrix(n):
    """Direct O(n^2) orthonormal DCT-II matrix, built independently."""
    mat = np.zeros((n, n))
    for k in range(n):
        for x in range(n):
            mat[k, x] = np.cos(np.pi * (2 * x + 1) * k / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


@pytest.mark.parametrize("shape", [
    (5, 5, 32, 32, 8), (3, 3, 8, 8, 4), (2, 3, 4, 5, 6), (1, 1, 7, 5, 3), (7, 1, 1, 1, 2),
    (1, 1, 1, 1, 1),
])
def test_gemm_transforms_equal_tensordot_oracle(shape, tensordot_dct5):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    # Also a float32, non-contiguous input: the oracle's own output layout.
    a32 = tensordot_dct5(a, synthesis=False).astype(np.float32)
    for x in (a, a32):
        for synthesis, fn in ((False, transforms.dct5_forward), (True, transforms.dct5_inverse)):
            out = fn(x)
            assert out.dtype == np.float64 and out.shape == shape
            assert out.flags.c_contiguous
            # The GEMMs sum the axes in reverse order: rounding differs, by
            # at most 5.5e-16 of the largest coefficient on these shapes.
            ref = tensordot_dct5(x, synthesis)
            assert np.abs(out - ref).max() <= 4e-15 * np.abs(ref).max()


def test_constant_tensor_dc_coefficient():
    t = np.full((2, 3, 4, 5, 6), 1.25, dtype=np.float32)
    a = transforms.dct5_forward(t)
    n = t.size
    assert a.reshape(-1)[0] == pytest.approx(1.25 * np.sqrt(n), rel=1e-12)
    assert np.abs(a.reshape(-1)[1:]).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 3, 8, 8, 5))
    a = transforms.dct5_forward(t)
    assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(t), rel=1e-5)


def test_single_axis_mode_against_dense_matrix():
    # A pure cosine mode along one axis lands on a single coefficient;
    # verified against an independently built dense matrix on (1,1,8,1,1).
    n = 8
    dense = dense_dct_matrix(n)
    for k in range(n):
        x = np.cos(np.pi * (2 * np.arange(n) + 1) * k / (2 * n))
        t = x.reshape(1, 1, n, 1, 1)
        a = transforms.dct5_forward(t).reshape(n)
        expected = dense @ x
        np.testing.assert_allclose(a, expected, atol=1e-10)
        nz = np.flatnonzero(np.abs(a) > 1e-8)
        assert list(nz) == [k]


def test_round_trip():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(3, 3, 8, 8, 5)).astype(np.float32)
    back = transforms.dct5_inverse(transforms.dct5_forward(t))
    rel = np.linalg.norm(back - t) / np.linalg.norm(t)
    assert rel <= 1e-5
    back2 = transforms.dct5_forward(transforms.dct5_inverse(t))
    assert np.linalg.norm(back2 - t) / np.linalg.norm(t) <= 1e-5


def test_zero_maps_to_zero():
    z = np.zeros((2, 2, 3, 3, 2))
    assert np.all(transforms.dct5_inverse(z) == 0.0)
    assert np.all(transforms.dct5_forward(z) == 0.0)


def test_adjoint_identity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 4, 5, 3))
    l = rng.normal(size=(2, 3, 4, 5, 3))
    lhs = np.vdot(transforms.dct5_inverse(a), l)
    rhs = np.vdot(a, transforms.dct5_forward(l))
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 4, 4, 3))
    y = rng.normal(size=(2, 2, 4, 4, 3))
    for f in (transforms.dct5_forward, transforms.dct5_inverse):
        np.testing.assert_allclose(
            f(2.0 * x - 3.0 * y), 2.0 * f(x) - 3.0 * f(y), atol=1e-10
        )


def test_mask_is_orthogonal_projection():
    m = coding.random_mask(4, 4, 3, seed=9)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2, 4, 4, 3)).astype(np.float32)
    mx = coding.encode(x, m)
    mmx = coding.encode(mx, m)
    assert np.array_equal(mx, mmx)


# The observed-entry operator against the 5D closed form: both sum the same
# products in another order, so they agree to rounding.  The worst seen on
# the cases here is 3.9e-16 relative for the value and 3.8e-16 of the
# gradient's largest entry.
FIDELITY_RTOL = 1e-12


class TestFidelityGradient:
    def setup_method(self):
        self.shape = (1, 1, 4, 4, 3)
        rng = np.random.default_rng(7)
        self.mask = coding.random_mask(4, 4, 3, seed=3)
        l = rng.uniform(size=self.shape).astype(np.float32)
        self.l_star = coding.encode(l, self.mask).astype(np.float64)
        self.alpha = rng.normal(size=self.shape)

    def test_zero_at_unconstrained_minimum(self):
        # all-pass mask (single channel) and alpha = analysis(l_star)
        m = coding.random_mask(4, 4, 1, 0)
        l_star = np.random.default_rng(0).uniform(size=(1, 1, 4, 4, 1))
        alpha = transforms.dct5_forward(l_star)
        g = transforms.fidelity_gradient(alpha, l_star, m)
        assert np.abs(g).max() < 1e-5

    def test_matches_finite_differences(self):
        g = transforms.fidelity_gradient(self.alpha, self.l_star, self.mask)
        h = 1e-3
        flat = self.alpha.ravel().copy()
        for i in range(flat.size):
            p = flat.copy()
            p[i] += h
            f1 = transforms.fidelity_objective(p.reshape(self.shape), self.l_star, self.mask)
            p[i] -= 2 * h
            f2 = transforms.fidelity_objective(p.reshape(self.shape), self.l_star, self.mask)
            fd = (f1 - f2) / (2 * h)
            an = g.ravel()[i]
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd))

    def test_zero_measurement_term(self):
        zero = np.zeros(self.shape)
        g = transforms.fidelity_gradient(self.alpha, zero, self.mask)
        mb = np.asarray(self.mask, dtype=np.float64)[None, None]
        expected = 2.0 * transforms.dct5_forward(
            mb * transforms.dct5_inverse(self.alpha)
        )
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_matches_closed_form(self, fidelity_oracle):
        # f = ||l_star - m * synth(a)||^2 and the gradient formula of the
        # module docstring, spelled out on all entries with 5D transforms.
        f_ref, g_ref = fidelity_oracle(self.alpha, self.l_star, self.mask)
        f = transforms.fidelity_objective(self.alpha, self.l_star, self.mask)
        g = transforms.fidelity_gradient(self.alpha, self.l_star, self.mask)
        assert abs(f - f_ref) <= FIDELITY_RTOL * f_ref
        assert np.abs(g - g_ref).max() <= FIDELITY_RTOL * np.abs(g_ref).max()

    def test_operator_reuses_one_synthesis(self, fidelity_oracle):
        fid = transforms.ObservedFidelity(self.l_star, self.mask)
        r = fid.residual(self.alpha)
        # One observed entry per pixel and view.
        assert r.shape == (4 * 4, 1 * 1)
        assert fid.value(r) == transforms.fidelity_objective(self.alpha, self.l_star, self.mask)
        assert np.array_equal(
            fid.gradient(r), transforms.fidelity_gradient(self.alpha, self.l_star, self.mask)
        )
        f_ref, g_ref = fidelity_oracle(self.alpha, self.l_star, self.mask)
        assert abs(fid.value(r) - f_ref) <= FIDELITY_RTOL * f_ref
        assert np.abs(fid.gradient(r) - g_ref).max() <= FIDELITY_RTOL * np.abs(g_ref).max()
        with pytest.raises(ValueError):
            fid.residual(self.alpha[:, :, :3])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            transforms.fidelity_gradient(
                self.alpha, self.l_star, coding.random_mask(5, 4, 3, 0)
            )


@pytest.mark.parametrize("shape, zero", [
    ((1, 1, 6, 5, 4), False),  # one view: no angular transform
    ((2, 3, 6, 5, 1), False),  # one channel: the all-pass mask
    ((3, 5, 6, 5, 4), False),  # a 3 x 5 angular grid
    ((3, 5, 6, 5, 4), True),  # a zero measurement
    ((5, 5, 32, 32, 8), False),  # the benchmark's shape
])
def test_operator_matches_5d_oracle(shape, zero, fidelity_oracle):
    rng = np.random.default_rng(sum(shape))
    m = coding.random_mask(*shape[2:], seed=shape[0])
    l = rng.uniform(size=shape).astype(np.float32) * (not zero)
    l_star = coding.encode(l, m).astype(np.float64)
    alpha = rng.normal(size=shape)
    f_ref, g_ref = fidelity_oracle(alpha, l_star, m)
    fid = transforms.ObservedFidelity(l_star, m)
    r = fid.residual(alpha)
    assert r.shape == (shape[2] * shape[3], shape[0] * shape[1])
    assert abs(fid.value(r) - f_ref) <= FIDELITY_RTOL * f_ref
    g = fid.gradient(r, out=np.full(shape, np.nan))
    assert g.shape == shape and g.flags.c_contiguous
    assert np.abs(g - g_ref).max() <= FIDELITY_RTOL * np.abs(g_ref).max()
    # The operator's buffers carry nothing from one call to the next.
    assert fid.value(fid.residual(alpha)) == fid.value(r)
    assert np.array_equal(fid.gradient(r), g)


def test_operator_rejects_a_mask_that_is_not_one_hot():
    shape = (2, 2, 4, 4, 3)
    m = coding.random_mask(4, 4, 3, seed=1)
    l_star = coding.encode(np.ones(shape, np.float32), m)
    alpha = np.zeros(shape)
    two = m.copy()
    two[1, 2] = 1.0  # two channels at one pixel
    for bad in (two, np.zeros_like(m), 0.5 * m):
        for fn in (transforms.fidelity_objective, transforms.fidelity_gradient):
            with pytest.raises(ValueError, match="coding mask must be one-hot"):
                fn(alpha, l_star, bad)


def test_operator_rejects_entries_off_the_mask():
    # The observed-entry value would drop them without a word.
    shape = (2, 2, 4, 4, 3)
    m = coding.random_mask(4, 4, 3, seed=1)
    alpha = np.zeros(shape)
    for value in (1e-30, -2.0, np.nan):
        l_star = coding.encode(np.ones(shape, np.float32), m)
        off = np.argwhere(m == 0)[5]
        l_star[1, 0, off[0], off[1], off[2]] = value
        for fn in (transforms.fidelity_objective, transforms.fidelity_gradient):
            with pytest.raises(ValueError, match="non-zero entries where the mask is 0"):
                fn(alpha, l_star, m)
    # An uncoded field is rejected too.
    with pytest.raises(ValueError, match="non-zero entries where the mask is 0"):
        transforms.ObservedFidelity(np.ones(shape), m)


@pytest.mark.parametrize("shape", [(3, 5, 6, 5, 4), (5, 5, 32, 32, 8)])
def test_operator_on_a_subset_of_views(shape, fidelity_oracle):
    # Views dropped in two steps, as a solve drops them: the operator on the
    # rest gives the full operator's residual columns and gradient slices at
    # a point that is zero on the dropped views, and its value, the live
    # residual plus the dropped views' constant, is the 5D closed form's.
    rng = np.random.default_rng(sum(shape) + 1)
    m = coding.random_mask(*shape[2:], seed=shape[1])
    l_star = coding.encode(rng.uniform(size=shape).astype(np.float32), m).astype(np.float64)
    n_views = shape[0] * shape[1]
    full = transforms.ObservedFidelity(l_star, m)
    fid = transforms.ObservedFidelity(l_star, m)
    bufs = fid._bufs + (fid._scatter, fid.target)
    views = np.arange(n_views)
    for _ in range(2):
        live = rng.uniform(size=len(views)) < 0.6
        live[rng.integers(len(views))] = False
        live[rng.integers(len(views))] = True
        fid.keep_views(live)
        views = views[live]
        assert np.array_equal(fid.views, views)
        assert fid.coef_shape == (len(views),) + shape[2:]

        alpha = np.zeros(shape)
        alpha.reshape(n_views, -1)[views] = rng.normal(size=(len(views), math.prod(shape[2:])))
        r_full = full.residual(alpha)
        g_full = full.gradient(r_full).reshape(n_views, *shape[2:])[views]
        a = alpha.reshape(n_views, *shape[2:])[views]
        r = fid.residual(a)
        assert r.shape == (shape[2] * shape[3], len(views))
        assert np.abs(r - r_full[:, views]).max() <= FIDELITY_RTOL * np.abs(r_full).max()
        g = fid.gradient(r)
        assert g.shape == fid.coef_shape and g.flags.c_contiguous
        assert np.abs(g - g_full).max() <= FIDELITY_RTOL * np.abs(g_full).max()
        f_ref, _ = fidelity_oracle(alpha, l_star, m)
        assert abs(fid.value(r) - f_ref) <= FIDELITY_RTOL * f_ref
        dropped = np.delete(r_full, views, axis=1)
        assert fid.dropped == pytest.approx(float(np.vdot(dropped, dropped)), rel=FIDELITY_RTOL)
        # Only the kept views' coefficients are taken.
        with pytest.raises(ValueError, match="disagree"):
            fid.residual(alpha)
    # The buffers shrink within the memory they had.
    for old, new in zip(bufs, fid._bufs + (fid._scatter, fid.target)):
        assert np.shares_memory(old, new)
