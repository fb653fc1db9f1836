"""Loss values, analytic gradients, and metric anchors."""

import numpy as np
import pytest

from codedlf import losses_metrics as lm

RNG = np.random.default_rng(2024)


def central_fd(fn, pred, n_coords=30, h=1e-3):
    """Max relative error of the analytic gradient vs central differences."""
    grad = fn(pred).grad
    idxs = RNG.choice(pred.size, size=min(n_coords, pred.size), replace=False)
    worst = 0.0
    for i in idxs:
        p = pred.ravel().copy()
        p[i] += h
        f1 = fn(p.reshape(pred.shape)).value
        p[i] -= 2 * h
        f2 = fn(p.reshape(pred.shape)).value
        fd = (f1 - f2) / (2 * h)
        an = grad.ravel()[i]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    return worst


class TestHuber:
    def test_zero_at_equality(self):
        x = RNG.uniform(size=(5, 5))
        out = lm.huber(x, x)
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_quadratic_branch(self):
        assert lm.huber(np.array([0.5]), np.array([0.0])).value == pytest.approx(0.25)

    def test_linear_branch(self):
        assert lm.huber(np.array([2.0]), np.array([0.0])).value == pytest.approx(3.0)

    def test_gradient(self):
        pred = RNG.uniform(-2, 2, size=(6, 7))
        truth = RNG.uniform(-2, 2, size=(6, 7))
        assert central_fd(lambda p: lm.huber(p, truth[None]), pred[None]) <= 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            lm.huber(np.zeros(3), np.zeros(4))


class TestSsim:
    def test_identical_images(self):
        img = RNG.uniform(size=(10, 10, 3))
        assert lm.ssim(img, img) == pytest.approx(1.0)
        out = lm.ssim_loss(img[None], img[None])
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        a = RNG.uniform(size=(9, 9, 2))
        b = RNG.uniform(size=(9, 9, 2))
        assert lm.ssim(a, b) == pytest.approx(lm.ssim(b, a), rel=1e-12)

    def test_ramp_vs_zero_matches_reference_loop(self):
        # Independent scalar-loop reference on the standard test ramp.
        s = np.linspace(0.0, 1.0, 12)
        ramp = np.broadcast_to(s[:, None], (12, 12)).copy()
        zero = np.zeros_like(ramp)

        w, c1, c2 = 7, (0.01) ** 2, (0.03) ** 2
        vals = []
        for i in range(12 - w + 1):
            for j in range(12 - w + 1):
                a = ramp[i : i + w, j : j + w].ravel()
                b = zero[i : i + w, j : j + w].ravel()
                mu_a, mu_b = a.mean(), b.mean()
                va = (a * a).mean() - mu_a**2
                vb = (b * b).mean() - mu_b**2
                cov = (a * b).mean() - mu_a * mu_b
                vals.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
                )
        reference = float(np.mean(vals))
        one_channel = ramp[..., None], zero[..., None]
        assert lm.ssim(*one_channel) == pytest.approx(reference, rel=1e-10)
        assert lm.ssim(*one_channel) < 0.5

    def test_gradient(self):
        pred = RNG.uniform(0.1, 0.9, size=(9, 9, 2))
        truth = RNG.uniform(0.1, 0.9, size=(9, 9, 2))
        assert central_fd(lambda p: lm.ssim_loss(p, truth[None]), pred[None]) <= 1e-3

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            lm.ssim(np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))


class TestSpectralCos:
    def test_parallel_spectra(self):
        truth = RNG.uniform(0.1, 1.0, size=(4, 4, 5))
        out = lm.spectral_cos_loss(2.5 * truth[None], truth[None])
        assert out.value == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_spectra(self):
        pred = np.zeros((3, 3, 2))
        truth = np.zeros((3, 3, 2))
        pred[..., 0] = 1.0
        truth[..., 1] = 1.0
        assert lm.spectral_cos_loss(pred[None], truth[None]).value == pytest.approx(0.5)

    def test_antiparallel(self):
        truth = RNG.uniform(0.1, 1.0, size=(4, 4, 3))
        assert lm.spectral_cos_loss(-truth[None], truth[None]).value == pytest.approx(1.0)

    def test_gradient(self):
        pred = RNG.uniform(0.1, 0.9, size=(5, 5, 4))
        truth = RNG.uniform(0.1, 0.9, size=(5, 5, 4))
        assert central_fd(lambda p: lm.spectral_cos_loss(p, truth[None]), pred[None]) <= 1e-3

    def test_scale_invariance(self):
        pred = RNG.uniform(0.1, 0.9, size=(5, 5, 4))
        truth = RNG.uniform(0.1, 0.9, size=(5, 5, 4))
        base = lm.spectral_cos_loss(pred[None], truth[None]).value
        scaled = lm.spectral_cos_loss(pred[None] * 3.7, truth[None]).value
        assert scaled == pytest.approx(base, rel=1e-9)


class TestTvSmoothness:
    def test_constant_prediction(self):
        truth = RNG.uniform(size=(6, 6))
        out = lm.tv_smoothness(np.full((1, 6, 6), 0.3), truth[None])
        assert out.value == 0.0

    def test_truth_edges_suppress(self):
        pred = np.zeros((1, 3))
        pred[0, 1:] = 1.0  # one unit step
        flat_truth = np.zeros((1, 3))
        steep_truth = np.zeros((1, 3))
        steep_truth[0, 1:] = 10.0
        suppressed = lm.tv_smoothness(pred[None], steep_truth[None]).value
        plain = lm.tv_smoothness(pred[None], flat_truth[None]).value
        assert suppressed < plain

    def test_unit_step_hand_value(self):
        # 1x3 map: two gradient sites; one unit step, constant truth.
        pred = np.array([[0.0, 1.0, 1.0]])
        truth = np.zeros((1, 3))
        assert lm.tv_smoothness(pred[None], truth[None]).value == pytest.approx(1.0 / 2.0)

    def test_gradient(self):
        # Ramp plus small noise keeps every forward difference away from the
        # |.| kink, where central differences would be meaningless.
        i = np.arange(6)[:, None]
        j = np.arange(7)[None, :]
        pred = 0.3 * i - 0.2 * j + 0.01 * RNG.uniform(-1, 1, size=(6, 7))
        truth = RNG.uniform(-1, 1, size=(6, 7))
        assert central_fd(lambda p: lm.tv_smoothness(p, truth[None]), pred[None]) <= 1e-3


class TestNormalSimilarity:
    def test_equal_maps(self):
        d = RNG.uniform(size=(5, 5))
        assert lm.normal_similarity(d[None], d[None]).value == pytest.approx(0.0, abs=1e-12)

    def test_both_constant(self):
        out = lm.normal_similarity(np.full((1, 4, 4), 1.0), np.full((1, 4, 4), -2.0))
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_unit_gradient_against_flat(self):
        # pred gradient (1, 0) vs truth (0, 0): cos = 1/sqrt(2) per pixel.
        pred = np.arange(3, dtype=float)[None, :].repeat(2, axis=0)  # gx = 1
        truth = np.zeros((2, 3))
        # edge pixels have zero padded gradient -> mix; use wide map instead
        pred = np.arange(8, dtype=float)[None, :].repeat(2, axis=0)
        truth = np.zeros((2, 8))
        out = lm.normal_similarity(pred[None], truth[None])
        # interior columns: 0.5*(1 - 1/sqrt(2)); last column gradient is 0
        per_px = 0.5 * (1.0 - 1.0 / np.sqrt(2.0))
        expect = per_px * (8 - 1) / 8  # far edge contributes 0
        assert out.value == pytest.approx(expect, rel=1e-12)

    def test_gradient(self):
        pred = RNG.uniform(-1, 1, size=(6, 6))
        truth = RNG.uniform(-1, 1, size=(6, 6))
        assert central_fd(lambda p: lm.normal_similarity(p, truth[None]), pred[None]) <= 1e-3


class TestMetrics:
    def test_psnr_identical_is_inf(self):
        x = RNG.uniform(size=(4, 4))
        assert lm.psnr(x, x) == float("inf")

    def test_psnr_20db(self):
        pred = np.full((8, 8), 0.6)
        truth = np.full((8, 8), 0.5)
        assert lm.mse(pred, truth) == pytest.approx(0.01)
        assert lm.psnr(pred, truth) == pytest.approx(20.0)

    def test_error_norm_ordering(self):
        for _ in range(10):
            pred = RNG.normal(size=(6, 6))
            truth = RNG.normal(size=(6, 6))
            a = lm.mae(pred, truth)
            r = np.sqrt(lm.mse(pred, truth))
            m = np.abs(pred - truth).max()
            assert a <= r + 1e-12 <= m + 1e-12

    def test_spectral_angle_scale_invariant(self):
        truth = RNG.uniform(0.1, 1.0, size=(4, 4, 5))
        assert lm.spectral_angle(2.0 * truth, truth) == pytest.approx(0.0, abs=1e-5)
        assert lm.sid(2.0 * truth, truth) == pytest.approx(0.0, abs=1e-12)

    def test_spectral_angle_orthogonal(self):
        pred = np.zeros((2, 2, 2))
        truth = np.zeros((2, 2, 2))
        pred[..., 0] = 1.0
        truth[..., 1] = 1.0
        assert lm.spectral_angle(pred, truth) == pytest.approx(90.0)

    def test_sid_symmetric(self):
        a = RNG.uniform(0.1, 1.0, size=(3, 3, 4))
        b = RNG.uniform(0.1, 1.0, size=(3, 3, 4))
        assert lm.sid(a, b) == pytest.approx(lm.sid(b, a), rel=1e-12)

    def test_badpix_anchors(self):
        zeros = np.zeros((10, 10))
        assert lm.badpix(np.full((10, 10), 0.1), zeros) == 100.0
        assert lm.badpix(zeros, zeros) == 0.0
        half = np.full((10, 10), 0.05)
        half[:5] = 0.2
        assert lm.badpix(half, zeros) == 50.0


def test_losses_nonnegative_random():
    for _ in range(5):
        p = RNG.uniform(0.05, 0.95, size=(1, 8, 8, 3))
        t = RNG.uniform(0.05, 0.95, size=(1, 8, 8, 3))
        pd = RNG.uniform(-1, 1, size=(1, 8, 8))
        td = RNG.uniform(-1, 1, size=(1, 8, 8))
        assert lm.huber(p, t).value >= 0
        assert lm.ssim_loss(p, t).value >= 0
        assert lm.spectral_cos_loss(p, t).value >= 0
        assert lm.tv_smoothness(pd, td).value >= 0
        assert lm.normal_similarity(pd, td).value >= 0


# ---------------------------------------------------------------------------
# batched losses against the per-sample oracle (tests/conftest.py): the same
# value and gradient bit for bit, for a whole batch or a batch of one.

DISP_LOSSES = ("tv_smoothness", "normal_similarity")


def _pair(name, n_b, sample):
    if name in DISP_LOSSES:
        size = (n_b,) + sample[:2]
        return RNG.uniform(-1, 1, size=size), RNG.uniform(-1, 1, size=size)
    size = (n_b,) + sample
    return RNG.uniform(0.1, 0.9, size=size), RNG.uniform(0.1, 0.9, size=size)


@pytest.mark.parametrize(
    "name", ["huber", "ssim_loss", "spectral_cos_loss", "tv_smoothness", "normal_similarity"])
@pytest.mark.parametrize("sample", [(8, 8, 5), (12, 9, 4), (7, 7, 1), (9, 11, 9)],
                         ids=["bench", "s-ne-t", "window-c1", "c9"])
@pytest.mark.parametrize("n_b", [1, 3, 8])
def test_batched_loss_equals_per_sample_oracle(reference_losses, name, sample, n_b):
    refs, _, loop = reference_losses
    pred, truth = _pair(name, n_b, sample)
    ref_value, ref_grad = loop(pred, refs[name], truth)
    out = getattr(lm, name)(pred, list(truth))
    assert out.value == ref_value
    assert np.array_equal(out.grad, ref_grad)
    for p, t in zip(pred, truth):
        one, ref = getattr(lm, name)(p[None], t[None]), refs[name](p, t)
        assert one.value == ref.value and np.array_equal(one.grad[0], ref.grad)


@pytest.mark.parametrize("n_b", [1, 3])
def test_ssim_takes_channelled_images_only(reference_losses, n_b):
    _, ref_ssim, _ = reference_losses
    gray = RNG.uniform(0.1, 0.9, size=(n_b, 10, 8))
    with pytest.raises(ValueError, match=r"expected \(S, T, C\) images, got \(10, 8\)"):
        lm.ssim_loss(gray, gray)
    with pytest.raises(ValueError, match=r"expected \(S, T, C\) images, got \(10, 8\)"):
        lm.ssim(gray[0], gray[0])
    a, b = RNG.uniform(size=(2, 9, 7, 6))
    for peak in (1.0, 255.0):
        assert lm.ssim(a, b, peak=peak) == ref_ssim(a, b, peak=peak)


@pytest.mark.parametrize("batched", [False, True])
def test_ssim_smaller_than_window_rejected(batched):
    # batched=False passes ssim_loss a batch of one image, batched=True a batch of two.
    img = np.zeros((2, 6, 9, 3)) if batched else np.zeros((1, 6, 9, 3))
    with pytest.raises(ValueError, match="smaller than window"):
        lm.ssim_loss(img, img)
    with pytest.raises(ValueError, match="smaller than window"):
        lm.ssim(img[0], img[0])


def test_tv_on_one_pixel_map(reference_losses):
    refs, _, loop = reference_losses
    pred, truth = RNG.uniform(size=(3, 1, 1)), RNG.uniform(size=(3, 1, 1))
    out = lm.tv_smoothness(pred, truth)
    assert (out.value, out.grad.shape) == (0.0, (3, 1, 1)) and not out.grad.any()
    ref_value, ref_grad = loop(pred, refs["tv_smoothness"], truth)
    assert out.value == ref_value and np.array_equal(out.grad, ref_grad)
    assert lm.tv_smoothness(pred[:1], truth[:1]).value == 0.0


def test_batched_needs_batch_axis_and_sample_rank():
    with pytest.raises(ValueError, match="leading batch axis"):
        lm.huber(np.float64(1.0), np.float64(0.0))
    with pytest.raises(ValueError, match=r"\(S, T, C\) spectra"):
        lm.spectral_cos_loss(np.ones((4, 4, 3)), np.ones((4, 4, 3)))
    with pytest.raises(ValueError, match="disparity maps"):
        lm.tv_smoothness(np.ones((1, 4, 4, 3)), np.ones((1, 4, 4, 3)))
