"""Training losses and evaluation metrics for central views and disparities.

Every loss takes a batch stacked on a leading axis B, (B, S, T, C)
central views or (B, S, T) disparities, and returns a LossValue: the mean
of the per-sample values and its analytic gradient with respect to the
prediction, the seed of a backward pass.  The gradient is the per-sample
gradient divided by B, bit for bit what a loop over the samples gives,
because each sample is reduced over the same entries in the same order.
One sample is a batch of one.  Every gradient is checked against central
finite differences in the test suite.  SSIM takes its window sums for all
samples, channels and moments at once, from cumulative sums in a
zero-bordered buffer; its gradient scatters the per-window maps back
through a second such buffer.

Central-view losses: mean Huber (quadratic below delta, 2*delta*(e - delta/2)
above), an SSIM-based loss (1 - SSIM)/2 computed channel-wise with a uniform
window, and a spectral cosine loss averaged over pixels.  Disparity losses:
an edge-aware total-variation smoothness term that weights predicted
gradients by exp(-|true gradient|), and a surface-normal similarity loss
with normals (-d/dx, -d/dy, 1).

Metrics: PSNR, MAE, MSE, per-pixel spectral angle (degrees), spectral
information divergence of l1-normalized spectra, and BadPix (share of
disparity errors above a threshold, in percent).

All cosine and log denominators are guarded by EPS = 1e-8; this guard is
part of the contract, not an implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-8

HUBER_DELTA = 1.0
SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03
BADPIX_TAU = 0.07


@dataclass
class LossValue:
    value: float
    grad: np.ndarray | None = None


def _check_same_shape(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def _as_batch(pred, truth, sample_ndim=None, what: str = ""):
    """pred and truth as float64 arrays with a leading batch axis, each
    sample of rank sample_ndim when given."""
    pred, truth = _check_same_shape(pred, truth)
    if pred.ndim == 0:
        raise ValueError("a batch needs a leading batch axis")
    if sample_ndim is not None and pred.ndim - 1 != sample_ndim:
        raise ValueError(f"expected {what}, got {pred.shape[1:]}")
    return pred, truth


def _per_sample(x: np.ndarray, reduce) -> np.ndarray:
    """Reduce each sample of a batch over all its entries, in row-major order."""
    return reduce(x.reshape(x.shape[0], -1), axis=1)


def _batch_mean(vals: np.ndarray, grad: np.ndarray) -> LossValue:
    """The batch mean of per-sample values, and its gradient from the
    per-sample gradients (divided by B in place)."""
    grad /= vals.shape[0]
    return LossValue(value=float(np.mean(vals)), grad=grad)


# ---------------------------------------------------------------------------
# losses (a batch on a leading axis in, its mean and gradient out)


def huber(pred, truth) -> LossValue:
    """Mean elementwise Huber loss: e^2 below delta, 2*delta*(e - delta/2)
    above, with delta = HUBER_DELTA."""
    pred, truth = _as_batch(pred, truth)
    delta = HUBER_DELTA
    e = np.abs(pred - truth)
    val = np.where(e < delta, e * e, 2.0 * delta * (e - 0.5 * delta))
    slope = 2.0 * np.minimum(e, delta)
    grad = slope * np.sign(pred - truth) / pred[0].size
    return _batch_mean(_per_sample(val, np.mean), grad)


def _window_sums(buf: np.ndarray, w: int) -> np.ndarray:
    """Sum of each w-by-w window (valid positions) over the last two axes of
    buf[..., 1:, 1:].

    buf carries one leading zero row and column on those axes.  The
    cumulative sums overwrite its interior, so the zero border is what the
    window differences at the top and left edge read.
    """
    inner = buf[..., 1:, 1:]
    np.cumsum(inner, axis=-2, out=inner)
    np.cumsum(inner, axis=-1, out=inner)
    return buf[..., w:, w:] - buf[..., :-w, w:] - buf[..., w:, :-w] + buf[..., :-w, :-w]


def _ssim_windows(x: np.ndarray, y: np.ndarray, w: int, c1: float, c2: float):
    """Per-window SSIM of (..., S, T) images; biased window moments.

    The five moment images (x, y, x^2, y^2, xy) share one zero-bordered
    buffer and one pass of cumulative sums.
    """
    buf = np.zeros((5,) + x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1] + 1))
    moments = buf[..., 1:, 1:]
    moments[0] = x
    moments[1] = y
    np.multiply(x, x, out=moments[2])
    np.multiply(y, y, out=moments[3])
    np.multiply(x, y, out=moments[4])
    sums = _window_sums(buf, w)
    n = float(w * w)
    mu_a = sums[0] / n
    mu_b = sums[1] / n
    var_a = sums[2] / n - mu_a * mu_a
    var_b = sums[3] / n - mu_b * mu_b
    cov = sums[4] / n - mu_a * mu_b
    a1 = 2.0 * mu_a * mu_b + c1
    a2 = 2.0 * cov + c2
    b1 = mu_a * mu_a + mu_b * mu_b + c1
    b2 = var_a + var_b + c2
    return (a1 * a2) / (b1 * b2), (mu_a, mu_b, a1, a2, b1, b2)


def _ssim_batch(pred, truth):
    """Channels-first (B, C, S, T) views of a (B, S, T, C) batch of images."""
    pred, truth = _as_batch(pred, truth, 3, "(S, T, C) images")
    if pred.shape[1] < SSIM_WINDOW or pred.shape[2] < SSIM_WINDOW:
        raise ValueError(f"image {pred.shape[1:3]} smaller than window {SSIM_WINDOW}")
    return pred.transpose(0, 3, 1, 2), truth.transpose(0, 3, 1, 2)


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean SSIM over valid uniform windows, channel-wise and averaged.

    Accepts (S, T, C) arrays with values on a [0, peak] scale, scored as
    a batch of one.
    """
    x, y = _ssim_batch(np.expand_dims(a, 0), np.expand_dims(b, 0))
    s, _ = _ssim_windows(x, y, SSIM_WINDOW, (SSIM_K1 * peak) ** 2, (SSIM_K2 * peak) ** 2)
    return float(np.mean(_per_sample(s[0], np.mean)))


def ssim_loss(pred, truth) -> LossValue:
    """(1 - SSIM)/2 with the analytic gradient with respect to pred.

    Per window the SSIM is a smooth rational function of window moments;
    its derivative with respect to an in-window prediction pixel p is an
    affine function of (pred_p, truth_p) with per-window coefficients, so
    the full gradient is assembled from three window-scalar maps scattered
    back over the image.  All samples and channels go through one pass.
    """
    x, y = _ssim_batch(pred, truth)
    window = SSIM_WINDOW
    n = float(window * window)
    n_b, n_ch = x.shape[:2]
    s, (mu_x, mu_y, a1, a2, b1, b2) = _ssim_windows(x, y, window, SSIM_K1**2, SSIM_K2**2)
    channel_means = s.reshape(n_b, n_ch, -1).mean(axis=-1)
    total = 0.0
    for c in range(n_ch):
        total = total + channel_means[:, c]
    vals = 0.5 * (1.0 - total / n_ch)
    # Quotient rule: dS = [a1'*a2 + a1*a2' - S*(b1'*b2 + b1*b2')] / (b1*b2)
    # with a1' = 2 mu_y / n, a2' = 2 (y_p - mu_y) / n,
    #      b1' = 2 mu_x / n, b2' = 2 (x_p - mu_x) / n,
    # which is affine in (x_p, y_p) per window:
    denom = n * b1 * b2
    # Scatter (the adjoint of the window sums): window sums of the
    # window maps zero-padded by window - 1 on every side.
    buf = np.zeros((3, n_b, n_ch) + tuple(d + window for d in x.shape[2:]))
    maps = buf[..., window : window + s.shape[2], window : window + s.shape[3]]
    maps[0] = (
        2.0 * mu_y * (a2 - a1) / denom
        + 2.0 * s * mu_x * (1.0 / (n * b2) - 1.0 / (n * b1))
    )
    maps[1] = 2.0 * a1 / denom
    maps[2] = -2.0 * s / (n * b2)
    spread = _window_sums(buf, window)
    g = spread[0] + y * spread[1] + x * spread[2]
    g /= s[0, 0].size * n_ch  # d(mean SSIM); windows per channel are equal
    g = -0.5 * g
    return _batch_mean(vals, np.ascontiguousarray(g.transpose(0, 2, 3, 1)))


def spectral_cos_loss(pred, truth) -> LossValue:
    """(1 - cosine)/2 of per-pixel spectra, averaged over pixels."""
    pred, truth = _as_batch(pred, truth, 3, "(S, T, C) spectra")
    dot = (pred * truth).sum(axis=-1)
    np_ = np.sqrt((pred * pred).sum(axis=-1))
    nt = np.sqrt((truth * truth).sum(axis=-1))
    denom = np.maximum(np_ * nt, EPS)
    cos = dot / denom
    safe_np = np.maximum(np_, EPS)
    dcos = truth / denom[..., None] - (dot / (safe_np * safe_np * denom))[..., None] * pred
    grad = -0.5 * dcos / cos[0].size
    return _batch_mean(0.5 * (1.0 - _per_sample(cos, np.mean)), grad)


def _forward_diffs(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along columns (x, last axis) and rows (y)."""
    gx = d[..., 1:] - d[..., :-1]
    gy = d[..., 1:, :] - d[..., :-1, :]
    return gx, gy


def tv_smoothness(pred_disp, truth_disp) -> LossValue:
    """Edge-aware smoothness: |grad pred| weighted by exp(-|grad truth|).

    Averaged over all gradient sites (both directions pooled).
    """
    pred, truth = _as_batch(pred_disp, truth_disp, 2, "(S, T) disparity maps")
    gx_p, gy_p = _forward_diffs(pred)
    gx_t, gy_t = _forward_diffs(truth)
    wx = np.exp(-np.abs(gx_t))
    wy = np.exp(-np.abs(gy_t))
    n_sites = gx_p[0].size + gy_p[0].size
    grad = np.zeros_like(pred)
    if n_sites == 0:
        return _batch_mean(np.zeros(pred.shape[0]), grad)
    val = _per_sample(np.abs(gx_p) * wx, np.sum) + _per_sample(np.abs(gy_p) * wy, np.sum)
    sx = np.sign(gx_p) * wx / n_sites
    grad[..., 1:] += sx
    grad[..., :-1] -= sx
    sy = np.sign(gy_p) * wy / n_sites
    grad[..., 1:, :] += sy
    grad[..., :-1, :] -= sy
    return _batch_mean(val / n_sites, grad)


def _pixel_grads(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel forward differences, zero at the far edges."""
    gx = np.zeros_like(d)
    gy = np.zeros_like(d)
    gx[..., :-1] = d[..., 1:] - d[..., :-1]
    gy[..., :-1, :] = d[..., 1:, :] - d[..., :-1, :]
    return gx, gy


def normal_similarity(pred_disp, truth_disp) -> LossValue:
    """(1 - cosine)/2 between surface normals (-dx, -dy, 1), pixel-averaged."""
    pred, truth = _as_batch(pred_disp, truth_disp, 2, "(S, T) disparity maps")
    gx_p, gy_p = _pixel_grads(pred)
    gx_t, gy_t = _pixel_grads(truth)
    # cos = (gx_p*gx_t + gy_p*gy_t + 1) / (|n_pred| * |n_truth|)
    dot = gx_p * gx_t + gy_p * gy_t + 1.0
    n_p = np.sqrt(gx_p * gx_p + gy_p * gy_p + 1.0)
    n_t = np.sqrt(gx_t * gx_t + gy_t * gy_t + 1.0)
    cos = dot / (n_p * n_t)
    # d cos / d gx_p, then scatter the forward-difference stencil.
    dgx = gx_t / (n_p * n_t) - dot * gx_p / (n_p**3 * n_t)
    dgy = gy_t / (n_p * n_t) - dot * gy_p / (n_p**3 * n_t)
    grad = np.zeros_like(pred)
    # gx[i, j] = d[i, j+1] - d[i, j] for j < T-1 (zero at the edge)
    grad[..., 1:] += dgx[..., :-1]
    grad[..., :-1] -= dgx[..., :-1]
    grad[..., 1:, :] += dgy[..., :-1, :]
    grad[..., :-1, :] -= dgy[..., :-1, :]
    grad = -0.5 * grad / pred[0].size
    return _batch_mean(0.5 * (1.0 - _per_sample(cos, np.mean)), grad)


# ---------------------------------------------------------------------------
# metrics (plain scalars)


def mse(pred, truth) -> float:
    pred, truth = _check_same_shape(pred, truth)
    d = pred - truth
    return float((d * d).mean())


def mae(pred, truth) -> float:
    pred, truth = _check_same_shape(pred, truth)
    return float(np.abs(pred - truth).mean())


def psnr(pred, truth, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs."""
    err = mse(pred, truth)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / err))


def spectral_angle(pred, truth) -> float:
    """Mean per-pixel angle between spectra, in degrees."""
    pred, truth = _check_same_shape(pred, truth)
    if pred.ndim != 3:
        raise ValueError(f"expected (S, T, C) spectra, got {pred.shape}")
    dot = (pred * truth).sum(axis=-1)
    denom = np.maximum(
        np.sqrt((pred * pred).sum(-1)) * np.sqrt((truth * truth).sum(-1)), EPS
    )
    cos = np.clip(dot / denom, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)).mean())


def sid(pred, truth) -> float:
    """Spectral information divergence (symmetric KL of l1-normalized spectra)."""
    pred, truth = _check_same_shape(pred, truth)
    if pred.ndim != 3:
        raise ValueError(f"expected (S, T, C) spectra, got {pred.shape}")
    p = np.maximum(pred, EPS)
    q = np.maximum(truth, EPS)
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    div = (p * np.log(p / q)).sum(-1) + (q * np.log(q / p)).sum(-1)
    return float(div.mean())


def badpix(pred_disp, truth_disp, tau: float = BADPIX_TAU) -> float:
    """Percentage of disparity pixels whose absolute error exceeds tau."""
    pred, truth = _check_same_shape(pred_disp, truth_disp)
    return float(100.0 * (np.abs(pred - truth) > tau).mean())
