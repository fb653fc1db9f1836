"""Radiometric calibration of a spectrally scanned Bayer-sensor camera.

The sensor follows a linear model in the exposure time t: the dark signal
is offset + dark_current * t (`fit_dark` regresses it per pixel; the global
model is that regression of the mean dark frame), and the dark-corrected
bright signal of pixel (i, j) under spectral filter k factorizes into a
spatial vignetting term and a per-(filter, Bayer-type) responsivity,

    mu[i, j, k, l] - dark(i, j, t_l)  =  v[i, j] * r[k, bayer(i, j)] * t_l.

The fit minimizes the masked, exposure-weighted squared residual of this
model.  Because the model is bilinear, alternating exact least-squares
updates of v and r decrease the objective monotonically per half sweep; a
first-order optimizer is not needed.  The fit runs at most MAX_SWEEPS
sweeps; it stops early when a sweep lowers the objective by less than
REL_TOL (relative) or the objective falls to EXACT_FIT_FLOOR times its
start.  Exposure weights are 1 / t_l, normalized to sum to one, so
log-uniformly spaced exposure ladders contribute evenly.  The scale
ambiguity (c * v, r / c) is fixed by rescaling so that mean(v) = 1 over
the recoverable pixels.

The model is linear in a = v[i, j] * r[k, bayer(i, j)] for each entry
(i, j, k), so the fit never needs the (I, J, K, L) stack after one pass
over it.  With resid_l the dark-corrected mean, keep_l = 1 for unmasked
measurements and w_l the exposure weight, that pass accumulates per entry

    num   = sum_l keep_l * w_l * t_l * resid_l
    den   = sum_l keep_l * w_l * t_l**2
    a*    = num / den  (0 where den = 0)
    S_min = sum_l keep_l * w_l * (resid_l - a* * t_l)**2,

and the entry's share of the objective is, exactly,

    sum_l keep_l * w_l * (resid_l - a * t_l)**2  =  S_min + den * (a - a*)**2,

a sum of two non-negative terms.  The half-sweep updates need only num and
den, and the objective after each half sweep costs O(I * J * K).  S_min is
accumulated directly as a weighted running sum of squared deviations, not
as sum(keep * w * resid**2) - num**2 / den, which would cancel to rounding
noise when the data fit the model exactly.

The pass reads the stack once, in blocks of sensor rows small enough that a
block's statistics stay in cache while all exposures stream through it.
The half sweeps are BLAS products over the (I * J, K) statistics: the r
update sums the Bayer-selected, v-weighted statistics of every pixel with
one GEMM each for num and den, and the v update forms each pixel's sums for
all three Bayer types with one GEMM each and keeps its own type's column.

Saturation handling: a measurement is excluded when its value exceeds the
threshold (0.985, the top four codes of a 10-bit sensor), when any of its
eight spatial neighbors does, or when a saturated pixel sits within
`line_reach` additional pixels beyond the direct neighbor along the sensor
readout line (charge blooming travels along the readout direction; the
line is a row by default, configurable to columns).  For a single
saturated interior pixel with line_reach = 5 this excludes 19 positions:
the pixel, its 8 neighbors, and 5 further pixels on each side along the
line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor import require_count, require_real

SATURATION_THRESHOLD = 0.985  # 1008/1023 of a 10-bit range
LINE_REACH = 5

BAYER_TYPES = 3  # R, G, B
# Sweep limit and relative-decrease stop of the alternating fit.
MAX_SWEEPS = 200
REL_TOL = 1e-8
# The fit also stops once the objective is below this fraction of its
# starting value.  On exact data the objective otherwise reaches its
# rounding floor (about 1e-30 of the start), where the relative-decrease
# test compares rounding noise and the sweep count depends on summation
# order; at 1e-20 the objective is still ten orders above that floor.
EXACT_FIT_FLOOR = 1e-20


@dataclass
class ExposureSeries:
    """Bright exposure stack: means mu[i, j, k, l], times t_l, Bayer map."""

    mu: np.ndarray  # (I, J, K, L) in [0, 1]; float32 is kept, not widened
    times: np.ndarray  # (L,) seconds, strictly increasing
    bayer: np.ndarray  # (I, J) integer values in {0, 1, 2}, kept as int64

    def __post_init__(self):
        self.mu = np.asarray(self.mu)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.bayer = np.asarray(self.bayer)
        if self.mu.ndim != 4:
            raise ValueError(f"series must be (I, J, K, L), got {self.mu.shape}")
        if self.times.shape != (self.mu.shape[3],):
            raise ValueError("exposure times do not match the series")
        t = self.times
        if not (np.isfinite(t).all() and (t > 0).all() and (np.diff(t) > 0).all()):
            raise ValueError("exposure times must be finite, positive and increasing")
        if self.bayer.shape != self.mu.shape[:2]:
            raise ValueError("Bayer map does not match the spatial dims")
        # before the cast, which would truncate 1.7 to 1
        if not np.isin(self.bayer, range(BAYER_TYPES)).all():
            raise ValueError("Bayer map values must be the integers 0, 1 or 2")
        self.bayer = self.bayer.astype(np.int64, copy=False)
        if not (self.mu.min() >= 0 and self.mu.max() <= 1):  # False for NaN too
            raise ValueError("grey means must lie in [0, 1]")


@dataclass
class DarkModel:
    """Dark signal offset and slope; (I, J) arrays (per pixel) or scalars (global)."""

    offset: np.ndarray | float
    current: np.ndarray | float

    @property
    def per_pixel(self) -> bool:
        return np.ndim(self.offset) == 2

    def evaluate(self, t) -> np.ndarray:
        """Dark signal at the times t, on a trailing axis of the model's shape."""
        t = np.asarray(t, dtype=np.float64)
        return np.asarray(self.offset)[..., None] + np.asarray(self.current)[..., None] * t


@dataclass
class CalibResult:
    vignetting: np.ndarray  # (I, J); NaN where unrecoverable
    responsivity: np.ndarray  # (K, 3); NaN where unrecoverable
    residual: float
    unrecoverable_pixels: list[tuple[int, int]] = field(default_factory=list)
    unrecoverable_responsivities: list[tuple[int, int]] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)


def fit_dark(
    mu_dark: np.ndarray, times: np.ndarray, per_pixel: bool = True
) -> DarkModel:
    """Least-squares dark model offset + current * t from a dark stack.

    mu_dark is (I, J, L) with one mean dark frame per exposure time.
    per_pixel False gives the scalar model of the frames' spatial means.
    """
    mu_dark = np.asarray(mu_dark, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if mu_dark.ndim != 3 or mu_dark.shape[2] != times.size:
        raise ValueError("dark stack and exposure times are inconsistent")
    if times.size < 2:
        raise ValueError("need at least two exposures to fit the dark model")
    if np.ptp(times) == 0:
        raise ValueError("exposure times are all equal; slope is unidentifiable")
    if not per_pixel:
        mu_dark = mu_dark.mean(axis=(0, 1), keepdims=True)
    t_mean = times.mean()
    t_var = ((times - t_mean) ** 2).sum()
    y_mean = mu_dark.mean(axis=2)
    slope = ((times - t_mean) * (mu_dark - y_mean[..., None])).sum(axis=2) / t_var
    offset = y_mean - slope * t_mean
    if per_pixel:
        return DarkModel(offset=offset, current=slope)
    return DarkModel(offset=float(offset[0, 0]), current=float(slope[0, 0]))


def saturation_mask(
    series: ExposureSeries,
    threshold: float = SATURATION_THRESHOLD,
    line_reach: int = LINE_REACH,
    line_axis: str = "row",
) -> np.ndarray:
    """Boolean (I, J, K, L) mask of measurements to exclude (True = excluded).

    line_axis selects the readout direction: "row" (default) extends the
    blooming mask along the saturated pixel's row (varying j), "col" along
    its column (varying i).
    """
    check_mask_knobs(threshold, line_reach, line_axis)
    # Compared in float64: NumPy 2 would round a Python float to the dtype of
    # a float32 stack, and np.float32(0.985) > 0.985 would then read False.
    sat = series.mu > np.float64(threshold)
    masked = sat.copy(order="K")  # keep the layout of sat for the in-place ORs
    # 8-connected spatial neighbors.
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            _or_shifted(masked, sat, di, dj)
    # Readout line: line_reach additional pixels beyond the direct neighbor.
    # A shift as long as the readout axis leaves the sensor, so the loop
    # stops there however large line_reach is.
    axis_len = sat.shape[1] if line_axis == "row" else sat.shape[0]
    for d in range(2, min(line_reach + 2, axis_len)):
        for sgn in (-1, 1):
            if line_axis == "row":
                _or_shifted(masked, sat, 0, sgn * d)
            else:
                _or_shifted(masked, sat, sgn * d, 0)
    return masked


def check_mask_knobs(threshold: float, line_reach: int, line_axis: str) -> None:
    """Validate the knobs of `saturation_mask`.

    A threshold that is not a positive finite number would mask nothing
    (NaN, inf) or every measurement (0 or less), and a negative line reach
    would silently shorten the blooming mask.
    """
    require_real("saturation threshold", threshold, 0, strict=True)
    require_count("line reach", line_reach, 0)
    if line_axis not in ("row", "col"):
        raise ValueError(f"line_axis must be 'row' or 'col', got {line_axis!r}")


def _or_shifted(dst: np.ndarray, src: np.ndarray, di: int, dj: int) -> None:
    """dst |= src shifted by (di, dj) along the two leading axes, zero-filled.

    A shift at least as long as its axis moves everything out and does
    nothing.
    """
    n_i, n_j = src.shape[:2]
    if abs(di) >= n_i or abs(dj) >= n_j:
        return
    dst[max(0, di) : n_i + min(0, di), max(0, dj) : n_j + min(0, dj)] |= src[
        max(0, -di) : n_i - max(0, di), max(0, -dj) : n_j - max(0, dj)
    ]


def exposure_weights(times: np.ndarray) -> np.ndarray:
    """Inverse-exposure weights normalized to sum to one."""
    w = 1.0 / np.asarray(times, dtype=np.float64)
    return w / w.sum()


class _EntryStats(NamedTuple):
    """Per-entry (I, J, K) sufficient statistics of the masked fit."""

    num: np.ndarray  # sum_l keep * w_l * t_l * resid_l
    den: np.ndarray  # sum_l keep * w_l * t_l**2
    a_star: np.ndarray  # num / den, the per-entry optimum of a = v * r; 0 if den = 0
    s_min: np.ndarray  # sum_l keep * w_l * (resid_l - a_star * t_l)**2


# Elements per (rows, J, K) slice of the blocked statistics pass: 128 KB of
# float64, so the block's statistics and temporaries stay in L2 across all
# exposures.
_BLOCK_ELEMENTS = 16384


def _entry_statistics(
    series: ExposureSeries, dark: DarkModel, mask: np.ndarray
) -> _EntryStats:
    """Sufficient statistics from one pass over the exposures, a row block at a time.

    a_star and s_min follow the weighted running mean and sum of squared
    deviations of resid_l / t_l with weights keep * w_l * t_l**2 (West 1979),
    so s_min is a sum of non-negative terms, never a difference of large
    sums, and does not cancel on noiseless data.  A masked measurement adds
    exactly zero to every statistic.  Each block of sensor rows runs through
    all exposures before the next one starts; every element sees the same
    operations in the same order as in an unblocked pass.
    """
    if mask.shape != series.mu.shape:
        raise ValueError("mask does not match the series")
    n_i, n_j, n_k, n_l = series.mu.shape
    w = exposure_weights(series.times)
    wt = w * series.times
    wt2 = w * series.times**2
    dark_t = np.broadcast_to(dark.evaluate(series.times), (n_i, n_j, n_l))
    num, den, a_star, s_min = (np.zeros((n_i, n_j, n_k)) for _ in range(4))
    rows = min(n_i, max(1, _BLOCK_ELEMENTS // (n_j * n_k)))
    bufs = np.empty((5, rows, n_j, n_k))
    keep = np.empty((rows, n_j, n_k), dtype=bool)
    for i0 in range(0, n_i, rows):
        blk = slice(i0, i0 + rows)
        n_b, d_b, a_b, s_b = num[blk], den[blk], a_star[blk], s_min[blk]
        resid, q, frac, delta, tmp = bufs[:, : n_b.shape[0]]
        kp = keep[: n_b.shape[0]]
        for l, t in enumerate(series.times):
            np.logical_not(mask[blk, :, :, l], out=kp)
            np.subtract(series.mu[blk, :, :, l], dark_t[blk, :, l, None], out=resid)
            np.multiply(kp, resid, out=tmp)
            tmp *= wt[l]
            n_b += tmp
            np.multiply(kp, wt2[l], out=q)
            d_b += q
            frac.fill(0.0)
            np.divide(q, d_b, out=frac, where=d_b > 0)
            np.divide(resid, t, out=delta)
            delta -= a_b
            np.multiply(frac, delta, out=tmp)
            a_b += tmp
            np.subtract(1.0, frac, out=frac)
            np.multiply(q, frac, out=tmp)
            tmp *= delta
            tmp *= delta
            s_b += tmp
    return _EntryStats(num, den, a_star, s_min)


def fit_vignetting_responsivity(
    series: ExposureSeries, dark: DarkModel, mask: np.ndarray
) -> CalibResult:
    """Alternating weighted least squares for the vignetting and responsivity.

    Each half sweep solves one factor exactly with the other frozen, so the
    objective is non-increasing per half sweep.  The fit stops when a full
    sweep lowers the objective by less than REL_TOL (relative), once it falls
    to EXACT_FIT_FLOOR times its starting value, or after MAX_SWEEPS sweeps.
    Pixels or (filter, Bayer) entries without any usable measurement are
    reported as unrecoverable and excluded; the fit proceeds on the rest.
    Raises ValueError when no pixel is recoverable, and FloatingPointError at
    the first half sweep (0: the start) whose objective is not finite.
    """
    stats = _entry_statistics(series, dark, mask)
    return _alternating_fit(stats, series.bayer)


def _alternating_fit(stats: _EntryStats, bayer: np.ndarray) -> CalibResult:
    n_i, n_j, n_k = stats.den.shape
    # The half sweeps are GEMMs over the (I * J, K) statistics; the v update
    # keeps each pixel's own Bayer-type column of its product.
    num_px = stats.num.reshape(-1, n_k)
    den_px = stats.den.reshape(-1, n_k)
    px_type = bayer.reshape(-1)
    px = np.arange(px_type.size)
    onehot = np.eye(BAYER_TYPES)[px_type]
    buf = np.empty((n_i, n_j, n_k))

    v = np.ones((n_i, n_j))
    r = np.ones((n_k, BAYER_TYPES))
    valid_v = np.ones((n_i, n_j), dtype=bool)
    valid_r = np.ones((n_k, BAYER_TYPES), dtype=bool)
    trace: list[float] = []

    def record() -> None:
        # Per entry the objective is quadratic in a = v * r with its minimum
        # s_min at a_star, so it equals s_min + den * (a - a_star)**2
        # exactly.  Entries of an unrecoverable pixel or responsivity are
        # zeroed, not gathered out.
        np.take(r.T, bayer, axis=0, out=buf, mode="clip")
        np.multiply(buf, v[:, :, None], out=buf)
        np.subtract(buf, stats.a_star, out=buf)
        np.square(buf, out=buf)
        np.multiply(buf, stats.den, out=buf)
        np.add(buf, stats.s_min, out=buf)
        if not (valid_v.all() and valid_r.all()):
            np.copyto(buf, 0.0, where=~(valid_v[:, :, None] & valid_r.T[bayer]))
        value = float(buf.sum())
        if not math.isfinite(value):
            raise FloatingPointError(f"calibration objective is {value} at half sweep {len(trace)}")
        trace.append(value)

    record()
    for _ in range(MAX_SWEEPS):
        # r update: exact minimizer per (k, bayer type).
        vmap = np.where(valid_v, v, 0.0).reshape(-1, 1)
        num = ((onehot * vmap).T @ num_px).T
        den = ((onehot * (vmap * vmap)).T @ den_px).T
        bad_r = den <= 0
        valid_r &= ~bad_r
        r = np.where(valid_r, num / np.where(bad_r, 1.0, den), np.nan)
        record()

        # v update: exact minimizer per pixel.
        r0 = np.where(valid_r, r, 0.0)
        num = (num_px @ r0)[px, px_type].reshape(n_i, n_j)
        den = (den_px @ (r0 * r0))[px, px_type].reshape(n_i, n_j)
        bad_v = den <= 0
        valid_v &= ~bad_v
        v = np.where(bad_v, np.nan, num / np.where(bad_v, 1.0, den))
        record()

        prev, cur = trace[-3], trace[-1]
        if (
            prev <= 0
            or cur <= EXACT_FIT_FLOOR * trace[0]
            or (prev - cur) / max(prev, 1e-30) < REL_TOL
        ):
            break

    if not valid_v.any():
        raise ValueError("no recoverable pixel")
    # Gauge: mean vignetting of recoverable pixels is one.
    scale = float(np.mean(v[valid_v]))
    if scale <= 0:
        warnings.warn("degenerate vignetting scale; gauge not applied")
    else:
        v = v / scale
        r = r * scale

    return CalibResult(
        vignetting=v,
        responsivity=r,
        residual=trace[-1],
        # Plain ints (not np.int64), so the lists can be written as JSON.
        unrecoverable_pixels=[tuple(ix) for ix in np.argwhere(~valid_v).tolist()],
        unrecoverable_responsivities=[
            tuple(ix) for ix in np.argwhere(~valid_r).tolist()
        ],
        objective_trace=trace,
    )
