"""Radiometric calibration: dark fit, blooming mask, factorized fit."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from codedlf import calib


def synth_setup(seed, i_dim=12, j_dim=12, k_dim=5, n_exp=8, noise=0.0):
    """Model-generated exposure series with known factors."""
    rng = np.random.default_rng(seed)
    times = np.geomspace(0.01, 2.0, n_exp)
    offset = rng.uniform(0.01, 0.03, size=(i_dim, j_dim))
    current = rng.uniform(0.0005, 0.002, size=(i_dim, j_dim))
    v = rng.uniform(0.6, 1.0, size=(i_dim, j_dim))
    v /= v.mean()
    r = rng.uniform(0.3, 1.5, size=(k_dim, 3))
    bayer = rng.integers(0, 3, size=(i_dim, j_dim))
    rmap = r[:, bayer].transpose(1, 2, 0)  # (I, J, K)
    mu = offset[..., None, None] + (
        v[:, :, None, None] * rmap[..., None] + current[..., None, None]
    ) * times
    mu = np.clip(mu, 0.0, 1.0)
    if noise > 0:
        mu = np.clip(mu * (1.0 + noise * rng.normal(size=mu.shape)), 0.0, 1.0)
    dark_stack = offset[..., None] + current[..., None] * times
    return {
        "times": times, "offset": offset, "current": current,
        "v": v, "r": r, "bayer": bayer, "mu": mu, "dark_stack": dark_stack,
    }


def full_stack_objective(series, dark, mask, v, r):
    """The fit objective summed over the full (I, J, K, L) stack (test oracle)."""
    n_i, n_j, _, n_l = series.mu.shape
    dark_stack = np.broadcast_to(dark.evaluate(series.times), (n_i, n_j, n_l))
    resid = series.mu - dark_stack[:, :, None, :]
    w = calib.exposure_weights(series.times)
    rmap = r[:, series.bayer].transpose(1, 2, 0)
    ok = np.isfinite(v)[:, :, None] & np.isfinite(rmap)
    model = np.nan_to_num(v[:, :, None] * rmap)[..., None] * series.times
    return float((~mask * ok[..., None] * w * (resid - model) ** 2).sum())


def reference_fit(series, dark, mask, max_sweeps=200, rel_tol=1e-8):
    """The alternating fit with every sum taken over the full stack (test oracle).

    Returns v and r before the gauge is applied, and the objective trace.
    """
    times, bayer = series.times, series.bayer
    n_i, n_j, n_k, n_l = series.mu.shape
    dark_stack = np.broadcast_to(dark.evaluate(times), (n_i, n_j, n_l))
    resid = series.mu - dark_stack[:, :, None, :]
    w = calib.exposure_weights(times)
    keep = ~mask
    num_tl = (keep * resid * (w * times)).sum(axis=3)
    den_tl = (keep * (w * times**2)).sum(axis=3)
    onehot = np.eye(calib.BAYER_TYPES)[bayer]
    v = np.ones((n_i, n_j))
    r = np.ones((n_k, calib.BAYER_TYPES))
    trace = [full_stack_objective(series, dark, mask, v, r)]
    for _ in range(max_sweeps):
        vmap = np.nan_to_num(v)
        num = np.einsum("ijk,ijn,ij->kn", num_tl, onehot, vmap)
        den = np.einsum("ijk,ijn,ij->kn", den_tl, onehot, vmap * vmap)
        r = np.where(np.isfinite(r) & (den > 0), num / np.where(den > 0, den, 1.0), np.nan)
        trace.append(full_stack_objective(series, dark, mask, v, r))
        rmap = np.nan_to_num(r)[:, bayer].transpose(1, 2, 0)
        num = (num_tl * rmap).sum(axis=2)
        den = (den_tl * rmap * rmap).sum(axis=2)
        v = np.where(np.isfinite(v) & (den > 0), num / np.where(den > 0, den, 1.0), np.nan)
        trace.append(full_stack_objective(series, dark, mask, v, r))
        prev, cur = trace[-3], trace[-1]
        if (
            prev <= 0
            or cur <= calib.EXACT_FIT_FLOOR * trace[0]
            or (prev - cur) / max(prev, 1e-30) < rel_tol
        ):
            break
    return v, r, trace


def align_gauge(result, v_true, bayer):
    """Remove the per-Bayer-type scale freedom before comparing factors.

    Scaling every pixel of one Bayer type by c and dividing that type's
    responsivity column by c leaves the model invariant, so recovery is
    only meaningful after aligning those three scales.
    """
    v = result.vignetting.copy()
    r = result.responsivity.copy()
    for n in range(calib.BAYER_TYPES):
        sel = bayer == n
        if not np.any(sel):
            continue
        c = np.mean(v_true[sel]) / np.mean(v[sel])
        v[sel] *= c
        r[:, n] /= c
    return v, r


@pytest.mark.parametrize("bad", ["nan-mean", "nan-time", "inf-time"])
def test_series_rejects_non_finite_values(bad):
    mu = np.full((2, 2, 1, 3), 0.5)
    times = np.array([0.1, 0.2, 0.4])
    if bad == "nan-mean":
        mu[1, 0, 0, 2] = np.nan
    else:
        times[2] = np.nan if bad == "nan-time" else np.inf
    with pytest.raises(ValueError):
        calib.ExposureSeries(mu=mu, times=times, bayer=np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("value", [1.7, 3.0, -1.0])
def test_series_rejects_bayer_values_other_than_0_1_2(value):
    # 1.7 used to be cast to 1 before any check.
    with pytest.raises(ValueError, match="^Bayer map values must be the integers 0, 1 or 2$"):
        calib.ExposureSeries(
            mu=np.full((4, 4, 1, 2), 0.5), times=np.array([0.1, 0.2]), bayer=np.full((4, 4), value)
        )


def test_series_casts_integer_valued_bayer_maps():
    series = calib.ExposureSeries(
        mu=np.full((2, 2, 1, 2), 0.5), times=np.array([0.1, 0.2]),
        bayer=np.array([[0.0, 1.0], [1.0, 2.0]], dtype=np.float32),
    )
    assert series.bayer.dtype == np.int64
    assert series.bayer.tolist() == [[0, 1], [1, 2]]


class TestFitDark:
    @pytest.mark.parametrize("layout", ["contiguous", "float32-exposures-first"])
    @pytest.mark.parametrize("n_exp", [2, 3, 5, 8, 9, 16, 33])
    def test_global_model_matches_its_own_regression(self, global_dark_oracle, n_exp, layout):
        # The global model is the per-pixel regression of the mean dark
        # frame; the scalar formula it replaced must give the same bits,
        # also on the float32 (L, I, J) container view that calibrate passes.
        rng = np.random.default_rng(n_exp)
        times = np.geomspace(0.01, 2.0, n_exp)
        mu = 0.02 + 0.001 * times + rng.normal(0.0, 1e-3, size=(6, 7, n_exp))
        if layout != "contiguous":
            mu = mu.transpose(2, 0, 1).astype(np.float32).transpose(1, 2, 0)
        dm = calib.fit_dark(mu, times, per_pixel=False)
        assert type(dm.offset) is float and type(dm.current) is float
        got = np.array([dm.offset, dm.current])
        assert got.tobytes() == np.array(global_dark_oracle(mu, times)).tobytes()

    def test_exact_linear_data(self):
        times = np.array([0.1, 0.5, 1.0, 2.0])
        mu = 0.02 + 0.001 * times
        dm = calib.fit_dark(np.broadcast_to(mu, (4, 4, 4)).copy(), times)
        np.testing.assert_allclose(dm.offset, 0.02, atol=1e-9)
        np.testing.assert_allclose(dm.current, 0.001, atol=1e-9)

    def test_noisy_monte_carlo(self):
        times = np.geomspace(0.05, 2.0, 10)
        worst_off, worst_cur = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mu = 0.02 + 0.001 * times + rng.normal(0, 1e-4, size=(1, 1, 10))
            dm = calib.fit_dark(mu, times, per_pixel=False)
            worst_off = max(worst_off, abs(dm.offset - 0.02))
            worst_cur = max(worst_cur, abs(dm.current - 0.001))
        assert worst_off <= 1e-3 and worst_cur <= 1e-3

    def test_constant_series_zero_slope(self):
        times = np.array([0.1, 1.0, 2.0])
        dm = calib.fit_dark(np.full((2, 2, 3), 0.02), times)
        np.testing.assert_allclose(dm.current, 0.0, atol=1e-12)

    def test_too_few_exposures(self):
        with pytest.raises(ValueError):
            calib.fit_dark(np.zeros((2, 2, 1)), np.array([0.5]))


class TestSaturationMask:
    def make_series(self, mu):
        return calib.ExposureSeries(
            mu=mu,
            times=np.geomspace(0.1, 1.0, mu.shape[3]),
            bayer=np.zeros(mu.shape[:2], dtype=int),
        )

    def test_no_saturation_empty_mask(self):
        mu = np.full((6, 6, 2, 1), 0.5)
        assert calib.saturation_mask(self.make_series(mu)).sum() == 0

    def test_interior_pixel_masks_19_positions(self):
        mu = np.full((13, 13, 1, 1), 0.5)
        mu[6, 6, 0, 0] = 0.99
        mask = calib.saturation_mask(self.make_series(mu))
        assert int(mask.sum()) == 19
        # Exhaustive enumeration: itself, the 8-neighborhood, and the next
        # 5 pixels on each side along the readout row.
        expected = {(6, 6)}
        expected |= {(6 + di, 6 + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)}
        expected |= {(6, 6 + d * s) for d in range(2, 7) for s in (-1, 1)}
        got = {(i, j) for i, j, _, _ in np.argwhere(mask)}
        assert got == expected

    def test_threshold_matches_ten_bit_sensor(self):
        assert calib.SATURATION_THRESHOLD == pytest.approx(1008 / 1023, abs=5e-4)

    def test_line_axis_configurable(self):
        mu = np.full((13, 13, 1, 1), 0.5)
        mu[6, 6, 0, 0] = 0.99
        mask = calib.saturation_mask(self.make_series(mu), line_axis="col")
        got = {(i, j) for i, j, _, _ in np.argwhere(mask)}
        # extension runs along i now: distance up to 1 + line_reach
        assert (0, 6) in got and (12, 6) in got
        assert (6, 0) not in got and (6, 12) not in got
        assert int(mask.sum()) == 19
        with pytest.raises(ValueError):
            calib.saturation_mask(self.make_series(mu), line_axis="diag")

    @pytest.mark.parametrize("line_axis", ["row", "col"])
    @pytest.mark.parametrize("width", range(1, 8))
    def test_narrow_sensor_matches_per_pixel_reference(self, width, line_axis):
        # Sensors no wider than line_reach along the readout line used to
        # fail with a broadcast error.
        rng = np.random.default_rng(width)
        shape = (5, width) if line_axis == "row" else (width, 5)
        mu = rng.uniform(0.5, 0.9, size=shape + (2, 2))
        mu[rng.uniform(size=mu.shape) < 0.1] = 0.99
        mask = calib.saturation_mask(self.make_series(mu), line_axis=line_axis)
        sat = mu > calib.SATURATION_THRESHOLD
        expected = np.zeros_like(sat)
        for i, j, k, l in np.argwhere(sat):
            for ii in range(shape[0]):
                for jj in range(shape[1]):
                    along, across = (jj - j, ii - i) if line_axis == "row" else (ii - i, jj - j)
                    near = max(abs(along), abs(across)) <= 1
                    on_line = across == 0 and abs(along) <= 1 + calib.LINE_REACH
                    expected[ii, jj, k, l] |= near or on_line
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("line_axis", ["row", "col"])
    def test_huge_line_reach_stops_at_the_sensor_edge(self, line_axis):
        # The readout loop used to run line_reach times after every shift
        # had left the sensor: a reach of 10**9 spun for about 20 minutes.
        rng = np.random.default_rng(5)
        mu = rng.uniform(0.5, 0.9, size=(6, 9, 2, 2))
        mu[rng.uniform(size=mu.shape) < 0.1] = 0.99
        series = self.make_series(mu)
        axis_len = 9 if line_axis == "row" else 6
        start = time.perf_counter()
        huge = calib.saturation_mask(series, line_reach=10**9, line_axis=line_axis)
        assert time.perf_counter() - start < 5.0
        edge = calib.saturation_mask(series, line_reach=axis_len, line_axis=line_axis)
        assert np.array_equal(huge, edge)

    def test_mask_is_per_channel_and_exposure(self):
        mu = np.full((6, 6, 2, 3), 0.5)
        mu[2, 2, 0, 1] = 0.999
        mask = calib.saturation_mask(self.make_series(mu))
        assert mask[:, :, 1, :].sum() == 0
        assert mask[:, :, 0, 0].sum() == 0
        assert mask[:, :, 0, 1].sum() > 0

    def test_float32_stack_is_kept_and_compared_in_float64(self):
        # The CLI passes the float32 view of its container.  The series keeps
        # it, and the threshold test widens it exactly: np.float32(0.985) is
        # 0.98500001, above the threshold, so its pixel is masked.
        mu = np.full((5, 5, 1, 1), 0.5, dtype=np.float32)
        mu[2, 2, 0, 0] = np.float32(calib.SATURATION_THRESHOLD)
        series = self.make_series(mu)
        assert np.shares_memory(series.mu, mu)
        mask = calib.saturation_mask(series, line_reach=0)
        assert mask[2, 2, 0, 0] and int(mask.sum()) == 9


class TestVignettingResponsivityFit:
    def test_noiseless_recovery(self):
        data = synth_setup(seed=1)
        dm = calib.fit_dark(data["dark_stack"], data["times"])
        series = calib.ExposureSeries(
            mu=data["mu"], times=data["times"], bayer=data["bayer"]
        )
        mask = calib.saturation_mask(series)
        res = calib.fit_vignetting_responsivity(series, dm, mask)
        assert abs(np.mean(res.vignetting[np.isfinite(res.vignetting)]) - 1.0) <= 1e-6
        v, r = align_gauge(res, data["v"], data["bayer"])
        assert np.nanmax(np.abs(v - data["v"]) / data["v"]) <= 1e-3
        assert np.nanmax(np.abs(r - data["r"]) / data["r"]) <= 1e-3

    def test_one_percent_noise_monte_carlo(self):
        worst = 0.0
        for seed in range(20):
            data = synth_setup(seed=seed, i_dim=12, j_dim=12, n_exp=12, noise=0.01)
            dm = calib.fit_dark(data["dark_stack"], data["times"])
            series = calib.ExposureSeries(
                mu=data["mu"], times=data["times"], bayer=data["bayer"]
            )
            mask = calib.saturation_mask(series)
            res = calib.fit_vignetting_responsivity(series, dm, mask)
            v, r = align_gauge(res, data["v"], data["bayer"])
            err_v = np.linalg.norm(v - data["v"]) / np.linalg.norm(data["v"])
            err_r = np.linalg.norm(r - data["r"]) / np.linalg.norm(data["r"])
            worst = max(worst, err_v, err_r)
        assert worst <= 1e-2

    def test_objective_non_increasing_per_half_sweep(self):
        data = synth_setup(seed=3, noise=0.05)
        dm = calib.fit_dark(data["dark_stack"], data["times"])
        series = calib.ExposureSeries(
            mu=data["mu"], times=data["times"], bayer=data["bayer"]
        )
        mask = calib.saturation_mask(series)
        res = calib.fit_vignetting_responsivity(series, dm, mask)
        tr = res.objective_trace
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_masked_entries_have_zero_influence(self):
        data = synth_setup(seed=4)
        dm = calib.fit_dark(data["dark_stack"], data["times"])
        series = calib.ExposureSeries(
            mu=data["mu"], times=data["times"], bayer=data["bayer"]
        )
        mask = calib.saturation_mask(series)
        # force-mask one interior measurement, then perturb it
        mask = mask.copy()
        mask[5, 5, 2, 3] = True
        res1 = calib.fit_vignetting_responsivity(series, dm, mask)
        mu2 = data["mu"].copy()
        mu2[5, 5, 2, 3] = 0.123
        series2 = calib.ExposureSeries(
            mu=mu2, times=data["times"], bayer=data["bayer"]
        )
        res2 = calib.fit_vignetting_responsivity(series2, dm, mask)
        assert np.array_equal(
            res1.vignetting[np.isfinite(res1.vignetting)],
            res2.vignetting[np.isfinite(res2.vignetting)],
        )
        assert np.array_equal(
            res1.responsivity[np.isfinite(res1.responsivity)],
            res2.responsivity[np.isfinite(res2.responsivity)],
        )

    def test_gauge_invariance_of_model(self):
        data = synth_setup(seed=5)
        c = 1.7
        rmap = data["r"][:, data["bayer"]].transpose(1, 2, 0)
        model1 = data["v"][:, :, None] * rmap
        model2 = (c * data["v"])[:, :, None] * (rmap / c)
        np.testing.assert_allclose(model1, model2, rtol=1e-12)

    def test_unrecoverable_pixels_reported(self):
        data = synth_setup(seed=6, i_dim=8, j_dim=8)
        dm = calib.fit_dark(data["dark_stack"], data["times"])
        series = calib.ExposureSeries(
            mu=data["mu"], times=data["times"], bayer=data["bayer"]
        )
        mask = calib.saturation_mask(series)
        mask = mask.copy()
        mask[2, 3, :, :] = True  # no usable measurement for this pixel
        res = calib.fit_vignetting_responsivity(series, dm, mask)
        assert (2, 3) in res.unrecoverable_pixels
        assert not np.isfinite(res.vignetting[2, 3])


def _mask_one_entry(mask, bayer):
    mask[5, 5, 2, 3] = True


def _mask_unrecoverable(mask, bayer):
    mask[2, 3] = True  # no usable measurement for this pixel
    mask[bayer == 0, 1] = True  # nor for responsivity entry (1, 0)


# name: (synth_setup arguments, mask edit, per-pixel dark model)
FIT_CASES = {
    "noisy": (dict(seed=3, noise=0.05), None, True),
    "noiseless": (dict(seed=1), None, True),
    "force-masked": (dict(seed=4), _mask_one_entry, True),
    "unrecoverable": (dict(seed=6, i_dim=8, j_dim=8, noise=0.01), _mask_unrecoverable, True),
    "global-dark": (dict(seed=9, noise=0.01), None, False),
}


def fit_case(name):
    setup, edit_mask, per_pixel = FIT_CASES[name]
    data = synth_setup(**setup)
    dm = calib.fit_dark(data["dark_stack"], data["times"], per_pixel=per_pixel)
    series = calib.ExposureSeries(mu=data["mu"], times=data["times"], bayer=data["bayer"])
    mask = calib.saturation_mask(series)
    if edit_mask is not None:
        edit_mask(mask, data["bayer"])
    return series, dm, mask


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_matches_full_stack_oracle(case):
    series, dm, mask = fit_case(case)
    res = calib.fit_vignetting_responsivity(series, dm, mask)
    v_ref, r_ref, trace_ref = reference_fit(series, dm, mask)
    # Same number of half sweeps, and the same objective at every one.
    assert len(res.objective_trace) == len(trace_ref)
    np.testing.assert_allclose(res.objective_trace, trace_ref, rtol=1e-12, atol=1e-12)
    assert res.residual == res.objective_trace[-1]
    assert res.unrecoverable_pixels == [tuple(ix) for ix in np.argwhere(np.isnan(v_ref))]
    assert res.unrecoverable_responsivities == [
        tuple(ix) for ix in np.argwhere(np.isnan(r_ref))
    ]
    if case == "unrecoverable":
        assert (2, 3) in res.unrecoverable_pixels
        assert (1, 0) in res.unrecoverable_responsivities
    # The model product v * r is gauge invariant.
    rmap = res.responsivity[:, series.bayer].transpose(1, 2, 0)
    rmap_ref = r_ref[:, series.bayer].transpose(1, 2, 0)
    np.testing.assert_allclose(
        res.vignetting[:, :, None] * rmap, v_ref[:, :, None] * rmap_ref, rtol=1e-9
    )


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_matches_einsum_oracle(case, calib_oracles):
    entry_statistics, alternating_fit = calib_oracles
    series, dm, mask = fit_case(case)
    stats = calib._entry_statistics(series, dm, mask)
    res = calib._alternating_fit(stats, series.bayer)
    ref = alternating_fit(stats, series.bayer)
    assert len(res.objective_trace) == len(ref.objective_trace)
    # At the start every entry is recoverable, and the in-place objective
    # sums the same terms in the same order as the oracle's gather.
    assert res.objective_trace[0] == ref.objective_trace[0]
    # Exact data drive the objective to about 1e-21 of its start, where only
    # rounding noise is left, so the bound is also relative to the start.
    np.testing.assert_allclose(
        res.objective_trace, ref.objective_trace, rtol=1e-12,
        atol=1e-12 * ref.objective_trace[0],
    )
    assert res.unrecoverable_pixels == ref.unrecoverable_pixels
    assert res.unrecoverable_responsivities == ref.unrecoverable_responsivities
    # Plain ints, so that the CLI can write them as JSON.
    for ix in res.unrecoverable_pixels + res.unrecoverable_responsivities:
        assert all(type(i) is int for i in ix)


@pytest.mark.parametrize("exposure_major", [False, True])
@pytest.mark.parametrize("per_pixel", [True, False])
@pytest.mark.parametrize(
    "shape",
    [
        (5, 1024, 8, 8),  # several rows per block; the last block is short
        (3, 64, 300, 2),  # rows longer than a block: one row per block
        (12, 12, 5, 8),  # the whole sensor in one block
    ],
)
def test_blocked_statistics_equal_per_exposure_oracle(
    shape, per_pixel, exposure_major, calib_oracles
):
    entry_statistics, _ = calib_oracles
    rng = np.random.default_rng(sum(shape) + per_pixel)
    n_i, n_j, n_k, n_l = shape
    times = np.geomspace(0.01, 2.0, n_l)
    if exposure_major:  # the layout of the stack the CLI reads
        mu = rng.uniform(0.0, 1.0, size=(n_l, n_i, n_j, n_k)).transpose(1, 2, 3, 0)
    else:
        mu = rng.uniform(0.0, 1.0, size=shape)
    dark_stack = rng.uniform(0.01, 0.03, size=(n_i, n_j, 1)) + 0.001 * times
    dm = calib.fit_dark(dark_stack, times, per_pixel=per_pixel)
    series = calib.ExposureSeries(mu=mu, times=times, bayer=np.zeros((n_i, n_j), dtype=int))
    mask = rng.uniform(size=shape) < 0.2
    mask[0, 1] = True  # one pixel with no measurement at all
    got = calib._entry_statistics(series, dm, mask)
    ref = entry_statistics(series, dm, mask)
    for name, a, b in zip(got._fields, got, ref):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize(
    "knobs",
    [
        dict(threshold=float("nan")),
        dict(threshold=float("inf")),
        dict(threshold=0.0),
        dict(threshold=-1.0),
        dict(line_reach=-1),
    ],
)
def test_saturation_mask_rejects_malformed_knobs(knobs):
    series, _, _ = fit_case("noiseless")
    with pytest.raises(ValueError):
        calib.saturation_mask(series, **knobs)


def test_global_dark_model_is_the_per_pixel_model_with_constant_maps():
    # One evaluate expression serves both kinds of model, for a vector of
    # times and for a scalar time.
    data = synth_setup(seed=7)
    dm_global = calib.fit_dark(data["dark_stack"], data["times"], per_pixel=False)
    shape = data["offset"].shape
    dm_pixel = calib.DarkModel(
        offset=np.full(shape, dm_global.offset), current=np.full(shape, dm_global.current)
    )
    assert dm_pixel.per_pixel and not dm_global.per_pixel
    expected = dm_global.offset + dm_global.current * data["times"]
    assert np.array_equal(dm_global.evaluate(data["times"]), expected)
    for t in (data["times"], 0.3):
        dark_pixel = dm_pixel.evaluate(t)
        assert np.array_equal(np.broadcast_to(dm_global.evaluate(t), dark_pixel.shape), dark_pixel)


def _series(mu_shape=(2, 2, 1, 3), n_times=3, bayer_shape=(2, 2)):
    return calib.ExposureSeries(
        mu=np.full(mu_shape, 0.5), times=np.geomspace(0.1, 0.4, n_times),
        bayer=np.zeros(bayer_shape, dtype=int),
    )


@pytest.mark.parametrize("call, message", [
    (lambda: _series(mu_shape=(2, 2, 3)), "series must be (I, J, K, L), got (2, 2, 3)"),
    (lambda: _series(n_times=2), "exposure times do not match the series"),
    (lambda: _series(bayer_shape=(2, 3)), "Bayer map does not match the spatial dims"),
    (lambda: calib.fit_dark(np.zeros((2, 3)), np.array([0.1, 0.2, 0.4])),
     "dark stack and exposure times are inconsistent"),
    (lambda: calib.fit_dark(np.zeros((2, 2, 3)), np.array([0.1, 0.2])),
     "dark stack and exposure times are inconsistent"),
    (lambda: calib.fit_dark(np.zeros((2, 2, 3)), np.full(3, 0.2)),
     "exposure times are all equal; slope is unidentifiable"),
    (lambda: calib.fit_vignetting_responsivity(
        _series(), calib.DarkModel(0.0, 0.0), np.zeros((2, 2, 1, 2), dtype=bool)),
     "mask does not match the series"),
], ids=["series-rank", "series-times", "series-bayer", "dark-rank", "dark-times",
        "dark-equal-times", "mask-shape"])
def test_inconsistent_shapes_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_degenerate_gauge_warns_and_leaves_the_fit_unscaled():
    # One bright pixel seen at every exposure and two darkening ones seen
    # at the first only: the weighted fit gives r > 0, so the darkening
    # pixels get v < 0 and the mean vignetting is negative.
    times = np.array([0.1, 0.2, 0.4, 0.8])
    mu = np.empty((1, 3, 1, 4))
    mu[0, 0, 0] = 0.5 + 0.4 * times
    mu[0, 1:, 0] = 0.5 - 0.3 * times
    mask = np.zeros(mu.shape, dtype=bool)
    mask[0, 1:, 0, 1:] = True
    series = calib.ExposureSeries(mu=mu, times=times, bayer=np.zeros((1, 3), dtype=int))
    with pytest.warns(UserWarning, match="^degenerate vignetting scale; gauge not applied$"):
        res = calib.fit_vignetting_responsivity(series, calib.DarkModel(0.5, 0.0), mask)
    assert np.mean(res.vignetting) <= 0
    # unscaled: the fitted products v * r are the per-pixel slopes
    np.testing.assert_allclose(res.vignetting * res.responsivity[0, 0], [[0.4, -0.3, -0.3]])


def test_fit_without_recoverable_pixel_raises():
    series, dm, mask = fit_case("noiseless")
    mask[...] = True
    with pytest.raises(ValueError, match="no recoverable pixel"):
        calib.fit_vignetting_responsivity(series, dm, mask)


def test_non_finite_objective_raises_at_its_half_sweep():
    # The noiseless series with exposure times up to 1e200: t_l**2 overflows,
    # so the starting objective is already NaN.  The fit used to run all
    # MAX_SWEEPS sweeps on it and return a NaN trace.
    data = synth_setup(seed=1)
    times = np.geomspace(1e150, 1e200, data["times"].size)
    dm = calib.fit_dark(data["dark_stack"], data["times"])
    series = calib.ExposureSeries(mu=data["mu"], times=times, bayer=data["bayer"])
    mask = calib.saturation_mask(series)
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match="^calibration objective is nan at half sweep 0$"
    ):
        calib.fit_vignetting_responsivity(series, dm, mask)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
def test_exact_data_sweep_count_independent_of_summation_order(seed):
    # The sufficient statistics and the oracle's full-stack sums round
    # differently.  On exact data the objective decays toward its rounding
    # floor, and the fit must stop on EXACT_FIT_FLOOR before rounding noise
    # decides the relative-decrease test.  Seed 6 is the 8x8 sensor with a
    # fully masked pixel.
    data = synth_setup(seed) if seed < 6 else synth_setup(seed, i_dim=8, j_dim=8)
    dm = calib.fit_dark(data["dark_stack"], data["times"])
    series = calib.ExposureSeries(mu=data["mu"], times=data["times"], bayer=data["bayer"])
    mask = calib.saturation_mask(series)
    if seed == 6:
        mask[2, 3] = True
    res = calib.fit_vignetting_responsivity(series, dm, mask)
    _, _, trace_ref = reference_fit(series, dm, mask)
    assert len(res.objective_trace) == len(trace_ref)
    assert res.residual <= calib.EXACT_FIT_FLOOR * res.objective_trace[0]


def test_fit_allocates_no_full_size_stack():
    data = synth_setup(seed=2, i_dim=64, j_dim=64, k_dim=8, n_exp=8, noise=0.01)
    dm = calib.fit_dark(data["dark_stack"], data["times"])
    series = calib.ExposureSeries(mu=data["mu"], times=data["times"], bayer=data["bayer"])
    mask = calib.saturation_mask(series)
    for fit in (calib.fit_vignetting_responsivity,):
        tracemalloc.start()
        try:
            fit(series, dm, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Any (I, J, K, L) float64 temporary is series.mu.nbytes on its own.
        assert peak <= 2 * series.mu.nbytes, (fit.__name__, peak / series.mu.nbytes)
