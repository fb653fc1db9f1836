"""Scene generation and light-field rendering tests."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from codedlf import scenegen, tensor

DIMS = (5, 5, 12, 12, 4)


def test_constant_disparity_map():
    spec = scenegen.SceneSpec(
        dims=DIMS, pattern="checker", disparity_profile="constant",
        disparity_params=(0.75,), seed=1,
    )
    _, disp = scenegen.make_scene(spec)
    assert np.all(disp == np.float32(0.75))


def test_step_and_ramp_profiles():
    spec = scenegen.SceneSpec(
        dims=DIMS, pattern="checker", disparity_profile="step",
        disparity_params=(-0.5, 1.0), seed=1,
    )
    _, disp = scenegen.make_scene(spec)
    assert np.all(disp[:, :6] == np.float32(-0.5))
    assert np.all(disp[:, 6:] == np.float32(1.0))

    spec = scenegen.SceneSpec(
        dims=DIMS, pattern="checker", disparity_profile="linear-ramp",
        disparity_params=(-1.0, 1.0), seed=1,
    )
    _, disp = scenegen.make_scene(spec)
    assert disp[0, 0] == np.float32(-1.0)
    assert disp[0, -1] == np.float32(1.0)
    assert np.all(np.diff(disp[0]) > 0)


def test_values_in_range_and_deterministic():
    for pattern in scenegen.PATTERNS:
        spec = scenegen.SceneSpec(dims=DIMS, pattern=pattern, seed=42)
        cv1, d1 = scenegen.make_scene(spec)
        cv2, d2 = scenegen.make_scene(spec)
        assert np.array_equal(cv1, cv2)
        assert np.array_equal(d1, d2)
        assert cv1.min() >= 0.0 and cv1.max() <= 1.0


def test_noise_is_seeded_and_leaves_the_disparity():
    # noise_sigma > 0 adds seeded Gaussian noise to the central view after
    # the pattern's own draws, then clips to [0, 1]; the disparity is the
    # noiseless scene's.
    spec = scenegen.SceneSpec(dims=(1, 1, 32, 32, 4), pattern="random-smooth",
                              disparity_profile="linear-ramp",
                              disparity_params=(-1.0, 1.0), seed=5, noise_sigma=0.05)
    cv, disp = scenegen.make_scene(spec)
    again, _ = scenegen.make_scene(spec)
    clean, clean_disp = scenegen.make_scene(dataclasses.replace(spec, noise_sigma=0.0))
    assert np.array_equal(cv, again)
    assert np.array_equal(disp, clean_disp)
    assert cv.min() >= 0.0 and cv.max() <= 1.0
    inside = (cv > 0.0) & (cv < 1.0)
    noise = (cv - clean)[inside]
    assert inside.mean() > 0.9
    assert abs(noise.std() - 0.05) <= 0.005 and abs(noise.mean()) <= 0.005


@pytest.mark.parametrize("shape, digest", [
    ((1, 1, 1), "72e43331ac6eac06"),
    ((5, 40, 3), "7c0f81629007366f"),
    ((12, 12, 4), "389f7537210f8ced"),
    ((7, 3, 2), "df49f3c00440e57f"),
    ((32, 32, 8), "b87ee4770aefb8e5"),
    ((2, 9, 1), "7ca7a95725e3fd75"),
])
def test_random_smooth_scenes_are_unchanged(shape, digest):
    # SHA-256 prefix of the central views for seeds 0..9: the scenes, and so
    # every dataset and benchmark input made from them, stay bit-identical.
    h = hashlib.sha256()
    for seed in range(10):
        spec = scenegen.SceneSpec(dims=(1, 1, *shape), pattern="random-smooth", seed=seed)
        h.update(scenegen.make_scene(spec)[0].tobytes())
    assert h.hexdigest()[:16] == digest


def test_spectral_stripes_single_peak_per_column():
    spec = scenegen.SceneSpec(
        dims=(3, 3, 6, 4, 4), pattern="spectral-stripes", seed=3,
    )
    cv, _ = scenegen.make_scene(spec)
    for t in range(4):
        spectrum = cv[0, t]
        assert np.argmax(spectrum) == t % 4
        assert (spectrum > spectrum.min()).sum() == 1


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        scenegen.SceneSpec(dims=(4, 5, 8, 8, 3))  # even U
    with pytest.raises(ValueError):
        scenegen.SceneSpec(dims=DIMS, pattern="nope")
    with pytest.raises(ValueError):
        scenegen.SceneSpec(dims=DIMS, disparity_profile="constant",
                           disparity_params=(3.0,))  # out of band
    with pytest.raises(ValueError):
        scenegen.SceneSpec(dims=DIMS, disparity_profile="step",
                           disparity_params=(0.5,))  # wrong arity


@pytest.mark.parametrize("call, message", [
    (lambda: scenegen.SceneSpec(dims=DIMS, disparity_profile="sine"), "unknown profile 'sine'"),
    (lambda: scenegen.render_lightfield(np.zeros((4, 4)), np.zeros((4, 4)), 3, 3),
     "central view (4, 4) and disparity (4, 4) are inconsistent"),
    (lambda: scenegen.render_lightfield(np.zeros((4, 4, 3)), np.zeros((4, 5)), 3, 3),
     "central view (4, 4, 3) and disparity (4, 5) are inconsistent"),
], ids=["unknown-profile", "view-rank", "disparity-shape"])
def test_inconsistent_inputs_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("profile, params", [
    ("constant", (float("nan"),)),
    ("constant", (float("inf"),)),
    ("linear-ramp", (float("nan"), 0.0)),
    ("step", (0.0, float("-inf"))),
])
def test_non_finite_disparity_rejected(profile, params):
    # NaN fails every comparison, so a range check alone lets it through.
    with pytest.raises(ValueError, match="disparities must be finite"):
        scenegen.SceneSpec(dims=DIMS, disparity_profile=profile, disparity_params=params)


class TestRender:
    def test_zero_disparity_replicates_central_view(self):
        spec = scenegen.SceneSpec(
            dims=DIMS, pattern="random-smooth", disparity_profile="constant",
            disparity_params=(0.0,), seed=9,
        )
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, 5, 5)
        for u in range(5):
            for v in range(5):
                assert np.array_equal(lf[u, v], cv)

    def test_central_slice_is_bit_copy(self):
        spec = scenegen.SceneSpec(
            dims=DIMS, pattern="random-smooth", disparity_profile="linear-ramp",
            disparity_params=(-1.0, 1.0), seed=10,
        )
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, 5, 5)
        u_c, v_c = tensor.central_indices(5, 5)
        assert np.array_equal(lf[u_c, v_c], cv)

    def test_integer_shift_oracle(self):
        # d = 1: view (u_c + 1, v_c) samples cv at s + 1 (interior columns).
        spec = scenegen.SceneSpec(
            dims=DIMS, pattern="checker", disparity_profile="constant",
            disparity_params=(1.0,), seed=4,
        )
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, 5, 5)
        view = lf[3, 2]  # u_c + 1, v_c
        assert np.array_equal(view[:-1, :], cv[1:, :])

    def test_epi_slope_integer(self):
        spec = scenegen.SceneSpec(
            dims=DIMS, pattern="random-smooth", disparity_profile="constant",
            disparity_params=(1.0,), seed=6,
        )
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, 5, 5)
        u, u2 = 2, 3  # shift (u2 - u) * d = 1
        # compare interior samples, away from any clamped region
        lhs = lf[u2, 2, 3:8]
        rhs = lf[u, 2, 4:9]
        assert np.allclose(lhs, rhs, atol=0, rtol=0)

    def test_epi_slope_half_integer_on_ramp(self):
        spec = scenegen.SceneSpec(
            dims=DIMS, pattern="gradient-ramp", disparity_profile="constant",
            disparity_params=(0.5,), seed=6,
        )
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, 5, 5)
        u, u2 = 1, 3  # shift (u2 - u) * 0.5 = 1 pixel
        lhs = lf[u2, 2, 4:8]
        rhs = lf[u, 2, 5:9]
        err = np.abs(lhs.astype(np.float64) - rhs.astype(np.float64)).max()
        assert err <= 1e-5

    @pytest.mark.parametrize("n_u, n_v", [(1, 1), (1, 5), (3, 3), (5, 5), (7, 3)])
    def test_matches_per_view_oracle(self, render_oracle, n_u, n_v):
        # Disparities up to 2 px times angular offsets up to 3 reach 6 px past
        # the view edges, so many samples clamp.
        rng = np.random.default_rng(10 * n_u + n_v)
        cv = rng.uniform(size=(10, 12, 3)).astype(np.float32)
        for disp in (
            rng.uniform(-2.0, 2.0, size=(10, 12)),
            np.full((10, 12), scenegen.MAX_ABS_DISPARITY, dtype=np.float32),
            np.full((10, 12), -scenegen.MAX_ABS_DISPARITY),
        ):
            got = scenegen.render_lightfield(cv, disp, n_u, n_v)
            want = render_oracle(cv, disp, n_u, n_v)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_peak_memory_stays_below_two_and_a_half_outputs(self):
        # One u row of views is sampled at a time, so its float64
        # temporaries span one row, not the whole 9 x 9 stack.
        rng = np.random.default_rng(3)
        cv = rng.uniform(size=(64, 64, 8)).astype(np.float32)
        disp = rng.uniform(-2.0, 2.0, size=(64, 64))
        tracemalloc.start()
        try:
            lf = scenegen.render_lightfield(cv, disp, 9, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * lf.nbytes

    def test_even_angular_rejected(self):
        cv = np.zeros((4, 4, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            scenegen.render_lightfield(cv, np.zeros((4, 4)), 4, 3)


def test_sample_spec_deterministic():
    a = scenegen.sample_spec(DIMS, 5)
    b = scenegen.sample_spec(DIMS, 5)
    assert a == b
