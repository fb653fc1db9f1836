"""Procedural ground-truth scenes: central views, disparity maps, light fields.

Scenes are Lambertian and non-occluding, so a central view plus its
disparity map determines the full light field.  Rendering uses the warp

    L[u, v, s, t, c] = cv(s + (u - u_c) * d[s, t],  t + (v - v_c) * d[s, t],  c)

with bilinear interpolation and clamp-to-edge sampling.  This equation is
the package's normative disparity sign convention: the sampling position
in the central view moves in +s as u increases for positive disparity.
Disparities are kept within [-2, 2] px so warps stay inside a small guard
band of the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import central_indices, require_count, require_real

PATTERNS = ("checker", "gradient-ramp", "spectral-stripes", "random-smooth")
DISPARITY_PROFILES = ("constant", "step", "linear-ramp")

MAX_ABS_DISPARITY = 2.0


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one procedural scene.

    pattern selects the central-view texture; disparity_profile one of
    "constant" (params: d), "step" (params: d_left, d_right) or
    "linear-ramp" (params: d_min, d_max).
    """

    dims: tuple[int, int, int, int, int]  # (U, V, S, T, C)
    pattern: str = "checker"
    disparity_profile: str = "constant"
    disparity_params: tuple[float, ...] = (0.5,)
    seed: int = 0
    noise_sigma: float = 0.0  # optional additive Gaussian on the central view

    def __post_init__(self):
        n_u, n_v, n_s, n_t, n_c = self.dims
        for d in self.dims:
            require_count("each dim", d, 1)
        if n_u % 2 == 0 or n_v % 2 == 0:
            raise ValueError(f"angular dims must be odd, got ({n_u}, {n_v})")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.disparity_profile not in DISPARITY_PROFILES:
            raise ValueError(f"unknown profile {self.disparity_profile!r}")
        n_params = {"constant": 1, "step": 2, "linear-ramp": 2}
        if len(self.disparity_params) != n_params[self.disparity_profile]:
            raise ValueError(
                f"{self.disparity_profile} takes {n_params[self.disparity_profile]}"
                f" parameter(s), got {self.disparity_params}"
            )
        # not (|p| <= max) also rejects NaN, which every comparison fails
        if not all(abs(p) <= MAX_ABS_DISPARITY for p in self.disparity_params):
            raise ValueError(
                f"disparities must be finite and lie in"
                f" [-{MAX_ABS_DISPARITY}, {MAX_ABS_DISPARITY}], got {self.disparity_params}"
            )
        require_real("noise_sigma", self.noise_sigma, 0)
        object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))
        object.__setattr__(
            self, "disparity_params", tuple(float(x) for x in self.disparity_params)
        )


def _pattern_checker(n_s, n_t, n_c, rng):
    block = max(1, min(n_s, n_t) // 4)
    c0 = rng.uniform(0.1, 0.45, size=n_c)
    c1 = rng.uniform(0.55, 0.9, size=n_c)
    ss, tt = np.meshgrid(np.arange(n_s), np.arange(n_t), indexing="ij")
    parity = ((ss // block + tt // block) % 2).astype(bool)
    cv = np.where(parity[..., None], c1, c0)
    return cv


def _pattern_gradient_ramp(n_s, n_t, n_c, rng):
    # Linear in (s, t) per channel; bilinear resampling of it is exact.
    a = rng.uniform(0.2, 0.8, size=n_c)
    b = rng.uniform(0.2, 0.8, size=n_c)
    ss = np.arange(n_s)[:, None, None] / max(n_s - 1, 1)
    tt = np.arange(n_t)[None, :, None] / max(n_t - 1, 1)
    cv = 0.1 + 0.8 * (a * ss + b * tt) / (a + b)
    return np.broadcast_to(cv, (n_s, n_t, n_c)).copy()


def _pattern_spectral_stripes(n_s, n_t, n_c, rng):
    # Column t gets a single-peak spectrum at channel t mod C.
    lo = 0.05
    hi = rng.uniform(0.7, 1.0)
    cv = np.full((n_s, n_t, n_c), lo)
    peaks = np.arange(n_t) % n_c
    cv[:, np.arange(n_t), peaks] = hi
    return cv


def _pattern_random_smooth(n_s, n_t, n_c, rng):
    # Low-resolution noise, bilinearly upsampled per channel.
    gs = max(2, n_s // 4)
    gt = max(2, n_t // 4)
    grid = rng.uniform(0.1, 0.9, size=(gs, gt, n_c))
    si = np.linspace(0, gs - 1, n_s)
    ti = np.linspace(0, gt - 1, n_t)
    return _bilinear_sample(grid, si[:, None], ti[None, :])


_PATTERN_FNS = {
    "checker": _pattern_checker,
    "gradient-ramp": _pattern_gradient_ramp,
    "spectral-stripes": _pattern_spectral_stripes,
    "random-smooth": _pattern_random_smooth,
}


def make_scene(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate (central view, disparity map) for a scene spec.

    The central view is an (S, T, C) float32 array with values in [0, 1];
    the disparity map is (S, T) float32.  Deterministic in spec.seed.
    """
    _, _, n_s, n_t, n_c = spec.dims
    rng = np.random.default_rng(spec.seed)
    cv = _PATTERN_FNS[spec.pattern](n_s, n_t, n_c, rng)
    if spec.noise_sigma > 0:
        cv = cv + rng.normal(0.0, spec.noise_sigma, size=cv.shape)
    cv = np.clip(cv, 0.0, 1.0).astype(np.float32)

    p = spec.disparity_params
    if spec.disparity_profile == "constant":
        disp = np.full((n_s, n_t), p[0])
    elif spec.disparity_profile == "step":
        disp = np.full((n_s, n_t), p[0])
        disp[:, n_t // 2 :] = p[1]
    else:  # linear-ramp along t
        ramp = np.linspace(p[0], p[1], n_t)
        disp = np.broadcast_to(ramp, (n_s, n_t)).copy()
    return cv, disp.astype(np.float32)


def _bilinear_sample(cv: np.ndarray, ss: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """Sample cv (S, T, C) at float positions (ss, tt), which broadcast
    together, with edge clamping."""
    n_s, n_t = cv.shape[:2]
    ss = np.clip(ss, 0.0, n_s - 1)
    tt = np.clip(tt, 0.0, n_t - 1)
    s0 = np.floor(ss).astype(int)
    t0 = np.floor(tt).astype(int)
    s1 = np.minimum(s0 + 1, n_s - 1)
    t1 = np.minimum(t0 + 1, n_t - 1)
    fs = (ss - s0)[..., None]
    ft = (tt - t0)[..., None]
    return (
        cv[s0, t0] * (1 - fs) * (1 - ft)
        + cv[s1, t0] * fs * (1 - ft)
        + cv[s0, t1] * (1 - fs) * ft
        + cv[s1, t1] * fs * ft
    )


def render_lightfield(
    cv: np.ndarray, disp: np.ndarray, n_u: int, n_v: int
) -> np.ndarray:
    """Render the (U, V, S, T, C) light field of a Lambertian scene.

    Every subaperture (u, v) samples the central view at positions shifted
    by (u - u_c, v - v_c) times the per-pixel disparity, with bilinear
    interpolation and edge clamping.  The central slice is a bit copy of cv.
    """
    cv = np.asarray(cv, dtype=np.float32)
    disp = np.asarray(disp, dtype=np.float64)
    if cv.ndim != 3 or disp.shape != cv.shape[:2]:
        raise ValueError(
            f"central view {cv.shape} and disparity {disp.shape} are inconsistent"
        )
    if n_u % 2 == 0 or n_v % 2 == 0 or n_u < 1 or n_v < 1:
        raise ValueError(f"angular dims must be odd and positive, got ({n_u}, {n_v})")
    n_s, n_t, n_c = cv.shape
    u_c, v_c = central_indices(n_u, n_v)
    base_s = np.arange(n_s, dtype=np.float64)[:, None]
    base_t = np.arange(n_t, dtype=np.float64)[None, :]
    out = np.empty((n_u, n_v, n_s, n_t, n_c), dtype=np.float32)
    cv64 = cv.astype(np.float64)
    # One sampling call per u row of views: the float64 temporaries span one
    # row, not the whole U x V stack.
    tt = base_t + (np.arange(n_v) - v_c)[:, None, None] * disp
    for u in range(n_u):
        out[u] = _bilinear_sample(cv64, base_s + (u - u_c) * disp, tt)
    out[u_c, v_c] = cv
    return out


def sample_spec(dims: tuple[int, int, int, int, int], seed: int) -> SceneSpec:
    """Draw a random SceneSpec (pattern and disparity profile) from a seed."""
    rng = np.random.default_rng(seed)
    pattern = PATTERNS[rng.integers(len(PATTERNS))]
    profile = DISPARITY_PROFILES[rng.integers(len(DISPARITY_PROFILES))]
    if profile == "constant":
        params = (float(rng.uniform(-1.5, 1.5)),)
    elif profile == "step":
        params = (float(rng.uniform(-1.5, 0.0)), float(rng.uniform(0.0, 1.5)))
    else:
        lo = float(rng.uniform(-1.5, 0.5))
        params = (lo, float(rng.uniform(lo, 1.5)))
    return SceneSpec(
        dims=dims,
        pattern=pattern,
        disparity_profile=profile,
        disparity_params=params,
        seed=int(rng.integers(2**63)),
    )
