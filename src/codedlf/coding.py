"""Spatio-spectral coding: one-hot masks, coding, projection and lifting.

A coding mask M[s, t, c] selects exactly one spectral channel per spatial
position (one-hot along the channel axis).  Coding multiplies a light field
elementwise by the mask, projection sums the coded field along the channel
axis, and lifting re-expands a projected measurement into the coded field.
Because the mask is one-hot, lift(project(encode(l, m)), m) reproduces
encode(l, m) bit for bit; all three operations copy values and never
recompute them.
"""

from __future__ import annotations

import numpy as np

from .tensor import as_tensor5, require_count

# SplitMix64 constants (Steele, Lea & Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = state.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer of one value in [0, 2**64), in exact Python
    ints: the same bits as `_splitmix64` without building an array."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def random_mask(n_s: int, n_t: int, n_channels: int, seed: int) -> np.ndarray:
    """Draw a deterministic one-hot coding mask of shape (S, T, C).

    The channel of the pixel with row-major index i is the i-th output of
    the SplitMix64 sequence started at `seed`, reduced modulo C:

        out_i = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)

    with mix64 the standard SplitMix64 finalizer.  The generator is fixed
    here (rather than delegated to a library) so that masks are
    reproducible from the seed alone, independent of platform or numpy
    version.  The modulo reduction's bias is below 2**-60 for any C that
    fits in memory.  This is the one-seed case of `random_masks`.
    """
    return random_masks(n_s, n_t, n_channels, (seed,))[0]


def random_masks(n_s: int, n_t: int, n_channels: int, seeds) -> np.ndarray:
    """Draw one `random_mask` per seed of the sequence `seeds`, stacked to
    (B, S, T, C), from one vectorized SplitMix64 pass over all B sequences."""
    for dim in (n_s, n_t, n_channels):
        require_count("each mask dim", dim, 1)
    for seed in seeds:
        require_count("seed", seed, None)  # any integer: it wraps modulo 2**64
    starts = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    idx = np.arange(1, n_s * n_t + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        draws = _splitmix64(starts[:, None] + idx * np.uint64(_GOLDEN))
    channels = draws % np.uint64(n_channels)
    masks = channels[:, :, None] == np.arange(n_channels, dtype=np.uint64)
    return masks.astype(np.float32).reshape(len(starts), n_s, n_t, n_channels)


def is_one_hot(m: np.ndarray) -> bool:
    """True if every spatial position selects exactly one channel."""
    m = np.asarray(m)
    if m.ndim != 3:
        return False
    binary = np.all((m == 0.0) | (m == 1.0))
    return bool(binary and np.all(m.sum(axis=-1) == 1.0))


def _check_mask(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float32)
    if not is_one_hot(m):
        raise ValueError("coding mask must be one-hot along the channel axis")
    return m


def encode(l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Apply the coding mask: out[u,v,s,t,c] = M[s,t,c] * L[u,v,s,t,c].

    Selected entries are copied, all others are exactly +0.
    """
    l = as_tensor5(l, "light field")
    m = _check_mask(m)
    if l.shape[2:] != m.shape:
        raise ValueError(
            f"spatial/spectral dims {l.shape[2:]} do not match mask {m.shape}"
        )
    return encode_batch(l[None], m[None])[0]


def encode_batch(lfs: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Code a batch: out[b] = encode(lfs[b], masks[b]) for light fields
    (B, U, V, S, T, C) and masks (B, S, T, C), in one pass.

    Nothing is re-checked: the caller vouches that the fields are finite
    float32 and the masks one-hot, as for a checked data set and masks
    from `random_masks`.
    """
    if lfs.shape[:1] + lfs.shape[3:] != masks.shape:
        raise ValueError(f"light fields {lfs.shape} do not match masks {masks.shape}")
    return np.where(masks.astype(bool)[:, None, None], lfs, np.float32(0.0))


def project(l_star: np.ndarray) -> np.ndarray:
    """Sum the coded field along the channel axis; output has C = 1."""
    l_star = as_tensor5(l_star, "coded light field")
    return l_star.sum(axis=4, keepdims=True, dtype=np.float32)


def lift(lp: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Re-expand a projected measurement (C = 1) into the coded field.

    Each projected value is copied into the channel the mask selects at
    its pixel; all other channels are exactly +0.
    """
    lp = as_tensor5(lp, "projected measurement")
    if lp.shape[4] != 1:
        raise ValueError(f"projected measurement must have C = 1, got {lp.shape}")
    m = _check_mask(m)
    if lp.shape[2:4] != m.shape[:2]:
        raise ValueError(
            f"spatial dims {lp.shape[2:4]} do not match mask {m.shape[:2]}"
        )
    return np.where(m.astype(bool)[None, None], lp, np.float32(0.0))
