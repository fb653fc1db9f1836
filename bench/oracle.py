"""Computations the benchmark makes apart from the program under test.

Everything here is plain numpy and imports nothing from `codedlf`, so an
output check built on it cannot share a fault with the code it checks:
the LF5D and LFDC containers are read and written from their documented
layouts, the orthonormal 5D DCT-II is built on `numpy.fft` (Makhoul 1980)
rather than on the program's matrix products, and the Huber loss and the
constant predictor are computed here from their definitions.
"""

from __future__ import annotations

import struct

import numpy as np

LF5D_HEADER = struct.Struct("<4sH5I")
LFDC_HEADER = struct.Struct("<4s2I")

# Relative rounding error of one float32 value (round to nearest).
F32_EPS = 2.0**-24


def write_lf5d(path, t) -> None:
    t = np.ascontiguousarray(t, dtype="<f4")
    if t.ndim != 5:
        raise ValueError(f"LF5D needs a 5D tensor, got {t.shape}")
    with open(path, "wb") as fh:
        fh.write(LF5D_HEADER.pack(b"LF5D", 1, *t.shape))
        fh.write(t.tobytes())


def read_lf5d(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, *dims = LF5D_HEADER.unpack_from(raw)
    if magic != b"LF5D" or version != 1:
        raise ValueError(f"{path}: not an LF5D version 1 file")
    n = int(np.prod(dims))
    if len(raw) != LF5D_HEADER.size + 4 * n:
        raise ValueError(f"{path}: payload does not match dims {dims}")
    return np.frombuffer(raw, dtype="<f4", offset=LF5D_HEADER.size).reshape(dims)


def read_lfdc(path) -> np.ndarray:
    """Atoms of an LFDC dictionary as an (atom_len, n_atoms) float32 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, atom_len, n_atoms = LFDC_HEADER.unpack_from(raw)
    if magic != b"LFDC" or len(raw) != LFDC_HEADER.size + 4 * atom_len * n_atoms:
        raise ValueError(f"{path}: not a well-formed LFDC file")
    atoms = np.frombuffer(raw, dtype="<f4", offset=LFDC_HEADER.size)
    return atoms.reshape((atom_len, n_atoms), order="F")


def dct2_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DCT-II along one axis from one complex FFT of length n."""
    x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
    n = x.shape[-1]
    v = np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1)
    k = np.arange(n)
    out = np.real(np.fft.fft(v, axis=-1) * np.exp(-0.5j * np.pi * k / n))
    out *= np.sqrt(2.0 / n)
    out[..., 0] /= np.sqrt(2.0)
    return np.moveaxis(out, -1, axis)


def dct5(x: np.ndarray) -> np.ndarray:
    for axis in range(5):
        x = dct2_axis(x, axis)
    return x


def lift(projected: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Coded field from a (U, V, S, T, 1) measurement and an (S, T, C) mask."""
    return np.asarray(projected, dtype=np.float64) * np.asarray(mask, dtype=np.float64)


def owlqn_objective(rec, lifted, mask, lam) -> float:
    """||lift - m * rec||^2 + lam * ||DCT(rec)||_1 in float64."""
    rec = np.asarray(rec, dtype=np.float64)
    resid = mask * rec - lifted
    return float(np.sum(resid * resid) + lam * np.abs(dct5(rec)).sum())


def owlqn_objective_tolerance(rec, lifted, mask, lam) -> float:
    """Largest change of `owlqn_objective` that storing rec as float32 causes.

    With delta the rounding of rec, ||delta|| <= eps * ||rec||; the data term
    moves by at most 2 ||r|| ||delta|| + ||delta||^2 and the l1 term by at
    most lam * sqrt(n) * ||delta||, because the DCT is orthonormal.  A 1e-9
    relative slack covers float64 summation order.
    """
    rec = np.asarray(rec, dtype=np.float64)
    d = F32_EPS * float(np.linalg.norm(rec))
    r = float(np.linalg.norm(mask * rec - lifted)) + d
    obj = owlqn_objective(rec, lifted, mask, lam)
    return 2.0 * r * d + d * d + lam * np.sqrt(rec.size) * d + 1e-9 * abs(obj)


def huber(pred, truth, delta: float = 1.0) -> float:
    """Mean Huber loss in the program's scaling: e^2 below delta."""
    e = np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(truth, dtype=np.float64))
    return float(np.mean(np.where(e < delta, e * e, 2.0 * delta * (e - 0.5 * delta))))


def rel_err_terms(pred, truth) -> tuple[float, float]:
    """Squared error and squared truth norm, to be pooled over operations."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.sum((pred - truth) ** 2)), float(np.sum(truth * truth))
