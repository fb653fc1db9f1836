"""Dense 5D light-field tensors and the LF5D container format.

Index convention used throughout the package: a light field L[u, v, s, t, c]
is a float32 ndarray of shape (U, V, S, T, C) in C order, so the spectral
axis runs fastest.  (u, v) are the angular coordinates, (s, t) the spatial
ones and c the spectral channel.  Central views are (S, T, C) arrays and
disparity maps are (S, T) arrays; on disk both are stored as degenerate 5D
tensors (U = V = 1, and C = 1 for disparity).

LF5D container layout (little-endian, normative):

    bytes 0..3   magic "LF5D"
    bytes 4..5   version, u16 (currently 1)
    bytes 6..25  dims U, V, S, T, C as five u32
    bytes 26..   U*V*S*T*C float32 values, C order as above

LF5D, the LFDC dictionaries of `cs_dict` and the LFNN networks of
`autodiff` share one codec (`read_container`, `read_payload`,
`float32_payload`, `write_container`): four magic bytes, the format's own
header, then one array as a float32 payload of exactly the length the
header implies, every value finite, checked on read and on write.

Every numeric knob passes one of two rules, so all modules reject a bad one
alike: `require_count` (an integer, never a bool) and `require_real` (a finite
real, never a bool), each with an optional lower bound.
"""

from __future__ import annotations

import math
import numbers
import struct

import numpy as np

MAGIC = b"LF5D"
VERSION = 1
_HEADER = struct.Struct("<4sH5I")


class LF5DError(ValueError):
    """Malformed or unreadable LF5D, LFDC or LFNN container."""


class BadMagicError(LF5DError):
    """File does not start with the expected magic bytes."""


class TruncatedError(LF5DError):
    """Header or payload is shorter than the dims require."""


class NonFiniteError(LF5DError):
    """Payload or input contains NaN or Inf values."""


class NonFiniteWriteError(NonFiniteError, FloatingPointError):
    """Values to be written are not finite in float32.  Inputs are checked
    when read, so these were computed: a numerical failure as well."""


def as_tensor5(a, name: str = "tensor") -> np.ndarray:
    """Validate and return `a` as a float32 5D tensor.

    Raises ValueError on wrong rank or zero-sized axes and NonFiniteError
    on NaN/Inf entries.
    """
    a = np.asarray(a, dtype=np.float32)
    if a.ndim != 5:
        raise ValueError(f"{name} must be 5-dimensional, got shape {a.shape}")
    if min(a.shape) < 1:
        raise ValueError(f"{name} has zero-sized axis: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return a


def require_count(name: str, value, minimum: int | None) -> None:
    """Raise ValueError naming `name` unless `value` is an integer, not a
    bool, and at least `minimum` (None: no bound)."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not ok or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def require_real(name: str, value, minimum=None, strict: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real, not a
    bool, and at least `minimum` (above it if `strict`; None: no bound)."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if ok and minimum is not None:
        ok = value > minimum if strict else value >= minimum
    if not ok:
        bound = "" if minimum is None else f" and {'>' if strict else '>='} {minimum}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def read_container(path, magic: bytes, header: struct.Struct, kind: str) -> tuple[bytes, tuple]:
    """Read `path` whole and check its magic and fixed `header` ("<4s...").

    Returns the raw bytes and the header fields after the magic.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(magic)] != magic[: len(raw)]:
        raise BadMagicError(f"{path}: not an {kind} file")
    if len(raw) < header.size:
        raise TruncatedError(f"{path}: incomplete header ({len(raw)} bytes)")
    return raw, header.unpack_from(raw)[1:]


def read_payload(path, raw: bytes, offset: int, n: int) -> np.ndarray:
    """The `n` float32 values at `offset` that end `raw`.

    A read-only view of `raw` where that is aligned for float32, else a copy:
    numpy computes markedly slower on misaligned arrays (LF5D's offset is 26).
    """
    held = len(raw) - offset
    if held < 4 * n:
        raise TruncatedError(f"{path}: payload holds {held} bytes, need {4 * n}")
    if held > 4 * n:
        raise LF5DError(f"{path}: {held - 4 * n} trailing bytes")
    vals = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError(f"{path}: payload contains non-finite values")
    return vals if vals.flags.aligned else vals.copy()


def float32_payload(path, a) -> np.ndarray:
    """`a` as little-endian float32, as it would be written to `path`.

    Raises NonFiniteWriteError, naming `path`, if a value is not finite in
    float32.
    """
    with np.errstate(over="ignore"):
        data = np.asarray(a, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise NonFiniteWriteError(f"{path}: cannot write non-finite float32 values")
    return data


def write_container(path, header: bytes, a) -> None:
    """Write `header`, then `a` as float32 in C order (overwrites).

    Refuses, before opening the file, values that are not finite in float32.
    """
    data = float32_payload(path, a)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def write_lf5d(t: np.ndarray, path) -> None:
    """Write a 5D tensor to `path` in the LF5D format (overwrites)."""
    shape = np.shape(t)
    if len(shape) != 5 or min(shape) < 1:
        raise ValueError(f"cannot write an LF5D tensor of shape {shape}")
    write_container(path, _HEADER.pack(MAGIC, VERSION, *shape), t)


def read_lf5d(path) -> np.ndarray:
    """Read an LF5D file and return its float32 (U, V, S, T, C) tensor."""
    raw, (version, *dims) = read_container(path, MAGIC, _HEADER, "LF5D")
    if version != VERSION:
        raise LF5DError(f"{path}: unsupported version {version}")
    if min(dims) < 1:
        raise LF5DError(f"{path}: zero-sized axis in dims {tuple(dims)}")
    return read_payload(path, raw, _HEADER.size, math.prod(dims)).reshape(dims)


def central_indices(n_u: int, n_v: int) -> tuple[int, int]:
    """Central angular coordinates (floor division) for odd (U, V)."""
    return n_u // 2, n_v // 2


def cv_to_tensor5(cv: np.ndarray) -> np.ndarray:
    """Wrap an (S, T, C) central view as a (1, 1, S, T, C) tensor."""
    cv = np.asarray(cv, dtype=np.float32)
    if cv.ndim != 3:
        raise ValueError(f"central view must be (S, T, C), got {cv.shape}")
    return cv[None, None]


def disp_to_tensor5(d: np.ndarray) -> np.ndarray:
    """Wrap an (S, T) disparity map as a (1, 1, S, T, 1) tensor."""
    d = np.asarray(d, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError(f"disparity map must be (S, T), got {d.shape}")
    return d[None, None, :, :, None]


def tensor5_to_disp(t: np.ndarray) -> np.ndarray:
    """Inverse of disp_to_tensor5; requires U = V = C = 1."""
    t = as_tensor5(t, "disparity tensor")
    if t.shape[0] != 1 or t.shape[1] != 1 or t.shape[4] != 1:
        raise ValueError(f"expected U = V = C = 1, got shape {t.shape}")
    return np.ascontiguousarray(t[0, 0, :, :, 0])
