"""Separable orthonormal 5D DCT and the coded data-fidelity operator.

The synthesis basis is the Kronecker product of five orthonormal DCT-II
matrices, one per tensor axis, but it is never materialized; both
transforms are applied axis by axis.  dct5_forward is the analysis
transform (basis transposed applied to a signal), dct5_inverse the
synthesis transform, and the pair is an exact inverse up to rounding.

Layout: each axis is one GEMM on a C-contiguous operand.  The last axis
is contracted and comes out first, as the (n, rest) product mat @ X^T, so
the product is again C-contiguous with the axes rotated by one; after five
products the axes are back in order.  Writing the axis as the product's n
rows is cheaper than writing a (rest, n) product.  The products alternate
between two buffers allocated once per call.  Both transforms return
C-contiguous float64 arrays of the input's shape.  The input is made
contiguous first, so the values do not depend on its memory layout; they
agree with a tensordot along each axis in turn up to rounding, since the
axes are transformed in the reverse order.

The data-fidelity term of coded reconstruction is

    f(alpha) = || l_star - m * synth(alpha) ||_2^2

where m is the one-hot coding mask M[s, t, c], the same for every view
(u, v).  The orthonormal angular (U, V) DCT therefore commutes with the
mask and drops out of the norm:

    f(alpha) = || b - P synth_STC(alpha) ||_2^2,

with synth_STC the synthesis over (S, T, C) only, b the angular analysis
of the observed entries of l_star, and P the gather of the entries the
mask keeps: U V S T of U V S T C, one channel per pixel.  The gradient is

    grad f(alpha) = 2 analysis_STC(P^T (P synth_STC(alpha) - b)).

ObservedFidelity holds one measurement and evaluates both from the
observed residual P synth_STC(alpha) - b, so a solver that has computed the
residual of a point for f reuses it for the gradient.  synth_STC is three
GEMMs that rotate (U, V, S, T, C) to (S, T, C, U, V), where the kept
entries are whole rows, so P is one row gather; the gradient scatters the
residual into rows of a buffer that is zero elsewhere and applies three
GEMMs that rotate the axes back.  The OWL-QN solver uses it.

Column (u, v) of the residual depends on the coefficients of view (u, v)
alone, so f is a sum of one term per view.  ObservedFidelity can drop
views whose coefficients stay zero (keep_views): each one's residual
column is then the constant -b[:, (u, v)], and its squared norm is added to
every value, while the synthesis, the gather, the scatter and the gradient
run over the remaining views only, in the front of the buffers they had.

Transforms compute in float64 regardless of input dtype; persisted tensors
stay float32 at the file boundary.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import coding


@lru_cache(maxsize=32)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix of size (n, n), float64.

    C[k, x] = c_k * cos(pi * (2x + 1) * k / (2n)), c_0 = sqrt(1/n),
    c_k = sqrt(2/n) otherwise, so C @ C.T = I.
    """
    k = np.arange(n, dtype=np.float64)[:, None]
    x = np.arange(n, dtype=np.float64)[None, :]
    mat = np.cos(np.pi * (2.0 * x + 1.0) * k / (2.0 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def _last_to_front(x: np.ndarray, mats, bufs) -> np.ndarray:
    """Apply mats[0] to the last axis of C-contiguous x, mats[1] to the next
    one and so on; each (n, n) @ (n, rest) GEMM moves its axis first.  The
    products alternate between the two flat buffers `bufs`."""
    for k, mat in enumerate(mats):
        n = x.shape[-1]
        out = bufs[k % 2].reshape(n, -1)
        x = np.matmul(mat, x.reshape(-1, n).T, out=out).reshape((n,) + x.shape[:-1])
    return x


def _apply_separable(t, synthesis: bool) -> np.ndarray:
    x = np.asarray(t, dtype=np.float64)
    if x.ndim != 5:
        raise ValueError(f"expected a 5D tensor, got shape {x.shape}")
    x = np.ascontiguousarray(x)
    mats = [_dct_matrix(n).T if synthesis else _dct_matrix(n) for n in reversed(x.shape)]
    return _last_to_front(x, mats, (np.empty(x.size), np.empty(x.size)))


def dct5_forward(l: np.ndarray) -> np.ndarray:
    """Analysis transform: orthonormal DCT-II along each of the five axes."""
    return _apply_separable(l, synthesis=False)


def dct5_inverse(a: np.ndarray) -> np.ndarray:
    """Synthesis transform, the exact adjoint/inverse of dct5_forward."""
    return _apply_separable(a, synthesis=True)


class ObservedFidelity:
    """f(a) = || l_star - m * synth(a) ||^2 on the observed entries, for one
    coded light field l_star (U, V, S, T, C) and its one-hot mask m (S, T, C).

    `residual(a)` is P synth_STC(a) - b, of shape (S T, U V); `value` and
    `gradient` take it, so a caller that needs f and its gradient at one
    point computes it once.  The GEMM buffers are allocated once, here.

    The operator works on the views `views` (flat u V + v, ascending), all
    of them at first.  `keep_views` drops views whose coefficients stay
    zero: their residual columns are then the constant -b, whose squared
    norm `dropped` is added to each value, and the coefficients, the
    residual and the gradient cover the remaining views only, as arrays of
    shape `coef_shape` = (views, S, T, C) and (S T, views).
    """

    def __init__(self, l_star: np.ndarray, m: np.ndarray):
        l_star = np.asarray(l_star, dtype=np.float64)
        if l_star.ndim != 5:
            raise ValueError(f"expected a 5D coded light field, got shape {l_star.shape}")
        m = coding.check_mask(m)
        if m.shape != l_star.shape[2:]:
            raise ValueError(
                f"mask shape {m.shape} does not match tensor dims {l_star.shape[2:]}"
            )
        self.shape = self.coef_shape = l_star.shape
        n_u, n_v, n_s, n_t, n_c = l_star.shape
        kept = m.reshape(-1) == 1
        coded = l_star.reshape(n_u * n_v, -1)
        if coded[:, ~kept].any():
            raise ValueError("coded light field has non-zero entries where the mask is 0")
        # Rows of the (S T C, U V) layout that the mask keeps, in pixel order.
        self.rows = np.flatnonzero(kept)
        observed = coded[:, self.rows].T.reshape(-1, n_u, n_v)
        b = _dct_matrix(n_u) @ observed @ _dct_matrix(n_v).T
        self.target = b.reshape(-1, n_u * n_v)
        self.views = np.arange(n_u * n_v)
        self.dropped = 0.0
        self._synthesis = [_dct_matrix(n).T for n in (n_c, n_t, n_s)]
        # 2 is a power of two, so scaling the first matrix doubles each
        # product exactly: the gradient costs no extra pass.
        self._gradient = [2.0 * _dct_matrix(n_s), _dct_matrix(n_t), _dct_matrix(n_c)]
        self._bufs = (np.empty(l_star.size), np.empty(l_star.size))
        self._scatter = np.zeros((n_s * n_t * n_c, n_u * n_v))

    def keep_views(self, live: np.ndarray) -> None:
        """Keep the current views where `live` is true and drop the others.

        A dropped view's coefficients are taken as zero from now on, so its
        residual column is -b, and its squared norm joins `dropped`.  The
        kept target columns and the buffers move to the front of the memory
        they had, so nothing is allocated but the kept columns' copy.
        """
        live = np.asarray(live, dtype=bool)
        gone = self.target[:, ~live]
        self.dropped += float(np.vdot(gone, gone))
        kept = self.target[:, live]
        self.target = self.target.reshape(-1)[: kept.size].reshape(kept.shape)
        self.target[...] = kept
        self.views = self.views[live]
        self.coef_shape = (len(self.views),) + self.shape[2:]
        size = math.prod(self.coef_shape)
        self._bufs = tuple(buf[:size] for buf in self._bufs)
        self._scatter = self._scatter.reshape(-1)[:size].reshape(-1, len(self.views))
        # Entries off the kept rows must read zero in the new layout.
        self._scatter.fill(0.0)

    def residual(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P synth_STC(a) - b: three GEMMs, one row gather and one subtraction."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape != self.coef_shape:
            raise ValueError(
                f"coefficients {a.shape} and measurement {self.coef_shape} disagree"
            )
        z = _last_to_front(np.ascontiguousarray(a), self._synthesis, self._bufs)
        # The rows are in range; mode="clip" spares take a buffered copy of out.
        r = np.take(z.reshape(len(self._scatter), -1), self.rows, axis=0, out=out, mode="clip")
        r -= self.target
        return r

    def value(self, resid: np.ndarray) -> float:
        return float(np.vdot(resid, resid)) + self.dropped

    def gradient(self, resid: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2 analysis_STC(P^T resid), the gradient at the point of `resid`."""
        # Entries off the kept rows are never written, so they stay zero.
        self._scatter[self.rows] = resid
        x = self._scatter.reshape(self.shape[2:] + (len(self.views),))
        if out is None:
            out = np.empty(self.coef_shape)
        # Each (rest, n) = X^T @ mat^T GEMM contracts the first axis and
        # moves it last: (S, T, C, views) comes back as (views, S, T, C).
        for mat, buf in zip(self._gradient, self._bufs + (out,)):
            n = x.shape[0]
            dst = buf.reshape(-1, n)
            x = np.matmul(x.reshape(n, -1).T, mat.T, out=dst).reshape(x.shape[1:] + (n,))
        return out

