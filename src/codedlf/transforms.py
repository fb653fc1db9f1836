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
rows is cheaper than writing a (rest, n) product.  Both transforms return
C-contiguous float64 arrays of the input's shape.  The input is made
contiguous first, so the values do not depend on its memory layout; they
agree with a tensordot along each axis in turn up to rounding, since the
axes are transformed in the reverse order.

The data-fidelity term of coded reconstruction is

    f(alpha) = || l_star - m * synth(alpha) ||_2^2

where m is the broadcast binary coding mask.  Because m is a diagonal
orthogonal projection (m * m = m), the gradient takes the closed form

    grad f(alpha) = 2 * (analysis(m * synth(alpha)) - analysis(m * l_star)).

CodedFidelity holds one measurement: it computes analysis(m * l_star) once
and evaluates f and its gradient from a synthesis the caller passes in, so a
solver that has synthesized a point for f reuses it for the gradient.
fidelity_objective, fidelity_gradient and the OWL-QN solver all use it.

Transforms compute in float64 regardless of input dtype; persisted tensors
stay float32 at the file boundary.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np


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


def _apply_separable(t, synthesis: bool) -> np.ndarray:
    x = np.asarray(t, dtype=np.float64)
    if x.ndim != 5:
        raise ValueError(f"expected a 5D tensor, got shape {x.shape}")
    x = np.ascontiguousarray(x)
    for _ in range(5):
        n = x.shape[-1]
        mat = _dct_matrix(n).T if synthesis else _dct_matrix(n)
        # (n, n) @ (n, rest): contracts the last axis and moves it first.
        x = (mat @ x.reshape(-1, n).T).reshape((n,) + x.shape[:-1])
    return x


def dct5_forward(l: np.ndarray) -> np.ndarray:
    """Analysis transform: orthonormal DCT-II along each of the five axes."""
    return _apply_separable(l, synthesis=False)


def dct5_inverse(a: np.ndarray) -> np.ndarray:
    """Synthesis transform, the exact adjoint/inverse of dct5_forward."""
    return _apply_separable(a, synthesis=True)


class CodedFidelity:
    """f(a) = || l_star - m * z ||^2 with z = synth(a), for one measurement.

    `value` and `gradient` take the synthesis z = synthesize(a), so a
    caller that needs f and its gradient at one point synthesizes it once.
    """

    def __init__(self, l_star: np.ndarray, m: np.ndarray):
        self.l_star = np.asarray(l_star, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        if m.shape != self.l_star.shape[2:]:
            raise ValueError(
                f"mask shape {m.shape} does not match tensor dims {self.l_star.shape[2:]}"
            )
        self.mask = m[None, None]

    @cached_property
    def analysis_target(self) -> np.ndarray:
        """analysis(m * l_star), the constant part of the gradient."""
        return dct5_forward(self.mask * self.l_star)

    def synthesize(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        if a.shape != self.l_star.shape:
            raise ValueError(
                f"coefficients {a.shape} and measurement {self.l_star.shape} disagree"
            )
        return dct5_inverse(a)

    def value(self, z: np.ndarray) -> float:
        resid = self.mask * z
        resid -= self.l_star
        return float(np.vdot(resid, resid))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        g = dct5_forward(self.mask * z)
        g -= self.analysis_target
        g *= 2.0
        return g


def fidelity_objective(a: np.ndarray, l_star: np.ndarray, m: np.ndarray) -> float:
    """Squared residual || l_star - m * synth(a) ||_2^2."""
    fid = CodedFidelity(l_star, m)
    return fid.value(fid.synthesize(a))


def fidelity_gradient(a: np.ndarray, l_star: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gradient of the coded data-fidelity term with respect to a."""
    fid = CodedFidelity(l_star, m)
    return fid.gradient(fid.synthesize(a))
