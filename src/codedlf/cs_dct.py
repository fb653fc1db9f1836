"""LASSO reconstruction in the 5D-DCT basis via OWL-QN.

Solves

    min_alpha  || l_star - m * synth(alpha) ||_2^2 + lam * ||alpha||_1

with the orthant-wise limited-memory quasi-Newton method of Andrew & Gao
(2007): an L-BFGS direction built from gradients of the smooth term,
steered by the pseudo-gradient of the l1 objective, with every step
projected onto the orthant chosen at the start of the step so coordinate
signs never flip mid-step.  The line search backtracks until the full
objective satisfies an Armijo decrease along the projected step, which
makes the recorded objective sequence non-increasing by construction.  The
test compares obj_new - obj with ARMIJO_C1 times the predicted decrease, so a
trial whose computed objective does not fall, or is not finite, is never
accepted: at the rounding floor the line search fails instead of creeping on.
Each trial shrinks the step by BACKTRACK, and after MAX_LINESEARCH trials the
solve stops with a line-search failure.  A non-finite start raises.

The smooth term and its gradient come from transforms.CodedFidelity.  Each
line-search trial synthesizes its point once; the synthesis of the accepted
point is kept and gives the gradient and, at the end, the reconstruction,
so a step costs one inverse transform per trial and one forward transform.
Iterates, gradients and the trial point live in C-contiguous float64
buffers allocated once per solve.

The L-BFGS history is one preallocated array W whose rows are the
pseudo-gradient and a ring of min(memory, max_iters) + 1 (s, y) slots.
Each step writes s and y straight into the free slot, and one GEMV of W
with the new y extends the small S^T Y and Y^T Y matrices.  The direction
-H pg comes from the compact representation of Byrd, Nocedal & Schnabel
(1994): one GEMV W pg, two triangular solves of the history's size and one
GEMV c^T W, in place of the two-loop recursion's four passes per pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import coding, transforms
from .tensor import as_tensor5

# Line-search constants of Andrew & Gao (2007).
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_LINESEARCH = 50


@dataclass
class OwlqnOptions:
    """Solver knobs; lam is the l1 coupling and is never defaulted."""

    lam: float
    max_iters: int = 500
    memory: int = 10
    grad_tol: float | None = None  # None: 1e-5 * sqrt(problem size)

    def __post_init__(self):
        for name in ("max_iters", "memory"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.grad_tol is not None and not (
            math.isfinite(self.grad_tol) and self.grad_tol > 0
        ):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")


@dataclass
class SolveReport:
    iterations: int
    objectives: list[float] = field(default_factory=list)
    final_objective: float = float("nan")
    termination: str = "max_iters"
    evaluations: int = 0  # line-search trials that synthesized their point
    pairs_skipped: int = 0  # accepted steps whose pair failed s.y > 1e-12


def _pseudo_gradient(
    x: np.ndarray, g: np.ndarray, lam: float, out: np.ndarray
) -> np.ndarray:
    """Write the pseudo-gradient of f(x) + lam*||x||_1 into `out`.

    It is zero inside the subdifferential.  At x == 0 it is g + lam where
    that is negative, g - lam where that is positive and 0 otherwise; with
    lam >= 0 that is min(g + lam, 0) + max(g - lam, 0).
    """
    if lam == 0.0:
        np.copyto(out, g)
        return out
    right = g + lam
    left = g - lam
    np.minimum(right, 0.0, out=out)
    out += np.maximum(left, 0.0)
    np.copyto(out, right, where=x > 0)
    np.copyto(out, left, where=x < 0)
    return out


class _LbfgsHistory:
    """The kept L-BFGS pairs (s, y) and the pseudo-gradient, in one array.

    Row 0 of the C-contiguous float64 array `w` is the pseudo-gradient `pg`;
    rows 1 + 2j and 2 + 2j hold s and y of slot j.  The slots form a ring
    with one slot more than the pairs kept: a new pair is written into the
    free slot (`s`, `y`) and `push` keeps it or not, so a rejected pair
    never costs a kept one.  Rows 0 .. 2 * written have been written, and
    only they enter a product.  `sy[i, j]` is s_i . y_j for slot i written
    before pair j was kept, and `yy` holds y_i . y_j.
    """

    def __init__(self, shape: tuple[int, ...], memory: int, slots: int):
        self.shape = shape
        self.memory = memory
        self.w = np.empty((1 + 2 * slots, math.prod(shape)))
        self.sy = np.zeros((slots, slots))
        self.yy = np.zeros((slots, slots))
        self.pairs: list[int] = []  # slots of the kept pairs, oldest first
        self.free = 0
        self.written = 0

    def _row(self, k: int) -> np.ndarray:
        return self.w[k].reshape(self.shape)

    @property
    def pg(self) -> np.ndarray:
        return self._row(0)

    @property
    def s(self) -> np.ndarray:
        return self._row(1 + 2 * self.free)

    @property
    def y(self) -> np.ndarray:
        return self._row(2 + 2 * self.free)

    def push(self) -> bool:
        """Keep the pair in the free slot if s.y > 1e-12; return whether it was kept.

        One GEMV, (rows of s and y) @ y_new, gives the new column of S^T Y
        and the new row and column of Y^T Y.
        """
        j = self.free
        self.written = max(self.written, j + 1)
        v = self.w[1 : 1 + 2 * self.written] @ self.w[2 + 2 * j]
        if not v[2 * j] > 1e-12:
            return False
        self.sy[: self.written, j] = v[0::2]
        self.yy[: self.written, j] = self.yy[j, : self.written] = v[1::2]
        self.pairs.append(j)
        if len(self.pairs) > self.memory:
            self.free = self.pairs.pop(0)
        else:
            self.free = len(self.pairs)
        return True

    def direction(self, out: np.ndarray) -> np.ndarray:
        """Write -H pg into `out`, H the inverse Hessian of the kept pairs.

        H = gamma I + [S gamma Y] M [S gamma Y]^T in the compact form of
        Byrd, Nocedal & Schnabel (1994), with gamma = s.y / y.y of the newest
        pair, R the upper triangle of S^T Y and D its diagonal.  With
        a = S^T pg, b = Y^T pg and u = R^-1 a,

            -H pg = -gamma pg - S R^-T (D u + gamma (Y^T Y u - b)) + gamma Y u,

        so one GEMV W pg gives a and b and one GEMV c^T W gives the
        direction; the -gamma pg term takes the coefficient of row 0.
        """
        flat = out.reshape(-1)
        if not self.pairs:
            np.negative(self.w[0], out=flat)
            return out
        rows = self.w[: 1 + 2 * self.written]
        v = rows @ self.w[0]
        j = np.array(self.pairs)
        sy = self.sy[np.ix_(j, j)]
        yy = self.yy[np.ix_(j, j)]
        r = np.triu(sy)
        gamma = sy[-1, -1] / yy[-1, -1]
        u = np.linalg.solve(r, v[1 + 2 * j])
        p = np.linalg.solve(r.T, np.diag(sy) * u + gamma * (yy @ u - v[2 + 2 * j]))
        c = np.zeros(len(rows))
        c[0] = -gamma
        c[1 + 2 * j] = -p
        c[2 + 2 * j] = gamma * u
        np.dot(c, rows, out=flat)
        return out


def owlqn_reconstruct(
    l_star_p: np.ndarray,
    m: np.ndarray,
    opts: OwlqnOptions,
    _iterate_hook=None,
) -> tuple[np.ndarray, SolveReport]:
    """Reconstruct a light field from its projected coded measurement.

    l_star_p is the (U, V, S, T, 1) projected measurement, m the one-hot coding
    mask.  Returns the synthesized (U, V, S, T, C) float32 estimate and a
    report with the per-iteration objective values.  Line-search failure
    terminates the solve with a report entry, never an exception; a non-finite
    starting objective raises FloatingPointError.
    """
    l_star_p = as_tensor5(l_star_p, "projected measurement")
    fid = transforms.CodedFidelity(coding.lift(l_star_p, m), m)
    lam = float(opts.lam)

    x = fid.analysis_target.copy()  # warm start consistent with the measurement
    tol = opts.grad_tol if opts.grad_tol is not None else 1e-5 * np.sqrt(x.size)

    z = fid.synthesize(x)
    g = fid.gradient(z)
    obj = fid.value(z) + lam * float(np.abs(x).sum())
    if not math.isfinite(obj):
        raise FloatingPointError(f"OWL-QN objective is {obj} at iteration 0")
    report = SolveReport(iterations=0, objectives=[obj])
    hist = _LbfgsHistory(x.shape, opts.memory, min(opts.memory, opts.max_iters) + 1)
    pg = hist.pg
    d, xi, x_new = (np.empty_like(x) for _ in range(3))
    flags = np.empty(x.shape, dtype=bool)

    for it in range(opts.max_iters):
        _pseudo_gradient(x, g, lam, pg)
        # x_new is free until the line search and serves as scratch.
        if float(np.abs(pg, out=x_new).max()) <= tol:
            report.termination = "converged"
            break

        hist.direction(d)
        # Constrain the direction to the descent orthant of the pseudo-gradient.
        # Masks are applied by multiplication, which is cheaper than a masked
        # store; it leaves -0.0 where a negative entry is zeroed, and no step
        # reads the sign of a zero.
        d *= np.less(np.multiply(d, pg, out=x_new), 0.0, out=flags)
        if float(np.vdot(pg, d)) >= 0:
            np.negative(pg, out=d)
        # Orthant of the step: sign(x), or sign(-pg) where x == 0.
        np.multiply(pg, np.equal(x, 0.0, out=flags), out=xi)
        np.sign(np.subtract(x, xi, out=xi), out=xi)

        step = 1.0 if hist.pairs else 1.0 / max(float(np.linalg.norm(pg)), 1e-30)
        s = hist.s
        accepted = False
        for _ in range(MAX_LINESEARCH):
            np.multiply(d, step, out=x_new)
            x_new += x
            # Zero the coordinates that left the orthant: x_new * xi <= 0.
            # With |xi| = 1 elsewhere, xi * max(xi * x_new, 0) keeps x_new exactly.
            x_new *= xi
            np.maximum(x_new, 0.0, out=x_new)
            x_new *= xi
            np.subtract(x_new, x, out=s)
            decrease = float(np.vdot(pg, s))
            if decrease < 0:
                z_new = fid.synthesize(x_new)
                report.evaluations += 1
                # x_new has the sign xi or is zero, so xi . x_new = ||x_new||_1.
                obj_new = fid.value(z_new) + lam * float(np.vdot(xi, x_new))
                # Armijo on the difference: obj + ARMIJO_C1 * decrease would
                # round to obj at the rounding floor and accept steps that do
                # not lower the objective, forever.
                if obj_new - obj <= ARMIJO_C1 * decrease:
                    accepted = True
                    break
            step *= BACKTRACK
        if not accepted:
            report.termination = "line_search_failed"
            break

        z = z_new  # drops the old synthesis before the gradient's temporaries
        g_new = fid.gradient(z)
        np.subtract(g_new, g, out=hist.y)
        if not hist.push():
            report.pairs_skipped += 1
        x, x_new = x_new, x
        g, obj = g_new, obj_new
        report.iterations = it + 1
        report.objectives.append(obj)
        if _iterate_hook is not None:
            _iterate_hook(x)
    else:
        report.termination = "max_iters"

    report.final_objective = obj
    return z.astype(np.float32), report
