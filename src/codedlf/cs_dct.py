"""LASSO reconstruction in the 5D-DCT basis via OWL-QN.

Solves

    min_alpha  || l_star - m * synth(alpha) ||_2^2 + lam * ||alpha||_1

with the orthant-wise limited-memory quasi-Newton method of Andrew & Gao
(2007): an L-BFGS direction built from gradients of the smooth term,
steered by the pseudo-gradient of the l1 objective, with every step
projected onto the orthant chosen at the start of the step so coordinate
signs never flip mid-step.  The line search backtracks until the full
objective satisfies an Armijo decrease along the projected step, which
makes the recorded objective sequence non-increasing by construction.

The smooth term and its gradient come from transforms.CodedFidelity.  Each
line-search trial synthesizes its point once; the synthesis of the accepted
point is kept and gives the gradient and, at the end, the reconstruction,
so a step costs one inverse transform per trial and one forward transform.
Iterates, gradients and the L-BFGS history are C-contiguous float64 arrays,
and each history pair carries the s.y computed when it was accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import coding, transforms
from .tensor import as_tensor5


@dataclass
class OwlqnOptions:
    """Solver knobs; lam is the l1 coupling and is never defaulted."""

    lam: float
    max_iters: int = 500
    memory: int = 10
    grad_tol: float | None = None  # None: 1e-5 * sqrt(problem size)
    c1: float = 1e-4
    backtrack: float = 0.5
    max_linesearch: int = 50

    def __post_init__(self):
        for name in ("max_iters", "memory", "max_linesearch"):
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
        if self.max_linesearch < 1:
            raise ValueError(f"max_linesearch must be >= 1, got {self.max_linesearch}")
        if not (0 < self.c1 < 1) or not (0 < self.backtrack < 1):
            raise ValueError("invalid line-search parameters")


@dataclass
class SolveReport:
    iterations: int
    objectives: list[float] = field(default_factory=list)
    final_objective: float = float("nan")
    termination: str = "max_iters"


def _pseudo_gradient(x: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Pseudo-gradient of f(x) + lam*||x||_1 (zero inside the subdifferential).

    At x == 0 it is g + lam where that is negative, g - lam where that is
    positive and 0 otherwise; with lam >= 0 that is
    min(g + lam, 0) + max(g - lam, 0).
    """
    if lam == 0.0:
        return g.copy()
    right = g + lam
    left = g - lam
    pg = np.minimum(right, 0.0)
    pg += np.maximum(left, 0.0)
    np.copyto(pg, right, where=x > 0)
    np.copyto(pg, left, where=x < 0)
    return pg


def _two_loop(
    pg: np.ndarray,
    history: list[tuple[np.ndarray, np.ndarray, float]],
    scratch: np.ndarray,
) -> np.ndarray:
    """L-BFGS two-loop recursion; returns the ascent direction H*pg.

    History entries are (s, y, s.y); `scratch` is a buffer of pg's shape.
    """
    q = pg.copy()
    alphas = []
    for s, y, sy in reversed(history):
        rho = 1.0 / sy
        a = rho * float(np.vdot(s, q))
        q -= np.multiply(a, y, out=scratch)
        alphas.append((a, rho))
    if history:
        s, y, sy = history[-1]
        q *= sy / float(np.vdot(y, y))
    for (a, rho), (s, y, _) in zip(reversed(alphas), history):
        b = rho * float(np.vdot(y, q))
        q += np.multiply(a - b, s, out=scratch)
    return q


def owlqn_reconstruct(
    l_star_p: np.ndarray,
    m: np.ndarray,
    opts: OwlqnOptions,
    _iterate_hook=None,
) -> tuple[np.ndarray, SolveReport]:
    """Reconstruct a light field from its projected coded measurement.

    l_star_p is the (U, V, S, T, 1) projected measurement, m the one-hot
    coding mask.  Returns the synthesized (U, V, S, T, C) float32 estimate
    and a report with the per-iteration objective values.  Line-search
    failure terminates the solve with a report entry, never an exception.
    """
    l_star_p = as_tensor5(l_star_p, "projected measurement")
    fid = transforms.CodedFidelity(coding.lift(l_star_p, m), m)
    lam = float(opts.lam)

    x = fid.analysis_target.copy()  # warm start consistent with the measurement
    n = x.size
    tol = opts.grad_tol if opts.grad_tol is not None else 1e-5 * np.sqrt(n)

    z = fid.synthesize(x)
    g = fid.gradient(z)
    obj = fid.value(z) + lam * float(np.abs(x).sum())
    report = SolveReport(iterations=0, objectives=[obj])
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    scratch = np.empty_like(x)

    for it in range(opts.max_iters):
        pg = _pseudo_gradient(x, g, lam)
        if float(np.abs(pg).max()) <= tol:
            report.termination = "converged"
            break

        d = _two_loop(pg, history, scratch)
        np.negative(d, out=d)
        # Constrain the direction to the descent orthant of the pseudo-gradient.
        # Masks are applied by multiplication, which is cheaper than a masked
        # store; it leaves -0.0 where a negative entry is zeroed, and no step
        # reads the sign of a zero.
        d *= np.multiply(d, pg, out=scratch) < 0
        if float(np.vdot(pg, d)) >= 0:
            d = -pg
        # Orthant of the step: sign(x), or sign(-pg) where x == 0.
        xi = np.sign(x - pg * (x == 0))

        step = 1.0 if history else 1.0 / max(float(np.linalg.norm(pg)), 1e-30)
        accepted = False
        for _ in range(opts.max_linesearch):
            x_new = x + step * d
            # Zero the coordinates that left the orthant: sign(x_new) != xi.
            x_new *= (np.multiply(x_new, xi, out=scratch) > 0) | (x_new == xi)
            dx = x_new - x
            decrease = float(np.vdot(pg, dx))
            if decrease < 0:
                z_new = fid.synthesize(x_new)
                obj_new = fid.value(z_new) + lam * float(np.abs(x_new).sum())
                if obj_new <= obj + opts.c1 * decrease:
                    accepted = True
                    break
            step *= opts.backtrack
        if not accepted:
            report.termination = "line_search_failed"
            break

        g_new = fid.gradient(z_new)
        y = g_new - g
        sy = float(np.vdot(dx, y))
        if sy > 1e-12:
            history.append((dx, y, sy))
            if len(history) > opts.memory:
                history.pop(0)
        x, z, g, obj = x_new, z_new, g_new, obj_new
        report.iterations = it + 1
        report.objectives.append(obj)
        if _iterate_hook is not None:
            _iterate_hook(x)
    else:
        report.termination = "max_iters"

    report.final_objective = obj
    return z.astype(np.float32), report
