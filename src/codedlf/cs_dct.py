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

The smooth term and its gradient come from transforms.ObservedFidelity,
which evaluates them on the entries the mask keeps, with no angular DCT.
Each line-search trial computes its observed residual once (a synthesis
over (S, T, C) and one gather); the residual of the accepted point gives
the gradient (one scatter and an analysis over (S, T, C)).  The warm start
is one 5D analysis of the lifted measurement m * l_star, and the
reconstruction is one 5D synthesis of the final iterate.

Everything outside that operator works on the active set
A = {x != 0} or {|g| > lam}, the flat indices of the coefficients that can
move: off A the pseudo-gradient is exactly 0, so the constrained direction,
the step orthant, the step s and the move of the trial point are 0 there
too.  On A, sigma = sign(x) - (x == 0) sign(g) is the orthant of the step
(|g| > lam wherever x == 0 there) and the pseudo-gradient is g + lam sigma.
One power of two 2^e > max |pg| per iteration scales pg for the float32
copy that the direction reads and for the first step's norm
2^e ||pg / 2^e||, which cannot overflow.  These, max |pg|, the direction,
the orthant constraint and each trial's passes and dot products run on
arrays of |A| entries; a trial scatters its values into the dense trial
point, which equals x off A, before the synthesis.
Arrays over every live view (below) remain only where the operator needs
them: the iterate, the gradient and their successors, allocated once per
solve and swapped in place of copies.  y = g_new - g is written over the
old gradient, and the direction lives in the successor gradient until that
is computed.

The mask is the same for every view (u, v), so the LASSO splits into U V
independent problems, one per view's slice x[u, v] of the coefficients: a
view's residual column, and so its gradient, depend on its own slice
alone.  A view that A does not touch has x = 0 and |g| <= lam on all of
it, so it is at its own optimum; no step moves it and its gradient stays
the same, so it stays off A for good.  This is the discarding of LASSO
screening rules (Tibshirani et al. 2012), here exact.  After each active
set the views it does not touch drop out of the solve: the live views of
the iterate, the gradient and their successors, of the flag arrays, of
the operator's target and buffers and of the history's rows move to the
front of the memory they had, and A's indices are remapped onto that
layout.  A dropped view's residual column stays -b, and its squared norm
joins one constant term of the objective.  On the benchmark's scenes the
warm start touches all 25 views, and from the fourth iteration on 8
(linear-ramp disparity) or 13-15 (constant disparity) stay live; there A
holds 5-17 % of the coefficients.  The final iterate, and the one given to
the iterate hook, is scattered back to (U, V, S, T, C), zero on the
dropped views.  The objective is summed in another order than over all
views, so it can move by rounding; the float32 reconstructions of the
benchmark's problems are bit-equal to those of the solve over all views.

The L-BFGS history keeps its min(memory, max_iters) pairs (s, y) as rows of
one preallocated float32 array W, a ring with no spare slot.  Everything that
steers the step stays in float64: the iterate, the gradient, the
pseudo-gradient, the direction, the line search, the new s and y, the small
S^T Y and Y^T Y matrices and the curvature test s.y > eps y.y (eps the float64
machine epsilon), which reads the float64 products, so a rejected pair never
touches W.  The test is relative: scaling the data, lam and grad_tol together
keeps the same pairs.  A kept pair is cast into its slot (s by zeroing its
row and scattering its active entries), and one float32 GEMV of W with the
new y extends S^T Y and Y^T Y.  The direction -H pg comes from the compact
representation of Byrd, Nocedal & Schnabel (1994): one float32 GEMV W pg,
two float64 triangular solves of the history's size and one float32 GEMV
c^T W, in place of the two-loop recursion's four passes per pair.  Both
GEMVs read only A's columns of W, gathered in blocks of a fixed number of
columns, so the gathered copy stays small whatever |A| is.  The rows hold
the live views' columns only: a dropped view's entries of every later y
are zero, so its columns add nothing to S^T Y and Y^T Y.  Halving the
bytes of these memory-bound GEMVs, and summing over A, move the direction
by rounding only; a test holds it to 1e-5 of its largest entry against the
float64 two-loop recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coding, transforms
from .tensor import as_tensor5, require_count, require_real

# Line-search constants of Andrew & Gao (2007).
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_LINESEARCH = 50
# A pair (s, y) is kept if s.y > CURVATURE_EPS * y.y, a test that does not
# change when the problem is scaled.
CURVATURE_EPS = float(np.finfo(np.float64).eps)


@dataclass
class OwlqnOptions:
    """Solver knobs; lam is the l1 coupling and is never defaulted."""

    lam: float
    max_iters: int = 500
    memory: int = 10
    grad_tol: float | None = None  # None: 1e-5 * sqrt(problem size)

    def __post_init__(self):
        require_real("lam", self.lam, 0)
        require_count("max_iters", self.max_iters, 0)
        require_count("memory", self.memory, 1)
        if self.grad_tol is not None:
            require_real("grad_tol", self.grad_tol, 0, strict=True)


@dataclass
class SolveReport:
    # `reconstruct-dct --report` writes the fields in this order.
    iterations: int
    termination: str = "max_iters"
    final_objective: float = float("nan")
    evaluations: int = 0  # line-search trials that synthesized their point
    pairs_skipped: int = 0  # accepted steps whose pair failed s.y > eps y.y
    objectives: list[float] = field(default_factory=list)


def _pseudo_gradient(
    x: np.ndarray,
    g: np.ndarray,
    lam: float,
    out: np.ndarray,
    sigma: np.ndarray,
    flags: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Write the pseudo-gradient of f(x) + lam*||x||_1 into `out` and the
    step orthant into `sigma`, for x and g on the active set; return both.

    On A = {x != 0} or {|g| > lam}, sigma = sign(x) - (x == 0) sign(g) is
    sign(x), or -sign(g) at x == 0, where |g| > lam.  There the
    pseudo-gradient g + lam sigma has the sign of g, so sigma is sign(x) or
    sign(-pg): the orthant of the step.  At lam = 0 it is a copy of g, which
    keeps a -0.0 of g that g + 0 sigma would not.  `flags` is a bool work
    array of x's shape.
    """
    np.sign(g, out=sigma)
    sigma *= np.equal(x, 0.0, out=flags)
    # Neither sign is taken in place: numpy's np.sign is several times
    # slower in place.
    np.subtract(np.sign(x, out=out), sigma, out=sigma)
    if lam == 0.0:
        np.copyto(out, g)
    else:
        np.multiply(sigma, lam, out=out)
        out += g
    return out, sigma


def _active_set(x: np.ndarray, g: np.ndarray, lam: float, flags: np.ndarray, edge: np.ndarray):
    """Flat indices, ascending, of A = {x != 0} or {|g| > lam}.

    Off A, x == 0 and |g| <= lam, so the pseudo-gradient is exactly 0 there.
    `flags` and `edge` are bool work arrays of x's shape.
    """
    np.greater(g, lam, out=flags)
    flags |= np.less(g, -lam, out=edge)
    flags |= np.not_equal(x, 0.0, out=edge)
    return np.flatnonzero(flags)


def _drop_views(a: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Move the live views of each row of the C-contiguous 2D array `a` to
    the front of its memory; return the (rows, live columns) array there.

    Each row is `len(live)` equal runs of columns, one per view.  The runs
    move in order, front to back, so a run is written only over runs that
    have moved already, and nothing is allocated.
    """
    rows, width = a.shape
    kept = np.flatnonzero(live)
    n = width // len(live)
    src = a.reshape(rows, len(live), n)
    dst = a.reshape(-1)[: rows * len(kept) * n].reshape(rows, len(kept), n)
    for r in range(rows):
        for k, j in enumerate(kept):
            dst[r, k] = src[r, j]
    return dst.reshape(rows, -1)


class _LbfgsHistory:
    """The kept L-BFGS pairs (s, y) in float32 rows, for `size` coefficients.

    Rows 2j and 2j + 1 of the C-contiguous float32 array `w` hold s and y of
    slot j, for `slots` slots that fill in order and then form a ring: once
    all are kept, a new pair replaces the oldest one.  `push` tests
    s.y > eps y.y on the float64 vectors before anything is stored.
    `sy[i, j]` is s_i . y_j for slot i written before pair j was kept, and
    `yy` holds y_i . y_j; their diagonals come from the float64 s and y, the
    other entries from the float32 rows.

    s and the pseudo-gradient are given on an active set (flat indices,
    ascending) and are zero off it; y is dense.  `direction` reads the
    active columns of `w`, gathered `block` columns at a time into one
    buffer, so the gathered copy stays bounded whatever the set's size.
    """

    block = 1 << 14

    def __init__(self, size: int, slots: int):
        self.w = np.empty((2 * slots, size), dtype=np.float32)
        self.sy = np.zeros((slots, slots))
        self.yy = np.zeros((slots, slots))
        self.pairs: list[int] = []  # slots of the kept pairs, oldest first

    def push(self, s: np.ndarray, active: np.ndarray, y: np.ndarray) -> bool:
        """Keep the pair (s, y) if s.y > eps y.y; return whether it was kept.

        s holds the step on `active` and y the dense change of the gradient.
        A kept pair is cast into the free slot, s by zeroing its row and
        scattering s into the active columns, and one GEMV, (rows of the
        kept pairs) @ y_new, gives the new column of S^T Y and the new row
        and column of Y^T Y.
        """
        y = y.reshape(-1)
        sy = float(np.vdot(s, y[active]))
        yy = float(np.vdot(y, y))
        if not sy > CURVATURE_EPS * yy:
            return False
        j = self.pairs.pop(0) if len(self.pairs) == len(self.sy) else len(self.pairs)
        self.pairs.append(j)
        k = len(self.pairs)
        self.w[2 * j] = 0.0
        self.w[2 * j, active] = s
        self.w[2 * j + 1] = y
        v = self.w[: 2 * k] @ self.w[2 * j + 1]
        self.sy[:k, j] = v[0::2]
        self.yy[:k, j] = self.yy[j, :k] = v[1::2]
        self.sy[j, j] = sy
        self.yy[j, j] = yy
        return True

    def keep_views(self, live: np.ndarray) -> None:
        """Keep the columns of the views where `live` is true, in place.

        The columns are `len(live)` equal runs, one per view.  The kept runs
        of the written rows move to the front of `w`'s memory, and `w`
        becomes the C-contiguous (rows, kept columns) array there.  A dropped
        view's entries of each later y are zero, so S^T Y and Y^T Y keep
        their values.
        """
        width = _drop_views(self.w[: 2 * len(self.pairs)], live).shape[1]
        self.w = self.w.reshape(-1)[: len(self.w) * width].reshape(len(self.w), width)

    def direction(
        self, pg: np.ndarray, active: np.ndarray, scale: float, out: np.ndarray
    ) -> np.ndarray:
        """Write -H pg on `active` into `out`, H the inverse Hessian of the kept pairs.

        pg is the pseudo-gradient on `active`, and zero off it, so only the
        active columns of the rows enter.  scale is a power of two 2^e with
        max |pg| < 2^(e + 1), so the float32 copy of pg, pg / 2^e, is exact
        and within float32's range at any lam.

        H = gamma I + [S gamma Y] M [S gamma Y]^T in the compact form of
        Byrd, Nocedal & Schnabel (1994), with gamma = s.y / y.y of the newest
        pair, R the upper triangle of S^T Y and D its diagonal.  With
        a = S^T pg, b = Y^T pg and u = R^-1 a,

            -H pg = -gamma pg - S R^-T (D u + gamma (Y^T Y u - b)) + gamma Y u,

        so one GEMV W pg gives a and b and one GEMV c^T W gives the history
        part, which is added to -gamma pg in float64 and scaled back by 2^e.
        Both GEMVs run over the gathered blocks of columns; the second pass
        runs backwards, so it starts on the block the first pass left.
        """
        if not self.pairs:
            np.negative(pg, out=out)
            return out
        rows = self.w[: 2 * len(self.pairs)]
        v32 = np.multiply(pg, 1.0 / scale, out=np.empty(len(pg), dtype=np.float32))
        buf = np.empty(len(rows) * min(len(active), self.block), dtype=np.float32)

        def gather(b):
            block = active[b : b + self.block]
            out = buf[: len(rows) * len(block)].reshape(len(rows), len(block))
            # The columns are in range; mode="clip" spares take a buffered copy of out.
            return np.take(rows, block, axis=1, out=out, mode="clip")

        starts = range(0, len(active), self.block)
        v = np.zeros(len(rows))
        for b in starts:
            cols = gather(b)
            v += cols @ v32[b : b + self.block]
        j = np.array(self.pairs)
        sy = self.sy[np.ix_(j, j)]
        yy = self.yy[np.ix_(j, j)]
        r = np.triu(sy)
        gamma = sy[-1, -1] / yy[-1, -1]
        u = np.linalg.solve(r, v[2 * j])
        p = np.linalg.solve(r.T, np.diag(sy) * u + gamma * (yy @ u - v[2 * j + 1]))
        c = np.empty(len(rows), dtype=np.float32)
        c[2 * j] = -p
        c[2 * j + 1] = gamma * u
        for b in reversed(starts):
            if b != starts[-1]:
                cols = gather(b)
            np.dot(c, cols, out=v32[b : b + self.block])
        np.multiply(pg, -gamma / scale, out=out)
        out += v32
        out *= scale
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
    x, report = _solve(l_star_p, m, opts, _iterate_hook)
    # The solve's buffers are free again, and the synthesis reuses their memory.
    return transforms.dct5_inverse(x).astype(np.float32), report


def _whole(x: np.ndarray, views: np.ndarray, free: np.ndarray, shape: tuple) -> np.ndarray:
    """The (U, V, S, T, C) iterate of x on `views`: zero on the dropped views.

    Once views are dropped it is written into the memory of `free`, a
    full-size array of the solve, or a compacted view of one, whose values
    the solve does not read again.
    """
    if x.shape == shape:
        return x
    whole = (free if free.base is None else free.base).reshape(shape)
    per_view = whole.reshape(shape[0] * shape[1], -1)
    per_view.fill(0.0)
    per_view[views] = x.reshape(len(views), -1)
    return whole


def _solve(l_star_p, m, opts: OwlqnOptions, _iterate_hook) -> tuple[np.ndarray, SolveReport]:
    """The OWL-QN loop: the final iterate and the report."""
    l_star = coding.lift(l_star_p, m)
    fid = transforms.ObservedFidelity(l_star, m)
    lam = float(opts.lam)

    # Warm start analysis(m * l_star), consistent with the measurement; the
    # lifted field is zero off the mask, so it is its own projection.
    x = transforms.dct5_forward(l_star)
    del l_star
    tol = opts.grad_tol if opts.grad_tol is not None else 1e-5 * np.sqrt(x.size)

    resid = fid.residual(x)
    g = fid.gradient(resid)
    obj = fid.value(resid) + lam * float(np.abs(x).sum())
    if not math.isfinite(obj):
        raise FloatingPointError(f"OWL-QN objective is {obj} at iteration 0")
    report = SolveReport(iterations=0, objectives=[obj])
    hist = _LbfgsHistory(x.size, min(opts.memory, opts.max_iters))
    x_new, g_new = x.copy(), np.empty_like(x)
    flags, edge = (np.empty(x.shape, dtype=bool) for _ in range(2))
    active = np.empty(0, dtype=np.intp)
    per_view = math.prod(x.shape[2:])

    for it in range(opts.max_iters):
        # x_new differs from x only on the previous active set.
        xf, xnf = x.reshape(-1), x_new.reshape(-1)
        xnf[active] = xf[active]
        active = _active_set(x, g, lam, flags, edge)
        x_a = xf[active]
        pg, xi = np.empty(len(active)), np.empty(len(active))
        on = np.empty(len(active), dtype=bool)
        # xi is sigma, the orthant of the step.
        _pseudo_gradient(x_a, g.reshape(-1)[active], lam, pg, xi, on)
        # g_new is free until the accepted point's gradient: it holds |pg|,
        # then d.
        pg_max = float(np.abs(pg, out=g_new.reshape(-1)[: len(active)]).max(initial=0.0))
        if pg_max <= tol:
            report.termination = "converged"
            break
        # 2^e > max |pg|, or float64's largest power of two past it.
        scale = math.ldexp(1.0, min(math.frexp(pg_max)[1], 1023))
        # A view without active coefficients is at its optimum for good: drop
        # it, and move the live views to the front of each array.
        live = flags.reshape(len(fid.views), -1).any(axis=1)
        if not live.all():
            active -= per_view * np.cumsum(~live)[active // per_view]
            fid.keep_views(live)
            x, x_new, g = (
                _drop_views(a.reshape(1, -1), live).reshape(fid.coef_shape)
                for a in (x, x_new, g)
            )
            g_new, flags, edge = (
                a.reshape(-1)[: x.size].reshape(x.shape) for a in (g_new, flags, edge)
            )
            resid = resid.reshape(-1)[: fid.target.size].reshape(fid.target.shape)
            hist.keep_views(live)
            xf, xnf = x.reshape(-1), x_new.reshape(-1)

        d = hist.direction(pg, active, scale, g_new.reshape(-1)[: len(active)])
        t = np.empty(len(active))  # scratch, then each trial's point and step
        # Constrain the direction to the descent orthant of the pseudo-gradient:
        # keep d where d sign(pg) < 0, which has the sign of d pg but cannot
        # overflow.  Masks are applied by multiplication, which is cheaper
        # than a masked store; it leaves -0.0 where a negative entry is
        # zeroed, and no step reads the sign of a zero.
        np.sign(pg, out=t)
        d *= np.less(np.multiply(t, d, out=t), 0.0, out=on)
        if float(np.vdot(pg, d)) >= 0:
            np.negative(pg, out=d)

        if hist.pairs:
            step = 1.0
        else:
            # A unit first step; scaling by a power of two is exact.
            step = 1.0 / max(scale * float(np.linalg.norm(np.divide(pg, scale, out=t))), 1e-30)
        accepted = False
        for _ in range(MAX_LINESEARCH):
            np.multiply(d, step, out=t)
            t += x_a
            # Zero the coordinates that left the orthant: t * xi <= 0.  With
            # |xi| = 1 elsewhere, xi * max(xi * t, 0) keeps t exactly.
            t *= xi
            np.maximum(t, 0.0, out=t)
            t *= xi
            # Off the active set the trial point is x.  t has the sign xi or
            # is zero, so xi . t = ||x_new||_1; then t becomes s = x_new - x.
            xnf[active] = t
            norm1 = float(np.vdot(xi, t))
            t -= x_a
            decrease = float(np.vdot(pg, t))
            if decrease < 0:
                fid.residual(x_new, out=resid)
                report.evaluations += 1
                obj_new = fid.value(resid) + lam * norm1
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

        # Free the step's work arrays before push gathers y on the active set:
        # with a whole-problem set each is a full-size array.  t holds s.
        del x_a, pg, xi, on, d
        # resid is the accepted trial's: the last one the line search wrote.
        fid.gradient(resid, out=g_new)
        # y = g_new - g overwrites g, which is not read again.
        y = np.subtract(g_new, g, out=g)
        if not hist.push(t, active, y):
            report.pairs_skipped += 1
        del t
        x, x_new = x_new, x
        g, g_new = g_new, g
        obj = obj_new
        report.iterations = it + 1
        report.objectives.append(obj)
        if _iterate_hook is not None:
            # g_new holds y, which push has stored.
            _iterate_hook(_whole(x, fid.views, g_new, fid.shape))
    else:
        report.termination = "max_iters"

    report.final_objective = obj
    # g_new is free at every exit: it holds y, d or nothing.
    return _whole(x, fid.views, g_new, fid.shape), report
