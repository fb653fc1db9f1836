"""Dictionary-based reconstruction: patching, FISTA sparse coding, training.

A light field is cut into overlapping 5D patches, each patch is sparse
coded against a learned overcomplete dictionary, and the reconstruction is
assembled by averaging overlapping patches: one gather and one
`np.bincount` (which sums in grid order) through `PatchGrid.index`, the
flat source index of every patch entry.  The dictionary is trained by
alternating minimization: FISTA (Beck & Teboulle 2009) for the codes with
the dictionary fixed, then mini-batch SGD on the atoms with the codes
fixed, renormalizing every atom to unit l2 norm after each update.

Sparse coding minimizes  ||x - D a||_2^2 + lam * ||a||_1  (that scaling
makes the identity-dictionary solution the soft threshold at lam / 2).
One monotone FISTA kernel (Beck & Teboulle 2009) serves training,
`fista_encode` and reconstruction.  It works on groups of patches that
share their observed rows D_m of D: a (groups, rows, atoms) float32 stack
of the D_m, gathered once per solve, and the codes in a (groups, patches,
atoms) layout.  Each iteration runs two GEMMs, each one batched `matmul`
over the groups on buffers allocated once per solve: the gradient
(D_m y - x_m) D_m and D_m z.  D_m y is the momentum combination of the
cached D_m z of the last two iterates, D_m z gives the objective, and the
residual and objective come from the final D_m a.  Momentum and the
monotone restart are shared by all groups; each group takes its own step.

Precision: the kernel runs in float32, GEMMs and state alike, on the data
and lam scaled by one power of two, so codes and atoms do not depend on
the scale of the data.  Per-patch objectives are summed in float64; codes,
D_m a, objectives and the atom update are float64.  LFDC atoms are float32
values, so their stack is exact; an atom set in memory is rounded to
float32 once.  Against the float64 three-GEMM kernel on the same atoms and
step, per training batch of the dict-fista benchmark set-up the codes are
within 7e-6 and the per-patch objectives within 3e-6 (relative).  Masked
solves of the tests' oracle cases run the same iterations and restarts; on
the benchmark's test scenes (seeds 1-20) 36 of 40 do and 4 run one more or
one fewer, as the stop rule's test falls the other way, and reconstructions
end within 3.8e-4 of their peak (1.1e-3 where the counts differ).

Training and `fista_encode` are the case of one group that holds all rows:
the batch is passed as (B, atom_len) rows, with the step 1/(2 L(D)) and a
fixed iteration count.  `fista_encode` takes L(D) exactly; training takes
it per batch from `lipschitz_bound`, a power iteration started from the
last batch's vector, the first from the top eigenvector (one `eigh`).
Training casts the atoms after each update.  Reconstruction from coded
measurements keeps only the observed entries of each patch:
||x_m - D_m a||_2^2 + lam * ||a||_1,  with D_m the rows of D that the
one-hot mask selects.  The mask depends on the spatial position alone, so
all patches with one spatial origin share D_m and form one group (masked
overcomplete-dictionary reconstruction as in Marwah et al. 2013).  Spatial
origins run fastest in grid order, so with n of them group k holds patches
k, k + n, k + 2n, ...  Group m steps by 1/(2 L(D_m)), with L(D_m) the
exact largest eigenvalue of the small float64 Gram D_m D_m^T: a few times
larger than the global step, since L(D_m) <= L(D).
The solve stops after a non-restart iteration in which the objective
summed over all patches fell by at most STOP_REL_DECREASE (1e-3) of its new
value, so the iteration count is a cap.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import coding, tensor

DICT_MAGIC = b"LFDC"
_DICT_HEADER = struct.Struct("<4s2I")


@dataclass(frozen=True)
class PatchGrid:
    """Tiling of a source tensor into overlapping patches.

    Origins along each axis are multiples of (atom - overlap), with a final
    origin clamped to (dim - atom) so the far edge is always covered.  The
    spectral axis is never patched: the atom spans all channels.  In grid
    order t runs fastest, then s, v and u.
    """

    source_dims: tuple[int, int, int, int, int]
    atom_dims: tuple[int, int, int, int, int]
    origins: tuple[tuple[int, int, int, int], ...]

    @property
    def atom_len(self) -> int:
        return int(np.prod(self.atom_dims))

    @property
    def n_patches(self) -> int:
        return len(self.origins)

    @cached_property
    def index(self) -> np.ndarray:
        """Flat source index of every patch entry, (n_patches, atom_len):
        row i is patch i raveled.  Built once; as large as a float64 patch
        matrix."""
        corners = np.ravel_multi_index(np.transpose(self.origins), self.source_dims[:4])
        offsets = np.ravel_multi_index(np.indices(self.atom_dims).reshape(5, -1), self.source_dims)
        return corners[:, None] * self.source_dims[4] + offsets


def _axis_origins(dim: int, atom: int, overlap: int) -> list[int]:
    if atom > dim:
        raise ValueError(f"atom extent {atom} exceeds source extent {dim}")
    stride = atom - overlap
    origins = list(range(0, dim - atom + 1, stride))
    if origins[-1] != dim - atom:
        origins.append(dim - atom)
    return origins


def _require_dims(kind: str, dims) -> tuple[int, ...]:
    if len(dims) != 5:
        raise ValueError(f"{kind} dims must have 5 entries u,v,s,t,C, got {tuple(dims)}")
    for d in dims:
        tensor.require_count(f"{kind} extent", d, 1)
    return tuple(int(d) for d in dims)


def make_patch_grid(
    source_dims: tuple[int, int, int, int, int],
    atom_dims: tuple[int, int, int, int, int],
    spatial_overlap: tuple[int, int],
    angular_overlap: tuple[int, int],
) -> PatchGrid:
    """Build the patch grid for a source tensor."""
    source_dims = _require_dims("source", source_dims)
    atom_dims = _require_dims("atom", atom_dims)
    if atom_dims[4] != source_dims[4]:
        raise ValueError(f"atoms span all {source_dims[4]} channels, got {atom_dims[4]}")
    overlaps = (*angular_overlap, *spatial_overlap)
    if len(spatial_overlap) != 2 or len(angular_overlap) != 2 or min(overlaps) < 0:
        # A negative overlap leaves gaps that no patch covers.
        raise ValueError(
            f"overlaps must be >= 0, 2 entries each, got spatial {tuple(spatial_overlap)}"
            f" and angular {tuple(angular_overlap)}"
        )
    for o in overlaps:
        tensor.require_count("overlap", o, 0)
    # Clamp overlaps to atom - 1: a larger one would give a stride <= 0.
    per_axis = [
        _axis_origins(source_dims[axis], atom_dims[axis], int(min(o, atom_dims[axis] - 1)))
        for axis, o in enumerate(overlaps)
    ]
    return PatchGrid(source_dims, atom_dims, tuple(itertools.product(*per_axis)))


def patch(l: np.ndarray, g: PatchGrid) -> np.ndarray:
    """Extract all patches of `l`, one vectorized patch per row."""
    l = np.asarray(l, dtype=np.float64)
    if l.shape != g.source_dims:
        raise ValueError(f"tensor {l.shape} does not match grid {g.source_dims}")
    return l.reshape(-1)[g.index]


def coverage_counts(g: PatchGrid) -> np.ndarray:
    """How many patches cover each source element (always >= 1)."""
    size = math.prod(g.source_dims)
    return np.bincount(g.index.reshape(-1), minlength=size).reshape(g.source_dims)


def depatch(patches: np.ndarray, g: PatchGrid) -> np.ndarray:
    """Assemble patches back into a tensor, averaging overlapping values."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape != (g.n_patches, g.atom_len):
        raise ValueError(
            f"expected {(g.n_patches, g.atom_len)} patch matrix, got {patches.shape}"
        )
    size = math.prod(g.source_dims)
    acc = np.bincount(g.index.reshape(-1), weights=patches.reshape(-1), minlength=size)
    acc = acc.reshape(g.source_dims) / coverage_counts(g)
    return acc.astype(np.float32)


@dataclass
class Dictionary:
    """Overcomplete dictionary; columns are unit-norm atoms."""

    atoms: np.ndarray  # (atom_len, n_atoms), float64

    @property
    def atom_len(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def normalize(self) -> None:
        norms = np.linalg.norm(self.atoms, axis=0)
        norms[norms < 1e-30] = 1.0
        self.atoms /= norms


def write_dictionary(d: Dictionary, path) -> None:
    """Write a dictionary: magic "LFDC", u32 atom_len, u32 n_atoms, then
    float32 atoms in column-major order (atom after atom).

    Refuses, before opening the file, what `read_dictionary` would reject:
    a zero-sized or oversized shape and atoms that are not finite in float32.
    """
    shape = np.shape(d.atoms)
    if len(shape) != 2 or min(shape) < 1 or max(shape) >= 2**32:
        raise ValueError(f"cannot write a dictionary of shape {shape}")
    tensor.write_container(path, _DICT_HEADER.pack(DICT_MAGIC, *shape), np.transpose(d.atoms))


def read_dictionary(path) -> Dictionary:
    """Read an LFDC file; the payload checks are `tensor.read_payload`'s."""
    raw, (atom_len, n_atoms) = tensor.read_container(
        path, DICT_MAGIC, _DICT_HEADER, "LFDC dictionary"
    )
    if min(atom_len, n_atoms) < 1:
        raise tensor.LF5DError(f"{path}: zero-sized dictionary ({atom_len} x {n_atoms})")
    atoms = tensor.read_payload(path, raw, _DICT_HEADER.size, atom_len * n_atoms)
    atoms = atoms.astype(np.float64).reshape((atom_len, n_atoms), order="F")
    return Dictionary(atoms=np.ascontiguousarray(atoms))


def check_training_knobs(
    atom_len: int, k: float, lam: float, lr: float, batch_size: int, fista_iters: int,
    epochs: int,
) -> int:
    """Validate the knobs of `train_dictionary`; returns the atom count
    round(k * atom_len), which must be at least one and fit the LFDC
    header."""
    tensor.require_real("lam", lam, 0)
    tensor.require_real("lr", lr, 0)  # a negative rate ascends the reconstruction error
    for name, value in (("batch_size", batch_size), ("fista_iters", fista_iters),
                        ("epochs", epochs)):
        tensor.require_count(name, value, 1)
    # A non-finite k gives no atoms; a finite k may still overflow k * atom_len.
    atoms = float(k) * atom_len if math.isfinite(k) else 0.0
    n_atoms = int(round(atoms)) if math.isfinite(atoms) else math.inf
    if n_atoms < 1:
        raise ValueError(f"k = {k} gives {n_atoms} atoms for atom length {atom_len}")
    tensor.require_real("k", k)  # a bool; after the count, whose message names k = nan
    if n_atoms >= 2**32:
        raise ValueError(
            f"k = {k} gives {n_atoms} atoms for atom length {atom_len}; an LFDC file"
            " holds fewer than 2**32"
        )
    return n_atoms


def check_reconstruct_knobs(lam: float, iters: int) -> None:
    """Validate the knobs of `dict_reconstruct`.  Zero iterations are
    allowed: the codes stay at zero, as an OWL-QN solve of zero iterations
    returns its start."""
    tensor.require_real("lam", lam, 0)
    tensor.require_count("iters", iters, 0)


POWER_ITERS = 30
# The power iteration stops once its estimate rose by at most this fraction
# of itself.
POWER_REL_RISE = 1e-6


def lipschitz_bound(d: Dictionary, v: np.ndarray) -> float:
    """Largest eigenvalue of D^T D by power iteration from `v`.

    `v`, a unit vector of length n_atoms, is the start: the iteration stops
    once the estimate rose by at most POWER_REL_RISE of itself or after
    POWER_ITERS iterations, and leaves its last unit vector in v, the warm
    start of the next call.  Each estimate ||D^T D v|| of a unit v is at
    most the eigenvalue (up to rounding) and, in exact arithmetic, never
    falls from one iteration to the next.
    """
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = d.atoms.T @ (d.atoms @ v)
        prev, lam = lam, float(np.linalg.norm(w))
        if lam < 1e-30:
            return 1.0
        np.divide(w, lam, out=v)
        if lam - prev <= POWER_REL_RISE * lam:
            break
    return lam


# Reconstruction stops after a non-restart iteration in which the objective
# summed over all patches fell by at most this fraction of its new value.
STOP_REL_DECREASE = 1e-3


def _fista(
    d_rows: np.ndarray,
    x: np.ndarray,
    steps: np.ndarray,
    lam: float,
    iters: int,
    rel_decrease: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Monotone FISTA on groups of patches that share their observed rows.

    d_rows[k] (R, n_atoms), float32, holds the rows D_m of the dictionary
    that group k observes, and x[k] (n, R) its n patches on those rows.
    Group k steps by steps[k], at most 1/(2 L(D_m)).  Whenever a candidate
    step would increase some patch's objective, that patch keeps its iterate
    (and its cached D_m a) and the shared momentum restarts, so every
    patch's objective is non-increasing.  With rel_decrease, the solve stops
    after a non-restart iteration in which the summed objective fell by at
    most rel_decrease times its new value; otherwise it runs all `iters`
    iterations.  A non-finite summed objective raises FloatingPointError.

    The state (codes, momentum, residuals, step, threshold) is float32:
    x and lam are scaled by 2**-e, max|x| < 2**e, and x is cast once, so
    it does not depend on the scale of the data.  The per-patch objectives
    are summed in float64 for the restart test, the stop rule and the
    non-finite check.  Both GEMMs are float32, batched over the groups;
    one group (training, `fista_encode`) multiplies by a C-contiguous copy
    of its transpose, more groups by the transposed view.

    Returns, in float64 and scaled back by 2**e (objectives by 4**e), the
    codes (G, n, n_atoms), D_m a (G, n, R) and the per-patch objective
    (G, n); then the per-patch restart counts (G, n), the iterations run and
    the iterations in which some patch restarted.
    """
    e = math.frexp(max(float(x.max()), -float(x.min())))[1]  # 0 for zeros, inf and nan
    # With |x| < 1, a lam 2**-e past float32's range zeroes every code, as
    # the largest float32 does: lam and the threshold are capped there.
    f32_max = float(np.finfo(np.float32).max)
    lam = math.ldexp(lam, -e) if math.frexp(lam)[1] - e <= 128 else f32_max
    x = np.ldexp(x, -e).astype(np.float32)
    shape = (*x.shape[:2], d_rows.shape[2])
    # Each candidate z and D_m z are written into the buffers of the
    # iterate before last, which the momentum step has used by then.
    a, a_prev, y_buf = (np.zeros(shape, np.float32) for _ in range(3))
    da, da_prev, resid = (np.zeros(x.shape, np.float32) for _ in range(3))
    d_cols = d_rows.transpose(0, 2, 1)
    if len(d_rows) == 1:
        d_cols = np.ascontiguousarray(d_cols)
    steps2 = (2.0 * steps).astype(np.float32)[:, None, None]
    thresh = np.minimum(lam * steps, f32_max).astype(np.float32)[:, None, None]
    f_a = np.multiply(x, x, out=resid).sum(axis=2, dtype=np.float64)
    f_sum = float(f_a.sum())
    restarts = np.zeros(f_a.shape, dtype=np.int64)
    restart_iters = 0
    t = 1.0
    momentum = None  # None at the start and after a restart: y = a
    iterations = 0
    for iterations in range(1, iters + 1):
        if momentum is None:
            y = a
            np.subtract(da, x, out=resid)
        else:
            y = y_buf
            np.subtract(a, a_prev, out=y)
            y *= momentum
            y += a
            np.subtract(da, da_prev, out=resid)
            resid *= momentum
            resid += da
            resid -= x
        z, dz = a_prev, da_prev
        np.matmul(resid, d_rows, out=z)
        z *= steps2  # rounds as step * (2.0 * g): doubling is exact
        np.subtract(y, z, out=z)
        # y_buf is free until the next iteration: the soft threshold runs
        # in place, |z| = max(|z| - thresh, 0) there and then its sign, and
        # leaves |z| in y_buf for the objective, so the loop makes no large
        # temporaries, whose cost depends on the state of the allocator.
        np.abs(z, out=y_buf)
        y_buf -= thresh
        np.maximum(y_buf, 0.0, out=y_buf)
        np.copysign(y_buf, z, out=z)
        np.matmul(z, d_cols, out=dz)
        np.subtract(x, dz, out=resid)
        resid *= resid
        f_z = resid.sum(axis=2, dtype=np.float64)
        f_z += lam * y_buf.sum(axis=2, dtype=np.float64)
        worse = f_z > f_a
        restarted = bool(worse.any())
        if restarted:
            # Monotone restart: keep the previous iterate, drop momentum.
            z[worse] = a[worse]
            dz[worse] = da[worse]
            f_z = np.where(worse, f_a, f_z)
            restarts += worse
            restart_iters += 1
            t_new = 1.0
            momentum = None
        else:
            # Python floats: a numpy float64 momentum would promote the passes
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_new
        a_prev, a = a, z
        da_prev, da = da, dz
        f_a, t = f_z, t_new
        f_prev, f_sum = f_sum, float(f_z.sum())
        if not math.isfinite(f_sum):
            raise FloatingPointError(f"FISTA objective is {f_sum} at iteration {iterations}")
        if rel_decrease is not None and not restarted and f_prev - f_sum <= rel_decrease * f_sum:
            break
    a, da = (np.ldexp(v, e, dtype=np.float64) for v in (a, da))
    return a, da, np.ldexp(f_a, 2 * e), restarts, iterations, restart_iters


@dataclass(frozen=True)
class SolveReport:
    """What a masked dictionary solve did."""

    iterations: int  # iterations run: the cap or fewer, when the stop fired
    restarts: int  # iterations in which some patch would have got worse
    lipschitz_bound: float  # largest per-group bound L(D_m)
    step: float  # its step 1/(2 L(D_m)), the smallest step of the solve
    final_objective: float  # masked objective summed over all patches


def _spatial_groups(g: PatchGrid, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the patches by spatial origin.

    Returns (cols, rows): cols[k] are the indices of the patches of group k
    (one per angular origin), rows[k] the entries of their patch vectors
    that the one-hot mask `m` (S, T, C) keeps, in increasing order.
    """
    # A flat source index modulo S*T*C is the mask's flat index.  The first
    # angular origin is (0, 0): its patches are the first n_spatial, with
    # source indices below S*T*C.
    plane = m.size
    n_spatial = int(np.count_nonzero(g.index[:, 0] < plane))
    cols = np.arange(g.n_patches).reshape(-1, n_spatial).T
    kept = m.reshape(-1)[g.index[:n_spatial] % plane] != 0
    return cols, np.nonzero(kept)[1].reshape(n_spatial, -1)


def _group_lipschitz(atoms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """L(D_m) of each group: the largest eigenvalue of D_m^T D_m, taken
    exactly (up to rounding) from the small Gram D_m D_m^T."""
    d_rows = np.empty((rows.shape[1], atoms.shape[1]))
    lips = np.empty(len(rows))
    for k, r in enumerate(rows):
        np.take(atoms, r, axis=0, out=d_rows, mode="clip")
        lips[k] = np.linalg.eigvalsh(d_rows @ d_rows.T)[-1]
    # as in lipschitz_bound: rows that are all zero take any step
    return np.where(lips < 1e-30, 1.0, lips)


def fista_encode(d: Dictionary, x: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """Sparse code a single patch vector against the dictionary."""
    check_reconstruct_knobs(lam, iters)
    x = np.asarray(x, dtype=np.float64).reshape(1, 1, -1)
    if x.shape[2] != d.atom_len:
        raise ValueError(f"patch length {x.shape[2]} != atom length {d.atom_len}")
    steps = 1.0 / (2.0 * _group_lipschitz(d.atoms, np.arange(d.atom_len)[None]))
    return _fista(d.atoms.astype(np.float32)[None], x, steps, lam, iters)[0][0, 0]


def init_dictionary(atom_len: int, n_atoms: int, seed: int) -> Dictionary:
    """Truncated-normal initialization (clipped at two sigma), unit atoms."""
    rng = np.random.default_rng(seed)
    atoms = np.clip(rng.normal(0.0, 1.0, size=(atom_len, n_atoms)), -2.0, 2.0)
    d = Dictionary(atoms=atoms)
    d.normalize()
    return d


@dataclass(frozen=True)
class TrainReport:
    """What dictionary training did, one entry per epoch."""

    epoch_objectives: tuple[float, ...]  # mean per-patch objective of the batch codes
    restarts: tuple[int, ...]  # FISTA restarts, counted per patch and iteration


def train_dictionary(
    dataset: list[np.ndarray],
    g: PatchGrid,
    *,
    lam: float,
    k: float = 2.0,
    lr: float = 1e-2,
    batch_size: int = 16,
    fista_iters: int = 50,
    epochs: int = 5,
    seed: int = 0,
) -> tuple[Dictionary, TrainReport]:
    """Learn a dictionary from the patches of a tensor dataset.

    Alternates batched FISTA sparse coding with an SGD step on the atoms
    (gradient of the batch reconstruction error with the codes frozen),
    renormalizing atoms after every step.  Returns the dictionary and a
    report: per epoch, the mean of the batch objectives and the FISTA
    restarts.  Non-finite atoms make the next FISTA raise FloatingPointError.
    """
    n_atoms = check_training_knobs(g.atom_len, k, lam, lr, batch_size, fista_iters, epochs)
    if not dataset:
        raise ValueError("dataset must not be empty")
    all_patches = np.concatenate([patch(tensor.as_tensor5(t), g) for t in dataset], axis=0)
    d = init_dictionary(g.atom_len, n_atoms, seed)
    rng = np.random.default_rng(seed + 1)
    # lipschitz_bound's vector, carried from batch to batch.  It starts at
    # the top eigenvector D^T u / |D^T u| of D^T D, u that of D D^T.
    power = d.atoms.T @ np.linalg.eigh(d.atoms @ d.atoms.T)[1][:, -1]
    power /= np.linalg.norm(power)
    epoch_objectives, epoch_restarts = [], []
    for _ in range(epochs):
        order = rng.permutation(all_patches.shape[0])
        batch_objs = []
        restarts = 0
        for start in range(0, len(order), batch_size):
            x = all_patches[order[start : start + batch_size]]  # (B, atom_len)
            steps = np.array([1.0 / (2.0 * lipschitz_bound(d, power))])
            # The atoms have unit-norm columns, so their cast needs no scale.
            a, da, f, patch_restarts, _, _ = _fista(
                d.atoms.astype(np.float32)[None], x[None], steps, lam, fista_iters,
            )
            batch_objs.append(float(f.sum()) / x.shape[0])
            restarts += int(patch_restarts.sum())
            if lr != 0.0:
                # descent on ||x - D a||^2; the gradient's factor 2 is
                # absorbed into the learning rate
                resid = x - da[0]  # (B, atom_len)
                d.atoms += lr * (resid.T @ a[0])
                d.normalize()
        epoch_objectives.append(float(np.mean(batch_objs)))
        epoch_restarts.append(restarts)
    return d, TrainReport(tuple(epoch_objectives), tuple(epoch_restarts))


def _masked_codes(
    lifted: np.ndarray, m: np.ndarray, d: Dictionary, g: PatchGrid, lam: float, iters: int
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Sparse code every patch of the lifted measurement on the entries the
    mask keeps.  Returns the codes (n_atoms, n_patches) and the per-patch
    final objectives, both in grid order, and the solve report."""
    cols, rows = _spatial_groups(g, m)
    # Only the observed entries of the patch matrix outlive this line.
    x = patch(lifted, g)[cols[:, :, None], rows[:, None, :]]
    lips = _group_lipschitz(d.atoms, rows)
    # LFDC atoms are float32 values, so the float32 stack of the D_m is
    # exact.  Gathered from a float32 copy: a cast of a float64 gather would
    # make a transient twice the stack's size.
    codes, _, f, _, iterations, restarts = _fista(
        d.atoms.astype(np.float32)[rows], x, 1.0 / (2.0 * lips), lam, iters, STOP_REL_DECREASE,
    )
    lip = float(lips.max())
    report = SolveReport(
        iterations=iterations, restarts=restarts, lipschitz_bound=lip, step=1.0 / (2.0 * lip),
        final_objective=float(f.sum()),
    )
    # codes[k, j] is patch j * n_spatial + k: back to grid order
    a = codes.transpose(1, 0, 2).reshape(g.n_patches, d.n_atoms).T
    return a, f.T.reshape(-1), report


def dict_reconstruct(
    l_star_p: np.ndarray,
    m: np.ndarray,
    d: Dictionary,
    g: PatchGrid,
    lam: float,
    iters: int,
) -> tuple[np.ndarray, SolveReport]:
    """Reconstruct a light field from its projected coded measurement.

    The measurement is lifted to the coded field and patched, each patch is
    sparse coded on the entries the mask keeps, and the codes are
    synthesized through the full dictionary and assembled with overlap
    averaging.  Returns the reconstruction and the solve report.
    """
    check_reconstruct_knobs(lam, iters)
    if d.atom_len != g.atom_len:
        raise ValueError(f"dictionary atom length {d.atom_len} != grid {g.atom_len}")
    lifted = coding.lift(l_star_p, m)
    if lifted.shape != g.source_dims:
        raise ValueError(
            f"lifted measurement {lifted.shape} does not match grid {g.source_dims}"
        )
    a, _, report = _masked_codes(lifted, np.asarray(m), d, g, lam, iters)
    return depatch((d.atoms @ a).T, g), report
