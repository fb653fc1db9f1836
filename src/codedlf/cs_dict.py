"""Dictionary-based reconstruction: patching, FISTA sparse coding, training.

A light field is cut into overlapping 5D patches, each patch is sparse
coded against a learned overcomplete dictionary, and the reconstruction is
assembled by averaging overlapping patches.  The dictionary is trained by
alternating minimization: FISTA (Beck & Teboulle 2009) for the codes with
the dictionary fixed, then mini-batch SGD on the atoms with the codes
fixed, renormalizing every atom to unit l2 norm after each update.

Sparse coding minimizes  ||x - D a||_2^2 + lam * ||a||_1  (that scaling
makes the identity-dictionary solution the soft threshold at lam / 2).
One monotone FISTA kernel (Beck & Teboulle 2009) serves training,
`fista_encode` and reconstruction.  It works on groups of patches that
share their observed rows D_m of D, in a (groups, patches, atoms) layout,
and runs two GEMMs per group and iteration on buffers allocated once per
solve: the gradient (D_m y - x_m) D_m and D_m z.  D_m y is the momentum
combination of the cached D_m z of the last two iterates, D_m z gives the
objective, and the residual and objective come from the final D_m a.
Forming D y that way rounds differently from D @ y: the codes stay within
about 1e-15 relative of the three-GEMM solve, with the same zeros and
restarts, and the trained atoms drift further over many batches (on the
dict-fista benchmark set-up, 2e-13 relative after one epoch and 9e-8
after three).  Momentum and the monotone restart are shared by all groups;
each group takes its own step.

Training and `fista_encode` are the case of one group that holds all rows:
the batch is passed as (B, atom_len) rows, with the step 1/(2 L(D)) from
`lipschitz_bound` and a fixed iteration count.  Reconstruction from coded
measurements keeps only the observed entries of each patch:
||x_m - D_m a||_2^2 + lam * ||a||_1,  with D_m the rows of D that the
one-hot mask selects.  The mask depends on the spatial position alone, so
all patches with one spatial origin share D_m and form one group (masked
overcomplete-dictionary reconstruction as in Marwah et al. 2013); D_m is
gathered into one reused buffer per group and iteration.  Group m steps by
1/(2 L(D_m)), with L(D_m) the exact largest eigenvalue of the small Gram
D_m D_m^T: a few times larger than the global step, since L(D_m) <= L(D).
The solve stops after a non-restart iteration in which the objective
summed over all patches fell by at most STOP_REL_DECREASE (1e-3) of its new
value, so the iteration count is a cap.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from . import coding, tensor

DICT_MAGIC = b"LFDC"
_DICT_HEADER = struct.Struct("<4s2I")


@dataclass(frozen=True)
class PatchGrid:
    """Tiling of a source tensor into overlapping patches.

    Origins along each axis are multiples of (atom - overlap), with a final
    origin clamped to (dim - atom) so the far edge is always covered.  The
    spectral axis is never patched: the atom spans all channels.  The
    overlaps are the ones the origins use, at most atom - 1 per axis.
    """

    source_dims: tuple[int, int, int, int, int]
    atom_dims: tuple[int, int, int, int, int]
    spatial_overlap: tuple[int, int]
    angular_overlap: tuple[int, int]
    origins: tuple[tuple[int, int, int, int], ...]

    @property
    def atom_len(self) -> int:
        return int(np.prod(self.atom_dims))

    @property
    def n_patches(self) -> int:
        return len(self.origins)


def _axis_origins(dim: int, atom: int, overlap: int) -> list[int]:
    if atom > dim:
        raise ValueError(f"atom extent {atom} exceeds source extent {dim}")
    if overlap >= atom:
        raise ValueError(f"overlap {overlap} must be smaller than atom {atom}")
    stride = atom - overlap
    origins = list(range(0, dim - atom + 1, stride))
    if origins[-1] != dim - atom:
        origins.append(dim - atom)
    return origins


def make_patch_grid(
    source_dims: tuple[int, int, int, int, int],
    atom_dims: tuple[int, int, int, int, int],
    spatial_overlap: tuple[int, int],
    angular_overlap: tuple[int, int],
) -> PatchGrid:
    """Build the patch grid for a source tensor."""
    if atom_dims[4] != source_dims[4]:
        raise ValueError(
            f"atoms span all {source_dims[4]} channels, got {atom_dims[4]}"
        )
    if min(*angular_overlap, *spatial_overlap) < 0:
        # A negative overlap leaves gaps that no patch covers.
        raise ValueError(
            f"overlaps must be >= 0, got spatial {tuple(spatial_overlap)}"
            f" and angular {tuple(angular_overlap)}"
        )
    # Clamp overlaps to atom - 1 (a larger one would give a stride <= 0);
    # the grid records the overlaps it uses.
    o_u, o_v, o_s, o_t = (
        int(min(o, a - 1)) for o, a in zip((*angular_overlap, *spatial_overlap), atom_dims)
    )
    per_axis = [
        _axis_origins(source_dims[axis], atom_dims[axis], o)
        for axis, o in enumerate((o_u, o_v, o_s, o_t))
    ]
    origins = tuple(
        (u, v, s, t)
        for u in per_axis[0]
        for v in per_axis[1]
        for s in per_axis[2]
        for t in per_axis[3]
    )
    return PatchGrid(
        source_dims=tuple(int(d) for d in source_dims),
        atom_dims=tuple(int(d) for d in atom_dims),
        spatial_overlap=(o_s, o_t),
        angular_overlap=(o_u, o_v),
        origins=origins,
    )


def patch(l: np.ndarray, g: PatchGrid) -> np.ndarray:
    """Extract all patches of `l`, one vectorized patch per row."""
    l = np.asarray(l)
    if l.shape != g.source_dims:
        raise ValueError(f"tensor {l.shape} does not match grid {g.source_dims}")
    a_u, a_v, a_s, a_t, n_c = g.atom_dims
    out = np.empty((g.n_patches, g.atom_len), dtype=np.float64)
    for i, (u, v, s, t) in enumerate(g.origins):
        out[i] = l[u : u + a_u, v : v + a_v, s : s + a_s, t : t + a_t, :].ravel()
    return out


def coverage_counts(g: PatchGrid) -> np.ndarray:
    """How many patches cover each source element (always >= 1)."""
    counts = np.zeros(g.source_dims, dtype=np.int64)
    a_u, a_v, a_s, a_t, _ = g.atom_dims
    for u, v, s, t in g.origins:
        counts[u : u + a_u, v : v + a_v, s : s + a_s, t : t + a_t, :] += 1
    return counts


def depatch(patches: np.ndarray, g: PatchGrid) -> np.ndarray:
    """Assemble patches back into a tensor, averaging overlapping values."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape != (g.n_patches, g.atom_len):
        raise ValueError(
            f"expected {(g.n_patches, g.atom_len)} patch matrix, got {patches.shape}"
        )
    acc = np.zeros(g.source_dims, dtype=np.float64)
    a_u, a_v, a_s, a_t, _ = g.atom_dims
    for i, (u, v, s, t) in enumerate(g.origins):
        acc[u : u + a_u, v : v + a_v, s : s + a_s, t : t + a_t, :] += patches[
            i
        ].reshape(g.atom_dims)
    acc /= coverage_counts(g)
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


def _require_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def check_training_knobs(
    atom_len: int, k: float, lam: float, lr: float, batch_size: int, fista_iters: int,
    epochs: int,
) -> int:
    """Validate the knobs of `train_dictionary`; returns the atom count
    round(k * atom_len), which must be at least one and fit the LFDC
    header."""
    _require_lambda(lam)
    if not (math.isfinite(lr) and lr >= 0):
        # a negative rate ascends the reconstruction error
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    for name, value in (("batch_size", batch_size), ("fista_iters", fista_iters),
                        ("epochs", epochs)):
        _require_count(name, value, 1)
    n_atoms = int(round(k * atom_len)) if math.isfinite(k) else 0
    if n_atoms < 1:
        raise ValueError(f"k = {k} gives {n_atoms} atoms for atom length {atom_len}")
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
    _require_lambda(lam)
    _require_count("iters", iters, 0)


POWER_ITERS = 30


def lipschitz_bound(d: Dictionary) -> float:
    """Largest eigenvalue of D^T D estimated by POWER_ITERS power iterations
    from a random start drawn with seed 0."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=d.n_atoms)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(POWER_ITERS):
        w = d.atoms.T @ (d.atoms @ v)
        lam = float(np.linalg.norm(w))
        if lam < 1e-30:
            return 1.0
        v = w / lam
    return lam


# Reconstruction stops after a non-restart iteration in which the objective
# summed over all patches fell by at most this fraction of its new value.
STOP_REL_DECREASE = 1e-3


def _fista(
    atoms: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray | None,
    steps: np.ndarray,
    lam: float,
    iters: int,
    rel_decrease: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Monotone FISTA on groups of patches that share their observed rows.

    x[k] (n, R) holds the n patches of group k, observed on rows[k] of the
    patch vector; with rows None, one group observes every row.  Group k steps
    by steps[k], at most 1/(2 L(D_m)).  Whenever a candidate step would
    increase some patch's objective, that patch keeps its iterate (and its
    cached D_m a) and the shared momentum restarts, so every patch's objective
    is non-increasing.  With rel_decrease, the solve stops after a non-restart
    iteration in which the summed objective fell by at most rel_decrease times
    its new value; otherwise it runs all `iters` iterations.  A non-finite
    summed objective raises FloatingPointError.

    Returns the codes (G, n, n_atoms), D_m a (G, n, R), the per-patch
    objective (G, n), the per-patch restart counts (G, n), the iterations
    run and the iterations in which some patch restarted.
    """
    shape = (*x.shape[:2], atoms.shape[1])
    a, a_prev = np.zeros(shape), np.zeros(shape)
    y_buf, z, work = np.empty(shape), np.empty(shape), np.empty(shape[1:])
    da, da_prev = np.zeros(x.shape), np.zeros(x.shape)
    dz, resid = np.empty(x.shape), np.empty(x.shape)
    d_rows = atoms if rows is None else np.empty((x.shape[2], atoms.shape[1]))
    thresh = lam * steps
    f_a = np.multiply(x, x, out=resid).sum(axis=2)
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
        for k in range(len(x)):
            if rows is not None:
                # The rows are in range; mode="clip" writes straight into
                # d_rows, where mode="raise" fills a temporary copy first.
                np.take(atoms, rows[k], axis=0, out=d_rows, mode="clip")
            z_k = z[k]
            np.matmul(resid[k], d_rows, out=work)
            work *= 2.0 * steps[k]  # rounds as step * (2.0 * g): doubling is exact
            np.subtract(y[k], work, out=z_k)
            # soft threshold in place: copysign(max(|z| - thresh, 0), z)
            np.abs(z_k, out=work)
            work -= thresh[k]
            np.maximum(work, 0.0, out=work)
            np.copysign(work, z_k, out=z_k)
            np.matmul(z_k, d_rows.T, out=dz[k])
        np.subtract(x, dz, out=resid)
        resid *= resid
        # y_buf is free until the next iteration.  Like the gather above,
        # this keeps the loop free of large temporaries, whose cost depends
        # on the state of the allocator (a fresh mapping and page faults).
        f_z = resid.sum(axis=2) + lam * np.abs(z, out=y_buf).sum(axis=2)
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
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_new
        a_prev, a, z = a, z, a_prev
        da_prev, da, dz = da, dz, da_prev
        f_a, t = f_z, t_new
        f_prev, f_sum = f_sum, float(f_z.sum())
        if not math.isfinite(f_sum):
            raise FloatingPointError(f"FISTA objective is {f_sum} at iteration {iterations}")
        if rel_decrease is not None and not restarted and f_prev - f_sum <= rel_decrease * f_sum:
            break
    return a, da, f_a, restarts, iterations, restart_iters


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
    a_u, a_v, a_s, a_t, _ = g.atom_dims
    members: dict[tuple[int, int], list[int]] = {}
    for i, (_, _, s, t) in enumerate(g.origins):
        members.setdefault((s, t), []).append(i)
    rows = [
        np.flatnonzero(np.broadcast_to(m[s : s + a_s, t : t + a_t] != 0, g.atom_dims))
        for s, t in members
    ]
    return np.array(list(members.values())), np.array(rows)


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
    x = np.asarray(x, dtype=np.float64).reshape(1, 1, -1)
    if x.shape[2] != d.atom_len:
        raise ValueError(f"patch length {x.shape[2]} != atom length {d.atom_len}")
    steps = np.array([1.0 / (2.0 * lipschitz_bound(d))])
    return _fista(d.atoms, x, None, steps, lam, iters)[0][0, 0]


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
    k: float = 2.0,
    lam: float = 0.05,
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
    epoch_objectives, epoch_restarts = [], []
    for _ in range(epochs):
        order = rng.permutation(all_patches.shape[0])
        batch_objs = []
        restarts = 0
        for start in range(0, len(order), batch_size):
            x = all_patches[order[start : start + batch_size]]  # (B, atom_len)
            steps = np.array([1.0 / (2.0 * lipschitz_bound(d))])
            a, da, f, patch_restarts, _, _ = _fista(d.atoms, x[None], None, steps, lam, fista_iters)
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
    x = patch(lifted, g)
    lips = _group_lipschitz(d.atoms, rows)
    codes, _, f, _, iterations, restarts = _fista(
        d.atoms, x[cols[:, :, None], rows[:, None, :]], rows, 1.0 / (2.0 * lips), lam, iters,
        STOP_REL_DECREASE,
    )
    lip = float(lips.max())
    report = SolveReport(
        iterations=iterations, restarts=restarts, lipschitz_bound=lip, step=1.0 / (2.0 * lip),
        final_objective=float(f.sum()),
    )
    order = cols.ravel()
    a = np.empty((d.n_atoms, g.n_patches), dtype=np.float64)
    a[:, order] = codes.reshape(-1, d.n_atoms).T
    f_patch = np.empty(g.n_patches, dtype=np.float64)
    f_patch[order] = f.ravel()
    return a, f_patch, report


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
    l_star_p = tensor.as_tensor5(l_star_p, "projected measurement")
    lifted = coding.lift(l_star_p, m)
    if lifted.shape != g.source_dims:
        raise ValueError(
            f"lifted measurement {lifted.shape} does not match grid {g.source_dims}"
        )
    a, _, report = _masked_codes(lifted, np.asarray(m), d, g, lam, iters)
    return depatch((d.atoms @ a).T, g), report
