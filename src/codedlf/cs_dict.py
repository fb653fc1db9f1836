"""Dictionary-based reconstruction: patching, FISTA sparse coding, training.

A light field is cut into overlapping 5D patches, each patch is sparse
coded against a learned overcomplete dictionary, and the reconstruction is
assembled by averaging overlapping patches.  The dictionary is trained by
alternating minimization: FISTA (Beck & Teboulle 2009) for the codes with
the dictionary fixed, then mini-batch SGD on the atoms with the codes
fixed, renormalizing every atom to unit l2 norm after each update.

Sparse coding minimizes  ||x - D a||_2^2 + lam * ||a||_1  (that scaling
makes the identity-dictionary solution the soft threshold at lam / 2).
The training FISTA runs two GEMMs per iteration on buffers allocated once
per batch: the gradient D^T (D y - x) and D z.  D y is the momentum
combination of the cached D z of the last two iterates, D z gives the
objective, and the batch residual and objective come from the final D a.
Forming D y that way rounds differently from D @ y: the codes stay within
about 1e-15 relative of the three-GEMM solve, with the same zeros and
restarts, and the trained atoms drift further over many batches (on the
dict-fista benchmark set-up, 2e-13 relative after one epoch and 9e-8
after three).
Reconstruction from coded measurements keeps only the observed entries of
each patch:  ||x_m - D_m a||_2^2 + lam * ||a||_1,  with D_m the rows of D
that the one-hot mask selects.  The mask depends on the spatial position
alone, so all patches with one spatial origin share D_m, and the masked
FISTA (Beck & Teboulle 2009; overcomplete-dictionary reconstruction as in
Marwah et al. 2013) runs group by group on those rows: two small GEMMs per
group and iteration, with D_m y formed from the cached products D_m z of
the last two iterates.  Step (from the global Lipschitz bound, which also
bounds every D_m), momentum and the monotone restart stay global, so the
iterates are those of the full-height masked solve up to rounding.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from . import coding
from .tensor import as_tensor5

DICT_MAGIC = b"LFDC"
_DICT_HEADER = struct.Struct("<4s2I")

# Desk-scale default atom shape and its spatial/angular overlaps.
DEFAULT_ATOM_SHAPE = (3, 3, 6, 6, 5)
DEFAULT_SPATIAL_OVERLAP = (4, 4)
DEFAULT_ANGULAR_OVERLAP = (1, 1)


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
    atom_dims: tuple[int, int, int, int, int] = DEFAULT_ATOM_SHAPE,
    spatial_overlap: tuple[int, int] = DEFAULT_SPATIAL_OVERLAP,
    angular_overlap: tuple[int, int] = DEFAULT_ANGULAR_OVERLAP,
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
    with np.errstate(over="ignore"):
        atoms = np.asarray(d.atoms, dtype="<f4")
    if atoms.ndim != 2 or min(atoms.shape) < 1 or max(atoms.shape) >= 2**32:
        raise ValueError(f"cannot write a dictionary of shape {atoms.shape}")
    if not np.all(np.isfinite(atoms)):
        raise ValueError("cannot write a dictionary with non-finite float32 atoms")
    with open(path, "wb") as fh:
        fh.write(_DICT_HEADER.pack(DICT_MAGIC, *atoms.shape))
        fh.write(atoms.ravel(order="F").tobytes())


def read_dictionary(path) -> Dictionary:
    """Read an LFDC file; rejects short, oversized or non-finite payloads."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _DICT_HEADER.size:
        if raw[: len(DICT_MAGIC)] != DICT_MAGIC[: len(raw)]:
            raise ValueError(f"{path}: not an LFDC dictionary file")
        raise ValueError(f"{path}: incomplete header ({len(raw)} bytes)")
    magic, atom_len, n_atoms = _DICT_HEADER.unpack_from(raw)
    if magic != DICT_MAGIC:
        raise ValueError(f"{path}: not an LFDC dictionary file")
    if min(atom_len, n_atoms) < 1:
        raise ValueError(f"{path}: zero-sized dictionary ({atom_len} x {n_atoms})")
    n = atom_len * n_atoms
    payload = raw[_DICT_HEADER.size :]
    if len(payload) < 4 * n:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, need {4 * n}")
    if len(payload) > 4 * n:
        raise ValueError(f"{path}: {len(payload) - 4 * n} trailing bytes")
    atoms = np.frombuffer(payload, dtype="<f4", count=n)
    if not np.all(np.isfinite(atoms)):
        raise ValueError(f"{path}: payload contains non-finite values")
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


def lipschitz_bound(d: Dictionary, n_power_iters: int = 30, seed: int = 0) -> float:
    """Largest eigenvalue of D^T D estimated by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d.n_atoms)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(n_power_iters):
        w = d.atoms.T @ (d.atoms @ v)
        lam = float(np.linalg.norm(w))
        if lam < 1e-30:
            return 1.0
        v = w / lam
    return lam


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _fista(
    d: Dictionary, x: np.ndarray, lam: float, iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monotone FISTA on the columns of x.

    Objective per column:  ||x - D a||^2 + lam*||a||_1.  The momentum
    sequence restarts whenever a candidate step would increase the
    objective, so the kept iterates are non-increasing in objective.

    Two GEMMs per iteration: the gradient D^T (D y - x) and D z, which
    also gives the objective.  D y is never formed from y: it is the
    momentum combination of the cached D z of the last two iterates, as y
    is of the codes, and a restarted column takes its D a back with a.
    That rounds differently from D @ y, so the codes are those of the
    three-GEMM solve up to about 1e-15 relative (tests allow 1e-12), with
    the same zeros and restarts.
    Returns the codes a, D a, the per-column objective of a and how often
    each column restarted.
    """
    atoms = d.atoms
    step = 1.0 / (2.0 * lipschitz_bound(d))
    thresh = lam * step
    shape = (d.n_atoms, x.shape[1])
    a, a_prev = np.zeros(shape), np.zeros(shape)
    y_buf, z, work = np.empty(shape), np.empty(shape), np.empty(shape)
    da, da_prev = np.zeros(x.shape), np.zeros(x.shape)
    dy_buf, dz, r = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    f_a = np.multiply(x, x, out=r).sum(axis=0)
    restarts = np.zeros(x.shape[1], dtype=np.int64)
    t = 1.0
    momentum = None  # None at the start and after a restart: y = a
    for _ in range(iters):
        if momentum is None:
            y, dy = a, da
        else:
            y, dy = y_buf, dy_buf
            np.subtract(a, a_prev, out=y)
            y *= momentum
            y += a
            np.subtract(da, da_prev, out=dy)
            dy *= momentum
            dy += da
        np.subtract(dy, x, out=r)
        np.matmul(atoms.T, r, out=work)
        work *= 2.0 * step  # rounds as step * (2.0 * g): doubling is exact
        np.subtract(y, work, out=z)
        # soft threshold in place: copysign(max(|z| - thresh, 0), z)
        np.abs(z, out=work)
        work -= thresh
        np.maximum(work, 0.0, out=work)
        np.copysign(work, z, out=z)
        np.matmul(atoms, z, out=dz)
        np.subtract(x, dz, out=r)
        r *= r
        f_z = r.sum(axis=0) + lam * np.abs(z, out=work).sum(axis=0)
        worse = f_z > f_a
        if np.any(worse):
            # Monotone restart: keep the previous iterate, drop momentum.
            z[:, worse] = a[:, worse]
            dz[:, worse] = da[:, worse]
            f_z = np.where(worse, f_a, f_z)
            restarts += worse
            t_new = 1.0
            momentum = None
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_new
        a_prev, a, z = a, z, a_prev
        da_prev, da, dz = da, dz, da_prev
        f_a, t = f_z, t_new
    return a, da, f_a, restarts


@dataclass(frozen=True)
class SolveReport:
    """What a masked dictionary solve did."""

    iterations: int
    restarts: int  # iterations in which some patch would have got worse
    lipschitz_bound: float  # `lipschitz_bound(d)`: largest eigenvalue of D^T D
    step: float
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


def _observed_fista(
    d: Dictionary, x_obs: np.ndarray, rows: np.ndarray, lam: float, iters: int
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Monotone FISTA on observed rows only, one group of patches at a time.

    x_obs[k] (n, R) holds the observed entries of the n patches of group k,
    which are rows[k] of each patch vector.  Objective per patch:
    ||x_m - D_m a||^2 + lam*||a||_1,  with D_m the rows[k] of D.  Each
    iteration gathers D_m for one group at a time into one reused buffer
    and forms the gradient D_m^T (D_m y - x_m) and D_m z; D_m y is the
    momentum combination of the cached D_m z of the last two iterates, as
    y is of the codes.  Step, momentum and restart are global, as in
    `_fista`.  Returns the codes (G, n, n_atoms), the per-patch final
    objective (G, n) and the report.
    """
    atoms = d.atoms
    lip = lipschitz_bound(d)
    step = 1.0 / (2.0 * lip)
    thresh = lam * step
    n_groups, n, n_rows = x_obs.shape
    a = np.zeros((n_groups, n, d.n_atoms), dtype=np.float64)
    a_prev, y_buf, z = np.zeros_like(a), np.empty_like(a), np.empty_like(a)
    da = np.zeros_like(x_obs)  # (D_m a)^T, cached per group
    da_prev, dz, resid = np.zeros_like(da), np.empty_like(da), np.empty_like(da)
    d_rows = np.empty((n_rows, d.n_atoms), dtype=np.float64)
    f_a = np.sum(x_obs * x_obs, axis=2)
    t = 1.0
    momentum = None  # None at the start and after a restart: y = a
    restarts = 0
    for _ in range(iters):
        if momentum is None:
            y = a
            np.subtract(da, x_obs, out=resid)
        else:
            y = y_buf
            np.subtract(a, a_prev, out=y)
            y *= momentum
            y += a
            np.subtract(da, da_prev, out=resid)
            resid *= momentum
            resid += da
            resid -= x_obs
        for k in range(n_groups):
            # The rows are in range; mode="clip" writes straight into d_rows,
            # where the default mode="raise" fills a temporary copy first.
            np.take(atoms, rows[k], axis=0, out=d_rows, mode="clip")
            z[k] = _soft_threshold(y[k] - step * (2.0 * (resid[k] @ d_rows)), thresh)
            np.matmul(z[k], d_rows.T, out=dz[k])
        np.subtract(x_obs, dz, out=resid)
        resid *= resid
        # y_buf is free until the next iteration.  Like the gather above,
        # this keeps the loop free of large temporaries, whose cost depends
        # on the state of the allocator (a fresh mapping and page faults).
        f_z = np.sum(resid, axis=2) + lam * np.abs(z, out=y_buf).sum(axis=2)
        worse = f_z > f_a
        if np.any(worse):
            # Monotone restart: keep the previous iterate, drop momentum.
            z[worse] = a[worse]
            dz[worse] = da[worse]
            f_z = np.where(worse, f_a, f_z)
            t_new = 1.0
            momentum = None
            restarts += 1
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_new
        a_prev, a, z = a, z, a_prev
        da_prev, da, dz = da, dz, da_prev
        f_a, t = f_z, t_new
    report = SolveReport(
        iterations=iters, restarts=restarts, lipschitz_bound=lip, step=step,
        final_objective=float(f_a.sum()),
    )
    return a, f_a, report


def fista_encode(d: Dictionary, x: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """Sparse code a single patch vector against the dictionary."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    if x.shape[0] != d.atom_len:
        raise ValueError(f"patch length {x.shape[0]} != atom length {d.atom_len}")
    return _fista(d, x, lam, iters)[0][:, 0]


def ista_encode(d: Dictionary, x: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """Plain (non-accelerated) proximal gradient, kept as a reference."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    lip = lipschitz_bound(d)
    step = 1.0 / (2.0 * lip)
    a = np.zeros((d.n_atoms, 1), dtype=np.float64)
    for _ in range(iters):
        a = _soft_threshold(a - step * (2.0 * (d.atoms.T @ (d.atoms @ a - x))), lam * step)
    return a[:, 0]


def coding_objective(d: Dictionary, x: np.ndarray, a: np.ndarray, lam: float) -> float:
    """||x - D a||^2 + lam*||a||_1 for a single patch/code pair."""
    r = np.asarray(x, dtype=np.float64).ravel() - d.atoms @ np.asarray(a).ravel()
    return float(r @ r + lam * np.abs(a).sum())


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
    restarts.
    """
    n_atoms = check_training_knobs(g.atom_len, k, lam, lr, batch_size, fista_iters, epochs)
    if not dataset:
        raise ValueError("dataset must not be empty")
    all_patches = np.concatenate([patch(as_tensor5(t), g) for t in dataset], axis=0)
    d = init_dictionary(g.atom_len, n_atoms, seed)
    rng = np.random.default_rng(seed + 1)
    epoch_objectives, epoch_restarts = [], []
    for _ in range(epochs):
        order = rng.permutation(all_patches.shape[0])
        batch_objs = []
        restarts = 0
        for start in range(0, len(order), batch_size):
            x = all_patches[order[start : start + batch_size]].T  # (atom_len, B)
            a, da, f, col_restarts = _fista(d, x, lam, fista_iters)
            batch_objs.append(float(f.sum()) / x.shape[1])
            restarts += int(col_restarts.sum())
            if lr != 0.0:
                # descent on ||x - D a||^2; the gradient's factor 2 is
                # absorbed into the learning rate
                resid = x - da  # (atom_len, B)
                d.atoms += lr * (resid @ a.T)
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
    codes, f, report = _observed_fista(d, x[cols[:, :, None], rows[:, None, :]], rows, lam, iters)
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
    l_star_p = as_tensor5(l_star_p, "projected measurement")
    lifted = coding.lift(l_star_p, m)
    if lifted.shape != g.source_dims:
        raise ValueError(
            f"lifted measurement {lifted.shape} does not match grid {g.source_dims}"
        )
    a, _, report = _masked_codes(lifted, np.asarray(m), d, g, lam, iters)
    return depatch((d.atoms @ a).T, g), report
