"""A shared-trunk two-head dense network with a hand-written backward pass.

The network maps a flattened coded light field through a shared trunk (two
dense relu layers) and two heads (dense relu, then dense linear) to a
central view (S, T, C) and a disparity map (S, T).  Every parameter lives
in one flat float64 vector, `ToyNet.flat`: the groups in GROUPS order
("shared", "cv", "disp"), each `[w0, b0, w1, b1]` raveled.
`ToyNet.params` holds one list of views of it per group (`param_views`), so
one step on `flat` updates them all.  Biases start at zero, weights use
He-style initialization from the given seed.

`ToyNet.forward_batch` returns both heads' outputs together with the
activations the backward needs: each block's input, its hidden layer's
relu mask and output, and the trunk's output mask.  `batched_loss` gives a
loss's batch mean and its gradient with respect to one head's output from
one call of the loss on the whole batch (B, ...); see `losses_metrics`.
With the relu masks fixed by the forward pass, the backward is linear in
these head-output gradients (the seeds), so the gradient of a weighted sum
of losses is the backward of the same weighted sum of their seeds.

`collect_gradients` is that one backward: it takes one combined seed per
head and back-propagates both through their heads and the trunk.  It
writes every parameter gradient into a flat parameter-length vector laid
out as `ToyNet.flat` (`param_views` gives the per-parameter views,
`group_slice` one group's range).  The
GEMMs and bias sums write straight into its views; a head without a seed
gets zeros.  No gradient is formed for the network input.

`gradient_gram` gives the inner products of the per-loss gradients of the
shared trunk's parameters without forming them.  Each loss's seed only
runs down the chain of activation gradients, (B, width) matrices.  For a
dense layer with input X and output gradients G_l, the weight gradients
are X^T G_l, so their inner products are sum((X X^T) * (G_l G_m^T)), from
B x B matrices; the bias gradients add sum(G_l) . sum(G_m).

Relu is `np.where(z > 0, z, 0.0)`, so a NaN pre-activation gives 0 (and a
zero gradient) rather than NaN.

Values are float64 internally; the LFNN parameter container stores float32.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor

LFNN_MAGIC = b"LFNN"
_LFNN_HEADER = struct.Struct("<4sI")
GROUPS = ("shared", "cv", "disp")


def _param_shapes(
    dims: tuple[int, ...], hidden: int, head_hidden: int
) -> dict[str, list[tuple[int, ...]]]:
    """Shapes of [w0, b0, w1, b1] per group; nothing is allocated."""
    n_u, n_v, n_s, n_t, n_c = dims

    def dense(fan_in, fan_out):
        return [(fan_in, fan_out), (fan_out,)]

    return {
        "shared": dense(n_u * n_v * n_s * n_t * n_c, hidden) + dense(hidden, hidden),
        "cv": dense(hidden, head_hidden) + dense(head_hidden, n_s * n_t * n_c),
        "disp": dense(hidden, head_hidden) + dense(head_hidden, n_s * n_t),
    }


def _relu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = z > 0
    return np.where(mask, z, 0.0), mask


@dataclass
class Activations:
    """What the backward needs from one forward batch.

    blocks[group] holds (block input, hidden relu mask, hidden output) of
    that group's dense-relu-dense block; trunk_mask is the relu mask of the
    trunk's output.
    """

    blocks: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    trunk_mask: np.ndarray


@dataclass
class ToyNet:
    """Shared trunk plus central-view and disparity heads, dense layers only."""

    dims: tuple[int, int, int, int, int]
    hidden: int = 64
    head_hidden: int = 64
    seed: int = 0
    flat: np.ndarray | None = field(default=None, repr=False)  # None: drawn from seed
    params: dict[str, list[np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("hidden", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        fresh = self.flat is None
        if fresh:
            shapes = _param_shapes(self.dims, self.hidden, self.head_hidden)
            self.flat = np.zeros(sum(math.prod(s) for g in GROUPS for s in shapes[g]))
        self.params = param_views(self, self.flat)
        if fresh:
            rng = np.random.default_rng(self.seed)
            for p in self.all_params():
                if p.ndim == 2:
                    p[...] = rng.normal(0.0, np.sqrt(2.0 / p.shape[0]), size=p.shape)

    def all_params(self) -> list[np.ndarray]:
        return [p for group in GROUPS for p in self.params[group]]

    def forward_batch(
        self, coded: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, Activations]:
        """Forward a batch (B, U, V, S, T, C) to cv (B, S, T, C), disparity
        (B, S, T) and the activations for `collect_gradients`."""
        coded = np.asarray(coded, dtype=np.float64)
        if coded.shape[1:] != self.dims:
            raise ValueError(f"input {coded.shape[1:]} does not match {self.dims}")
        n_b = coded.shape[0]
        n_s, n_t, n_c = self.dims[2:]
        x = coded.reshape(n_b, -1)
        w0, b0, w1, b1 = self.params["shared"]
        h0, m0 = _relu(x @ w0 + b0)
        trunk, trunk_mask = _relu(h0 @ w1 + b1)
        blocks = {"shared": (x, m0, h0)}
        out = {}
        for head in ("cv", "disp"):
            w0, b0, w1, b1 = self.params[head]
            h, m = _relu(trunk @ w0 + b0)
            blocks[head] = (trunk, m, h)
            out[head] = h @ w1 + b1
        return (
            out["cv"].reshape(n_b, n_s, n_t, n_c),
            out["disp"].reshape(n_b, n_s, n_t),
            Activations(blocks, trunk_mask),
        )


def forward(net: ToyNet, coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run one coded light field through the net."""
    cv, disp, _ = net.forward_batch(np.asarray(coded, dtype=np.float64)[None])
    return cv[0].copy(), disp[0].copy()


def batched_loss(pred: np.ndarray, loss_fn, truths) -> tuple[float, np.ndarray]:
    """Mean of a loss over the leading batch axis of pred, and its gradient
    with respect to pred, from one batched call of loss_fn."""
    lv = loss_fn(pred, truths, batched=True)
    return lv.value, lv.grad


def param_views(net: ToyNet, flat: np.ndarray) -> dict[str, list[np.ndarray]]:
    """Per-group views of a flat parameter-length vector, shaped like
    net.params: the groups in GROUPS order, each [w0, b0, w1, b1] raveled."""
    views, start = {}, 0
    for group, shapes in _param_shapes(net.dims, net.hidden, net.head_hidden).items():
        views[group] = []
        for shape in shapes:
            size = math.prod(shape)
            views[group].append(flat[start : start + size].reshape(shape))
            start += size
    return views


def group_slice(net: ToyNet, group: str) -> slice:
    """Where one group's parameters sit in a flat parameter-length vector."""
    sizes = [sum(p.size for p in net.params[g]) for g in GROUPS]
    k = GROUPS.index(group)
    return slice(sum(sizes[:k]), sum(sizes[: k + 1]))


def _block_backward(params, block, g_out, out):
    """Parameter gradients [w0, b0, w1, b1] of one dense-relu-dense block,
    written into `out`, from the gradient of its pre-activation output;
    returns the gradient of its hidden pre-activation."""
    inp, mask, h = block
    g_hidden = (g_out @ params[2].T) * mask
    np.matmul(inp.T, g_hidden, out=out[0])
    np.sum(g_hidden, axis=0, out=out[1])
    np.matmul(h.T, g_out, out=out[2])
    np.sum(g_out, axis=0, out=out[3])
    return g_hidden


def collect_gradients(
    net: ToyNet, acts: Activations, seeds: dict[str, np.ndarray], out=None
) -> dict[str, list[np.ndarray]]:
    """Per-group parameter gradients from one backward pass of the
    head-output gradients `seeds` ({head: seed}) through both heads and the
    trunk.

    They are written into `out`, a flat parameter-length vector (see
    `param_views`), allocated when None, and returned as views of it.  A
    head missing from `seeds` gets zeros, and so does the trunk when both
    are missing.
    """
    if out is None:
        out = np.empty_like(net.flat)
    grads = param_views(net, out)
    g_trunk = None
    for head in ("cv", "disp"):
        if head not in seeds:
            out[group_slice(net, head)] = 0.0
            continue
        seed = seeds[head]
        g_hidden = _block_backward(
            net.params[head], acts.blocks[head], seed.reshape(seed.shape[0], -1), grads[head]
        )
        g = g_hidden @ net.params[head][0].T
        g_trunk = g if g_trunk is None else g_trunk + g
    if g_trunk is None:
        out[group_slice(net, "shared")] = 0.0
    else:
        g_trunk *= acts.trunk_mask
        _block_backward(net.params["shared"], acts.blocks["shared"], g_trunk, grads["shared"])
    return grads


def _dense_gram(inp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gram (L, L) of the weight-plus-bias gradients of one dense layer with
    input inp (B, n_in), from the per-loss gradients g (L, B, n_out) of its
    output."""
    n_l, n_b = g.shape[:2]
    flat = g.reshape(n_l * n_b, -1)
    outer = (flat @ flat.T).reshape(n_l, n_b, n_l, n_b)
    sums = g.sum(axis=1)
    return np.einsum("lbmc,bc->lm", outer, inp @ inp.T) + sums @ sums.T


def gradient_gram(net: ToyNet, acts: Activations, task: str, seeds) -> np.ndarray:
    """Gram (L, L) of the shared trunk's parameter gradients that the
    head-output gradients `seeds` (L of them, of head `task`) give.  No
    parameter gradient is formed.
    """
    g_out = np.stack([s.reshape(s.shape[0], -1) for s in seeds])
    w0, _, w1, _ = net.params[task]
    _, mask, _ = acts.blocks[task]
    x, mask0, h0 = acts.blocks["shared"]
    g_hidden = (g_out @ w1.T) * mask
    g_trunk = (g_hidden @ w0.T) * acts.trunk_mask
    g_h0 = (g_trunk @ net.params["shared"][2].T) * mask0
    return _dense_gram(h0, g_trunk) + _dense_gram(x, g_h0)


def sgd_step(p: np.ndarray, g: np.ndarray, lr: float, weight_decay: float = 0.0) -> None:
    """In-place step p <- p - lr * (g + wd * p) on one parameter array.

    At wd = 0 the step is p - lr * g, with one temporary.  It gives the same
    bits for finite p: g + 0 * p differs from g only where g = -0 and
    p >= +0, and there p - lr * (+0) = p - lr * (-0).
    """
    g = np.asarray(g)
    if p.shape != g.shape:
        raise ValueError("parameter/gradient shape mismatch")
    p -= lr * (g + weight_decay * p if weight_decay else g)


def save_net(net: ToyNet, path) -> None:
    """LFNN container: magic, u32 spec length, JSON spec, float32 payload."""
    spec = {
        "dims": list(net.dims),
        "hidden": net.hidden,
        "head_hidden": net.head_hidden,
        "groups": {g: [list(p.shape) for p in ps] for g, ps in net.params.items()},
    }
    blob = json.dumps(spec, sort_keys=True).encode()
    header = _LFNN_HEADER.pack(LFNN_MAGIC, len(blob)) + blob
    tensor.write_container(path, header, net.flat)


def load_net(path) -> ToyNet:
    """Read an LFNN file; the payload checks are `tensor.read_payload`'s."""
    raw, (blob_len,) = tensor.read_container(path, LFNN_MAGIC, _LFNN_HEADER, "LFNN")
    offset = _LFNN_HEADER.size + blob_len
    if len(raw) < offset:
        raise tensor.TruncatedError(f"{path}: incomplete header ({len(raw)} bytes, need {offset})")
    try:
        spec = json.loads(raw[_LFNN_HEADER.size : offset])
        dims = tuple(spec["dims"])
        sizes = (*dims, spec["hidden"], spec["head_hidden"])
        if len(dims) != 5 or not all(_is_count(v) for v in sizes):
            raise ValueError(f"dims {dims} and widths must be integers >= 1")
        expected = _param_shapes(dims, spec["hidden"], spec["head_hidden"])
        shapes = [tuple(shape) for g in GROUPS for shape in spec["groups"][g]]
    except (KeyError, TypeError, ValueError) as exc:
        raise tensor.LF5DError(f"{path}: malformed network spec ({exc})") from exc
    if shapes != [shape for g in GROUPS for shape in expected[g]]:
        raise tensor.LF5DError(f"{path}: parameter shapes {shapes} do not match the network")
    n = sum(math.prod(shape) for shape in shapes)
    flat = tensor.read_payload(path, raw, offset, n).astype(np.float64)
    return ToyNet(dims, spec["hidden"], spec["head_hidden"], flat=flat)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1
