"""A shared-trunk two-head dense network with a hand-written backward pass.

The network maps a flattened coded light field through a shared trunk (two
dense relu layers) and two heads (dense relu, then dense linear) to a
central view (S, T, C) and a disparity map (S, T).  Parameters are plain
float64 arrays in `ToyNet.params`, one list `[w0, b0, w1, b1]` per group
("shared", "cv", "disp").  Biases start at zero, weights use He-style
initialization from the given seed.

`ToyNet.forward_batch` returns both heads' outputs together with the
activations the backward needs: each block's input, its hidden layer's
relu mask and output, and the trunk's output mask.  `batched_loss` gives a
loss's batch mean and its gradient with respect to one head's output from
one call of the loss on the whole batch (B, ...); see `losses_metrics`.
`collect_gradients` back-propagates such a head-output gradient (the seed)
through that head and the trunk.  With the relu masks fixed by the forward
pass, the backward is linear in the seed, so the gradient of a weighted sum
of losses is the same weighted sum of their per-loss gradients.

Gradients are written into a flat parameter-length vector: the groups in
GROUPS order, each `[w0, b0, w1, b1]` raveled (`param_views` gives the
per-parameter views, `group_slice` one group's range).  The GEMMs and bias
sums write straight into its views, and a caller can reuse one vector per
loss.  The inactive head's entries are never written: they hold zeros.  No
gradient is formed for the network input.  Relu is `np.where(z > 0, z,
0.0)`, so a NaN pre-activation gives 0 (and a zero gradient) rather than
NaN.

Values are float64 internally; the LFNN parameter container stores float32.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

LFNN_MAGIC = b"LFNN"
_LFNN_HEADER = struct.Struct("<4sI")
GROUPS = ("shared", "cv", "disp")


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
    params: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("hidden", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        n_u, n_v, n_s, n_t, n_c = self.dims
        d_in = n_u * n_v * n_s * n_t * n_c
        d_cv = n_s * n_t * n_c
        d_disp = n_s * n_t
        rng = np.random.default_rng(self.seed)

        def dense(fan_in, fan_out):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            return [w, np.zeros(fan_out)]

        if not self.params:
            self.params = {
                "shared": dense(d_in, self.hidden) + dense(self.hidden, self.hidden),
                "cv": dense(self.hidden, self.head_hidden)
                + dense(self.head_hidden, d_cv),
                "disp": dense(self.hidden, self.head_hidden)
                + dense(self.head_hidden, d_disp),
            }

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
    for group in GROUPS:
        views[group] = []
        for p in net.params[group]:
            views[group].append(flat[start : start + p.size].reshape(p.shape))
            start += p.size
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
    net: ToyNet, acts: Activations, task: str, seed: np.ndarray, out=None
) -> dict[str, list[np.ndarray]]:
    """Per-group parameter gradients for the head-output gradient `seed`
    of head `task`.

    They are written into `out`, a flat parameter-length vector (see
    `param_views`), and returned as views of it.  The other head's entries
    are not written: they are the zeros of the fresh vector allocated when
    `out` is None, and a caller that reuses `out` for the same head keeps
    them zero.
    """
    if out is None:
        out = np.zeros(sum(p.size for p in net.all_params()))
    grads = param_views(net, out)
    g_hidden = _block_backward(
        net.params[task], acts.blocks[task], seed.reshape(seed.shape[0], -1), grads[task]
    )
    g_trunk = (g_hidden @ net.params[task][0].T) * acts.trunk_mask
    _block_backward(net.params["shared"], acts.blocks["shared"], g_trunk, grads["shared"])
    return grads


def sgd_step(params, grads, lr: float, weight_decay: float = 0.0) -> None:
    """In-place step p <- p - lr * (g + wd * p) on parameter arrays."""
    for p, g in zip(params, grads):
        g = np.asarray(g)
        if p.shape != g.shape:
            raise ValueError("parameter/gradient shape mismatch")
        p -= lr * (g + weight_decay * p)


def save_net(net: ToyNet, path) -> None:
    """LFNN container: magic, u32 spec length, JSON spec, float32 payload."""
    spec = {
        "dims": list(net.dims),
        "hidden": net.hidden,
        "head_hidden": net.head_hidden,
        "groups": {g: [list(p.shape) for p in ps] for g, ps in net.params.items()},
    }
    blob = json.dumps(spec, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_LFNN_HEADER.pack(LFNN_MAGIC, len(blob)))
        fh.write(blob)
        for p in net.all_params():
            fh.write(p.astype("<f4").tobytes())


def load_net(path) -> ToyNet:
    """Read an LFNN file; rejects short, oversized or non-finite payloads."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _LFNN_HEADER.size or raw[:4] != LFNN_MAGIC:
        raise ValueError(f"{path}: not an LFNN file")
    _, blob_len = _LFNN_HEADER.unpack_from(raw)
    offset = _LFNN_HEADER.size + blob_len
    if len(raw) < offset:
        raise ValueError(f"{path}: incomplete header ({len(raw)} bytes, need {offset})")
    try:
        spec = json.loads(raw[_LFNN_HEADER.size : offset])
        net = ToyNet(
            dims=tuple(spec["dims"]),
            hidden=spec["hidden"],
            head_hidden=spec["head_hidden"],
        )
        shapes = [tuple(shape) for g in GROUPS for shape in spec["groups"][g]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed network spec ({exc})") from exc
    if shapes != [p.shape for p in net.all_params()]:
        raise ValueError(f"{path}: parameter shapes {shapes} do not match the network")
    n = sum(int(np.prod(shape)) for shape in shapes)
    payload = len(raw) - offset
    if payload < 4 * n:
        raise ValueError(f"{path}: payload holds {payload} bytes, need {4 * n}")
    if payload > 4 * n:
        raise ValueError(f"{path}: {payload - 4 * n} trailing bytes")
    vals = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: payload contains non-finite values")
    start = 0
    for group in GROUPS:
        for k, p in enumerate(net.params[group]):
            net.params[group][k] = vals[start : start + p.size].astype(np.float64).reshape(p.shape)
            start += p.size
    return net
