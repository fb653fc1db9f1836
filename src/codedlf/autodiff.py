"""Minimal reverse-mode autodiff and a shared-trunk two-head dense network.

The graph is value-first: every op eagerly computes its result and records
a closure mapping the upstream gradient to per-parent gradients.  A
backward pass walks the graph in reverse topological order, sums the
contributions per node, and then adds them into each node's persistent
`grad` buffer (so repeated passes accumulate until `zero_grads`).

Supported primitives are what the network and training losses need: dense
layers (matmul plus broadcast bias), relu, elementwise add/mul, mean,
reshape, and external losses attached through `attach_loss`, which seeds
the pass with the loss's analytic prediction gradient.

Values are float64 internally; the LFNN parameter container stores float32.
The network maps a flattened coded light field through two shared dense
relu layers and two per-head dense stacks to a central view (S, T, C) and
a disparity map (S, T).  Biases start at zero, weights use He-style
initialization from the given seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

LFNN_MAGIC = b"LFNN"
_LFNN_HEADER = struct.Struct("<4sI")


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "_backward", "tag")

    def __init__(self, value, parents=(), backward=None, tag: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.parents = tuple(parents)
        self._backward = backward
        self.tag = tag

    @property
    def shape(self):
        return self.value.shape


def parameter(value, tag: str = "") -> Node:
    return Node(np.array(value, dtype=np.float64), tag=tag)


def matmul(a: Node, b: Node) -> Node:
    out = Node(a.value @ b.value, parents=(a, b))
    out._backward = lambda g: (g @ b.value.T, a.value.T @ g)
    return out


def add(a: Node, b: Node) -> Node:
    """Elementwise add; b may broadcast from the right (bias over rows)."""
    out = Node(a.value + b.value, parents=(a, b))

    def back(g):
        gb = g
        if b.value.ndim < g.ndim:
            gb = g.sum(axis=tuple(range(g.ndim - b.value.ndim)))
        return g, gb

    out._backward = back
    return out


def mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError("mul requires equal shapes")
    out = Node(a.value * b.value, parents=(a, b))
    out._backward = lambda g: (g * b.value, g * a.value)
    return out


def relu(a: Node) -> Node:
    mask = a.value > 0
    out = Node(np.where(mask, a.value, 0.0), parents=(a,))
    out._backward = lambda g: (g * mask,)
    return out


def mean(a: Node) -> Node:
    out = Node(a.value.mean(), parents=(a,))
    out._backward = lambda g: (np.full_like(a.value, float(g) / a.value.size),)
    return out


def reshape(a: Node, shape) -> Node:
    out = Node(a.value.reshape(shape), parents=(a,))
    out._backward = lambda g: (g.reshape(a.value.shape),)
    return out


def attach_loss(pred: Node, loss_fn, truth) -> Node:
    """Create a scalar node from an external loss with an analytic gradient.

    loss_fn(pred_value, truth) must return a LossValue whose grad matches
    the prediction's shape; the backward closure scales it by the upstream
    gradient.
    """
    lv = loss_fn(pred.value, truth)
    out = Node(np.float64(lv.value), parents=(pred,))
    grad_pred = np.asarray(lv.grad, dtype=np.float64)
    out._backward = lambda g: (float(g) * grad_pred,)
    return out


def batched_loss(pred: Node, loss_fn, truths) -> Node:
    """Mean of a per-sample loss over the leading batch axis of pred."""
    n_b = pred.value.shape[0]
    vals = []
    grads = np.zeros_like(pred.value)
    for i in range(n_b):
        lv = loss_fn(pred.value[i], truths[i])
        vals.append(lv.value)
        grads[i] = lv.grad
    out = Node(np.float64(np.mean(vals)), parents=(pred,))
    grads /= n_b
    out._backward = lambda g: (float(g) * grads,)
    return out


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into `grad` of every reachable node."""
    if root.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {root.shape}")
    order = _topo_order(root)
    local = {id(n): np.zeros_like(n.value) for n in order}
    local[id(root)] = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is None:
            continue
        g = local[id(node)]
        for p, pg in zip(node.parents, node._backward(g)):
            local[id(p)] += pg
    for node in order:
        node.grad = node.grad + local[id(node)]


def zero_grads(params) -> None:
    for p in params:
        p.grad = np.zeros_like(p.value)


def sgd_step(params, grads, lr: float, weight_decay: float = 0.0) -> None:
    """In-place step p <- p - lr * (g + wd * p) on parameter nodes."""
    for p, g in zip(params, grads):
        g = np.asarray(g)
        if p.value.shape != g.shape:
            raise ValueError("parameter/gradient shape mismatch")
        p.value -= lr * (g + weight_decay * p.value)


@dataclass
class ToyNet:
    """Shared trunk plus central-view and disparity heads, dense layers only."""

    dims: tuple[int, int, int, int, int]
    hidden: int = 64
    head_hidden: int = 64
    seed: int = 0
    params: dict[str, list[Node]] = field(default_factory=dict)

    def __post_init__(self):
        n_u, n_v, n_s, n_t, n_c = self.dims
        d_in = n_u * n_v * n_s * n_t * n_c
        d_cv = n_s * n_t * n_c
        d_disp = n_s * n_t
        rng = np.random.default_rng(self.seed)

        def dense(fan_in, fan_out, tag):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            return [parameter(w, tag + ".w"), parameter(np.zeros(fan_out), tag + ".b")]

        if not self.params:
            self.params = {
                "shared": dense(d_in, self.hidden, "sh0")
                + dense(self.hidden, self.hidden, "sh1"),
                "cv": dense(self.hidden, self.head_hidden, "cv0")
                + dense(self.head_hidden, d_cv, "cv1"),
                "disp": dense(self.hidden, self.head_hidden, "disp0")
                + dense(self.head_hidden, d_disp, "disp1"),
            }

    def all_params(self) -> list[Node]:
        return self.params["shared"] + self.params["cv"] + self.params["disp"]

    def forward_batch(self, coded: np.ndarray) -> tuple[Node, Node]:
        """Forward a batch (B, U, V, S, T, C) to cv and disparity nodes."""
        coded = np.asarray(coded, dtype=np.float64)
        if coded.shape[1:] != self.dims:
            raise ValueError(f"input {coded.shape[1:]} does not match {self.dims}")
        n_b = coded.shape[0]
        n_u, n_v, n_s, n_t, n_c = self.dims
        x = Node(coded.reshape(n_b, -1))
        w0, b0, w1, b1 = self.params["shared"]
        h = relu(add(matmul(x, w0), b0))
        h = relu(add(matmul(h, w1), b1))
        wc0, bc0, wc1, bc1 = self.params["cv"]
        cv = add(matmul(relu(add(matmul(h, wc0), bc0)), wc1), bc1)
        cv = reshape(cv, (n_b, n_s, n_t, n_c))
        wd0, bd0, wd1, bd1 = self.params["disp"]
        disp = add(matmul(relu(add(matmul(h, wd0), bd0)), wd1), bd1)
        disp = reshape(disp, (n_b, n_s, n_t))
        return cv, disp


def forward(net: ToyNet, coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run one coded light field through the net; plain arrays out."""
    cv, disp = net.forward_batch(np.asarray(coded, dtype=np.float64)[None])
    return cv.value[0].copy(), disp.value[0].copy()


def collect_gradients(net: ToyNet, loss_node: Node) -> dict[str, list[np.ndarray]]:
    """Backward from a scalar loss; return per-group gradient copies."""
    zero_grads(net.all_params())
    backward(loss_node)
    return {
        group: [p.grad.copy() for p in plist] for group, plist in net.params.items()
    }


def flatten_group(grads: dict[str, list[np.ndarray]], group: str) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads[group]])


def save_net(net: ToyNet, path) -> None:
    """LFNN container: magic, u32 spec length, JSON spec, float32 payload."""
    spec = {
        "dims": list(net.dims),
        "hidden": net.hidden,
        "head_hidden": net.head_hidden,
        "groups": {g: [list(p.value.shape) for p in ps] for g, ps in net.params.items()},
    }
    blob = json.dumps(spec, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_LFNN_HEADER.pack(LFNN_MAGIC, len(blob)))
        fh.write(blob)
        for group in ("shared", "cv", "disp"):
            for p in net.params[group]:
                fh.write(p.value.astype("<f4").tobytes())


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
        shapes = [tuple(shape) for g in ("shared", "cv", "disp") for shape in spec["groups"][g]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed network spec ({exc})") from exc
    params = net.all_params()
    if shapes != [p.value.shape for p in params]:
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
    for p in params:
        size = p.value.size
        p.value = vals[start : start + size].astype(np.float64).reshape(p.value.shape)
        p.grad = np.zeros_like(p.value)
        start += size
    return net
