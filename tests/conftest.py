"""Shared test oracles."""

import numpy as np
import pytest

from codedlf import transforms


def _tensordot_dct5(x, synthesis):
    x = np.asarray(x, dtype=np.float64)
    for axis, n in enumerate(x.shape):
        mat = transforms._dct_matrix(n)
        x = np.moveaxis(
            np.tensordot(mat.T if synthesis else mat, x, axes=(1, axis)), 0, axis
        )
    return x


@pytest.fixture
def tensordot_dct5():
    """The per-axis tensordot + moveaxis 5D DCT (test oracle).

    tensordot_dct5(x, synthesis) applies the analysis transform, or the
    synthesis transform when synthesis is true.  Its results are not
    C-contiguous: the last axis transformed comes out with the largest stride.
    """
    return _tensordot_dct5


class _Node:
    """One value of the closure graph the network's gradients used to run on."""

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.parents = tuple(parents)
        self.backward = backward


def _matmul(a, b):
    return _Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def _add_bias(a, b):
    return _Node(a.value + b.value, (a, b), lambda g: (g, g.sum(axis=0)))


def _relu(a):
    mask = a.value > 0
    return _Node(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def _reshape(a, shape):
    return _Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def _batched_loss(pred, loss_fn, truths):
    n_b = pred.value.shape[0]
    vals = []
    grads = np.zeros_like(pred.value)
    for i in range(n_b):
        lv = loss_fn(pred.value[i], truths[i])
        vals.append(lv.value)
        grads[i] = lv.grad
    grads /= n_b
    return _Node(np.float64(np.mean(vals)), (pred,), lambda g: (float(g) * grads,))


def _backward(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    local = {id(n): np.zeros_like(n.value) for n in order}
    local[id(root)] = np.ones_like(root.value)
    for node in reversed(order):
        if node.backward is not None:
            for p, pg in zip(node.parents, node.backward(local[id(node)])):
                local[id(p)] += pg
    for node in order:
        node.grad = node.grad + local[id(node)]


def _graph_gradients(net, coded, task, loss_fn, truths):
    nodes = {g: [_Node(p.copy()) for p in ps] for g, ps in net.params.items()}
    coded = np.asarray(coded, dtype=np.float64)
    n_b = coded.shape[0]
    n_s, n_t, n_c = net.dims[2:]
    w0, b0, w1, b1 = nodes["shared"]
    h = _relu(_add_bias(_matmul(_Node(coded.reshape(n_b, -1)), w0), b0))
    h = _relu(_add_bias(_matmul(h, w1), b1))
    w0, b0, w1, b1 = nodes[task]
    out = _add_bias(_matmul(_relu(_add_bias(_matmul(h, w0), b0)), w1), b1)
    out = _reshape(out, (n_b, n_s, n_t, n_c) if task == "cv" else (n_b, n_s, n_t))
    loss = _batched_loss(out, loss_fn, truths)
    _backward(loss)
    return float(loss.value), {g: [p.grad for p in ps] for g, ps in nodes.items()}


@pytest.fixture
def graph_gradients():
    """Loss value and per-group gradients from the closure graph (test oracle).

    graph_gradients(net, coded, task, loss_fn, truths) rebuilds the forward
    pass of `net` for head `task` from matmul, bias-add, relu and reshape
    nodes, attaches the batch-mean loss, and runs the reverse topological
    backward the network used before its hand-written backward.  Groups the
    loss does not reach get zeros.
    """
    return _graph_gradients
