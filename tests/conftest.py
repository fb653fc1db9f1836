"""Shared test oracles."""

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import calib, coding, cs_dict, scenegen, transforms
from codedlf import losses_metrics as lm
from codedlf import multitask as mt
from codedlf.tensor import as_tensor5


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


def _ref_fidelity(a, l_star, m):
    """f = || l_star - m * synth(a) ||^2 and its gradient
    2 (analysis(m * synth(a)) - analysis(m * l_star)) on all U V S T C
    entries, with full 5D transforms."""
    mb = np.asarray(m, dtype=np.float64)[None, None]
    l_star = np.asarray(l_star, dtype=np.float64)
    z = mb * transforms.dct5_inverse(a)
    resid = z - l_star
    grad = 2.0 * (transforms.dct5_forward(z) - transforms.dct5_forward(mb * l_star))
    return float(np.vdot(resid, resid)), grad


@pytest.fixture
def fidelity_oracle():
    """fidelity_oracle(a, l_star, m) -> (value, gradient) of the coded data
    term in its 5D closed form, as transforms.CodedFidelity computed it
    before the observed-entry operator (test oracle)."""
    return _ref_fidelity


# ---------------------------------------------------------------------------
# The per-sample training losses as they were before they took a batch axis:
# one sample at a time, SSIM one channel at a time on np.pad-ed cumulative
# sums.  Test oracles for the batched losses in losses_metrics.


def _ref_huber(pred, truth, delta: float = 1.0, with_grad: bool = True) -> lm.LossValue:
    """Mean elementwise Huber loss: e^2 below delta, 2*delta*(e - delta/2) above."""
    pred, truth = lm._check_same_shape(pred, truth)
    e = np.abs(pred - truth)
    val = np.where(e < delta, e * e, 2.0 * delta * (e - 0.5 * delta))
    out = lm.LossValue(value=float(val.mean()))
    if with_grad:
        slope = 2.0 * np.minimum(e, delta)
        out.grad = slope * np.sign(pred - truth) / pred.size
    return out


def _ref_window_sums(x: np.ndarray, w: int) -> np.ndarray:
    """Sum of each w-by-w window (valid positions) of a 2D array."""
    c = np.cumsum(np.cumsum(x, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]


def _ref_scatter_windows(wmap: np.ndarray, shape: tuple[int, int], w: int) -> np.ndarray:
    """Adjoint of _window_sums: spread per-window scalars back over pixels."""
    padded = np.pad(wmap, ((w - 1, w - 1), (w - 1, w - 1)))
    full = _ref_window_sums(padded, w)
    return full[: shape[0], : shape[1]]


def _ref_ssim_channel(a: np.ndarray, b: np.ndarray, w: int, c1: float, c2: float):
    """Per-window SSIM statistics of one channel; biased window moments."""
    n = float(w * w)
    mu_a = _ref_window_sums(a, w) / n
    mu_b = _ref_window_sums(b, w) / n
    var_a = _ref_window_sums(a * a, w) / n - mu_a * mu_a
    var_b = _ref_window_sums(b * b, w) / n - mu_b * mu_b
    cov = _ref_window_sums(a * b, w) / n - mu_a * mu_b
    a1 = 2.0 * mu_a * mu_b + c1
    a2 = 2.0 * cov + c2
    b1 = mu_a * mu_a + mu_b * mu_b + c1
    b2 = var_a + var_b + c2
    return (a1 * a2) / (b1 * b2), (mu_a, mu_b, a1, a2, b1, b2)


def _ref_ssim(
    a,
    b,
    window: int = lm.SSIM_WINDOW,
    k1: float = lm.SSIM_K1,
    k2: float = lm.SSIM_K2,
    peak: float = 1.0,
) -> float:
    """Mean SSIM over valid uniform windows, channel-wise and averaged.

    Accepts (S, T) or (S, T, C) arrays with values on a [0, peak] scale.
    """
    a, b = lm._check_same_shape(a, b)
    if a.ndim == 2:
        a = a[..., None]
        b = b[..., None]
    if a.ndim != 3:
        raise ValueError(f"expected (S, T) or (S, T, C) images, got {a.shape}")
    if a.shape[0] < window or a.shape[1] < window:
        raise ValueError(f"image {a.shape[:2]} smaller than window {window}")
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    vals = [
        _ref_ssim_channel(a[..., c], b[..., c], window, c1, c2)[0].mean()
        for c in range(a.shape[2])
    ]
    return float(np.mean(vals))


def _ref_ssim_loss(
    pred,
    truth,
    window: int = lm.SSIM_WINDOW,
    k1: float = lm.SSIM_K1,
    k2: float = lm.SSIM_K2,
    with_grad: bool = True,
) -> lm.LossValue:
    """(1 - SSIM)/2 with the analytic gradient with respect to pred.

    Per window the SSIM is a smooth rational function of window moments;
    its derivative with respect to an in-window prediction pixel p is an
    affine function of (pred_p, truth_p) with per-window coefficients, so
    the full gradient is assembled from three window-scalar maps scattered
    back over the image.
    """
    pred, truth = lm._check_same_shape(pred, truth)
    squeeze = pred.ndim == 2
    if squeeze:
        pred = pred[..., None]
        truth = truth[..., None]
    if pred.shape[0] < window or pred.shape[1] < window:
        raise ValueError(f"image {pred.shape[:2]} smaller than window {window}")
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    n = float(window * window)
    n_ch = pred.shape[2]
    total = 0.0
    grad = np.zeros_like(pred) if with_grad else None
    n_windows = None
    for c in range(n_ch):
        x = pred[..., c]
        y = truth[..., c]
        s, (mu_x, mu_y, a1, a2, b1, b2) = _ref_ssim_channel(x, y, window, c1, c2)
        n_windows = s.size
        total += s.mean()
        if not with_grad:
            continue
        # Quotient rule: dS = [a1'*a2 + a1*a2' - S*(b1'*b2 + b1*b2')] / (b1*b2)
        # with a1' = 2 mu_y / n, a2' = 2 (y_p - mu_y) / n,
        #      b1' = 2 mu_x / n, b2' = 2 (x_p - mu_x) / n,
        # which is affine in (x_p, y_p) per window:
        denom = n * b1 * b2
        coef_y = 2.0 * a1 / denom
        coef_x = -2.0 * s / (n * b2)
        const = (
            2.0 * mu_y * (a2 - a1) / denom
            + 2.0 * s * mu_x * (1.0 / (n * b2) - 1.0 / (n * b1))
        )
        shape2 = x.shape
        g = (
            _ref_scatter_windows(const, shape2, window)
            + y * _ref_scatter_windows(coef_y, shape2, window)
            + x * _ref_scatter_windows(coef_x, shape2, window)
        )
        grad[..., c] = g
    mean_ssim = total / n_ch
    out = lm.LossValue(value=float(0.5 * (1.0 - mean_ssim)))
    if with_grad:
        grad /= n_windows * n_ch  # d(mean SSIM); windows per channel are equal
        out.grad = -0.5 * grad
        if squeeze:
            out.grad = out.grad[..., 0]
    return out


def _ref_spectral_cos_loss(pred, truth, with_grad: bool = True) -> lm.LossValue:
    """(1 - cosine)/2 of per-pixel spectra, averaged over pixels."""
    pred, truth = lm._check_same_shape(pred, truth)
    if pred.ndim != 3:
        raise ValueError(f"expected (S, T, C) spectra, got {pred.shape}")
    dot = (pred * truth).sum(axis=-1)
    np_ = np.sqrt((pred * pred).sum(axis=-1))
    nt = np.sqrt((truth * truth).sum(axis=-1))
    denom = np.maximum(np_ * nt, lm.EPS)
    cos = dot / denom
    n_px = cos.size
    out = lm.LossValue(value=float(0.5 * (1.0 - cos.mean())))
    if with_grad:
        safe_np = np.maximum(np_, lm.EPS)
        dcos = truth / denom[..., None] - (dot / (safe_np * safe_np * denom))[
            ..., None
        ] * pred
        out.grad = -0.5 * dcos / n_px
    return out


def _ref_forward_diffs(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along rows (y, axis 0) and columns (x, axis 1)."""
    gx = d[:, 1:] - d[:, :-1]
    gy = d[1:, :] - d[:-1, :]
    return gx, gy


def _ref_tv_smoothness(pred_disp, truth_disp, with_grad: bool = True) -> lm.LossValue:
    """Edge-aware smoothness: |grad pred| weighted by exp(-|grad truth|).

    Averaged over all gradient sites (both directions pooled).
    """
    pred, truth = lm._check_same_shape(pred_disp, truth_disp)
    if pred.ndim != 2:
        raise ValueError(f"expected (S, T) disparity maps, got {pred.shape}")
    gx_p, gy_p = _ref_forward_diffs(pred)
    gx_t, gy_t = _ref_forward_diffs(truth)
    wx = np.exp(-np.abs(gx_t))
    wy = np.exp(-np.abs(gy_t))
    n_sites = gx_p.size + gy_p.size
    if n_sites == 0:
        return lm.LossValue(value=0.0, grad=np.zeros_like(pred) if with_grad else None)
    val = (np.abs(gx_p) * wx).sum() + (np.abs(gy_p) * wy).sum()
    out = lm.LossValue(value=float(val / n_sites))
    if with_grad:
        grad = np.zeros_like(pred)
        sx = np.sign(gx_p) * wx / n_sites
        grad[:, 1:] += sx
        grad[:, :-1] -= sx
        sy = np.sign(gy_p) * wy / n_sites
        grad[1:, :] += sy
        grad[:-1, :] -= sy
        out.grad = grad
    return out


def _ref_pixel_grads(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel forward differences, zero at the far edges."""
    gx = np.zeros_like(d)
    gy = np.zeros_like(d)
    gx[:, :-1] = d[:, 1:] - d[:, :-1]
    gy[:-1, :] = d[1:, :] - d[:-1, :]
    return gx, gy


def _ref_normal_similarity(pred_disp, truth_disp, with_grad: bool = True) -> lm.LossValue:
    """(1 - cosine)/2 between surface normals (-dx, -dy, 1), pixel-averaged."""
    pred, truth = lm._check_same_shape(pred_disp, truth_disp)
    if pred.ndim != 2:
        raise ValueError(f"expected (S, T) disparity maps, got {pred.shape}")
    gx_p, gy_p = _ref_pixel_grads(pred)
    gx_t, gy_t = _ref_pixel_grads(truth)
    # cos = (gx_p*gx_t + gy_p*gy_t + 1) / (|n_pred| * |n_truth|)
    dot = gx_p * gx_t + gy_p * gy_t + 1.0
    n_p = np.sqrt(gx_p * gx_p + gy_p * gy_p + 1.0)
    n_t = np.sqrt(gx_t * gx_t + gy_t * gy_t + 1.0)
    cos = dot / (n_p * n_t)
    n_px = pred.size
    out = lm.LossValue(value=float(0.5 * (1.0 - cos.mean())))
    if with_grad:
        # d cos / d gx_p, then scatter the forward-difference stencil.
        dgx = gx_t / (n_p * n_t) - dot * gx_p / (n_p**3 * n_t)
        dgy = gy_t / (n_p * n_t) - dot * gy_p / (n_p**3 * n_t)
        grad = np.zeros_like(pred)
        # gx[i, j] = d[i, j+1] - d[i, j] for j < T-1 (zero at the edge)
        grad[:, 1:] += dgx[:, :-1]
        grad[:, :-1] -= dgx[:, :-1]
        grad[1:, :] += dgy[:-1, :]
        grad[:-1, :] -= dgy[:-1, :]
        out.grad = -0.5 * grad / n_px
    return out


def _loop_batch(pred, loss_fn, truths):
    """Batch mean of a per-sample loss and its gradient, one sample at a time."""
    n_b = pred.shape[0]
    vals = []
    grad = np.zeros_like(pred)
    for i in range(n_b):
        lv = loss_fn(pred[i], truths[i])
        vals.append(lv.value)
        grad[i] = lv.grad
    grad /= n_b
    return float(np.mean(vals)), grad


REFERENCE_LOSSES = {
    "huber": _ref_huber,
    "ssim_loss": _ref_ssim_loss,
    "spectral_cos_loss": _ref_spectral_cos_loss,
    "tv_smoothness": _ref_tv_smoothness,
    "normal_similarity": _ref_normal_similarity,
}


@pytest.fixture
def reference_losses():
    """(REFERENCE_LOSSES, _ref_ssim, _loop_batch): the per-sample losses by
    name, the per-sample SSIM metric and the sample loop (test oracles)."""
    return REFERENCE_LOSSES, _ref_ssim, _loop_batch


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
    value, grads = _loop_batch(pred.value, lambda p, t: loss_fn(p[None], t[None]), truths)
    return _Node(np.float64(value), (pred,), lambda g: (float(g) * grads,))


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


# ---------------------------------------------------------------------------
# Training as it was before the strategy statistics came from Grams: one
# backward pass per loss into that loss's flat gradient vector, the strategy
# rules on the Gram of those vectors by explicit dot products, and the
# update summed loss by loss onto +0.0 over the trunk and the loss's own
# head.  Each sample draws and codes its own mask, and validation codes and
# forwards one sample at a time.  Test oracles for multitask.train and
# multitask.validate.


def _group_slice(net, group):
    """Where one group's parameters sit in a flat parameter-length vector."""
    sizes = [sum(p.size for p in net.params[g]) for g in ad.GROUPS]
    k = ad.GROUPS.index(group)
    return slice(sum(sizes[:k]), sum(sizes[: k + 1]))


@pytest.fixture
def group_slice():
    """group_slice(net, group) -> the slice of one group's parameters in a
    flat parameter-length vector."""
    return _group_slice


def _accumulate(total, grad, spans, scale, products):
    """total += scale * grad over the index spans (the trunk and one head)."""
    if scale == 0.0:
        return
    for span in spans:
        t = total[span]
        t += np.multiply(grad[span], scale, out=products[span])


def _ref_train(net, dataset, config):
    n_val = max(1, int(round(len(dataset) * mt.VAL_FRACTION)))
    train_set, val_set = dataset[:-n_val], dataset[-n_val:]
    n_s, n_t, n_c = net.dims[2:]
    # The per-strategy decisions, written out by name as the trainer made
    # them before its strategy table, so the oracle does not read the table
    # it checks.
    strategy = config.strategy
    active = (strategy != "st-disp", strategy != "st-cv")
    use_aux = strategy in ("gradsim", "normgradsim", "mtu+al")
    static_w = {"st-cv": np.array([1.0, 0.0]), "st-disp": np.array([0.0, 1.0])}.get(
        strategy, np.array([0.5, 0.5])
    )
    n_aux = {t: len(mt.AUX_LOSSES[t]) for t in mt.TASKS}
    alpha = {t: np.zeros(n) for t, n in n_aux.items()}
    beta = {t: np.ones(n) for t, n in n_aux.items()}
    mtu_state = mt.MtuState.initial()
    gn_state = mt.GradNormState.initial(gamma=config.gradnorm_gamma)
    rng = np.random.default_rng(mt._derive_seed(config.seed, 0xD5))
    params = net.all_params()
    n_params = sum(p.size for p in params)
    loss_grads = {
        task: [np.zeros(n_params) for _ in range(1 + (n_aux[task] if use_aux else 0))]
        for ti, task in enumerate(mt.TASKS)
        if active[ti]
    }
    subset = _group_slice(net, "shared")
    spans = {t: (_group_slice(net, "shared"), _group_slice(net, t)) for t in mt.TASKS}
    total = np.empty(n_params)
    products = np.empty(n_params)
    velocity = np.zeros(n_params) if config.momentum else None
    step_grads = [
        g for grads in ad.param_views(net, total if velocity is None else velocity).values()
        for g in grads
    ]
    velocity_s = np.zeros_like(mtu_state.s)
    logs = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            idxs = order[start : start + config.batch_size]
            coded = np.stack([
                coding.encode(
                    train_set[i].lightfield,
                    coding.random_mask(n_s, n_t, n_c, mt._derive_seed(config.seed, 2, epoch, int(i))),
                )
                for i in idxs
            ]).astype(np.float64)
            cv_pred, disp_pred, acts = net.forward_batch(coded)
            pred = {"cv": cv_pred, "disp": disp_pred}
            truth = {
                "cv": np.stack([train_set[i].cv for i in idxs]),
                "disp": np.stack([train_set[i].disp for i in idxs]),
            }
            main_vals = np.zeros(2)
            aux_vals = {t: np.zeros(n_aux[t]) for t in mt.TASKS}
            for task, grads in loss_grads.items():
                ti = mt.TASKS.index(task)
                main_vals[ti], seed = ad.batched_loss(pred[task], lm.huber, truth[task])
                ad.collect_gradients(net, acts, {task: seed}, out=grads[0])
                if use_aux:
                    for j, (_, fn) in enumerate(mt.AUX_LOSSES[task]):
                        aux_vals[task][j], seed = ad.batched_loss(pred[task], fn, truth[task])
                        ad.collect_gradients(net, acts, {task: seed}, out=grads[1 + j])
            task_coeffs = static_w.copy()
            aux_coeffs = {t: np.zeros(n_aux[t]) for t in mt.TASKS}
            if use_aux:
                for task, grads in loss_grads.items():
                    g = np.stack([g[subset] for g in grads])
                    gram = g @ g.T
                    if strategy == "gradsim":
                        aux_coeffs[task] = mt.gram_gradsim_weights(gram)
                    else:
                        alpha[task], beta[task] = mt.gram_normgradsim_update(
                            gram, alpha[task], beta[task], step=config.normgradsim_step
                        )
            task_losses = main_vals.copy()
            if strategy in ("normgradsim", "mtu+al"):
                for ti, task in enumerate(mt.TASKS):
                    if active[ti]:
                        task_losses[ti] = mt.normgradsim_loss(
                            main_vals[ti], aux_vals[task], alpha[task], beta[task]
                        )
            if strategy == "gradnorm":
                norms = np.array([np.linalg.norm(loss_grads[t][0][subset]) for t in mt.TASKS])
                task_coeffs = mt.gradnorm_update(norms, task_losses, gn_state)
            elif strategy in ("mtu", "mtu+al"):
                _, ds = mt.mtu_loss(task_losses, mtu_state)
                task_coeffs = mt.mtu_effective_weights(mtu_state)
                velocity_s = config.momentum * velocity_s + ds
                mtu_state.s -= config.lr * velocity_s
            total.fill(0.0)
            for task, grads in loss_grads.items():
                ti = mt.TASKS.index(task)
                if task_coeffs[ti] == 0.0:
                    continue
                if strategy in ("normgradsim", "mtu+al"):
                    c_main, c_aux = mt.normgradsim_coefficients(alpha[task], beta[task])
                elif strategy == "gradsim":
                    c_main, c_aux = 1.0, aux_coeffs[task]
                else:
                    c_main, c_aux = 1.0, np.zeros(n_aux[task])
                scales = [task_coeffs[ti] * c_main] + [task_coeffs[ti] * float(c) for c in c_aux]
                for g, scale in zip(grads, scales):
                    _accumulate(total, g, spans[task], scale, products)
            if velocity is not None:
                velocity *= config.momentum
                velocity += total
            for p, g in zip(params, step_grads):
                ad.sgd_step(p, g, config.lr, config.weight_decay)
        loss_cv, loss_disp = _ref_validate(net, val_set, config.seed)
        alphas_now = aux_coeffs if strategy == "gradsim" else alpha
        logs.append(mt.EpochLog(
            epoch=epoch,
            loss_cv=loss_cv,
            loss_disp=loss_disp,
            alphas={t: [float(x) for x in alphas_now[t]] for t in mt.TASKS},
            betas={t: [float(x) for x in beta[t]] for t in mt.TASKS},
            task_weights=[float(x) for x in task_coeffs],
        ))
    return net, logs


def _ref_validate(net, val, base_seed):
    """Mean Huber validation losses, one sample at a time under its fixed
    mask (test oracle for multitask.validate)."""
    n_s, n_t, n_c = net.dims[2:]
    cv_losses, disp_losses = [], []
    for i, sample in enumerate(val):
        m = coding.random_mask(n_s, n_t, n_c, mt._derive_seed(base_seed, 1, i))
        cv_hat, disp_hat = ad.forward(net, coding.encode(sample.lightfield, m))
        cv_losses.append(lm.huber(cv_hat[None], sample.cv[None]).value)
        disp_losses.append(lm.huber(disp_hat[None], sample.disp[None]).value)
    return float(np.mean(cv_losses)), float(np.mean(disp_losses))


def _baseline_losses(train, val):
    """Huber losses of the constant predictor (pixelwise train mean) on val."""
    cv_mean = np.mean([s.cv for s in train], axis=0)
    disp_mean = np.mean([s.disp for s in train], axis=0)
    cv_l = np.mean([lm.huber(cv_mean[None], s.cv[None]).value for s in val])
    disp_l = np.mean([lm.huber(disp_mean[None], s.disp[None]).value for s in val])
    return float(cv_l), float(disp_l)


@pytest.fixture
def baseline_losses():
    """baseline_losses(train, val) -> (cv, disp) mean Huber losses on val of
    the constant predictor, the pixelwise mean of train."""
    return _baseline_losses


@pytest.fixture
def validate_oracle():
    """validate_oracle(net, val_samples, base_seed) -> (loss_cv, loss_disp),
    each sample coded and forwarded on its own (test oracle)."""
    return _ref_validate


@pytest.fixture
def per_loss_training():
    """The per-loss training loop (test oracle): per_loss_training(net,
    dataset, config) returns the trained net and the epoch logs, like
    multitask.train without its early stop."""
    return _ref_train


# ---------------------------------------------------------------------------
# The patch geometry as it was before PatchGrid.index: one slice per patch
# origin for patching, coverage and depatching, and the spatial groups
# collected through a dict keyed by spatial origin.  Test oracles for
# cs_dict.patch, coverage_counts, depatch and _spatial_groups.


def _origin_slices(g):
    a_u, a_v, a_s, a_t, _ = g.atom_dims
    return [
        (slice(u, u + a_u), slice(v, v + a_v), slice(s, s + a_s), slice(t, t + a_t))
        for u, v, s, t in g.origins
    ]


def _ref_patch(l, g):
    out = np.empty((g.n_patches, g.atom_len), dtype=np.float64)
    for i, sl in enumerate(_origin_slices(g)):
        out[i] = l[sl].ravel()
    return out


def _ref_coverage_counts(g):
    counts = np.zeros(g.source_dims, dtype=np.int64)
    for sl in _origin_slices(g):
        counts[sl] += 1
    return counts


def _ref_depatch(patches, g):
    acc = np.zeros(g.source_dims, dtype=np.float64)
    for i, sl in enumerate(_origin_slices(g)):
        acc[sl] += patches[i].reshape(g.atom_dims)
    acc /= _ref_coverage_counts(g)
    return acc.astype(np.float32)


def _ref_spatial_groups(g, m):
    a_u, a_v, a_s, a_t, _ = g.atom_dims
    members = {}
    for i, (_, _, s, t) in enumerate(g.origins):
        members.setdefault((s, t), []).append(i)
    rows = [
        np.flatnonzero(np.broadcast_to(m[s : s + a_s, t : t + a_t] != 0, g.atom_dims))
        for s, t in members
    ]
    return np.array(list(members.values())), np.array(rows)


@pytest.fixture
def patch_oracles():
    """(patch, coverage_counts, depatch, spatial_groups): the loops over the
    patch origins (test oracles), with the signatures of cs_dict's."""
    return _ref_patch, _ref_coverage_counts, _ref_depatch, _ref_spatial_groups


# ---------------------------------------------------------------------------
def _soft_threshold(x, t):
    """The soft threshold of the dictionary oracles below."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


# The masked dictionary solve as it was before it ran on observed rows only:
# FISTA on the full-height patch vectors of all patches at once, the binary
# mask folded into the residual, with the per-patch steps and the stop rule
# of cs_dict.dict_reconstruct.  Test oracle for it.


def _ref_masked_fista(d, x, lam, iters, mask, step, rel_decrease):
    """Codes (n_atoms, n_patches), per-patch final objectives and the
    iterations run of the full-height masked FISTA on the columns of x,
    column j stepping by step[j].  It stops after a non-restart iteration
    in which the summed objective fell by at most rel_decrease times its
    new value."""
    atoms = d.atoms
    thresh = lam * step

    def objective(a):
        r = x - atoms @ a
        r = mask * r
        return np.sum(r * r, axis=0) + lam * np.abs(a).sum(axis=0)

    a = np.zeros((d.n_atoms, x.shape[1]), dtype=np.float64)
    y = a.copy()
    t = 1.0
    f_a = objective(a)
    it = 0
    for it in range(1, iters + 1):
        r = atoms @ y - x
        r = mask * r
        z = _soft_threshold(y - step * (2.0 * atoms.T @ r), thresh)
        f_z = objective(z)
        worse = f_z > f_a
        if np.any(worse):
            z[:, worse] = a[:, worse]
            f_z = np.where(worse, f_a, f_z)
            t_new = 1.0
            y = z.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_new) * (z - a)
        decrease = f_a.sum() - f_z.sum()
        a, f_a, t = z, f_z, t_new
        if not np.any(worse) and decrease <= rel_decrease * f_a.sum():
            break
    return a, f_a, it


def _ref_dict_reconstruct(l_star_p, m, d, g, lam, iters):
    """(reconstruction, codes, per-patch final objectives, iterations run,
    per-patch Lipschitz bounds) of the full-height masked solve, patches in
    grid order.  Patch j steps by 1/(2 L_j), L_j the largest eigenvalue of
    the Gram matrix of the dictionary rows its mask keeps."""
    lifted = coding.lift(l_star_p, m)
    mask5 = np.broadcast_to(np.asarray(m, dtype=np.float64)[None, None], g.source_dims)
    x = _ref_patch(lifted, g).T
    masks = _ref_patch(mask5, g).T
    lips = []
    for keep in (masks != 0).T:
        rows = d.atoms[keep]
        lips.append(np.linalg.eigvalsh(rows @ rows.T)[-1])
    lips = np.array(lips)
    a, f, it = _ref_masked_fista(
        d, x, lam, iters, masks, 1.0 / (2.0 * lips), cs_dict.STOP_REL_DECREASE
    )
    return _ref_depatch((d.atoms @ a).T, g), a, f, it, lips


@pytest.fixture
def masked_dict_oracle():
    """The full-height masked dictionary solve (test oracle).

    masked_dict_oracle(l_star_p, m, d, g, lam, iters) returns the
    reconstruction, the codes (n_atoms, n_patches), the per-patch final
    masked objectives, the iterations run and the per-patch Lipschitz
    bounds of FISTA with the mask folded into a full-height residual, as
    `dict_reconstruct` ran before it used observed rows only.
    """
    return _ref_dict_reconstruct


# ---------------------------------------------------------------------------
# The L-BFGS two-loop recursion OWL-QN ran on a list of history pairs before
# the compact form on a preallocated history.  Test oracle for
# cs_dct._LbfgsHistory.direction.


def _two_loop(pg, history):
    """L-BFGS two-loop recursion; returns the ascent direction H*pg.

    History entries are (s, y, s.y), oldest first.
    """
    q = pg.copy()
    alphas = []
    for s, y, sy in reversed(history):
        rho = 1.0 / sy
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append((a, rho))
    if history:
        s, y, sy = history[-1]
        q *= sy / float(np.vdot(y, y))
    for (a, rho), (s, y, _) in zip(reversed(alphas), history):
        b = rho * float(np.vdot(y, q))
        q += (a - b) * s
    return q


@pytest.fixture
def two_loop():
    """two_loop(pg, history) -> H pg by the two-loop recursion (test oracle)."""
    return _two_loop


# ---------------------------------------------------------------------------
# The unmasked dictionary-training FISTA as it was before it cached D z and
# ran its GEMMs in float32: three float64 GEMMs per iteration (D y, the
# gradient with the scaled copy (2.0 * atoms.T) @ r, and D z for the
# objective), the training loop that recomputed D a for every batch, and
# plain ISTA with the same scaled copy.  The training loop starts its power
# vector at the top eigenvector and takes its step from the same warm
# `lipschitz_bound` as `train_dictionary`; the others step by 1/(2 L) with L
# the exact largest eigenvalue, as `fista_encode` does.  Test oracles for
# cs_dict._fista and cs_dict.train_dictionary, and the baseline FISTA must
# beat.


def _exact_lipschitz(d):
    """The largest eigenvalue of D D^T (and of D^T D), by eigvalsh."""
    return np.linalg.eigvalsh(d.atoms @ d.atoms.T)[-1]


def _ref_fista(d, x, lam, iters, power=None):
    """Codes of the columns of x, and a bool (iters, n_columns) array of
    the columns each iteration restarted.  L is `lipschitz_bound(d, power)`
    when a power vector is given, otherwise the exact eigenvalue."""
    atoms = d.atoms
    lip = _exact_lipschitz(d) if power is None else cs_dict.lipschitz_bound(d, power)
    step = 1.0 / (2.0 * lip)
    thresh = lam * step

    def objective(a):
        r = x - atoms @ a
        return np.sum(r * r, axis=0) + lam * np.abs(a).sum(axis=0)

    a = np.zeros((d.n_atoms, x.shape[1]), dtype=np.float64)
    y = a.copy()
    t = 1.0
    f_a = objective(a)
    restarted = np.zeros((iters, x.shape[1]), dtype=bool)
    for i in range(iters):
        r = atoms @ y - x
        z = _soft_threshold(y - step * (2.0 * atoms.T @ r), thresh)
        f_z = objective(z)
        worse = f_z > f_a
        restarted[i] = worse
        if np.any(worse):
            z[:, worse] = a[:, worse]
            f_z = np.where(worse, f_a, f_z)
            t_new = 1.0
            y = z.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_new) * (z - a)
        a, f_a, t = z, f_z, t_new
    return a, restarted


@pytest.fixture
def unmasked_fista_oracle():
    """unmasked_fista_oracle(d, x, lam, iters) -> (codes, restarted columns
    per iteration) of the three-GEMM training FISTA with the exact step
    (test oracle)."""
    return _ref_fista


def _ref_train_dictionary(dataset, g, k, lam, lr, batch_size, fista_iters, epochs, seed):
    n_atoms = int(round(k * g.atom_len))
    all_patches = np.concatenate([cs_dict.patch(as_tensor5(t), g) for t in dataset], axis=0)
    d = cs_dict.init_dictionary(g.atom_len, n_atoms, seed)
    rng = np.random.default_rng(seed + 1)
    _, vecs = np.linalg.eigh(d.atoms @ d.atoms.T)
    power = d.atoms.T @ vecs[:, -1]
    power /= np.linalg.norm(power)
    epoch_objectives, epoch_restarts = [], []
    for _ in range(epochs):
        order = rng.permutation(all_patches.shape[0])
        batch_objs, restarts = [], 0
        for start in range(0, len(order), batch_size):
            x = all_patches[order[start : start + batch_size]].T
            a, restarted = _ref_fista(d, x, lam, fista_iters, power)
            resid = x - d.atoms @ a
            batch_objs.append(float(np.sum(resid * resid) + lam * np.abs(a).sum()) / x.shape[1])
            restarts += int(restarted.sum())
            if lr != 0.0:
                d.atoms += lr * (resid @ a.T)
                d.normalize()
        epoch_objectives.append(float(np.mean(batch_objs)))
        epoch_restarts.append(restarts)
    return d, epoch_objectives, epoch_restarts


@pytest.fixture
def dictionary_training_oracle():
    """dictionary_training_oracle(dataset, g, k, lam, lr, batch_size,
    fista_iters, epochs, seed) -> (dictionary, epoch objectives, column
    restarts per epoch) of the training loop on the three-GEMM float64
    FISTA."""
    return _ref_train_dictionary


def _ref_ista(d, x, lam, iters):
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    step = 1.0 / (2.0 * _exact_lipschitz(d))
    a = np.zeros((d.n_atoms, 1), dtype=np.float64)
    for _ in range(iters):
        a = _soft_threshold(a - step * (2.0 * d.atoms.T @ (d.atoms @ a - x)), lam * step)
    return a[:, 0]


@pytest.fixture
def ista_oracle():
    """ista_oracle(d, x, lam, iters) -> codes of ISTA with the gradient
    written (2.0 * atoms.T) @ r and the exact step (test oracle)."""
    return _ref_ista


def _coding_objective(d, x, a, lam):
    r = np.asarray(x, dtype=np.float64).ravel() - d.atoms @ np.asarray(a).ravel()
    return float(r @ r + lam * np.abs(a).sum())


@pytest.fixture
def coding_objective():
    """coding_objective(d, x, a, lam) -> ||x - D a||^2 + lam ||a||_1 of one
    patch and its code."""
    return _coding_objective


# ---------------------------------------------------------------------------
# The calibration statistics pass one full (I, J, K) exposure slice at a
# time, and the alternating fit with einsum r updates, (I, J, K) v-update
# products and an objective that gathers the finite entries.  Test oracles
# for calib._entry_statistics and calib._alternating_fit.


def _ref_entry_statistics(series, dark, mask):
    n_i, n_j, n_k, _ = series.mu.shape
    w = calib.exposure_weights(series.times)
    wt = w * series.times
    wt2 = w * series.times**2
    num, den, a_star, s_min = (np.zeros((n_i, n_j, n_k)) for _ in range(4))
    for l, t in enumerate(series.times):
        keep = ~mask[..., l]
        resid = series.mu[..., l] - dark.evaluate(t)
        num += keep * resid * wt[l]
        q = keep * wt2[l]
        den += q
        frac = np.divide(q, den, out=np.zeros_like(den), where=den > 0)
        delta = resid / t - a_star
        a_star += frac * delta
        s_min += q * (1.0 - frac) * delta * delta
    return calib._EntryStats(num, den, a_star, s_min)


def _ref_objective(stats, v, r, bayer):
    rmap = r.T[bayer]
    ok = np.isfinite(v)[:, :, None] & np.isfinite(rmap)
    a = v[:, :, None] * rmap
    return float(np.sum((stats.s_min + stats.den * (a - stats.a_star) ** 2)[ok]))


def _ref_alternating_fit(stats, bayer, max_sweeps=200, rel_tol=1e-8):
    n_i, n_j, n_k = stats.den.shape
    bayer_onehot = np.eye(calib.BAYER_TYPES)[bayer]
    v = np.ones((n_i, n_j))
    r = np.ones((n_k, calib.BAYER_TYPES))
    valid_v = np.ones((n_i, n_j), dtype=bool)
    valid_r = np.ones((n_k, calib.BAYER_TYPES), dtype=bool)
    trace = [_ref_objective(stats, v, r, bayer)]
    for _ in range(max_sweeps):
        vmap = v.copy()
        vmap[~valid_v] = 0.0
        num = np.einsum("ijk,ijn,ij->kn", stats.num, bayer_onehot, vmap)
        den = np.einsum("ijk,ijn,ij->kn", stats.den, bayer_onehot, vmap * vmap)
        bad_r = den <= 0
        new_r = np.where(bad_r, np.nan, num / np.where(bad_r, 1.0, den))
        valid_r &= ~bad_r
        r = np.where(valid_r, new_r, np.nan)
        trace.append(_ref_objective(stats, v, r, bayer))
        rmap = np.where(valid_r, r, 0.0).T[bayer]
        num = (stats.num * rmap).sum(axis=2)
        den = (stats.den * rmap * rmap).sum(axis=2)
        bad_v = den <= 0
        v = np.where(bad_v, np.nan, num / np.where(bad_v, 1.0, den))
        valid_v &= ~bad_v
        trace.append(_ref_objective(stats, v, r, bayer))
        prev, cur = trace[-3], trace[-1]
        if (
            prev <= 0
            or cur <= calib.EXACT_FIT_FLOOR * trace[0]
            or (prev - cur) / max(prev, 1e-30) < rel_tol
        ):
            break
    return calib.CalibResult(
        vignetting=v,
        responsivity=r,
        residual=trace[-1],
        unrecoverable_pixels=[tuple(ix) for ix in np.argwhere(~valid_v)],
        unrecoverable_responsivities=[tuple(ix) for ix in np.argwhere(~valid_r)],
        objective_trace=trace,
    )


def _ref_global_dark(mu_dark, times):
    """(offset, current) of the global dark model by its own regression of
    the mean dark frame, as fit_dark computed it before it reused the
    per-pixel path."""
    mu_dark = np.asarray(mu_dark, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    t_mean = times.mean()
    t_var = ((times - t_mean) ** 2).sum()
    y = mu_dark.mean(axis=(0, 1))
    slope = float(((times - t_mean) * (y - y.mean())).sum() / t_var)
    offset = float(y.mean() - slope * t_mean)
    return offset, slope


@pytest.fixture
def global_dark_oracle():
    """global_dark_oracle(mu_dark, times) -> (offset, current) of the global
    dark model (test oracle for calib.fit_dark with per_pixel False)."""
    return _ref_global_dark


@pytest.fixture
def calib_oracles():
    """(entry_statistics, alternating_fit): the per-exposure statistics pass
    and the einsum fit (test oracles).  The oracle fit applies no gauge."""
    return _ref_entry_statistics, _ref_alternating_fit


# ---------------------------------------------------------------------------
# Seed mixing, mask drawing and rendering as they were before: SplitMix64 on
# one-element uint64 arrays, one part at a time; one mask per seed, set by
# fancy indexing; and one bilinear sampling call per view.  Test oracles for
# multitask._derive_seed, coding.random_masks and scenegen.render_lightfield,
# with a per-sample coding by boolean indexing for coding.encode_batch.


def _ref_derive_seed(*parts: int) -> int:
    acc = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for p in parts:
            acc = coding._splitmix64(
                np.array([acc + np.uint64(int(p) & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
            )[0]
    return int(acc)


@pytest.fixture
def seed_oracle():
    """seed_oracle(*parts) -> the 64-bit seed by numpy uint64 mixing (test oracle)."""
    return _ref_derive_seed


def _ref_random_mask(n_s, n_t, n_channels, seed):
    n = n_s * n_t
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(0x9E3779B97F4A7C15)
        draws = coding._splitmix64(state)
    channels = (draws % np.uint64(n_channels)).astype(np.int64)
    mask = np.zeros((n, n_channels), dtype=np.float32)
    mask[np.arange(n), channels] = 1.0
    return mask.reshape(n_s, n_t, n_channels)


def _ref_encode(l, m):
    out = np.zeros_like(l)
    selected = m.astype(bool)
    out[:, :, selected] = l[:, :, selected]
    return out


@pytest.fixture
def encode_oracle():
    """encode_oracle(l, m) -> one coded light field, the selected entries
    copied by boolean indexing onto +0 (test oracle)."""
    return _ref_encode


@pytest.fixture
def mask_oracle():
    """mask_oracle(n_s, n_t, n_channels, seed) -> one (S, T, C) one-hot mask,
    drawn on its own (test oracle)."""
    return _ref_random_mask


def _ref_render_lightfield(cv, disp, n_u, n_v):
    cv = np.asarray(cv, dtype=np.float32)
    disp = np.asarray(disp, dtype=np.float64)
    n_s, n_t, n_c = cv.shape
    u_c, v_c = n_u // 2, n_v // 2
    base_s = np.arange(n_s, dtype=np.float64)[:, None]
    base_t = np.arange(n_t, dtype=np.float64)[None, :]
    out = np.empty((n_u, n_v, n_s, n_t, n_c), dtype=np.float32)
    cv64 = cv.astype(np.float64)
    for u in range(n_u):
        for v in range(n_v):
            if u == u_c and v == v_c:
                out[u, v] = cv
                continue
            ss = base_s + (u - u_c) * disp
            tt = base_t + (v - v_c) * disp
            out[u, v] = scenegen._bilinear_sample(cv64, ss, tt).astype(np.float32)
    return out


@pytest.fixture
def render_oracle():
    """render_oracle(cv, disp, n_u, n_v) -> the light field, one view at a
    time (test oracle)."""
    return _ref_render_lightfield
