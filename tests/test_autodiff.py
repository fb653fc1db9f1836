"""Network forward/backward against the closure-graph oracle, and LFNN persistence."""

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import losses_metrics as lm

RNG = np.random.default_rng(77)
DIMS = (3, 3, 4, 4, 2)


def make_net(seed=1):
    return ad.ToyNet(dims=DIMS, hidden=8, head_hidden=8, seed=seed)


def net_size(net):
    return sum(p.size for p in net.all_params())


def full_loss(net, coded, cv_t, d_t):
    """Huber loss of both heads and its per-group gradients, from one
    backward pass of both heads' seeds."""
    cv, disp, acts = net.forward_batch(coded)
    cv_val, cv_seed = ad.batched_loss(cv, lm.huber, cv_t)
    d_val, d_seed = ad.batched_loss(disp, lm.huber, d_t)
    grads = ad.collect_gradients(net, acts, {"cv": cv_seed, "disp": d_seed})
    return cv_val + d_val, grads


class TestToyNet:
    def test_output_shapes(self):
        net = make_net()
        cv, disp = ad.forward(net, RNG.normal(size=DIMS))
        assert cv.shape == (4, 4, 2)
        assert disp.shape == (4, 4)

    def test_zero_weights_zero_outputs(self):
        net = make_net()
        for p in net.all_params():
            p[:] = 0.0
        cv, disp = ad.forward(net, RNG.normal(size=DIMS))
        assert np.all(cv == 0.0) and np.all(disp == 0.0)

    def test_forward_deterministic(self):
        net = make_net()
        x = RNG.normal(size=DIMS)
        a = ad.forward(net, x)
        b = ad.forward(net, x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_nan_preactivation_relu_gives_zero(self):
        # One NaN input makes every first-layer pre-activation NaN; relu is
        # np.where(z > 0, z, 0), so they become 0 and the zero-bias net
        # outputs zeros instead of NaN.
        net = make_net()
        coded = RNG.normal(size=DIMS)
        coded[0, 0, 0, 0, 0] = np.nan
        cv, disp = ad.forward(net, coded)
        assert np.all(cv == 0.0) and np.all(disp == 0.0)

    def test_dim_mismatch(self):
        net = make_net()
        with pytest.raises(ValueError):
            ad.forward(net, RNG.normal(size=(3, 3, 5, 4, 2)))

    def test_full_network_fd_per_group(self):
        net = make_net()
        coded = RNG.normal(size=(2,) + DIMS)
        cv_t = [RNG.uniform(0.2, 0.8, size=(4, 4, 2)) for _ in range(2)]
        d_t = [RNG.uniform(-1, 1, size=(4, 4)) for _ in range(2)]
        _, grads = full_loss(net, coded, cv_t, d_t)
        h = 1e-3
        for group in ("shared", "cv", "disp"):
            for pi, p in enumerate(net.params[group]):
                flat = p.ravel()
                for i in RNG.choice(flat.size, size=min(10, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    f1, _ = full_loss(net, coded, cv_t, d_t)
                    flat[i] = orig - h
                    f2, _ = full_loss(net, coded, cv_t, d_t)
                    flat[i] = orig
                    fd = (f1 - f2) / (2 * h)
                    an = grads[group][pi].ravel()[i]
                    assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an), 1e-4)

    def test_unreached_parameters_get_zero(self):
        net = make_net()
        coded = RNG.normal(size=(1,) + DIMS)
        cv, _, acts = net.forward_batch(coded)
        _, seed = ad.batched_loss(cv, lm.huber, [RNG.uniform(size=(4, 4, 2))])
        grads = ad.collect_gradients(net, acts, {"cv": seed}, out=np.full(net_size(net), np.nan))
        for g in grads["disp"]:
            assert np.all(g == 0.0)


ORACLE_DIMS = (2, 2, 8, 8, 3)
HEAD_LOSSES = {
    "cv": (lm.huber, lm.ssim_loss, lm.spectral_cos_loss),
    "disp": (lm.huber, lm.tv_smoothness, lm.normal_similarity),
}


@pytest.mark.parametrize("n_b", [1, 3])
@pytest.mark.parametrize("dead_units", [False, True], ids=["live", "dead-units"])
def test_gradients_equal_graph_oracle(graph_gradients, n_b, dead_units):
    # Every training loss on both heads: the hand-written backward must give
    # the closure graph's loss value and gradients bit for bit, per group.
    net = ad.ToyNet(dims=ORACLE_DIMS, hidden=8, head_hidden=8, seed=3)
    if dead_units:
        for group, k in (("shared", 1), ("shared", 3), ("cv", 1), ("disp", 1)):
            net.params[group][k][:3] = -1e3
    coded = RNG.normal(size=(n_b,) + ORACLE_DIMS)
    truths = {
        "cv": [RNG.uniform(0.2, 0.8, size=(8, 8, 3)) for _ in range(n_b)],
        "disp": [RNG.uniform(-1, 1, size=(8, 8)) for _ in range(n_b)],
    }
    cv, disp, acts = net.forward_batch(coded)
    if dead_units:
        for group in ad.GROUPS:
            assert not acts.blocks[group][1][:, :3].any()
        assert not acts.trunk_mask[:, :3].any()
    pred = {"cv": cv, "disp": disp}
    for task, fns in HEAD_LOSSES.items():
        for fn in fns:
            value, seed = ad.batched_loss(pred[task], fn, truths[task])
            grads = ad.collect_gradients(net, acts, {task: seed})
            ref_value, ref = graph_gradients(net, coded, task, fn, truths[task])
            assert value == ref_value, (task, fn.__name__)
            for group in ad.GROUPS:
                assert len(grads[group]) == len(ref[group]) == 4
                for k, (a, b) in enumerate(zip(grads[group], ref[group])):
                    assert np.array_equal(a, b), (task, fn.__name__, group, k)


GRAM_REL_TOL = 1e-12


@pytest.mark.parametrize("task", ["cv", "disp"])
@pytest.mark.parametrize("n_b", [1, 3])
@pytest.mark.parametrize("dead_units", [False, True], ids=["live", "dead-units"])
def test_gradient_gram_equals_dot_products_of_flat_gradients(task, n_b, dead_units, group_slice):
    # The Gram from B x B products against explicit dot products of the
    # per-loss flat gradients over the trunk.  The last seed is all zero:
    # its row and column must be exact zeros.
    rng = np.random.default_rng(7)
    net = ad.ToyNet(dims=ORACLE_DIMS, hidden=8, head_hidden=8, seed=4)
    if dead_units:
        for group, k in (("shared", 1), ("shared", 3), ("cv", 1), ("disp", 1)):
            net.params[group][k][:3] = -1e3
    coded = rng.normal(size=(n_b,) + ORACLE_DIMS)
    cv, disp, acts = net.forward_batch(coded)
    pred = {"cv": cv, "disp": disp}[task]
    truths = [
        rng.uniform(0.2, 0.8, size=(8, 8, 3)) if task == "cv" else rng.uniform(-1, 1, size=(8, 8))
        for _ in range(n_b)
    ]
    seeds = [ad.batched_loss(pred, fn, truths)[1] for fn in HEAD_LOSSES[task]]
    seeds.append(np.zeros_like(seeds[0]))
    g = np.stack([_flat(net, acts, task, s)[group_slice(net, "shared")] for s in seeds])
    gram = ad.gradient_gram(net, acts, task, seeds)
    ref = g @ g.T
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(gram - ref) <= GRAM_REL_TOL * scale)
    assert np.all(gram[-1] == 0.0) and np.all(gram[:, -1] == 0.0)


def _flat(net, acts, task, seed):
    out = np.empty(net_size(net))
    ad.collect_gradients(net, acts, {task: seed}, out=out)
    return out


def test_zero_seed_gram_takes_the_degenerate_norm_path():
    from codedlf import multitask as mt

    net = ad.ToyNet(dims=ORACLE_DIMS, hidden=8, head_hidden=8, seed=4)
    cv, _, acts = net.forward_batch(RNG.normal(size=(2,) + ORACLE_DIMS))
    _, seed = ad.batched_loss(cv, lm.huber, [RNG.uniform(size=(8, 8, 3)) for _ in range(2)])
    gram = ad.gradient_gram(net, acts, "cv", [seed, np.zeros_like(seed)])
    assert gram[0, 0] > 0.0 and gram[1, 1] == 0.0 and gram[0, 1] == 0.0
    with pytest.warns(UserWarning, match="degenerate gradient norm"):
        alpha, beta = mt.gram_normgradsim_update(gram, np.array([0.4]), np.array([2.0]))
    assert alpha[0] == 0.4 and beta[0] == 2.0
    assert mt.gram_gradsim_weights(gram)[0] == 0.0


class TestSgdStep:
    def test_zero_lr(self):
        p = np.array([1.0, 2.0])
        ad.sgd_step(p, np.array([5.0, 5.0]), lr=0.0)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_weight_decay_scalar(self):
        p = np.array([1.0])
        ad.sgd_step(p, np.array([0.0]), lr=1.0, weight_decay=0.1)
        assert p[0] == pytest.approx(0.9)

    def test_plain_sgd(self):
        p = np.array([1.0])
        ad.sgd_step(p, np.array([0.5]), lr=0.2, weight_decay=0.0)
        assert p[0] == pytest.approx(0.9)

    def test_shape_mismatch(self):
        p = np.zeros(3)
        with pytest.raises(ValueError):
            ad.sgd_step(p, np.zeros(4), lr=0.1)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_bit_equal_to_the_decay_formula(self, weight_decay):
        # At decay 0 the step leaves out the decay term; signed zeros in p
        # and g cover the one place where g + 0 * p and g differ.  The step
        # is formed in a fresh array, in a given buffer or in g itself.
        rng = np.random.default_rng(8)
        params = [rng.normal(size=(6, 5)), rng.normal(size=7)]
        grads = [rng.normal(size=(6, 5)), rng.normal(size=7)]
        params[1][:4] = [0.0, -0.0, 0.0, -0.0]
        grads[1][:4] = [-0.0, -0.0, 0.0, 0.0]
        want = [p - 0.3 * (g + weight_decay * p) for p, g in zip(params, grads)]
        for out in ("fresh", "buffer", "gradient"):
            for p0, g0, w in zip(params, grads, want):
                p, g = p0.copy(), g0.copy()
                buf = {"fresh": None, "buffer": np.empty_like(p), "gradient": g}[out]
                ad.sgd_step(p, g, lr=0.3, weight_decay=weight_decay, out=buf)
                assert np.array_equal(p.view(np.uint64), w.view(np.uint64)), out


def test_losses_wired_through_autodiff_match_fd():
    # Each training loss through batched_loss on a batch of one: the seed
    # gradient must match central differences of the loss value.
    from codedlf import losses_metrics

    cv_truth = RNG.uniform(0.2, 0.8, size=(8, 8, 3))
    d_truth = RNG.uniform(-1, 1, size=(8, 8))
    i = np.arange(8)[:, None]
    j = np.arange(8)[None, :]
    ramp = 0.3 * i - 0.2 * j + 0.01 * RNG.uniform(-1, 1, size=(8, 8))
    cases = [
        (losses_metrics.huber, RNG.uniform(0.2, 0.8, size=(8, 8, 3)), cv_truth),
        (losses_metrics.ssim_loss, RNG.uniform(0.2, 0.8, size=(8, 8, 3)), cv_truth),
        (losses_metrics.spectral_cos_loss, RNG.uniform(0.2, 0.8, size=(8, 8, 3)), cv_truth),
        (losses_metrics.tv_smoothness, ramp, d_truth),
        (losses_metrics.normal_similarity, RNG.uniform(-1, 1, size=(8, 8)), d_truth),
    ]
    h = 1e-4
    for fn, pred_val, truth in cases:
        _, seed = ad.batched_loss(pred_val[None], fn, [truth])
        for i in RNG.choice(pred_val.size, size=6, replace=False):
            p = pred_val.ravel().copy()
            p[i] += h
            f1 = fn(p.reshape(pred_val.shape)[None], truth[None]).value
            p[i] -= 2 * h
            f2 = fn(p.reshape(pred_val.shape)[None], truth[None]).value
            fd = (f1 - f2) / (2 * h)
            an = seed[0].ravel()[i]
            assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an), 1e-6), fn.__name__


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:-4], "payload holds"),
    (lambda raw: raw + b"\x00\x00", "2 trailing bytes"),
    (lambda raw: raw[:-4] + np.array([np.nan], "<f4").tobytes(), "non-finite"),
    (lambda raw: raw[:20], "incomplete header"),
    (lambda raw: raw.replace(b'"hidden"', b'"hiddeN"'), "malformed network spec"),
], ids=["truncated", "trailing", "nan", "short-spec", "bad-spec"])
def test_lfnn_malformed_file_rejected(tmp_path, edit, message):
    path = tmp_path / "n.lfnn"
    ad.save_net(make_net(seed=5), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        ad.load_net(path)


@pytest.mark.parametrize("value", [np.nan, 1e39], ids=["nan", "float32-overflow"])
def test_lfnn_writer_refuses_what_reader_rejects(tmp_path, value):
    net = make_net(seed=5)
    net.params["disp"][-1].flat[0] = value  # 1e39 is finite in float64, inf in float32
    path = tmp_path / "n.lfnn"
    with pytest.raises(ValueError, match="non-finite"):
        ad.save_net(net, path)
    assert not path.exists()


def test_lfnn_round_trip(tmp_path):
    net = make_net(seed=5)
    path = tmp_path / "n.lfnn"
    ad.save_net(net, path)
    assert path.read_bytes()[:4] == b"LFNN"
    back = ad.load_net(path)
    assert back.dims == net.dims
    x = RNG.normal(size=DIMS)
    a = ad.forward(net, x)
    b = ad.forward(back, x)
    # parameters pass through float32 storage
    np.testing.assert_allclose(a[0], b[0], atol=1e-4)
    np.testing.assert_allclose(a[1], b[1], atol=1e-4)
