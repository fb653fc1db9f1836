"""Autodiff primitives, network forward/backward, and LFNN persistence."""

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import losses_metrics as lm

RNG = np.random.default_rng(77)
DIMS = (3, 3, 4, 4, 2)


def make_net(seed=1):
    return ad.ToyNet(dims=DIMS, hidden=8, head_hidden=8, seed=seed)


def full_loss(net, coded, cv_t, d_t):
    cv, disp = net.forward_batch(coded)
    return ad.add(
        ad.batched_loss(cv, lm.huber, cv_t), ad.batched_loss(disp, lm.huber, d_t)
    )


class TestPrimitives:
    def test_matmul_analytic(self):
        w = ad.parameter(RNG.normal(size=(3, 4)))
        x = ad.Node(RNG.normal(size=(4, 1)))
        y = ad.matmul(w, x)
        loss = ad.mean(ad.mul(y, y))  # ||Wx||^2 / 3
        ad.backward(loss)
        expected = (2.0 / 3.0) * (w.value @ x.value) @ x.value.T
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_primitive_gradients_match_fd(self):
        # One composite expression through every primitive.
        a = ad.parameter(RNG.normal(size=(3, 5)))
        b = ad.parameter(RNG.normal(size=(5, 4)))
        bias = ad.parameter(RNG.normal(size=4))

        def build():
            z = ad.add(ad.matmul(a, b), bias)
            z = ad.relu(z)
            z = ad.mul(z, z)
            z = ad.reshape(z, (12, 1))
            return ad.mean(z)

        loss = build()
        ad.zero_grads([a, b, bias])
        ad.backward(loss)
        h = 1e-6
        for p in (a, b, bias):
            flat = p.value.ravel()
            for i in RNG.choice(flat.size, size=4, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                f1 = build().value
                flat[i] = orig - h
                f2 = build().value
                flat[i] = orig
                fd = (f1 - f2) / (2 * h)
                an = p.grad.ravel()[i]
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))

    def test_backward_requires_scalar(self):
        x = ad.Node(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(x)

    def test_double_backward_accumulates(self):
        w = ad.parameter(RNG.normal(size=(2, 2)))
        x = ad.Node(RNG.normal(size=(2, 1)))
        loss = ad.mean(ad.mul(ad.matmul(w, x), ad.matmul(w, x)))
        ad.backward(loss)
        g1 = w.grad.copy()
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, 2 * g1, atol=1e-14)
        ad.zero_grads([w])
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, g1, atol=1e-14)


class TestToyNet:
    def test_output_shapes(self):
        net = make_net()
        cv, disp = ad.forward(net, RNG.normal(size=DIMS))
        assert cv.shape == (4, 4, 2)
        assert disp.shape == (4, 4)

    def test_zero_weights_zero_outputs(self):
        net = make_net()
        for p in net.all_params():
            p.value[:] = 0.0
        cv, disp = ad.forward(net, RNG.normal(size=DIMS))
        assert np.all(cv == 0.0) and np.all(disp == 0.0)

    def test_forward_deterministic(self):
        net = make_net()
        x = RNG.normal(size=DIMS)
        a = ad.forward(net, x)
        b = ad.forward(net, x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dim_mismatch(self):
        net = make_net()
        with pytest.raises(ValueError):
            ad.forward(net, RNG.normal(size=(3, 3, 5, 4, 2)))

    def test_full_network_fd_per_group(self):
        net = make_net()
        coded = RNG.normal(size=(2,) + DIMS)
        cv_t = [RNG.uniform(0.2, 0.8, size=(4, 4, 2)) for _ in range(2)]
        d_t = [RNG.uniform(-1, 1, size=(4, 4)) for _ in range(2)]
        grads = ad.collect_gradients(net, full_loss(net, coded, cv_t, d_t))
        h = 1e-3
        for group in ("shared", "cv", "disp"):
            for pi, p in enumerate(net.params[group]):
                flat = p.value.ravel()
                for i in RNG.choice(flat.size, size=min(10, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    f1 = full_loss(net, coded, cv_t, d_t).value
                    flat[i] = orig - h
                    f2 = full_loss(net, coded, cv_t, d_t).value
                    flat[i] = orig
                    fd = (f1 - f2) / (2 * h)
                    an = grads[group][pi].ravel()[i]
                    assert abs(fd - an) <= 1e-3 * max(abs(fd), abs(an), 1e-4)

    def test_unreached_parameters_get_zero(self):
        net = make_net()
        coded = RNG.normal(size=(1,) + DIMS)
        cv, _ = net.forward_batch(coded)
        loss = ad.batched_loss(cv, lm.huber, [RNG.uniform(size=(4, 4, 2))])
        grads = ad.collect_gradients(net, loss)
        for g in grads["disp"]:
            assert np.all(g == 0.0)


class TestSgdStep:
    def test_zero_lr(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        ad.sgd_step([p], [np.array([5.0, 5.0])], lr=0.0)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_weight_decay_scalar(self):
        p = ad.parameter(np.array([1.0]))
        ad.sgd_step([p], [np.array([0.0])], lr=1.0, weight_decay=0.1)
        assert p.value[0] == pytest.approx(0.9)

    def test_plain_sgd(self):
        p = ad.parameter(np.array([1.0]))
        ad.sgd_step([p], [np.array([0.5])], lr=0.2, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.9)

    def test_shape_mismatch(self):
        p = ad.parameter(np.zeros(3))
        with pytest.raises(ValueError):
            ad.sgd_step([p], [np.zeros(4)], lr=0.1)


def test_losses_wired_through_autodiff_match_fd():
    # Each training loss as a graph node: the seeded backward gradient must
    # match central differences of the node value end to end.
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
        pred = ad.parameter(pred_val)
        node = ad.attach_loss(pred, fn, truth)
        ad.zero_grads([pred])
        ad.backward(node)
        for i in RNG.choice(pred_val.size, size=6, replace=False):
            p = pred_val.ravel().copy()
            p[i] += h
            f1 = fn(p.reshape(pred_val.shape), truth, with_grad=False).value
            p[i] -= 2 * h
            f2 = fn(p.reshape(pred_val.shape), truth, with_grad=False).value
            fd = (f1 - f2) / (2 * h)
            an = pred.grad.ravel()[i]
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
