"""The benchmark's span tracer still finds every function it patches.

`bench/tracing.py` wraps public functions of the package by name from
outside `src/`.  A rename or a signature change there would otherwise show
only in a traced benchmark run; these tests make it fail here.
"""

import importlib.util
import os

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import coding, cs_dict, scenegen
from codedlf import multitask as mt

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_install_wraps_every_hook_and_restore_puts_originals_back(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        hooks = list(tracer._restore)
        assert hooks
        for owner, key, original in hooks:
            current = _current(owner, key)
            if isinstance(owner, dict):  # multitask.AUX_LOSSES entries
                assert [fn.__wrapped__ for _, fn in current] == [fn for _, fn in original]
            else:
                assert current.__wrapped__ is original, key
    finally:
        tracer.restore()
    for owner, key, original in hooks:
        assert _current(owner, key) is original, key


def test_training_under_tracer_records_autodiff_spans(tracing):
    dims = (3, 3, 8, 8, 3)
    dataset = mt.make_toy_dataset(10, dims, seed=3)
    cfg = mt.TrainConfig(strategy="mtu+al", epochs=1, batch_size=4, lr=0.05, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "op-0"
        _, logs = mt.train(ad.ToyNet(dims=dims, hidden=8, head_hidden=8, seed=1), dataset, cfg)
    finally:
        tracer.restore()
    assert len(logs) == 1 and np.isfinite(logs[0].loss_cv)
    names = [span["name"] for span in tracer.spans]
    # 8 training samples in batches of 4; per batch one forward, six losses
    # (two main, four auxiliary), each one batched call, and one backward
    # pass of the combined seeds.  Validation forwards the 2 held-out
    # samples in one batch and takes their two batched Huber losses.
    n_batches = 2
    assert names.count("multitask.validate") == 1
    assert names.count("autodiff.forward_batch") == n_batches + 1
    assert names.count("autodiff.batched_loss") == 6 * n_batches
    assert names.count("autodiff.collect_gradients") == n_batches
    assert names.count("autodiff.sgd_step") == n_batches
    assert names.count("losses_metrics.huber") == 2 * n_batches + 2
    for loss in ("ssim_loss", "spectral_cos_loss", "tv_smoothness", "normal_similarity"):
        assert names.count(f"losses_metrics.{loss}") == n_batches, loss
    layers = tracer.per_layer(n_ops=1, n_setups=1)
    assert layers["autodiff.collect_gradients.calls"] == n_batches
    assert layers["multitask.epochs"] == 1


def test_dictionary_training_and_solve_record_their_spans(tracing):
    # The dict-fista per-layer metrics read these spans: the set-up metric
    # cs_dict.lipschitz_bound.calls (one bound per training batch) and, per
    # reconstruction, one patch and one depatch.
    dims = (3, 3, 8, 8, 3)
    cv, disp = scenegen.make_scene(scenegen.SceneSpec(dims=dims, pattern="random-smooth", seed=2))
    lf = scenegen.render_lightfield(cv, disp, 3, 3)
    g = cs_dict.make_patch_grid(dims, (2, 2, 4, 4, 3), (1, 1), (0, 0))
    m = coding.random_mask(8, 8, 3, seed=5)
    lp = coding.project(coding.encode(lf, m))
    batch_size, n_ops = 16, 2
    n_batches = -(-g.n_patches // batch_size)
    hooks = ("train_dictionary", "lipschitz_bound", "dict_reconstruct", "patch", "depatch")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in hooks:
            assert hasattr(getattr(cs_dict, fn), "__wrapped__"), fn
        tracer.op = "setup-0"
        d, _ = cs_dict.train_dictionary(
            [lf], g, k=2.0, lam=0.2, lr=0.3, batch_size=batch_size, fista_iters=10, epochs=1,
        )
        for i in range(n_ops):
            tracer.op = f"op-{i}"
            rec, _ = cs_dict.dict_reconstruct(lp, m, d, g, 3e-3, 50)
    finally:
        tracer.restore()
    assert rec.shape == dims and np.all(np.isfinite(rec))
    counts = {}
    for span in tracer.spans:
        key = (span["op"], span["name"])
        counts[key] = counts.get(key, 0) + 1
    assert counts[("setup-0", "cs_dict.train_dictionary")] == 1
    assert counts[("setup-0", "cs_dict.lipschitz_bound")] == n_batches
    for i in range(n_ops):
        for fn, calls in (("dict_reconstruct", 1), ("patch", 1), ("depatch", 1),
                          ("lipschitz_bound", 0)):
            assert counts.get((f"op-{i}", f"cs_dict.{fn}"), 0) == calls, (i, fn)
    layers = tracer.per_layer(n_ops=n_ops, n_setups=1)
    assert layers["cs_dict.lipschitz_bound.calls"] == n_batches
    assert layers["cs_dict.patch.calls"] == 1
    assert layers["cs_dict.train_dictionary.s"] > 0 and layers["cs_dict.depatch.s"] > 0
