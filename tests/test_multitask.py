"""Weighting-strategy algebra and training-loop contracts."""

import dataclasses

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import cli, coding
from codedlf import multitask as mt

RNG = np.random.default_rng(31)


def _gram(g_main, g_aux):
    """The Gram of the gradients [g_main, *g_aux] that the strategy rules read."""
    g = np.stack([g_main, *g_aux])
    return g @ g.T


class TestCombineNaive:
    """Static task weights: train scales each task's gradients by these."""

    def test_baseline_half_half(self):
        w = np.array(mt.STRATEGIES["naive"].weights)
        assert w @ np.array([2.0, 4.0]) == pytest.approx(3.0)

    def test_single_task_weights(self):
        cv_only = np.array(mt.STRATEGIES["st-cv"].weights)
        disp_only = np.array(mt.STRATEGIES["st-disp"].weights)
        assert cv_only @ np.array([2.0, 100.0]) == pytest.approx(2.0)
        assert disp_only @ np.array([100.0, 2.0]) == pytest.approx(2.0)

    def test_convex_weights_preserve_equal_losses(self):
        for strategy in ("naive", "st-cv", "st-disp"):
            w = np.array(mt.STRATEGIES[strategy].weights)
            assert w @ np.array([5.0, 5.0]) == pytest.approx(5.0)


def test_strategy_table_names_and_rows():
    assert list(mt.STRATEGIES) == [
        "st-cv", "st-disp", "naive", "mtu", "gradnorm", "gradsim", "normgradsim", "mtu+al",
    ]
    for name, row in mt.STRATEGIES.items():
        assert row.weights in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)), name
        assert row.weighting in (None, "mtu", "gradnorm"), name
        assert row.aux in (None, "gradsim", "normgradsim"), name


class TestMtu:
    def test_zero_s_gives_half_sum(self):
        state = mt.MtuState.initial()
        total, _ = mt.mtu_loss(np.array([2.0, 4.0]), state)
        assert total == pytest.approx(3.0)

    def test_gradient_form(self):
        state = mt.MtuState(s=np.array([0.3, -0.2]))
        losses = np.array([1.5, 0.7])
        _, ds = mt.mtu_loss(losses, state)
        expect = 0.5 * (1.0 - np.exp(-state.s) * losses)
        np.testing.assert_allclose(ds, expect, atol=1e-14)

    def test_stationarity_weights_inverse_to_losses(self):
        losses = np.array([4.0, 1.0])
        state = mt.MtuState.initial()
        for _ in range(400):
            _, ds = mt.mtu_loss(losses, state)
            state.s -= 0.5 * ds
        np.testing.assert_allclose(np.exp(-state.s) * losses, 1.0, atol=1e-3)
        w = np.exp(-state.s)
        assert w[0] / w[1] == pytest.approx((1.0 / losses[0]) / (1.0 / losses[1]), rel=1e-3)

    def test_effective_weights_positive_for_finite_s(self):
        for s in (-30.0, -1.0, 0.0, 2.5, 40.0):
            state = mt.MtuState(s=np.array([s]))
            assert mt.mtu_effective_weights(state)[0] > 0.0


class TestGradNorm:
    def test_identical_tasks_fixed_point(self):
        state = mt.GradNormState.initial(gamma=1.5, lr=0.1)
        tw = mt.gradnorm_update(np.array([3.0, 3.0]), np.array([1.0, 1.0]), state)
        np.testing.assert_allclose(tw, 1.0, atol=1e-12)

    def test_gamma_zero_static_norms_fixed_point(self):
        # norms (2, 1), equal loss ratios: fixed point (2/3, 4/3).
        state = mt.GradNormState.initial(gamma=0.0, lr=0.002)
        losses = np.array([1.0, 1.0])
        norms = np.array([2.0, 1.0])
        for _ in range(3000):
            mt.gradnorm_update(norms, losses, state)
        np.testing.assert_allclose(state.weights, [2.0 / 3.0, 4.0 / 3.0], atol=1e-2)
        assert state.weights.sum() == pytest.approx(2.0)

    def test_zero_norms_skipped_with_warning(self):
        state = mt.GradNormState.initial()
        with pytest.warns(UserWarning):
            tw = mt.gradnorm_update(np.zeros(2), np.ones(2), state)
        np.testing.assert_allclose(tw, 1.0)


class TestGradSim:
    def test_identical_gradient(self):
        g = RNG.normal(size=50)
        assert mt.gram_gradsim_weights(_gram(g, [g]))[0] == pytest.approx(1.0)

    def test_opposed_gradient_truncated(self):
        g = RNG.normal(size=50)
        assert mt.gram_gradsim_weights(_gram(g, [-g]))[0] == 0.0

    def test_orthogonal_gradient(self):
        g = np.zeros(4)
        g[0] = 1.0
        h = np.zeros(4)
        h[1] = 1.0
        assert mt.gram_gradsim_weights(_gram(g, [h]))[0] == 0.0

    def test_zero_norm_gives_zero(self):
        g = RNG.normal(size=10)
        assert mt.gram_gradsim_weights(_gram(g, [np.zeros(10)]))[0] == 0.0
        assert mt.gram_gradsim_weights(_gram(np.zeros(10), [g]))[0] == 0.0

    def test_weights_always_in_unit_interval(self):
        for _ in range(50):
            g = RNG.normal(size=16)
            aux = [RNG.normal(size=16) for _ in range(3)]
            w = mt.gram_gradsim_weights(_gram(g, aux))
            assert np.all(w >= 0.0) and np.all(w <= 1.0)


class TestNormGradSim:
    def test_alpha_beta_converge_to_one_for_identical(self):
        g = RNG.normal(size=64)
        alpha = np.zeros(1)
        beta = np.ones(1) * 3.0
        for _ in range(200):
            alpha, beta = mt.gram_normgradsim_update(_gram(g, [g]), alpha, beta, step=0.1)
        assert abs(alpha[0] - 1.0) <= 1e-3
        assert abs(beta[0] - 1.0) <= 1e-3

    def test_adversarial_aux_gated_off(self):
        g = RNG.normal(size=64)
        alpha = np.ones(1)
        beta = np.ones(1)
        for _ in range(200):
            alpha, beta = mt.gram_normgradsim_update(_gram(g, [-g]), alpha, beta, step=0.1)
        assert alpha[0] == 0.0

    def test_beta_converges_to_norm_ratio(self):
        g = RNG.normal(size=64)
        big = 10.0 * g
        alpha = np.zeros(1)
        beta = np.ones(1)
        for _ in range(200):
            alpha, beta = mt.gram_normgradsim_update(_gram(g, [big]), alpha, beta, step=0.1)
        assert abs(beta[0] - 0.1) <= 1e-3

    def test_degenerate_norm_skipped(self):
        g = RNG.normal(size=8)
        with pytest.warns(UserWarning):
            alpha, beta = mt.gram_normgradsim_update(
                _gram(g, [np.zeros(8)]), np.array([0.4]), np.array([2.0]), step=0.1
            )
        assert alpha[0] == pytest.approx(0.4)
        assert beta[0] == pytest.approx(2.0)

    def test_loss_all_alpha_zero_is_main(self):
        val = mt.normgradsim_loss(1.7, np.array([9.0, 9.0]), np.zeros(2), np.ones(2))
        assert val == pytest.approx(1.7)

    def test_loss_single_aux_equal_main(self):
        val = mt.normgradsim_loss(2.0, np.array([2.0]), np.ones(1), np.ones(1))
        assert val == pytest.approx(2.0)

    def test_gradient_scale_invariant_parallel_aux(self):
        # Aux gradient parallel with 10x the norm; at the beta fixed point
        # the combined gradient has the main gradient's scale.
        g_main = RNG.normal(size=128)
        g_aux = 10.0 * g_main
        alpha = np.zeros(1)
        beta = np.ones(1)
        for _ in range(300):
            alpha, beta = mt.gram_normgradsim_update(_gram(g_main, [g_aux]), alpha, beta)
        c_main, c_aux = mt.normgradsim_coefficients(alpha, beta)
        combined = c_main * g_main + c_aux[0] * g_aux
        assert np.linalg.norm(combined) <= 1.05 * np.linalg.norm(g_main)


class TestCombinedLoss:
    """The per-loss linear assembly train uses for the normalized strategies:
    task weight times (c_main L_main + c_aux . L_aux) per task."""

    def test_collapses_to_naive_when_alpha_zero(self):
        mains = np.array([2.0, 4.0])
        aux = np.array([9.0, 9.0])
        c_main, c_aux = mt.normgradsim_coefficients(np.zeros(2), np.array([3.0, 0.5]))
        assert c_main == 1.0
        np.testing.assert_array_equal(c_aux, [0.0, 0.0])
        total = sum(0.5 * (c_main * l_main + c_aux @ aux) for l_main in mains)
        assert total == pytest.approx(3.0)

    def test_single_task_single_aux_reduces_to_task_form(self):
        cases = [
            (3.0, [1.0], [1.0], [2.0], (3.0 + 2.0) / 2.0),
            (2.0, [9.0, 9.0], [0.0, 0.0], [1.0, 1.0], 2.0),
            (1.3, [0.4, 2.2], [0.25, 0.8], [1.7, 0.3], None),
        ]
        for l_main, l_aux, alpha, beta, expect in cases:
            l_aux, alpha, beta = map(np.array, (l_aux, alpha, beta))
            c_main, c_aux = mt.normgradsim_coefficients(alpha, beta)
            task_loss = mt.normgradsim_loss(l_main, l_aux, alpha, beta)
            assert c_main * l_main + c_aux @ l_aux == pytest.approx(task_loss, rel=1e-14)
            if expect is not None:
                assert task_loss == pytest.approx(expect)


DIMS = (3, 3, 8, 8, 5)


@pytest.fixture(scope="module")
def toy_dataset():
    return mt.make_toy_dataset(60, DIMS, seed=5)


class TestTrain:
    def test_deterministic_logs(self, toy_dataset):
        cfg = mt.TrainConfig(strategy="naive", epochs=2, lr=0.1, momentum=0.9, seed=4)
        _, logs1 = mt.train(ad.ToyNet(dims=DIMS, seed=1), toy_dataset, cfg)
        _, logs2 = mt.train(ad.ToyNet(dims=DIMS, seed=1), toy_dataset, cfg)
        assert [dataclasses.asdict(l) for l in logs1] == [dataclasses.asdict(l) for l in logs2]

    def test_single_task_leaves_other_head_untouched(self, toy_dataset):
        net = ad.ToyNet(dims=DIMS, seed=2)
        before = [p.copy() for p in net.params["disp"]]
        cfg = mt.TrainConfig(strategy="st-cv", epochs=2, lr=0.1, momentum=0.9, seed=4)
        net, _ = mt.train(net, toy_dataset, cfg)
        for p, b in zip(net.params["disp"], before):
            assert np.array_equal(p, b)

        net = ad.ToyNet(dims=DIMS, seed=2)
        before = [p.copy() for p in net.params["cv"]]
        cfg = mt.TrainConfig(strategy="st-disp", epochs=2, lr=0.1, momentum=0.9, seed=4)
        net, _ = mt.train(net, toy_dataset, cfg)
        for p, b in zip(net.params["cv"], before):
            assert np.array_equal(p, b)

    def test_log_schema(self, toy_dataset):
        cfg = mt.TrainConfig(strategy="normgradsim", epochs=1, lr=0.1, seed=4)
        _, logs = mt.train(ad.ToyNet(dims=DIMS, seed=1), toy_dataset, cfg)
        entry = dataclasses.asdict(logs[0])
        assert set(entry) == {
            "epoch", "loss_cv", "loss_disp", "alphas", "betas", "task_weights",
        }
        assert set(entry["alphas"]) == {"cv", "disp"}
        assert len(entry["task_weights"]) == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            mt.TrainConfig(strategy="bogus")

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            mt.TrainConfig(epochs=2.5)
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            mt.TrainConfig(batch_size=8.0)

    def test_non_finite_validation_loss_raises_at_its_epoch(self):
        # The first SGD step overflows the disparity head: epoch 0 validates
        # to inf and every later epoch to NaN.  These logs used to be
        # returned; the first one now raises.
        dims = (3, 3, 8, 8, 5)
        cfg = mt.TrainConfig(strategy="naive", epochs=4, lr=1e100, momentum=0.0, seed=0)
        net = ad.ToyNet(dims=dims, hidden=4, head_hidden=4, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^validation losses \S+, inf at epoch 0$"
        ):
            mt.train(net, mt.make_toy_dataset(10, dims, seed=99), cfg)

    def test_combined_loss_finite_for_all_strategies(self, toy_dataset):
        for strategy in mt.STRATEGIES:
            cfg = mt.TrainConfig(strategy=strategy, epochs=1, lr=0.05, seed=3)
            _, logs = mt.train(ad.ToyNet(dims=DIMS, seed=1), toy_dataset[:24], cfg)
            assert np.isfinite(logs[-1].loss_cv)
            assert np.isfinite(logs[-1].loss_disp)
            assert np.all(np.isfinite(logs[-1].task_weights))


def test_baseline_losses_shapes(toy_dataset):
    cv_b, disp_b = mt.baseline_losses(toy_dataset[:-10], toy_dataset[-10:])
    assert cv_b > 0 and disp_b > 0


# Gram statistics and one backward per batch against the per-loss oracle:
# the summation order differs, so the logs and the trained parameters agree
# to a stated relative tolerance rather than bit for bit.
ORACLE_REL_TOL = 1e-10


def _assert_close(actual, expected, what):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    assert actual.shape == expected.shape, what
    err = np.abs(actual - expected)
    assert np.all(err <= ORACLE_REL_TOL * np.abs(expected)), (what, float(err.max()))


def _assert_train_matches_oracle(dataset, per_loss_training, cfg):
    net, logs = mt.train(ad.ToyNet(dims=DIMS, seed=3), dataset, cfg)
    ref_net, ref_logs = per_loss_training(ad.ToyNet(dims=DIMS, seed=3), dataset, cfg)
    assert len(logs) == len(ref_logs) == cfg.epochs
    for log, ref in zip(logs, ref_logs):
        for key in ("loss_cv", "loss_disp", "task_weights"):
            _assert_close(getattr(log, key), getattr(ref, key), (log.epoch, key))
        for key in ("alphas", "betas"):
            for task in mt.TASKS:
                _assert_close(getattr(log, key)[task], getattr(ref, key)[task], (key, task))
    for group in ad.GROUPS:
        for k, (p, q) in enumerate(zip(net.params[group], ref_net.params[group])):
            _assert_close(p, q, (group, k))


# The case ids name the shared trunk, over which the strategy statistics run.
@pytest.mark.parametrize("strategy", mt.STRATEGIES, ids=[f"{s}-shared" for s in mt.STRATEGIES])
def test_train_matches_per_loss_oracle(toy_dataset, per_loss_training, strategy):
    cfg = mt.TrainConfig(
        strategy=strategy, epochs=2, batch_size=8, lr=0.05, momentum=0.9, seed=6
    )
    _assert_train_matches_oracle(toy_dataset[:30], per_loss_training, cfg)


def test_train_without_momentum_matches_per_loss_oracle(toy_dataset, per_loss_training):
    # Without momentum the SGD step reads the gradient vector itself.
    cfg = mt.TrainConfig(strategy="mtu+al", epochs=2, batch_size=8, lr=0.05, seed=6)
    _assert_train_matches_oracle(toy_dataset[:30], per_loss_training, cfg)


def test_derive_seed_matches_numpy_oracle(seed_oracle):
    # Zero, negative and over-wide parts wrap modulo 2**64 the same way; the
    # training tuples are the benchmark's (seed, 2, epoch, sample).
    cases = [(), (0,), (0, 0), (-1,), (5, -7, 3), (2**64 + 5,), (2**64 + 5, -(2**63)),
             (1, 0xD5), (4243, 1, 47)]
    cases += [(seed, 2, epoch, i) for seed in (0, 1, 4243) for epoch in range(5)
              for i in range(0, 200, 7)]
    for parts in cases:
        got = mt._derive_seed(*parts)
        assert type(got) is int and 0 <= got < 2**64
        assert got == seed_oracle(*parts), parts


# Validation scores the coded split with one batched forward, which rounds
# differently from one sample at a time.
VALIDATION_REL_TOL = 1e-12


def _assert_validation_close(actual, expected):
    for a, e in zip(actual, expected):
        assert abs(a - e) <= VALIDATION_REL_TOL * abs(e), (actual, expected)


def test_validate_matches_per_sample_oracle(toy_dataset, validate_oracle):
    val = toy_dataset[-12:]
    lightfields, cv, disp = mt._stack(val)
    masks = coding.random_masks(*DIMS[2:], [mt._derive_seed(7, 1, i) for i in range(len(val))])
    coded = coding.encode_batch(lightfields, masks)
    for net_seed in (1, 2):
        net = ad.ToyNet(dims=DIMS, seed=net_seed)
        _assert_validation_close(mt.validate(net, coded, cv, disp), validate_oracle(net, val, 7))


@pytest.mark.parametrize("strategy", ["naive", "mtu+al"])
def test_logged_validation_losses_match_per_sample_oracle(toy_dataset, validate_oracle, strategy):
    dataset = toy_dataset[:30]
    cfg = mt.TrainConfig(strategy=strategy, epochs=2, batch_size=8, lr=0.05, momentum=0.9, seed=6)
    net, logs = mt.train(ad.ToyNet(dims=DIMS, seed=3), dataset, cfg)
    val = dataset[-round(len(dataset) * mt.VAL_FRACTION):]
    _assert_validation_close(
        (logs[-1].loss_cv, logs[-1].loss_disp), validate_oracle(net, val, cfg.seed)
    )


def test_benchmark_training_writes_the_per_sample_oracle_net(tmp_path, monkeypatch, mask_oracle,
                                                            encode_oracle):
    # The benchmark's train-toy run, once as it is and once with every mask
    # drawn and every sample coded on its own: the same training batches
    # give the same .lfnn bytes.
    argv = ["train-toy", "--strategy", "mtu+al", "--epochs", "5", "--scenes", "200",
            "--dims", "3,3,8,8,5", "--batch-size", "8", "--seed", "0", "--data-seed", "99"]

    def train_toy(name):
        out = tmp_path / f"{name}.lfnn"
        assert cli.main(argv + ["--log", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        return out.read_bytes()

    batched = train_toy("batched")
    monkeypatch.setattr(coding, "random_masks", lambda n_s, n_t, n_c, seeds: np.stack(
        [mask_oracle(n_s, n_t, n_c, seed) for seed in seeds]))
    monkeypatch.setattr(coding, "encode_batch", lambda lfs, masks: np.stack(
        [encode_oracle(l, m) for l, m in zip(lfs, masks)]))
    assert train_toy("per-sample") == batched
