"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Bounds involving solver output were frozen from
long-run solves during development and are asserted at their stated
tolerances here; nothing is calibrated at test time.
"""

import contextlib
import filecmp
import json
import time

import numpy as np
import pytest

from codedlf import autodiff as ad
from codedlf import calib, cli, coding, cs_dct, cs_dict, scenegen, tensor, transforms
from codedlf import losses_metrics as lm
from codedlf import multitask as mt


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def test_criterion_01_coding_laws():
    with criterion(1, "one-hot masks and bit-exact lift/project/encode"):
        for seed in range(100):
            m = coding.random_mask(8, 8, 5, seed)
            assert np.all((m == 0.0) | (m == 1.0))
            assert np.all(m.sum(axis=-1) == 1.0)
        rng = np.random.default_rng(0)
        for seed in range(20):
            l = rng.normal(size=(3, 3, 8, 8, 5)).astype(np.float32)
            m = coding.random_mask(8, 8, 5, seed)
            coded = coding.encode(l, m)
            lifted = coding.lift(coding.project(coded), m)
            assert np.array_equal(bits(lifted), bits(coded))


def test_criterion_02_transform_correctness():
    with criterion(2, "5D-DCT round trip, adjoint, fidelity gradient"):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 3, 8, 8, 5)).astype(np.float32)
        back = transforms.dct5_inverse(transforms.dct5_forward(t))
        assert np.linalg.norm(back - t) / np.linalg.norm(t) <= 1e-5

        a = rng.normal(size=(2, 3, 4, 5, 3))
        l = rng.normal(size=(2, 3, 4, 5, 3))
        lhs = np.vdot(transforms.dct5_inverse(a), l)
        rhs = np.vdot(a, transforms.dct5_forward(l))
        assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs))

        shape = (1, 1, 4, 4, 3)
        mask = coding.random_mask(4, 4, 3, seed=3)
        l_star = coding.encode(
            rng.uniform(size=shape).astype(np.float32), mask
        ).astype(np.float64)
        alpha = rng.normal(size=shape)
        fid = transforms.ObservedFidelity(l_star, mask)
        g = fid.gradient(fid.residual(alpha))
        h = 1e-3
        flat = alpha.ravel()
        for i in range(flat.size):
            p = flat.copy()
            p[i] += h
            f1 = fid.value(fid.residual(p.reshape(shape)))
            p[i] -= 2 * h
            f2 = fid.value(fid.residual(p.reshape(shape)))
            fd = (f1 - f2) / (2 * h)
            assert abs(fd - g.ravel()[i]) <= 1e-4 * max(1.0, abs(fd))


def _freq_envelope(shape, decay):
    f = np.zeros(shape)
    for axis, n in enumerate(shape):
        ax = np.arange(n) / max(n - 1, 1)
        sl = [None] * 5
        sl[axis] = slice(None)
        f = f + ax[tuple(sl)]
    return np.exp(-decay * f)


def test_criterion_03_owlqn():
    with criterion(3, "OWL-QN monotone, full-observation and sparse recovery"):
        # lam = 0, all-pass (single-channel) coding
        rng = np.random.default_rng(0)
        l = rng.uniform(size=(3, 3, 8, 8, 1)).astype(np.float32)
        m1 = coding.random_mask(8, 8, 1, 0)
        lp = coding.project(coding.encode(l, m1))
        rec, rep = cs_dct.owlqn_reconstruct(lp, m1, cs_dct.OwlqnOptions(lam=0.0))
        assert np.linalg.norm((rec - l).ravel()) / np.linalg.norm(l.ravel()) <= 1e-4
        assert all(b <= a + 1e-9 for a, b in zip(rep.objectives, rep.objectives[1:]))

        # 5%-sparse coefficients (frequency-decaying amplitudes), one-hot
        # coding at 5 channels; bound frozen from long-run solves.
        shape = (5, 5, 16, 16, 5)
        n = int(np.prod(shape))
        k = int(round(0.05 * n))
        rng = np.random.default_rng(7)
        alpha = np.zeros(n)
        alpha[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
        alpha = alpha.reshape(shape) * _freq_envelope(shape, 3.0)
        truth = transforms.dct5_inverse(alpha).astype(np.float32)
        mask = coding.random_mask(16, 16, 5, seed=3)
        lp = coding.project(coding.encode(truth, mask))
        opts = cs_dct.OwlqnOptions(lam=3e-4, max_iters=500, grad_tol=3e-6)
        t0 = time.monotonic()
        rec, rep = cs_dct.owlqn_reconstruct(lp, mask, opts)
        elapsed = time.monotonic() - t0
        rel = np.linalg.norm((rec - truth).ravel()) / np.linalg.norm(truth.ravel())
        assert rel <= 5e-2
        assert rep.iterations <= 500
        assert elapsed <= 60.0
        assert all(b <= a + 1e-9 for a, b in zip(rep.objectives, rep.objectives[1:]))


def test_criterion_04_fista(ista_oracle, coding_objective):
    with criterion(4, "FISTA identity closed form and advantage over ISTA"):
        rng = np.random.default_rng(2)
        d = cs_dict.Dictionary(atoms=np.eye(12))
        x = rng.normal(size=12)
        lam = 0.3
        a = cs_dict.fista_encode(d, x, lam, iters=100)
        expect = np.sign(x) * np.maximum(np.abs(x) - lam / 2.0, 0.0)
        assert np.abs(a - expect).max() <= 1e-6

        for _ in range(20):
            atoms = rng.normal(size=(20, 40))
            atoms /= np.linalg.norm(atoms, axis=0)
            d = cs_dict.Dictionary(atoms=atoms)
            x = rng.normal(size=20)
            fa = cs_dict.fista_encode(d, x, 0.1, iters=50)
            ia = ista_oracle(d, x, 0.1, iters=50)
            assert coding_objective(d, x, fa, 0.1) <= coding_objective(d, x, ia, 0.1) + 1e-12


def test_criterion_05_dictionary_pipeline():
    with criterion(5, "patch identity, atom norms, dictionary recovery"):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(3, 3, 10, 10, 4)).astype(np.float32)
        g = cs_dict.make_patch_grid(t.shape, (2, 2, 4, 4, 4), (2, 2), (1, 1))
        assert np.abs(cs_dict.depatch(cs_dict.patch(t, g), g) - t).max() <= 1e-6

        # synthetic recovery: 3-sparse codes over a known 2N-atom dictionary
        atom_dims = (1, 1, 4, 4, 2)
        n_feat = int(np.prod(atom_dims))
        truth = rng.normal(size=(n_feat, 2 * n_feat))
        truth /= np.linalg.norm(truth, axis=0)
        n_samples = 600
        codes = np.zeros((2 * n_feat, n_samples))
        for i in range(n_samples):
            sup = rng.choice(2 * n_feat, 3, replace=False)
            codes[sup, i] = rng.normal(size=3)
        signals = truth @ codes
        dataset = [s.reshape(atom_dims).astype(np.float32) for s in signals.T]
        grid = cs_dict.make_patch_grid(atom_dims, atom_dims, (0, 0), (0, 0))

        norms_ok = []
        orig_normalize = cs_dict.Dictionary.normalize

        def spy(self):
            orig_normalize(self)
            norms_ok.append(
                bool(np.abs(np.linalg.norm(self.atoms, axis=0) - 1.0).max() <= 1e-6)
            )

        t0 = time.monotonic()
        cs_dict.Dictionary.normalize = spy
        try:
            d, _ = cs_dict.train_dictionary(
                dataset, grid, k=2.0, lam=0.1, lr=0.1, batch_size=16,
                fista_iters=60, epochs=100, seed=1,
            )
        finally:
            cs_dict.Dictionary.normalize = orig_normalize
        elapsed = time.monotonic() - t0
        assert all(norms_ok) and len(norms_ok) > 100
        corr = np.abs(truth.T @ d.atoms)
        mean_best = float(corr.max(axis=1).mean())
        assert mean_best >= 0.9
        assert elapsed <= 180.0


def test_criterion_06_losses_metrics():
    with criterion(6, "analytic gradients vs FD and exact scalar anchors"):
        rng = np.random.default_rng(4)

        def fd_ok(fn, pred, tol=1e-3, n_coords=25, h=1e-3):
            grad = fn(pred).grad
            for i in rng.choice(pred.size, size=min(n_coords, pred.size), replace=False):
                p = pred.ravel().copy()
                p[i] += h
                f1 = fn(p.reshape(pred.shape), with_grad=False).value
                p[i] -= 2 * h
                f2 = fn(p.reshape(pred.shape), with_grad=False).value
                fd = (f1 - f2) / (2 * h)
                an = grad.ravel()[i]
                assert abs(fd - an) <= tol * max(abs(fd), abs(an), 1e-6)

        cvp = rng.uniform(0.1, 0.9, size=(9, 9, 3))
        cvt = rng.uniform(0.1, 0.9, size=(9, 9, 3))
        fd_ok(lambda p, **kw: lm.huber(p, cvt, **kw), cvp)
        fd_ok(lambda p, **kw: lm.ssim_loss(p, cvt, **kw), cvp)
        fd_ok(lambda p, **kw: lm.spectral_cos_loss(p, cvt, **kw), cvp)
        i = np.arange(8)[:, None]
        j = np.arange(8)[None, :]
        dp = 0.3 * i - 0.2 * j + 0.01 * rng.uniform(-1, 1, size=(8, 8))
        dt = rng.uniform(-1, 1, size=(8, 8))
        fd_ok(lambda p, **kw: lm.tv_smoothness(p, dt, **kw), dp)
        fd_ok(lambda p, **kw: lm.normal_similarity(p, dt, **kw), dp)

        assert lm.huber(np.array([0.5]), np.array([0.0])).value == 0.25
        assert lm.huber(np.array([2.0]), np.array([0.0])).value == 3.0
        truth = rng.uniform(0.1, 1.0, size=(4, 4, 5))
        assert lm.spectral_angle(2.0 * truth, truth) == pytest.approx(0.0, abs=1e-5)
        orth_a = np.zeros((2, 2, 2))
        orth_b = np.zeros((2, 2, 2))
        orth_a[..., 0] = 1.0
        orth_b[..., 1] = 1.0
        assert lm.spectral_angle(orth_a, orth_b) == pytest.approx(90.0)
        zeros = np.zeros((10, 10))
        assert lm.badpix(zeros, zeros) == 0.0
        assert lm.badpix(np.full((10, 10), 0.1), zeros) == 100.0
        half = np.full((10, 10), 0.05)
        half[:5] = 0.2
        assert lm.badpix(half, zeros) == 50.0


def test_criterion_07_normgradsim_fixed_points():
    with criterion(7, "alpha/beta fixed points and gradient-scale invariance"):
        rng = np.random.default_rng(5)
        g_main = rng.normal(size=256)
        # cosine 0.62-ish aux plus a rescaled parallel one
        g_aux1 = 0.8 * g_main + 1.1 * rng.normal(size=256)
        g_aux2 = 10.0 * g_main
        cos1 = max(
            0.0,
            float(g_main @ g_aux1)
            / (np.linalg.norm(g_main) * np.linalg.norm(g_aux1)),
        )
        ratio1 = float(np.linalg.norm(g_main) / np.linalg.norm(g_aux1))
        g = np.stack([g_main, g_aux1, g_aux2])
        gram = g @ g.T
        alpha = np.zeros(2)
        beta = np.ones(2)
        updates = 0
        for _ in range(200):
            alpha, beta = mt.gram_normgradsim_update(gram, alpha, beta, step=0.1)
            updates += 1
        assert updates <= 200
        assert abs(alpha[0] - cos1) <= 1e-3
        assert abs(beta[0] - ratio1) <= 1e-3
        assert abs(alpha[1] - 1.0) <= 1e-3
        assert abs(beta[1] - 0.1) <= 1e-3

        # parallel-aux gradient-scale invariance at the fixed point
        c_main, c_aux = mt.normgradsim_coefficients(
            np.array([alpha[1]]), np.array([beta[1]])
        )
        combined = c_main * g_main + c_aux[0] * g_aux2
        assert np.linalg.norm(combined) <= 1.05 * np.linalg.norm(g_main)


DIMS = (3, 3, 8, 8, 5)


def test_criterion_08_strategy_sanity():
    with criterion(8, "all strategies beat the constant predictor in <= 50 epochs"):
        dataset = mt.make_toy_dataset(200, DIMS, seed=99)
        n_val = max(1, int(round(len(dataset) * 0.2)))
        base_cv, base_disp = mt.baseline_losses(dataset[:-n_val], dataset[-n_val:])

        for strategy in mt.STRATEGIES:
            net = ad.ToyNet(dims=DIMS, hidden=64, head_hidden=64, seed=7)
            cfg = mt.TrainConfig(
                strategy=strategy, epochs=50, batch_size=16, lr=0.1,
                momentum=0.9, seed=5, stop_below=(base_cv, base_disp),
            )
            net, logs = mt.train(net, dataset, cfg)
            assert len(logs) <= 50
            last = logs[-1]
            if strategy != "st-disp":
                assert last.loss_cv < base_cv, (strategy, last.loss_cv, base_cv)
            if strategy != "st-cv":
                assert last.loss_disp < base_disp, (strategy, last.loss_disp, base_disp)

        # single-task runs leave the inactive head bit-identical
        for strategy, frozen in (("st-cv", "disp"), ("st-disp", "cv")):
            net = ad.ToyNet(dims=DIMS, seed=2)
            before = [p.copy() for p in net.params[frozen]]
            cfg = mt.TrainConfig(
                strategy=strategy, epochs=2, lr=0.1, momentum=0.9, seed=4
            )
            net, _ = mt.train(net, dataset[:40], cfg)
            for p, b in zip(net.params[frozen], before):
                assert np.array_equal(p, b)


def test_criterion_09_gradnorm_mtu_fixed_points():
    with criterion(9, "GradNorm gamma=0 fixed point and MTU stationarity"):
        state = mt.GradNormState.initial(gamma=0.0, lr=0.002)
        for _ in range(3000):
            mt.gradnorm_update(np.array([2.0, 1.0]), np.array([1.0, 1.0]), state)
        assert np.abs(state.weights - np.array([2.0 / 3.0, 4.0 / 3.0])).max() <= 1e-2

        losses = np.array([4.0, 1.0])
        mtu = mt.MtuState.initial()
        for _ in range(400):
            _, ds = mt.mtu_loss(losses, mtu)
            mtu.s -= 0.5 * ds
        assert np.abs(np.exp(-mtu.s) * losses - 1.0).max() <= 1e-3


def test_criterion_10_calibration():
    with criterion(10, "calibration recovery, blooming mask, monotone fit"):
        def synth(seed, noise):
            rng = np.random.default_rng(seed)
            times = np.geomspace(0.01, 2.0, 8)
            offset = rng.uniform(0.01, 0.03, size=(10, 10))
            current = rng.uniform(0.0005, 0.002, size=(10, 10))
            v = rng.uniform(0.6, 1.0, size=(10, 10))
            v /= v.mean()
            r = rng.uniform(0.3, 1.5, size=(4, 3))
            bayer = rng.integers(0, 3, size=(10, 10))
            rmap = r[:, bayer].transpose(1, 2, 0)
            mu = offset[..., None, None] + (
                v[:, :, None, None] * rmap[..., None] + current[..., None, None]
            ) * times
            mu = np.clip(mu, 0, 1)
            if noise > 0:
                mu = np.clip(mu * (1 + noise * rng.normal(size=mu.shape)), 0, 1)
            dark = offset[..., None] + current[..., None] * times
            return times, dark, v, r, bayer, mu

        def recover(seed, noise):
            times, dark, v, r, bayer, mu = synth(seed, noise)
            dm = calib.fit_dark(dark, times)
            series = calib.ExposureSeries(mu=mu, times=times, bayer=bayer)
            mask = calib.saturation_mask(series)
            res = calib.fit_vignetting_responsivity(series, dm, mask)
            tr = res.objective_trace
            assert all(b <= a + 1e-12 * max(1, abs(a)) for a, b in zip(tr, tr[1:]))
            # align the per-Bayer-type scale freedom before comparing
            v_est = res.vignetting.copy()
            r_est = res.responsivity.copy()
            for n in range(3):
                sel = bayer == n
                if np.any(sel):
                    c = np.mean(v[sel]) / np.mean(v_est[sel])
                    v_est[sel] *= c
                    r_est[:, n] /= c
            ev = np.linalg.norm(v_est - v) / np.linalg.norm(v)
            er = np.linalg.norm(r_est - r) / np.linalg.norm(r)
            return max(ev, er)

        assert recover(1, 0.0) <= 1e-3
        worst = max(recover(seed, 0.01) for seed in range(20))
        assert worst <= 1e-2

        mu = np.full((13, 13, 1, 1), 0.5)
        mu[6, 6, 0, 0] = 0.99
        series = calib.ExposureSeries(
            mu=mu, times=np.array([0.1]), bayer=np.zeros((13, 13), dtype=int)
        )
        assert int(calib.saturation_mask(series).sum()) == 19


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI re-runs with --no-timestamp"):
        def run_all(root):
            root.mkdir(exist_ok=True)
            p = lambda name: str(root / name)
            cmds = [
                ["gen-scene", "--pattern", "random-smooth", "--disparity",
                 "linear-ramp:-0.5,0.5", "--dims", "3,3,16,16,5", "--seed", "7",
                 "--out-prefix", p("sc"), "--png-preview"],
                ["mask-gen", "--dims", "16,16,5", "--seed", "3", "--out", p("m.lf5d")],
                ["encode", "--in", p("sc.lf.lf5d"), "--mask", p("m.lf5d"),
                 "--out-coded", p("c.lf5d")],
                ["project", "--in", p("c.lf5d"), "--out", p("proj.lf5d")],
                ["lift", "--in", p("proj.lf5d"), "--mask", p("m.lf5d"),
                 "--out", p("lift.lf5d")],
                ["reconstruct-dct", "--in", p("proj.lf5d"), "--mask", p("m.lf5d"),
                 "--lambda", "0.001", "--max-iters", "8", "--out", p("rec.lf5d"),
                 "--report", p("rec.json"), "--no-timestamp"],
                ["train-dict", "--scenes", p("sc.lf.lf5d"), "--atom", "2,2,4,4,5",
                 "--spatial-overlap", "1,1", "--angular-overlap", "0,0",
                 "--lambda", "0.05", "--lr", "0.05", "--epochs", "1",
                 "--fista-iters", "8", "--seed", "2", "--out", p("d.lfdc"),
                 "--report", p("d.json"), "--no-timestamp"],
                ["reconstruct-dict", "--in", p("proj.lf5d"), "--mask", p("m.lf5d"),
                 "--dict", p("d.lfdc"), "--atom", "2,2,4,4,5",
                 "--spatial-overlap", "1,1", "--angular-overlap", "0,0",
                 "--lambda", "0.001", "--iters", "20", "--out", p("drec.lf5d")],
                ["train-toy", "--strategy", "mtu+al", "--epochs", "1",
                 "--scenes", "10", "--dims", "3,3,8,8,5", "--seed", "1",
                 "--log", p("log.json"), "--out", p("net.lfnn"), "--no-timestamp"],
                ["gen-scene", "--dims", "3,3,8,8,5", "--seed", "9",
                 "--out-prefix", p("t8")],
                ["encode", "--in", p("t8.lf.lf5d"), "--seed", "4",
                 "--out-coded", p("t8c.lf5d")],
                ["predict-toy", "--net", p("net.lfnn"), "--in", p("t8c.lf5d"),
                 "--out-cv", p("pcv.lf5d"), "--out-disp", p("pd.lf5d")],
                ["evaluate", "--pred", p("pcv.lf5d"), "--truth", p("t8.cv.lf5d"),
                 "--kind", "cv", "--no-timestamp", "--out", p("ev.json")],
            ]
            for cmd in cmds:
                assert cli.main(cmd) == 0, cmd

            # calibrate needs its own inputs
            rng = np.random.default_rng(3)
            times = np.geomspace(0.02, 1.0, 5)
            v = rng.uniform(0.7, 1.0, size=(6, 6))
            r = rng.uniform(0.4, 1.2, size=(3, 3))
            bayer = rng.integers(0, 3, size=(6, 6))
            rmap = r[:, bayer].transpose(1, 2, 0)
            mu = 0.02 + (v[:, :, None, None] * rmap[..., None] + 0.001) * times
            mu = np.clip(mu, 0, 1)
            dark = 0.02 + 0.001 * times * np.ones((6, 6, 1))
            tensor.write_lf5d(
                mu.transpose(3, 0, 1, 2)[:, None].astype(np.float32), p("br.lf5d")
            )
            tensor.write_lf5d(
                dark.transpose(2, 0, 1)[:, None, :, :, None].astype(np.float32),
                p("dk.lf5d"),
            )
            tensor.write_lf5d(
                bayer.astype(np.float32)[None, None, :, :, None], p("by.lf5d")
            )
            with open(p("times.csv"), "w") as fh:
                fh.writelines(f"{t}\n" for t in times)
            assert cli.main([
                "calibrate", "--dark", p("dk.lf5d"), "--bright", p("br.lf5d"),
                "--times", p("times.csv"), "--bayer", p("by.lf5d"),
                "--out", p("calib.json"), "--no-timestamp",
            ]) == 0

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")
        names_a = sorted(f.name for f in (tmp_path / "a").iterdir())
        names_b = sorted(f.name for f in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert filecmp.cmp(
                tmp_path / "a" / name, tmp_path / "b" / name, shallow=False
            ), f"output differs between runs: {name}"
