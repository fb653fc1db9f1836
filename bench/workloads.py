"""The four benchmark workloads: inputs, one operation, and its output checks.

Each workload drives the program only through `codedlf.cli.main(argv)`, so
the LF5D/LFDC/LFNN containers are on the measured path.  The benchmark's
`--seed` draws every coding mask the benchmark makes and the dictionary's
initialisation; the scenes come from fixed cycles, so two seeds pose
problems of the same difficulty.  The toy training run itself is fixed
(its data and network seeds are constants): five epochs of it do not
converge, and a different training seed moves the held-out error by about
6 %, more than the bound the benchmark puts on it.

A workload has `setup()` (make the inputs; timed as set-up), `round()` (the
keys of one round of operations), `run(key)` (one operation: the CLI calls
that are timed), `load(key)` (its outputs, read with the benchmark's own
readers), `CHECKS` (named checks on those outputs) and `rel_err_terms`.
`toy=True` selects the small sizes of the self-test.
Check thresholds are properties of the method or floors that a useless
result fails, not copies of today's output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import oracle
from codedlf import cli


class SetupError(RuntimeError):
    """A CLI call that makes inputs failed; the run cannot go on."""


def call(*argv) -> int:
    return cli.main([str(a) for a in argv])


def must(*argv) -> None:
    rc = call(*argv)
    if rc != 0:
        raise SetupError(f"exit code {rc} from {' '.join(map(str, argv))}")


def subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def make_coded_scene(stem: str, pattern: str, disparity: str, dims: str,
                     scene_seed: int, mask_seed: int) -> dict:
    """Render, code and project one scene; return its truth, mask and lift."""
    must("gen-scene", "--pattern", pattern, "--disparity", disparity, "--dims", dims,
         "--seed", scene_seed, "--out-prefix", stem)
    must("encode", "--in", stem + ".lf.lf5d", "--seed", mask_seed,
         "--out-coded", stem + ".coded.lf5d", "--out-mask", stem + ".mask.lf5d")
    must("project", "--in", stem + ".coded.lf5d", "--out", stem + ".proj.lf5d")
    mask = oracle.read_lf5d(stem + ".mask.lf5d")[0, 0].astype(np.float64)
    return {
        "stem": stem,
        "truth": oracle.read_lf5d(stem + ".lf.lf5d"),
        "mask": mask,
        "lifted": oracle.lift(oracle.read_lf5d(stem + ".proj.lf5d"), mask),
    }


class Workload:
    name = ""
    CHECKS: tuple[tuple[str, str], ...] = ()  # (check name, method name)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, key, out) -> list[str]:
        failures = []
        for label, method in self.CHECKS:
            msg = getattr(self, method)(key, out)
            if msg:
                failures.append(f"{label}: {msg}")
        return failures


class OwlqnDct(Workload):
    """reconstruct-dct with lam = 1e-3 * max|DCT(lift)| on a two-scene cycle."""

    name = "owlqn-dct"
    # Smooth textures: the error of a sharp-edged scene depends on where the
    # mask samples fall (a checker scene moved 2x between masks).
    SCENES = (("random-smooth", "linear-ramp:-0.5,0.5"), ("random-smooth", "constant:0.8"))
    CHECKS = (
        ("objectives non-increasing", "check_monotone"),
        ("final objective recomputed", "check_objective"),
    )

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir)
        self.dims = "3,3,8,8,4" if toy else "5,5,32,32,8"
        self.iters = 20 if toy else 100

    def setup(self):
        self.cases = []
        for i, (pattern, disparity) in enumerate(self.SCENES):
            case = make_coded_scene(self.path(f"owl{i}"), pattern, disparity, self.dims,
                                    100 + i, subseed(self.seed, 1, i))
            case["lam"] = 1e-3 * float(np.abs(oracle.dct5(case["lifted"])).max())
            self.cases.append(case)

    def round(self):
        return range(len(self.cases))

    def run(self, key) -> int:
        stem = self.cases[key]["stem"]
        return call("reconstruct-dct", "--in", stem + ".proj.lf5d", "--mask", stem + ".mask.lf5d",
                    "--lambda", repr(self.cases[key]["lam"]), "--max-iters", self.iters,
                    "--out", stem + ".rec.lf5d", "--report", stem + ".rep.json", "--no-timestamp")

    def load(self, key):
        stem = self.cases[key]["stem"]
        with open(stem + ".rep.json") as fh:
            report = json.load(fh)
        return {"rec": oracle.read_lf5d(stem + ".rec.lf5d"), "report": report}

    def check_monotone(self, key, out):
        objs = out["report"]["objectives"]
        rises = [i for i in range(1, len(objs)) if objs[i] > objs[i - 1]]
        if rises:
            return f"objective rises at iterations {rises[:5]}"
        return None

    def check_objective(self, key, out):
        case = self.cases[key]
        args = (out["rec"], case["lifted"], case["mask"], case["lam"])
        recomputed = oracle.owlqn_objective(*args)
        reported = out["report"]["final_objective"]
        tol = oracle.owlqn_objective_tolerance(*args)
        if not abs(recomputed - reported) <= tol:
            return f"recomputed {recomputed!r} vs reported {reported!r} (tolerance {tol:.3g})"
        return None

    def rel_err_terms(self, key, out):
        return oracle.rel_err_terms(out["rec"], self.cases[key]["truth"])


class DictFista(Workload):
    """train-dict in set-up, then reconstruct-dict on a two-scene cycle."""

    name = "dict-fista"
    TRAIN = (
        ("random-smooth", "linear-ramp:-0.5,0.5"),
        ("checker", "constant:0.5"),
        ("gradient-ramp", "step:-0.5,0.5"),
        ("spectral-stripes", "constant:-0.3"),
    )
    TEST = (("random-smooth", "linear-ramp:-0.3,0.7"), ("checker", "step:-0.5,0.5"))
    GRID = ("--atom", "2,2,4,4,5", "--spatial-overlap", "1,1", "--angular-overlap", "0,0")
    # A reconstruction that ignores the measurement scores 1; one that fits
    # it up to the l1 trade-off scores about lambda-sized residuals.
    MAX_MASKED_RESIDUAL = 0.05
    # float32 storage of unit-norm atoms moves each norm by at most 2**-24.
    ATOM_NORM_TOL = 2.0**-23
    CHECKS = (
        ("atoms have unit norm", "check_atoms"),
        ("masked data residual", "check_residual"),
    )

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir)
        self.dims = "3,3,8,8,5" if toy else "5,5,16,16,5"
        self.iters = 50 if toy else 300

    def setup(self):
        scenes = []
        for i, (pattern, disparity) in enumerate(self.TRAIN):
            stem = self.path(f"train{i}")
            must("gen-scene", "--pattern", pattern, "--disparity", disparity, "--dims", self.dims,
                 "--seed", 200 + i, "--out-prefix", stem)
            scenes.append(stem + ".lf.lf5d")
        self.dictionary = self.path("dict.lfdc")
        must("train-dict", "--scenes", *scenes, *self.GRID, "--k", 2, "--lambda", 0.2,
             "--lr", 0.3, "--epochs", 1, "--seed", subseed(self.seed, 2), "--out", self.dictionary)
        self.cases = [
            make_coded_scene(self.path(f"dict{i}"), pattern, disparity, self.dims,
                             300 + i, subseed(self.seed, 3, i))
            for i, (pattern, disparity) in enumerate(self.TEST)
        ]

    def round(self):
        return range(len(self.cases))

    def run(self, key) -> int:
        stem = self.cases[key]["stem"]
        return call("reconstruct-dict", "--in", stem + ".proj.lf5d", "--mask", stem + ".mask.lf5d",
                    "--dict", self.dictionary, *self.GRID, "--lambda", 3e-3,
                    "--iters", self.iters, "--out", stem + ".rec.lf5d")

    def load(self, key):
        return {
            "rec": oracle.read_lf5d(self.cases[key]["stem"] + ".rec.lf5d"),
            "atoms": oracle.read_lfdc(self.dictionary),
        }

    def check_atoms(self, key, out):
        dev = np.abs(np.linalg.norm(out["atoms"].astype(np.float64), axis=0) - 1.0)
        if not dev.max() <= self.ATOM_NORM_TOL:
            return f"{int(np.sum(dev > self.ATOM_NORM_TOL))} atoms off unit norm by up to {dev.max():.3g}"
        return None

    def check_residual(self, key, out):
        case = self.cases[key]
        res = np.linalg.norm(case["mask"] * out["rec"] - case["lifted"]) / np.linalg.norm(case["lifted"])
        if not res < self.MAX_MASKED_RESIDUAL:
            return f"{res:.4g} >= {self.MAX_MASKED_RESIDUAL}"
        return None

    def rel_err_terms(self, key, out):
        return oracle.rel_err_terms(out["rec"], self.cases[key]["truth"])


class ToyTrainAux(Workload):
    """train-toy --strategy mtu+al, then predict-toy on held-out scenes."""

    name = "toy-train-aux"
    PATTERNS = ("checker", "gradient-ramp", "spectral-stripes", "random-smooth")
    PROFILES = ("constant:0.5", "step:-0.8,0.6", "linear-ramp:-1,1")
    DIMS = "3,3,8,8,5"
    # Four scenes per (pattern, profile): with one, the held-out error moved
    # 7 % between mask seeds.
    HELD_OUT_PER_COMBO = 4
    CHECKS = (
        ("validation losses fall", "check_losses_fall"),
        ("beats the constant predictor", "check_beats_constant"),
    )

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir)
        # Training is already toy-sized; fewer epochs do not beat the constant.
        self.held_out_per_combo = 1 if toy else self.HELD_OUT_PER_COMBO

    def setup(self):
        self.held_out = []
        combos = [(p, d) for p in self.PATTERNS for d in self.PROFILES]
        for i, (pattern, profile) in enumerate(combos * self.held_out_per_combo):
            stem = self.path(f"held{i}")
            must("gen-scene", "--pattern", pattern, "--disparity", profile, "--dims", self.DIMS,
                 "--seed", 400 + i, "--out-prefix", stem)
            must("encode", "--in", stem + ".lf.lf5d", "--seed", subseed(self.seed, 4, i),
                 "--out-coded", stem + ".coded.lf5d")
            self.held_out.append(stem)
        self.truth = np.stack([oracle.read_lf5d(s + ".cv.lf5d")[0, 0] for s in self.held_out])

    def round(self):
        return (0,)

    def run(self, key) -> int:
        net, log = self.path("net.lfnn"), self.path("log.json")
        rc = call("train-toy", "--strategy", "mtu+al", "--epochs", 5,
                  "--scenes", 200, "--dims", self.DIMS, "--batch-size", 8,
                  "--seed", 0, "--data-seed", 99, "--log", log, "--out", net)
        for stem in self.held_out:
            rc = rc or call("predict-toy", "--net", net, "--in", stem + ".coded.lf5d",
                            "--out-cv", stem + ".pred_cv.lf5d", "--out-disp", stem + ".pred_disp.lf5d")
        return rc

    def load(self, key):
        with open(self.path("log.json")) as fh:
            log = json.load(fh)
        pred = np.stack([oracle.read_lf5d(s + ".pred_cv.lf5d")[0, 0] for s in self.held_out])
        return {"log": log, "pred": pred}

    def check_losses_fall(self, key, out):
        first, last = out["log"][0], out["log"][-1]
        bad = [h for h in ("loss_cv", "loss_disp") if not last[h] < first[h]]
        if len(out["log"]) < 2 or bad:
            return f"{bad or 'single epoch'}: first {first}, last {last}"
        return None

    def check_beats_constant(self, key, out):
        # The best per-pixel constant in hindsight: the held-out mean view.
        const = self.truth.mean(axis=0)
        net_loss = np.mean([oracle.huber(p, t) for p, t in zip(out["pred"], self.truth)])
        const_loss = np.mean([oracle.huber(const, t) for t in self.truth])
        if not net_loss < const_loss:
            return f"Huber {net_loss:.4g} >= constant predictor {const_loss:.4g}"
        return None

    def rel_err_terms(self, key, out):
        return oracle.rel_err_terms(out["pred"], self.truth)


@dataclass
class Sensor:
    """Synthesized calibration truth: vignetting v (I, J), responsivity r (K, 3)."""

    v: np.ndarray
    r: np.ndarray
    bayer: np.ndarray

    def vr(self) -> np.ndarray:
        return self.v[:, :, None] * self.r[:, self.bayer].transpose(1, 2, 0)


def synthesize_sensor(rng, n_px: int, n_filters: int, n_exp: int, noise: float,
                      saturated: float):
    """Dark and bright exposure stacks of a Bayer sensor, with their truth.

    Vignetting is a radial fall-off with 2 % pixel non-uniformity, the dark
    signal an offset plus a dark current, exposures double from 1 ms, and
    every sample carries `noise` relative Gaussian noise.  The signal scale
    puts a `saturated` share of the noise-free samples above the program's
    saturation threshold; samples are clipped to [0, 1].
    """
    ii, jj = np.meshgrid(np.linspace(-1, 1, n_px), np.linspace(-1, 1, n_px), indexing="ij")
    cx, cy = rng.uniform(-0.2, 0.2, 2)
    v = (1.0 - rng.uniform(0.15, 0.25) * ((ii - cx) ** 2 + (jj - cy) ** 2))
    v *= 1.0 + 0.02 * rng.standard_normal((n_px, n_px))
    bayer = np.zeros((n_px, n_px), dtype=np.int64)
    bayer[0::2, 1::2] = 1
    bayer[1::2, 0::2] = 1
    bayer[1::2, 1::2] = 2
    r = rng.uniform(0.3, 1.0, (n_filters, 3))
    times = 1e-3 * 2.0 ** np.arange(n_exp)
    sensor = Sensor(v=v, r=r, bayer=bayer)
    signal = sensor.vr()[..., None] * times
    scale = 0.985 / np.quantile(signal, 1.0 - saturated)
    sensor.r *= scale
    signal *= scale
    offset = 0.02 + 0.002 * rng.standard_normal((n_px, n_px))
    current = 0.05 + 0.005 * rng.standard_normal((n_px, n_px))
    dark = offset[..., None] + current[..., None] * times  # (I, J, L)
    bright = (dark[:, :, None, :] + signal) * (1.0 + noise * rng.standard_normal(signal.shape))
    dark = dark * (1.0 + noise * rng.standard_normal(dark.shape))
    return sensor, times, np.clip(dark, 0.0, 1.0), np.clip(bright, 0.0, 1.0)


class CalibFit(Workload):
    """calibrate on a synthetic Bayer sensor with about 1 % saturated samples."""

    name = "calib-fit"
    MAX_VR_REL_ERR = 1e-2
    # v is stored as float32: its mean moves by at most about 2**-24.
    MEAN_V_TOL = 1e-6
    CHECKS = (
        ("v * r matches the truth", "check_vr"),
        ("mean(v) = 1 on recoverable pixels", "check_mean_v"),
    )

    def __init__(self, seed, workdir, toy=False):
        super().__init__(seed, workdir)
        self.n_px, self.n_filters = (32, 4) if toy else (256, 16)

    def setup(self):
        rng = np.random.default_rng(subseed(self.seed, 7))
        self.sensor, times, dark, bright = synthesize_sensor(
            rng, self.n_px, self.n_filters, n_exp=8, noise=0.01, saturated=0.01)
        # Containers: bright (L, 1, I, J, K), dark (L, 1, I, J, 1), bayer (1, 1, I, J, 1).
        oracle.write_lf5d(self.path("bright.lf5d"), bright.transpose(3, 0, 1, 2)[:, None])
        oracle.write_lf5d(self.path("dark.lf5d"), dark.transpose(2, 0, 1)[:, None, :, :, None])
        oracle.write_lf5d(self.path("bayer.lf5d"), self.sensor.bayer[None, None, :, :, None])
        with open(self.path("times.csv"), "w") as fh:
            fh.writelines(f"{float(t)!r}\n" for t in times)

    def round(self):
        return (0,)

    def run(self, key) -> int:
        return call("calibrate", "--dark", self.path("dark.lf5d"), "--bright", self.path("bright.lf5d"),
                    "--times", self.path("times.csv"), "--bayer", self.path("bayer.lf5d"),
                    "--out", self.path("calib.json"), "--no-timestamp")

    def load(self, key):
        with open(self.path("calib.json")) as fh:
            report = json.load(fh)
        v = oracle.read_lf5d(self.path(report["vignetting"]))[0, 0, :, :, 0].astype(np.float64)
        r = np.array([[np.nan if x is None else x for x in row] for row in report["responsivity"]])
        ok = np.ones(v.shape, dtype=bool)
        for i, j in report["unrecoverable"]["pixels"]:
            ok[i, j] = False
        return {"v": v, "r": r, "ok": ok}

    def _vr(self, out):
        # v * r is invariant under the per-Bayer-type gauge, so no alignment is needed.
        vr = out["v"][:, :, None] * out["r"][:, self.sensor.bayer].transpose(1, 2, 0)
        return vr[out["ok"]], self.sensor.vr()[out["ok"]]

    def check_vr(self, key, out):
        est, truth = self._vr(out)
        if not np.all(np.isfinite(est)):
            return "non-finite v * r on recoverable pixels"
        err = np.linalg.norm(est - truth) / np.linalg.norm(truth)
        if not err <= self.MAX_VR_REL_ERR:
            return f"relative error {err:.4g} > {self.MAX_VR_REL_ERR}"
        return None

    def check_mean_v(self, key, out):
        mean = float(out["v"][out["ok"]].mean())
        if not abs(mean - 1.0) <= self.MEAN_V_TOL:
            return f"mean(v) = {mean!r}"
        return None

    def rel_err_terms(self, key, out):
        est, truth = self._vr(out)
        return oracle.rel_err_terms(est, truth)


WORKLOADS = {w.name: w for w in (OwlqnDct, DictFista, ToyTrainAux, CalibFit)}
