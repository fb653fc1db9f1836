"""CLI contract tests: files, reports, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import codedlf
from codedlf import calib, cli, coding, tensor


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def scene(tmp_path):
    prefix = str(tmp_path / "sc")
    assert run([
        "gen-scene", "--pattern", "checker", "--disparity", "constant:0.5",
        "--dims", "3,3,16,16,5", "--seed", "7", "--out-prefix", prefix,
    ]) == 0
    return prefix


def test_gen_scene_writes_three_files(scene, tmp_path):
    for suffix in (".cv.lf5d", ".disp.lf5d", ".lf.lf5d"):
        assert (tmp_path / ("sc" + suffix)).exists()


def test_encode_project_lift_round_trip(scene, tmp_path):
    coded = str(tmp_path / "c.lf5d")
    mask = str(tmp_path / "m.lf5d")
    proj = str(tmp_path / "p.lf5d")
    lift = str(tmp_path / "l.lf5d")
    assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
                "--out-coded", coded, "--out-mask", mask]) == 0
    assert run(["project", "--in", coded, "--out", proj]) == 0
    assert run(["lift", "--in", proj, "--mask", mask, "--out", lift]) == 0
    a = tensor.read_lf5d(coded)
    b = tensor.read_lf5d(lift)
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    report = str(tmp_path / "eq.json")
    assert run(["evaluate", "--pred", lift, "--truth", coded, "--kind", "cv",
                "--no-timestamp", "--out", report]) == 0
    data = json.loads(Path(report).read_text())
    assert data["psnr_db"] == "inf"
    assert data["mse_px2"] == 0.0


def test_evaluate_identical_cv(scene, tmp_path):
    report = str(tmp_path / "r.json")
    assert run(["evaluate", "--pred", scene + ".cv.lf5d", "--truth",
                scene + ".cv.lf5d", "--kind", "cv", "--no-timestamp",
                "--out", report]) == 0
    data = json.loads(Path(report).read_text())
    assert data["psnr_db"] == "inf"
    assert data["ssim"] == 1.0
    assert data["badpix07_pct"] is None


def test_evaluate_disp_kind(scene, tmp_path):
    report = str(tmp_path / "d.json")
    assert run(["evaluate", "--pred", scene + ".disp.lf5d", "--truth",
                scene + ".disp.lf5d", "--kind", "disp", "--no-timestamp",
                "--out", report]) == 0
    data = json.loads(Path(report).read_text())
    assert data["badpix07_pct"] == 0.0
    assert data["ssim"] is None


@pytest.mark.parametrize("flag, value", [
    ("--peak", "-1"), ("--peak", "0"), ("--peak", "nan"), ("--peak", "inf"),
    ("--badpix-tau", "nan"), ("--badpix-tau", "-0.5"), ("--badpix-tau", "inf"),
])
def test_evaluate_rejects_bad_knobs_before_reading(tmp_path, monkeypatch, capsys, flag, value):
    # A negative peak used to give the PSNR of its absolute value, a NaN
    # peak wrote "nan", and a NaN threshold reported 0 % bad pixels.
    def no_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(tensor, "read_lf5d", no_read)
    out = tmp_path / "r.json"
    assert run(["evaluate", "--pred", str(tmp_path / "p.lf5d"), "--truth",
                str(tmp_path / "t.lf5d"), "--kind", "disp", flag, value,
                "--out", str(out)]) == 1
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exit_1(tmp_path):
    assert run(["project", "--in", str(tmp_path / "nope.lf5d"),
                "--out", str(tmp_path / "o.lf5d")]) == 1


def test_unknown_flag_exit_1():
    assert run(["gen-scene", "--bogus"]) == 1


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(codedlf.__file__)))

    def exit_code(*argv):
        cmd = [sys.executable, "-m", "codedlf", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=120).returncode

    assert exit_code("--help") == 0
    assert exit_code("mask-gen", "--bogus-flag") == 1


def test_unknown_command_exit_1():
    assert run(["frobnicate"]) == 1


def test_bad_dims_exit_1(tmp_path):
    assert run(["gen-scene", "--dims", "4,4,8,8", "--out-prefix",
                str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("disparity", [
    "constant:nan", "constant:inf", "linear-ramp:nan,0", "step:0,-inf",
])
def test_gen_scene_rejects_non_finite_disparity(tmp_path, capsys, disparity):
    # scenegen.SceneSpec's rule and message: the CLI does not repeat it.
    prefix = tmp_path / "x"
    assert run(["gen-scene", "--dims", "3,3,8,8,3", "--disparity", disparity,
                "--out-prefix", str(prefix)]) == 1
    assert "error: disparities must be finite and lie in [-2.0, 2.0]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("disparity", ["constant:abc", "step:0.1,x", "linear-ramp:,"])
def test_gen_scene_rejects_unparsable_disparity(tmp_path, capsys, disparity):
    assert run(["gen-scene", "--dims", "3,3,8,8,3", "--disparity", disparity,
                "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: bad disparity parameters in {disparity!r}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["evaluate", "train-toy"])
def test_report_goes_to_stdout_without_a_path(scene, tmp_path, capsys, command):
    # Without --out (evaluate) or --log (train-toy) the JSON goes to stdout,
    # byte-equal to the file that the flag would write.
    if command == "evaluate":
        argv = ["evaluate", "--pred", scene + ".cv.lf5d", "--truth", scene + ".cv.lf5d",
                "--kind", "cv", "--no-timestamp"]
        flag = "--out"
    else:
        argv = ["train-toy", "--strategy", "naive", "--dims", "3,3,6,6,5", "--epochs", "1",
                "--scenes", "10", "--hidden", "4", "--head-hidden", "4"]
        flag = "--log"
    path = tmp_path / "report.json"
    assert run([*argv, flag, str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out == path.read_text()


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
    ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("--noise-sigma", "-1", "noise_sigma must be finite and >= 0, got -1.0"),
    ("--seed", "-1", "argument --seed: must be >= 0, got -1"),
])
def test_gen_scene_rejects_bad_knobs(tmp_path, capsys, flag, value, message):
    # Noise is added only for a sigma > 0, so these sigmas used to write the
    # noiseless scene.
    assert run(["gen-scene", "--dims", "3,3,8,8,3", flag, value,
                "--out-prefix", str(tmp_path / "x")]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gen_scene_zero_noise_sigma_writes_the_noiseless_scene(tmp_path):
    for name, extra in (("a", []), ("b", ["--noise-sigma", "0"])):
        assert run(["gen-scene", "--dims", "3,3,8,8,3", "--out-prefix",
                    str(tmp_path / name), *extra]) == 0
    for suffix in (".cv.lf5d", ".disp.lf5d", ".lf.lf5d"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_evaluate_ssim_scales_with_peak(tmp_path):
    # The SSIM stabilizers are (K * peak)^2, so a view on [0, 255] with
    # --peak 255 scores as the same view on [0, 1] with --peak 1.  Values
    # k / 256 scale by 255 exactly in float32.
    rng = np.random.default_rng(5)
    truth = rng.integers(32, 225, size=(1, 1, 16, 16, 3))
    pred = np.clip(truth + rng.integers(-24, 25, size=truth.shape), 0, 256)
    ssim = {}
    for peak in (1, 255):
        paths = [str(tmp_path / f"{name}{peak}.lf5d") for name in ("p", "t")]
        for codes, path in zip((pred, truth), paths):
            tensor.write_lf5d((codes * peak / 256.0).astype(np.float32), path)
        out = tmp_path / f"r{peak}.json"
        assert run(["evaluate", "--pred", paths[0], "--truth", paths[1], "--kind", "cv",
                    "--peak", str(peak), "--no-timestamp", "--out", str(out)]) == 0
        ssim[peak] = json.loads(out.read_text())["ssim"]
    assert 0.5 < ssim[1] < 1.0
    assert ssim[255] == pytest.approx(ssim[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["cv", "disp"])
@pytest.mark.parametrize("peak", ["1e-200", "1e-100", "1e-75", "1e78", "1e150", "1e200", "1e300"])
def test_evaluate_scores_finitely_or_rejects_the_peak(tmp_path, monkeypatch, capsys, peak, kind):
    # On two scenes, 1e-200 used to write a PSNR of "-inf", 1e150 a NaN SSIM
    # that the JSON writer refused as bad input, and 1e200 and 1e300 to raise
    # OverflowError (exit 3).
    prefixes = [str(tmp_path / name) for name in ("a", "b")]
    for seed, prefix in enumerate(prefixes, start=1):
        assert run(["gen-scene", "--dims", "3,3,16,16,4", "--seed", str(seed),
                    "--disparity", f"constant:{seed / 4}", "--out-prefix", prefix]) == 0
    suffix = ".lf.lf5d" if kind == "cv" else ".disp.lf5d"
    reads = []
    read = tensor.read_lf5d
    monkeypatch.setattr(tensor, "read_lf5d", lambda path: reads.append(path) or read(path))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = run(["evaluate", "--pred", prefixes[0] + suffix, "--truth", prefixes[1] + suffix,
                    "--kind", kind, "--peak", peak, "--no-timestamp", "--out", str(out)])
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    if code == 0:
        report = json.loads(out.read_text())
        assert math.isfinite(report["psnr_db"])
        assert kind == "disp" or math.isfinite(report["ssim"])
    else:
        assert code == 1 and reads == [] and not out.exists()
        assert "error: --peak must be finite and " in capsys.readouterr().err


def test_validation_error_on_even_angular(tmp_path):
    assert run(["gen-scene", "--dims", "4,4,8,8,3", "--out-prefix",
                str(tmp_path / "x")]) == 1


def test_mask_gen_and_reuse(tmp_path, scene):
    mask = str(tmp_path / "m.lf5d")
    assert run(["mask-gen", "--dims", "16,16,5", "--seed", "3", "--out", mask]) == 0
    m = tensor.read_lf5d(mask)
    assert coding.is_one_hot(m[0, 0])
    coded = str(tmp_path / "c.lf5d")
    assert run(["encode", "--in", scene + ".lf.lf5d", "--mask", mask,
                "--out-coded", coded]) == 0


def test_mask_seeds_wrap_modulo_2_64(tmp_path, scene):
    # A mask's SplitMix64 stream starts from the seed modulo 2**64, so -1 and
    # 2**64 - 1 draw one mask; only numpy's generators need seeds >= 0.
    written = {}
    for seed in ("-1", str(2**64 - 1)):
        paths = [str(tmp_path / f"{name}{seed}.lf5d") for name in ("m", "c", "em")]
        assert run(["mask-gen", "--dims", "16,16,5", "--seed", seed, "--out", paths[0]]) == 0
        assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", seed,
                    "--out-coded", paths[1], "--out-mask", paths[2]]) == 0
        written[seed] = [Path(p).read_bytes() for p in paths]
    assert written["-1"] == written[str(2**64 - 1)]
    assert written["-1"][0] == written["-1"][2]


_MASK_READERS = {
    "encode": ["--in", "LF", "--mask", "MASK", "--out-coded", "OUT"],
    "lift": ["--in", "LF", "--mask", "MASK", "--out", "OUT"],
    "reconstruct-dct": ["--in", "LF", "--mask", "MASK", "--lambda", "0.001", "--out", "OUT",
                        "--report", "OUT.json"],
    "reconstruct-dict": ["--in", "LF", "--mask", "MASK", "--dict", "DICT", "--atom",
                         "2,2,4,4,5", "--lambda", "0.001", "--out", "OUT", "--report",
                         "OUT.json"],
}


@pytest.mark.parametrize("command", sorted(_MASK_READERS))
def test_mask_readers_reject_stacked_masks(tmp_path, capsys, scene, command):
    # A (2, 1, S, T, C) stack used to be accepted, and its view 0 used.
    mask = tmp_path / "m.lf5d"
    assert run(["mask-gen", "--dims", "16,16,5", "--out", str(mask)]) == 0
    stack = tensor.read_lf5d(mask)
    tensor.write_lf5d(np.concatenate([stack, stack]), str(mask))
    (tmp_path / "d.lfdc").write_bytes(b"")  # never read: the mask is rejected first
    out = tmp_path / "out" / "o.lf5d"
    out.parent.mkdir()
    names = {"LF": scene + ".lf.lf5d", "MASK": str(mask), "DICT": str(tmp_path / "d.lfdc"),
             "OUT": str(out), "OUT.json": str(out) + ".json"}
    capsys.readouterr()
    assert run([command, *[names.get(a, a) for a in _MASK_READERS[command]]]) == 1
    assert (capsys.readouterr().err.splitlines()[-1]
            == f"error: {mask}: mask container must be (1, 1, S, T, C), got (2, 1, 16, 16, 5)")
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("command", ["gen-scene", "reconstruct-dct", "reconstruct-dict",
                                     "predict-toy"])
def test_png_preview(tmp_path, command):
    import struct

    from codedlf import autodiff, cs_dict

    prefix = str(tmp_path / "p")
    gen = ["gen-scene", "--pattern", "spectral-stripes", "--dims", "3,3,8,8,5",
           "--out-prefix", prefix]
    if command == "gen-scene":
        assert run(gen + ["--png-preview"]) == 0
        png = (tmp_path / "p.cv.png").read_bytes()
    else:
        assert run(gen) == 0
        coded, mask, proj = (str(tmp_path / f"{n}.lf5d") for n in ("c", "m", "proj"))
        assert run(["encode", "--in", prefix + ".lf.lf5d", "--seed", "2",
                    "--out-coded", coded, "--out-mask", mask]) == 0
        assert run(["project", "--in", coded, "--out", proj]) == 0
        dict_p, net_p = str(tmp_path / "d.lfdc"), str(tmp_path / "n.lfnn")
        cs_dict.write_dictionary(cs_dict.init_dictionary(2 * 2 * 4 * 4 * 5, 8, 0), dict_p)
        autodiff.save_net(autodiff.ToyNet(dims=(3, 3, 8, 8, 5), hidden=4, head_hidden=4), net_p)
        out = str(tmp_path / "out.lf5d")
        argv = {
            "reconstruct-dct": ["--in", proj, "--mask", mask, "--lambda", "0.001",
                                "--max-iters", "2", "--out", out],
            "reconstruct-dict": ["--in", proj, "--mask", mask, "--dict", dict_p, "--atom",
                                 "2,2,4,4,5", "--lambda", "0.001", "--iters", "2", "--out", out],
            "predict-toy": ["--net", net_p, "--in", coded, "--out-cv", out,
                            "--out-disp", str(tmp_path / "disp.lf5d")],
        }[command]
        assert run([command, *argv, "--png-preview"]) == 0
        png = (tmp_path / "out.lf5d.png").read_bytes()
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    assert png[12:24] == b"IHDR" + struct.pack(">II", 8, 8)  # the central view's S, T


def _calib_inputs(tmp_path, i_dim=8, k_dim=3, n_exp=6):
    rng = np.random.default_rng(3)
    j_dim = i_dim
    times = np.geomspace(0.02, 1.0, n_exp)
    offset = np.full((i_dim, j_dim), 0.02)
    current = np.full((i_dim, j_dim), 0.001)
    v = rng.uniform(0.7, 1.0, size=(i_dim, j_dim))
    v /= v.mean()
    r = rng.uniform(0.4, 1.2, size=(k_dim, 3))
    bayer = rng.integers(0, 3, size=(i_dim, j_dim))
    rmap = r[:, bayer].transpose(1, 2, 0)
    mu = offset[..., None, None] + (
        v[:, :, None, None] * rmap[..., None] + current[..., None, None]
    ) * times
    mu = np.clip(mu, 0, 1)
    dark = offset[..., None] + current[..., None] * times

    bright_p = str(tmp_path / "bright.lf5d")
    dark_p = str(tmp_path / "dark.lf5d")
    bayer_p = str(tmp_path / "bayer.lf5d")
    times_p = str(tmp_path / "times.csv")
    tensor.write_lf5d(
        mu.transpose(3, 0, 1, 2)[:, None].astype(np.float32), bright_p
    )
    tensor.write_lf5d(
        dark.transpose(2, 0, 1)[:, None, :, :, None].astype(np.float32), dark_p
    )
    tensor.write_lf5d(
        bayer.astype(np.float32)[None, None, :, :, None], bayer_p
    )
    with open(times_p, "w") as fh:
        fh.writelines(f"{t}\n" for t in times)
    return bright_p, dark_p, bayer_p, times_p


def test_calibrate_cli(tmp_path):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    out = str(tmp_path / "calib.json")
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--out", out, "--no-timestamp"]) == 0
    data = json.loads(Path(out).read_text())
    assert (tmp_path / data["vignetting"]).exists()
    assert len(data["responsivity"]) == 3
    assert data["unrecoverable"]["pixels"] == []
    v = tensor.read_lf5d(tmp_path / data["vignetting"])[0, 0, :, :, 0]
    assert abs(v.mean() - 1.0) <= 1e-5


def test_calibrate_keeps_the_float32_stack(tmp_path):
    # Reading the bright container holds its bytes and their aligned copy,
    # two payloads; the statistics and masks add about two more.  A float64
    # copy of the stack would add two payloads on its own.
    import tracemalloc

    bright, dark, bayer, times = _calib_inputs(tmp_path, i_dim=64, k_dim=8, n_exp=8)
    payload = 4 * 64 * 64 * 8 * 8
    tracemalloc.start()
    try:
        assert run(["calibrate", "--dark", dark, "--bright", bright, "--times", times,
                    "--bayer", bayer, "--out", str(tmp_path / "c.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * payload, peak / payload


def test_calibrate_cli_global_dark(tmp_path):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    out = str(tmp_path / "calib.json")
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--dark-mode", "global", "--out", out,
                "--no-timestamp"]) == 0
    data = json.loads(Path(out).read_text())
    assert data["dark"]["mode"] == "global"
    assert isinstance(data["dark"]["offset"], float)
    assert isinstance(data["dark"]["current"], float)
    assert data["unrecoverable"]["pixels"] == []


def test_calibrate_cli_reports_unrecoverable_pixel(tmp_path):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    x = tensor.read_lf5d(bright).copy()
    x[:, 0, 3, 4, :] = 1.0  # saturated at every exposure and filter
    tensor.write_lf5d(x, bright)
    out = str(tmp_path / "calib.json")
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--out", out, "--no-timestamp"]) == 0
    data = json.loads(Path(out).read_text())
    # The blooming mask takes the 8-neighborhood and the whole readout row.
    expected = {(3, j) for j in range(8)} | {(i, j) for i in (2, 4) for j in (3, 4, 5)}
    assert data["unrecoverable"]["pixels"] == [list(p) for p in sorted(expected)]
    assert data["unrecoverable"]["responsivity_entries"] == []


def test_calibrate_fails_without_recoverable_pixel(tmp_path, capsys):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    # Every measurement is above this threshold, so every pixel is masked.
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--threshold", "1e-9",
                "--out", str(tmp_path / "c.json")]) == 1
    assert "no recoverable pixel" in capsys.readouterr().err


@pytest.mark.parametrize("low, high", [(1e150, 1e200), (1e-300, 1e-200)])
def test_calibrate_non_finite_objective_is_a_numerical_failure(tmp_path, capsys, low, high):
    # Both ladders make the starting objective NaN.  With the tiny times the
    # fit used to run on, find den = 0 everywhere and exit 1 with "no
    # recoverable pixel".
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    with open(times, "w") as fh:
        fh.writelines(f"{t}\n" for t in np.geomspace(low, high, 6))
    out = tmp_path / "out" / "calib.json"
    out.parent.mkdir()
    with np.errstate(all="ignore"):
        assert run(["calibrate", "--dark", dark, "--bright", bright, "--times", times,
                    "--bayer", bayer, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "numerical failure: calibration objective is nan at half sweep 0"
    )
    assert not any(out.parent.iterdir())


def test_calibrate_refused_write_writes_nothing(tmp_path, capsys):
    # The fit is finite, but the per-pixel dark current (about 8e146) is
    # beyond float32: the command exits 2 before any map is written.
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    with open(times, "w") as fh:
        fh.writelines(f"{t}\n" for t in np.geomspace(1e-165, 1e-150, 6))
    stem = tmp_path / "out" / "calib"
    stem.parent.mkdir()
    with np.errstate(all="ignore"):
        assert run(["calibrate", "--dark", dark, "--bright", bright, "--times", times,
                    "--bayer", bayer, "--out", f"{stem}.json"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"numerical failure: {stem}.dark_current.lf5d: cannot write non-finite float32 values"
    )
    for suffix in (".v.lf5d", ".dark_offset.lf5d", ".dark_current.lf5d", ".json"):
        assert not (tmp_path / "out" / f"calib{suffix}").exists()


@pytest.mark.parametrize("flag, value", [
    ("--threshold", "nan"),
    ("--threshold", "inf"),
    ("--threshold", "0"),
    ("--threshold", "-1"),
    ("--line-reach", "-1"),
])
def test_calibrate_rejects_malformed_mask_knobs(tmp_path, capsys, flag, value):
    # The input files do not exist: the knobs are checked before any is read.
    missing = str(tmp_path / "missing.lf5d")
    assert run(["calibrate", "--dark", missing, "--bright", missing, "--times",
                missing, "--bayer", missing, flag, value,
                "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert flag[2:].replace("-", " ") in err and "not found" not in err


def _double_axis(path, axis):
    x = tensor.read_lf5d(path)
    tensor.write_lf5d(np.concatenate([x, x], axis=axis), path)


def _set_bayer_value(path, value):
    x = tensor.read_lf5d(path).copy()
    x[0, 0, 1, 2, 0] = value
    tensor.write_lf5d(x, path)


@pytest.mark.parametrize("bad, message", [
    ("bayer-fraction", "Bayer map values"),
    ("bayer-range", "Bayer map values"),
    ("bright-v", "bright series must be"),
    ("dark-v", "dark series must be"),
    ("dark-k", "dark series must be"),
    ("bayer-shape", "Bayer map must be (1, 1, 8, 8, 1), got (1, 1, 16, 8, 1)"),
    ("times-count", "exposure counts of series and times.csv disagree"),
])
def test_calibrate_rejects_malformed_containers(tmp_path, capsys, bad, message):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    if bad == "bayer-fraction":
        _set_bayer_value(bayer, 1.7)  # used to be truncated to 1
    elif bad == "bayer-range":
        _set_bayer_value(bayer, 3.0)
    elif bad == "bayer-shape":
        _double_axis(bayer, 2)
    elif bad == "times-count":
        with open(times) as fh:
            lines = fh.readlines()
        with open(times, "w") as fh:
            fh.writelines(lines[:-1])
    else:  # extra slices used to be dropped silently
        _double_axis(bright if bad == "bright-v" else dark, 4 if bad == "dark-k" else 1)
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--out", str(tmp_path / "c.json")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    ("evaluate-cv", "shape mismatch: (1, 1, 16, 16, 5) vs (1, 1, 8, 16, 5)"),
    ("evaluate-disp", "shape mismatch: (16, 16) vs (8, 16)"),
    ("predict-toy", "input (3, 3, 16, 16, 5) does not match (3, 3, 8, 8, 5)"),
    ("train-dict", "tensor (3, 3, 8, 16, 5) does not match grid (3, 3, 16, 16, 5)"),
    ("reconstruct-dict", "dictionary atom length 16 != grid 320"),
])
def test_shape_rules_are_the_librarys(tmp_path, scene, capsys, command, message):
    # The CLI no longer repeats these checks: the library's message reaches
    # the user, with exit 1 and nothing written.
    from codedlf import autodiff, cs_dict

    def cut(suffix):  # the scene's file with S cut to 8
        path = str(tmp_path / f"cut{suffix}")
        tensor.write_lf5d(tensor.read_lf5d(scene + suffix)[:, :, :8], path)
        return path

    out = tmp_path / "out"
    out.mkdir()
    if command.startswith("evaluate"):
        suffix = ".cv.lf5d" if command == "evaluate-cv" else ".disp.lf5d"
        argv = ["evaluate", "--pred", scene + suffix, "--truth", cut(suffix),
                "--kind", command[9:], "--out", str(out / "r.json")]
    elif command == "predict-toy":
        net = str(tmp_path / "net.lfnn")
        autodiff.save_net(autodiff.ToyNet(dims=(3, 3, 8, 8, 5), hidden=4, head_hidden=4), net)
        argv = ["predict-toy", "--net", net, "--in", scene + ".lf.lf5d",
                "--out-cv", str(out / "cv.lf5d"), "--out-disp", str(out / "d.lf5d")]
    elif command == "train-dict":
        argv = ["train-dict", "--scenes", scene + ".lf.lf5d", cut(".lf.lf5d"), "--atom",
                "1,1,4,4,5", "--lambda", "0.05", "--out", str(out / "d.lfdc")]
    else:
        coded, mask, proj = (str(tmp_path / f"{n}.lf5d") for n in ("c", "m", "p"))
        assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", "1",
                    "--out-coded", coded, "--out-mask", mask]) == 0
        assert run(["project", "--in", coded, "--out", proj]) == 0
        dictionary = str(tmp_path / "d.lfdc")
        cs_dict.write_dictionary(cs_dict.init_dictionary(16, 32, seed=0), dictionary)
        argv = ["reconstruct-dict", "--in", proj, "--mask", mask, "--dict", dictionary,
                "--atom", "2,2,4,4,5", "--lambda", "0.01", "--out", str(out / "r.lf5d")]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


def test_threads_flag_overrides_preset_variables(tmp_path, monkeypatch):
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    assert run(["--threads", "2", "mask-gen", "--dims", "4,4,3", "--out",
                str(tmp_path / "m.lf5d")]) == 0
    assert {var: os.environ[var] for var in thread_vars} == dict.fromkeys(thread_vars, "2")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_before_setting_variables(tmp_path, monkeypatch, capsys,
                                                          threads):
    # OpenBLAS does not read OMP_NUM_THREADS=0 as a cap.
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.delenv(var, raising=False)
    mask = tmp_path / "m.lf5d"
    assert run(["--threads", threads, "mask-gen", "--dims", "4,4,3", "--out", str(mask)]) == 1
    assert "argument --threads: must be >= 1" in capsys.readouterr().err
    assert not any(var in os.environ for var in thread_vars)
    assert not mask.exists()


def test_train_and_predict_toy(tmp_path):
    log = str(tmp_path / "log.json")
    net = str(tmp_path / "net.lfnn")
    assert run(["train-toy", "--strategy", "naive", "--epochs", "1",
                "--scenes", "12", "--dims", "3,3,8,8,5", "--seed", "1",
                "--log", log, "--out", net, "--no-timestamp"]) == 0
    entries = json.loads(Path(log).read_text())
    assert isinstance(entries, list) and len(entries) == 1
    assert {"epoch", "loss_cv", "loss_disp", "alphas", "betas",
            "task_weights"} == set(entries[0])

    prefix = str(tmp_path / "s")
    assert run(["gen-scene", "--dims", "3,3,8,8,5", "--out-prefix", prefix]) == 0
    coded = str(tmp_path / "c.lf5d")
    assert run(["encode", "--in", prefix + ".lf.lf5d", "--seed", "2",
                "--out-coded", coded]) == 0
    cv_out = str(tmp_path / "cv.lf5d")
    d_out = str(tmp_path / "d.lf5d")
    assert run(["predict-toy", "--net", net, "--in", coded,
                "--out-cv", cv_out, "--out-disp", d_out]) == 0
    assert tensor.read_lf5d(cv_out).shape == (1, 1, 8, 8, 5)
    assert tensor.read_lf5d(d_out).shape == (1, 1, 8, 8, 1)


def test_predict_toy_rejects_oversized_network_before_allocating(tmp_path, capsys):
    # A consistent spec of 1e8 hidden units and no payload: the payload
    # check must fire before any parameter is allocated (it used to exit 3
    # with a MemoryError from the throwaway initialization).
    import struct

    from codedlf import autodiff

    dims, hidden = [3, 3, 8, 8, 5], 100_000_000
    shapes = autodiff._param_shapes(dims, hidden, 64)
    spec = json.dumps({"dims": dims, "hidden": hidden, "head_hidden": 64,
                       "groups": {g: [list(s) for s in shapes[g]] for g in shapes}}).encode()
    net = tmp_path / "big.lfnn"
    net.write_bytes(b"LFNN" + struct.pack("<I", len(spec)) + spec)
    coded = tmp_path / "c.lf5d"
    tensor.write_lf5d(np.zeros((3, 3, 8, 8, 5), np.float32), str(coded))
    capsys.readouterr()
    assert run(["predict-toy", "--net", str(net), "--in", str(coded),
                "--out-cv", str(tmp_path / "cv.lf5d"),
                "--out-disp", str(tmp_path / "d.lf5d")]) == 1
    assert "payload holds 0 bytes" in capsys.readouterr().err


def test_predict_toy_refused_write_writes_nothing(tmp_path, capsys):
    # Every parameter is finite in float32, but the disparity head's output,
    # about 6e38, is not: the command exits 2 before either map is written,
    # and no float32 cast warns on the way.
    import warnings

    from codedlf import autodiff

    dims = (3, 3, 8, 8, 5)
    net = autodiff.ToyNet(dims=dims, hidden=4, head_hidden=4, seed=1)
    net.params["disp"][1][:] = 1.5e38  # every hidden unit of the head
    net.params["disp"][2][:] = 1.0
    net_path = str(tmp_path / "net.lfnn")
    autodiff.save_net(net, net_path)
    coded = str(tmp_path / "c.lf5d")
    tensor.write_lf5d(np.zeros(dims, np.float32), coded)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["predict-toy", "--net", net_path, "--in", coded,
                    "--out-cv", str(out / "cv.lf5d"),
                    "--out-disp", str(out / "d.lf5d")]) == 2
    assert caught == []
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"numerical failure: {out / 'd.lf5d'}: cannot write non-finite float32 values"
    )
    assert os.listdir(out) == []


def test_reconstruct_dct_cli(tmp_path, scene):
    coded = str(tmp_path / "c.lf5d")
    mask = str(tmp_path / "m.lf5d")
    proj = str(tmp_path / "p.lf5d")
    run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
         "--out-coded", coded, "--out-mask", mask])
    run(["project", "--in", coded, "--out", proj])
    reports = []
    for k in range(2):
        rec = str(tmp_path / f"rec{k}.lf5d")
        rep = tmp_path / f"rep{k}.json"
        assert run(["reconstruct-dct", "--in", proj, "--mask", mask, "--lambda",
                    "0.001", "--max-iters", "10", "--grad-tol", "1e-9", "--out", rec,
                    "--report", str(rep), "--no-timestamp"]) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert sorted(data) == ["evaluations", "final_objective", "iterations", "objectives",
                            "pairs_skipped", "termination"]
    assert data["termination"] in ("converged", "max_iters", "line_search_failed")
    # The default grad_tol, 1e-5 * sqrt(n), exceeds lam here and would stop
    # the solve at its warm start; --grad-tol 1e-9 makes it iterate.
    assert data["iterations"] > 0
    objs = data["objectives"]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    assert data["evaluations"] >= data["iterations"] == len(objs) - 1
    assert 0 <= data["pairs_skipped"] <= data["iterations"]


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda", "nan", "lam must be finite"),
    ("--lambda", "inf", "lam must be finite"),
    ("--max-iters", "-3", "max_iters must be an integer >= 0"),
    ("--memory", "0", "memory must be an integer >= 1"),
    ("--grad-tol", "nan", "grad_tol must be finite"),
    ("--grad-tol", "inf", "grad_tol must be finite"),
])
def test_reconstruct_dct_rejects_bad_knobs(tmp_path, monkeypatch, capsys, flag, value, message):
    def no_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(tensor, "read_lf5d", no_read)
    argv = {"--lambda": "0.001", "--max-iters": "5"}
    argv[flag] = value
    rec = tmp_path / "rec.lf5d"
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    # The inputs do not exist: the knobs are checked before any file is read.
    assert run(["reconstruct-dct", "--in", str(tmp_path / "p.lf5d"), "--mask",
                str(tmp_path / "m.lf5d"), "--out", str(rec), "--report", str(rep),
                *[x for kv in argv.items() for x in kv]]) == 1
    assert message in capsys.readouterr().err
    assert not rec.exists() and not rep.exists()


def test_train_toy_unknown_strategy(capsys):
    assert run(["train-toy", "--strategy", "bogus", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "unknown strategy 'bogus'" in err and "mtu+al" in err
    # TrainConfig names the unknown strategy before the SSIM-window check
    # looks it up in the strategy table.
    assert run(["train-toy", "--strategy", "bogus", "--dims", "3,3,6,6,5"]) == 1
    assert "unknown strategy 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "-2", "batch_size must be an integer >= 1"),
    ("--batch-size", "0", "batch_size must be an integer >= 1"),
    ("--epochs", "0", "epochs must be an integer >= 1"),
    ("--epochs", "-1", "epochs must be an integer >= 1"),
    ("--lr", "nan", "lr must be finite"),
    ("--lr", "inf", "lr must be finite"),
    ("--momentum", "nan", "momentum must be finite"),
    ("--weight-decay", "inf", "weight_decay must be finite"),
    ("--normgradsim-step", "nan", "normgradsim_step must be finite"),
    ("--gradnorm-gamma", "nan", "gradnorm_gamma must be finite"),
    ("--hidden", "0", "hidden must be an integer >= 1"),
    ("--head-hidden", "0", "head_hidden must be an integer >= 1"),
    ("--lr", "-1", "lr must be finite and >= 0"),
    ("--momentum", "-1", "momentum must lie in [0, 1)"),
    ("--momentum", "1.5", "momentum must lie in [0, 1)"),
    ("--weight-decay", "-1", "weight_decay must be finite and >= 0"),
    ("--normgradsim-step", "-1", "normgradsim_step must be finite and >= 0"),
    ("--gradnorm-gamma", "-5", "gradnorm_gamma must be finite and >= 0"),
    ("--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("--data-seed", "-1", "argument --data-seed: must be >= 0, got -1"),
])
def test_train_toy_rejects_bad_knobs(tmp_path, monkeypatch, capsys, flag, value, message):
    from codedlf import multitask

    def no_dataset(*args):
        raise AssertionError("the data set was rendered")

    monkeypatch.setattr(multitask, "make_toy_dataset", no_dataset)
    log = tmp_path / "log.json"
    net = tmp_path / "net.lfnn"
    capsys.readouterr()
    assert run(["train-toy", "--strategy", "naive", "--scenes", "10", flag, value,
                "--log", str(log), "--out", str(net)]) == 1
    assert message in capsys.readouterr().err
    assert not log.exists() and not net.exists()


def test_train_toy_rejects_too_few_scenes_for_the_validation_split(tmp_path, capsys):
    # One scene goes to the validation split and leaves none to train on.
    log, net = tmp_path / "log.json", tmp_path / "net.lfnn"
    capsys.readouterr()
    assert run(["train-toy", "--strategy", "naive", "--scenes", "1", "--dims", "3,3,8,8,5",
                "--epochs", "1", "--log", str(log), "--out", str(net)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: dataset too small for the validation split"
    )
    assert not log.exists() and not net.exists()


@pytest.mark.parametrize("strategy", ["gradsim", "normgradsim", "mtu+al"])
@pytest.mark.parametrize("dims", ["3,3,6,6,5", "3,3,8,6,5", "3,3,6,8,5"])
def test_train_toy_rejects_dims_below_the_ssim_window(tmp_path, monkeypatch, capsys,
                                                      strategy, dims):
    # The SSIM auxiliary loss needs S, T >= its window; the run used to fail
    # only after the whole data set was rendered.
    from codedlf import multitask

    def no_dataset(*args):
        raise AssertionError("the data set was rendered")

    monkeypatch.setattr(multitask, "make_toy_dataset", no_dataset)
    log = tmp_path / "log.json"
    capsys.readouterr()
    assert run(["train-toy", "--strategy", strategy, "--dims", dims, "--scenes", "10",
                "--log", str(log)]) == 1
    err = capsys.readouterr().err
    assert "--dims" in err and "SSIM window 7" in err
    assert not log.exists()


def test_train_toy_naive_trains_below_the_ssim_window(tmp_path):
    log = tmp_path / "log.json"
    net = tmp_path / "net.lfnn"
    assert run(["train-toy", "--strategy", "naive", "--dims", "3,3,6,6,5", "--epochs", "1",
                "--scenes", "10", "--hidden", "4", "--head-hidden", "4",
                "--log", str(log), "--out", str(net)]) == 0
    entries = json.loads(log.read_text())
    assert len(entries) == 1 and np.isfinite(entries[0]["loss_cv"])
    assert net.exists()


@pytest.mark.parametrize("exc, code, prefix", [
    (TypeError("boom"), 3, "internal error: TypeError: boom"),
    (KeyError("boom"), 3, "internal error: KeyError: 'boom'"),
    (FloatingPointError("boom"), 2, "numerical failure: boom"),
    (np.linalg.LinAlgError("boom"), 2, "numerical failure: boom"),
    (ValueError("boom"), 1, "error: boom"),
    # An arithmetic fault in the program is not a numerical failure.
    (ZeroDivisionError("boom"), 3, "internal error: ZeroDivisionError: boom"),
    (OverflowError("boom"), 3, "internal error: OverflowError: boom"),
    (PermissionError(13, "Permission denied", "in.lf5d"), 1,
     "error: [Errno 13] Permission denied: 'in.lf5d'"),
])
def test_exit_code_by_exception_kind(tmp_path, monkeypatch, capsys, exc, code, prefix):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_mask_gen", broken)
    assert run(["mask-gen", "--dims", "4,4,3", "--out", str(tmp_path / "m.lf5d")]) == code
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == prefix
    # Only a fault in the program prints its traceback.
    assert ("Traceback (most recent call last)" in err) == (code == 3)


def test_parser_is_built_once_per_process(tmp_path):
    cli._build_parser.cache_clear()
    for i in range(4):
        assert run(["mask-gen", "--dims", "4,4,3", "--out", str(tmp_path / f"m{i}.lf5d")]) == 0
    assert run(["mask-gen", "--dims", "4,4"]) == 1
    assert cli._build_parser.cache_info().misses == 1


def test_parsed_options_do_not_leak_into_the_next_call(tmp_path, monkeypatch):
    # Each call's namespace is the one a freshly built parser gives.
    seen = []
    monkeypatch.setattr(cli, "_cmd_mask_gen", seen.append)
    monkeypatch.setattr(cli, "_cmd_reconstruct_dct", seen.append)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # --threads sets them; undone at the end
    calls = [
        ["--threads", "2", "reconstruct-dct", "--in", "a", "--mask", "b", "--lambda", "0.1",
         "--memory", "3", "--out", str(tmp_path / "r.lf5d"), "--report", str(tmp_path / "r.json")],
        ["mask-gen", "--dims", "4,4,3", "--seed", "5", "--out", str(tmp_path / "m.lf5d")],
        ["mask-gen", "--dims", "4,4,3", "--out", str(tmp_path / "m.lf5d")],
        ["reconstruct-dct", "--in", "a", "--mask", "b", "--lambda", "0.1",
         "--out", str(tmp_path / "r.lf5d")],
    ]
    for argv in calls:
        assert run(argv) is None  # the stand-in handler's return
    fresh = [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in calls]
    assert [vars(args) for args in seen] == fresh
    assert seen[2].seed == 0 and seen[3].threads is None and seen[3].report is None


def test_parser_defaults_restate_the_library_defaults():
    # The parser cannot import the numpy modules before --threads applies,
    # so it repeats these values.
    import inspect

    from codedlf import cs_dct, cs_dict
    from codedlf import losses_metrics as lm

    parse = cli._build_parser.__wrapped__().parse_args
    cal = parse(["calibrate", "--dark", "a", "--bright", "b", "--times", "c", "--bayer", "d",
                 "--out", "e"])
    assert (cal.threshold, cal.line_reach) == (calib.SATURATION_THRESHOLD, calib.LINE_REACH)
    ev = parse(["evaluate", "--pred", "a", "--truth", "b", "--kind", "disp"])
    assert ev.badpix_tau == lm.BADPIX_TAU
    dct = parse(["reconstruct-dct", "--in", "a", "--mask", "b", "--lambda", "0.1", "--out", "c"])
    opts = cs_dct.OwlqnOptions(lam=0.1)
    assert (dct.max_iters, dct.memory) == (opts.max_iters, opts.memory)
    td = parse(["train-dict", "--scenes", "a", "--atom", "1,1,2,2,2", "--lambda", "0.1",
                "--out", "b"])
    defaults = inspect.signature(cs_dict.train_dictionary).parameters
    for name in ("k", "lr", "batch_size", "fista_iters", "epochs"):
        assert getattr(td, name) == defaults[name].default, name


# Every flag of every subcommand ("" is the top-level parser), as the parser
# had it before the dictionary commands took their patching flags from one
# parent: option string: (dest, type, default, required, choices, nargs).
FLAG_SURFACE = {
    '': {
        '--threads': ('threads', '_thread_count', None, False, None, None),
    },
    'gen-scene': {
        '--pattern': ('pattern', None, 'checker', False, None, None),
        '--disparity': ('disparity', None, 'constant:0.5', False, None, None),
        '--dims': ('dims', None, None, True, None, None),
        '--seed': ('seed', '_seed', 0, False, None, None),
        '--noise-sigma': ('noise_sigma', 'float', 0.0, False, None, None),
        '--out-prefix': ('out_prefix', None, None, True, None, None),
        '--png-preview': ('png_preview', None, False, False, None, 0),
    },
    'mask-gen': {
        '--dims': ('dims', None, None, True, None, None),
        '--seed': ('seed', 'int', 0, False, None, None),
        '--out': ('out', None, None, True, None, None),
    },
    'encode': {
        '--in': ('infile', None, None, True, None, None),
        '--mask': ('mask', None, None, False, None, None),
        '--seed': ('seed', 'int', 0, False, None, None),
        '--out-coded': ('out_coded', None, None, True, None, None),
        '--out-mask': ('out_mask', None, None, False, None, None),
    },
    'project': {
        '--in': ('infile', None, None, True, None, None),
        '--out': ('out', None, None, True, None, None),
    },
    'lift': {
        '--in': ('infile', None, None, True, None, None),
        '--mask': ('mask', None, None, True, None, None),
        '--out': ('out', None, None, True, None, None),
    },
    'reconstruct-dct': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--in': ('infile', None, None, True, None, None),
        '--mask': ('mask', None, None, True, None, None),
        '--lambda': ('lam', 'float', None, True, None, None),
        '--max-iters': ('max_iters', 'int', 500, False, None, None),
        '--memory': ('memory', 'int', 10, False, None, None),
        '--grad-tol': ('grad_tol', 'float', None, False, None, None),
        '--out': ('out', None, None, True, None, None),
        '--report': ('report', None, None, False, None, None),
        '--png-preview': ('png_preview', None, False, False, None, 0),
    },
    'train-dict': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--scenes': ('scenes', None, None, True, None, '+'),
        '--atom': ('atom', None, None, True, None, None),
        '--spatial-overlap': ('spatial_overlap', None, '4,4', False, None, None),
        '--angular-overlap': ('angular_overlap', None, '1,1', False, None, None),
        '--k': ('k', 'float', 2.0, False, None, None),
        '--lambda': ('lam', 'float', None, True, None, None),
        '--lr': ('lr', 'float', 0.01, False, None, None),
        '--batch-size': ('batch_size', 'int', 16, False, None, None),
        '--fista-iters': ('fista_iters', 'int', 50, False, None, None),
        '--epochs': ('epochs', 'int', 5, False, None, None),
        '--seed': ('seed', '_seed', 0, False, None, None),
        '--out': ('out', None, None, True, None, None),
        '--report': ('report', None, None, False, None, None),
    },
    'reconstruct-dict': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--in': ('infile', None, None, True, None, None),
        '--mask': ('mask', None, None, True, None, None),
        '--dict': ('dictionary', None, None, True, None, None),
        '--atom': ('atom', None, None, True, None, None),
        '--spatial-overlap': ('spatial_overlap', None, '4,4', False, None, None),
        '--angular-overlap': ('angular_overlap', None, '1,1', False, None, None),
        '--lambda': ('lam', 'float', None, True, None, None),
        '--iters': ('iters', 'int', 300, False, None, None),
        '--out': ('out', None, None, True, None, None),
        '--report': ('report', None, None, False, None, None),
        '--png-preview': ('png_preview', None, False, False, None, 0),
    },
    'train-toy': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--strategy': ('strategy', None, None, True, None, None),
        '--epochs': ('epochs', 'int', 20, False, None, None),
        '--seed': ('seed', '_seed', 0, False, None, None),
        '--data-seed': ('data_seed', '_seed', 99, False, None, None),
        '--scenes': ('scenes', 'int', 200, False, None, None),
        '--dims': ('dims', None, '3,3,8,8,5', False, None, None),
        '--hidden': ('hidden', 'int', 64, False, None, None),
        '--head-hidden': ('head_hidden', 'int', 64, False, None, None),
        '--batch-size': ('batch_size', 'int', 16, False, None, None),
        '--lr': ('lr', 'float', 0.1, False, None, None),
        '--momentum': ('momentum', 'float', 0.9, False, None, None),
        '--weight-decay': ('weight_decay', 'float', 0.0, False, None, None),
        '--gradnorm-gamma': ('gradnorm_gamma', 'float', 1.5, False, None, None),
        '--normgradsim-step': ('normgradsim_step', 'float', 0.1, False, None, None),
        '--log': ('log', None, None, False, None, None),
        '--out': ('out', None, None, False, None, None),
    },
    'predict-toy': {
        '--net': ('net', None, None, True, None, None),
        '--in': ('infile', None, None, True, None, None),
        '--out-cv': ('out_cv', None, None, True, None, None),
        '--out-disp': ('out_disp', None, None, True, None, None),
        '--png-preview': ('png_preview', None, False, False, None, 0),
    },
    'evaluate': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--pred': ('pred', None, None, True, None, None),
        '--truth': ('truth', None, None, True, None, None),
        '--kind': ('kind', None, None, True, ('cv', 'disp'), None),
        '--peak': ('peak', 'float', 1.0, False, None, None),
        '--badpix-tau': ('badpix_tau', 'float', 0.07, False, None, None),
        '--out': ('out', None, None, False, None, None),
    },
    'calibrate': {
        '--no-timestamp': ('no_timestamp', None, False, False, None, 0),
        '--dark': ('dark', None, None, True, None, None),
        '--bright': ('bright', None, None, True, None, None),
        '--times': ('times', None, None, True, None, None),
        '--bayer': ('bayer', None, None, True, None, None),
        '--dark-mode': ('dark_mode', None, 'per-pixel', False, ('per-pixel', 'global'), None),
        '--threshold': ('threshold', 'float', 0.985, False, None, None),
        '--line-reach': ('line_reach', 'int', 5, False, None, None),
        '--line-axis': ('line_axis', None, 'row', False, ('row', 'col'), None),
        '--out': ('out', None, None, True, None, None),
    },
}


def test_flag_surface_is_unchanged():
    def surface(parser):
        return {
            a.option_strings[0]: (a.dest, getattr(a.type, "__name__", None), a.default,
                                  a.required, a.choices and tuple(a.choices), a.nargs)
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }

    parser = cli._build_parser.__wrapped__()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {"": surface(parser), **{name: surface(sp) for name, sp in sub.choices.items()}}
    assert got == FLAG_SURFACE


@pytest.mark.parametrize("argv", [["--help"], ["reconstruct-dct", "--help"]])
def test_help_is_unchanged_by_the_cached_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        assert run(argv) == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)
    texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: codedlf")
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("command", ["reconstruct-dct", "reconstruct-dict"])
def test_linalg_error_in_a_solve_is_a_numerical_failure(tmp_path, monkeypatch, capsys, scene,
                                                        command):
    # The solvers' LinAlgError (a ValueError) used to be reported as bad input.
    from codedlf import cs_dct, cs_dict

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cs_dct, "owlqn_reconstruct", singular)
    monkeypatch.setattr(cs_dict, "dict_reconstruct", singular)
    mask, dict_p = str(tmp_path / "m.lf5d"), str(tmp_path / "d.lfdc")
    proj = str(tmp_path / "p.lf5d")
    assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
                "--out-coded", str(tmp_path / "c.lf5d"), "--out-mask", mask]) == 0
    assert run(["project", "--in", str(tmp_path / "c.lf5d"), "--out", proj]) == 0
    cs_dict.write_dictionary(cs_dict.init_dictionary(2 * 2 * 4 * 4 * 5, 8, 0), dict_p)
    rec = tmp_path / "rec.lf5d"
    argv = {
        "reconstruct-dct": ["--lambda", "0.001"],
        "reconstruct-dict": ["--dict", dict_p, "--atom", "2,2,4,4,5", "--lambda", "0.001"],
    }[command]
    capsys.readouterr()
    assert run([command, "--in", proj, "--mask", mask, *argv, "--out", str(rec)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "numerical failure: Singular matrix"
    assert "Traceback" not in err and not rec.exists()


@pytest.mark.parametrize("command", ["train-toy", "train-dict"])
def test_model_that_cannot_be_stored_is_a_numerical_failure(tmp_path, capsys, scene, command):
    # The trained values overflow float32.  Inputs are checked when read, so
    # such values were computed: the run writes nothing and exits 2.
    out, log = tmp_path / "model", tmp_path / "log.json"
    argv = {
        "train-toy": ["--strategy", "naive", "--epochs", "2", "--scenes", "10", "--hidden",
                      "4", "--head-hidden", "4", "--lr", "1e12", "--momentum", "0",
                      "--log", str(log)],
        "train-dict": ["--scenes", scene + ".lf.lf5d", "--atom", "2,2,4,4,5",
                       "--spatial-overlap", "1,1", "--angular-overlap", "0,0", "--lambda",
                       "0.05", "--lr", "1e308", "--epochs", "1", "--fista-iters", "10",
                       "--report", str(log)],
    }[command]
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == {
        "train-toy": f"numerical failure: {out}: cannot write non-finite float32 values",
        # the NaN atoms of the first update stop the next batch's FISTA solve
        "train-dict": "numerical failure: FISTA objective is nan at iteration 1",
    }[command]
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["reconstruct-dct", "train-toy"])
def test_non_finite_objective_is_a_numerical_failure(tmp_path, capsys, scene, command):
    # reconstruct-dct used to write --out and then exit 1 on an inf in its
    # report; train-toy exited 0 with an inf in its log.
    out, side = tmp_path / "out", tmp_path / "side.json"
    argv = {
        "reconstruct-dct": ["--in", str(tmp_path / "p.lf5d"), "--mask", str(tmp_path / "m.lf5d"),
                            "--lambda", "1e308", "--report", str(side)],
        "train-toy": ["--strategy", "naive", "--epochs", "1", "--scenes", "10", "--hidden", "4",
                      "--head-hidden", "4", "--lr", "1e100", "--momentum", "0",
                      "--log", str(side)],
    }[command]
    assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7", "--out-coded",
                str(tmp_path / "c.lf5d"), "--out-mask", str(tmp_path / "m.lf5d")]) == 0
    assert run(["project", "--in", str(tmp_path / "c.lf5d"), "--out",
                str(tmp_path / "p.lf5d")]) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run([command, *argv, "--out", str(out)]) == 2
    assert re.fullmatch({
        "reconstruct-dct": r"numerical failure: OWL-QN objective is inf at iteration 0",
        "train-toy": r"numerical failure: validation losses \S+, inf at epoch 0",
    }[command], capsys.readouterr().err.splitlines()[-1])
    assert not out.exists() and not side.exists()


def test_dict_cli_round_trip(tmp_path, scene):
    dict_p = str(tmp_path / "d.lfdc")
    assert run(["train-dict", "--scenes", scene + ".lf.lf5d", "--atom",
                "2,2,4,4,5", "--spatial-overlap", "1,1", "--angular-overlap",
                "0,0", "--lambda", "0.05", "--lr", "0.05", "--epochs", "1",
                "--fista-iters", "10", "--out", dict_p]) == 0
    coded = str(tmp_path / "c.lf5d")
    mask = str(tmp_path / "m.lf5d")
    proj = str(tmp_path / "p.lf5d")
    run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
         "--out-coded", coded, "--out-mask", mask])
    run(["project", "--in", coded, "--out", proj])
    rec = str(tmp_path / "rec.lf5d")
    argv = ["reconstruct-dict", "--in", proj, "--mask", mask, "--dict",
            dict_p, "--atom", "2,2,4,4,5", "--spatial-overlap", "1,1",
            "--angular-overlap", "0,0", "--lambda", "0.001", "--iters", "40"]
    assert run(argv + ["--out", rec]) == 0
    assert tensor.read_lf5d(rec).shape == (3, 3, 16, 16, 5)

    # --report adds a JSON file and leaves the reconstruction as it is;
    # with --no-timestamp, re-runs write the same bytes.
    reports = []
    for i in range(2):
        out, rep = str(tmp_path / f"rec{i}.lf5d"), tmp_path / f"rep{i}.json"
        assert run(argv + ["--out", out, "--report", str(rep), "--no-timestamp"]) == 0
        assert Path(out).read_bytes() == Path(rec).read_bytes()
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert sorted(report) == ["final_objective", "iterations", "lipschitz_bound",
                              "restarts", "step"]
    # --iters is a cap: the stop rule may end the solve before it
    assert 0 < report["iterations"] <= 40
    assert 0 <= report["restarts"] <= report["iterations"]
    assert report["step"] == 1.0 / (2.0 * report["lipschitz_bound"])
    assert report["final_objective"] > 0


def test_train_dict_report_and_reruns(tmp_path, scene):
    # --report writes the per-epoch objectives and FISTA restarts; with
    # --no-timestamp, re-runs write the same dictionary and report bytes.
    files = []
    for i in range(2):
        dict_p, rep = tmp_path / f"d{i}.lfdc", tmp_path / f"r{i}.json"
        assert run(["train-dict", "--scenes", scene + ".lf.lf5d", "--atom", "2,2,4,4,5",
                    "--spatial-overlap", "1,1", "--angular-overlap", "0,0", "--lambda", "0.05",
                    "--lr", "0.05", "--epochs", "2", "--fista-iters", "10", "--out", str(dict_p),
                    "--report", str(rep), "--no-timestamp"]) == 0
        files.append((dict_p.read_bytes(), rep.read_bytes()))
    assert files[0] == files[1]
    report = json.loads(files[0][1])
    assert sorted(report) == ["epoch_objectives", "restarts"]
    assert len(report["epoch_objectives"]) == len(report["restarts"]) == 2
    assert all(r >= 0 for r in report["restarts"])


def test_solver_reports_keep_their_key_order(tmp_path, scene):
    # Each report is its dataclass in field order; a reordered field would
    # change the bytes of every --no-timestamp report.
    coded, mask, proj = (str(tmp_path / f"{n}.lf5d") for n in ("c", "m", "p"))
    dict_p = str(tmp_path / "d.lfdc")
    patching = ["--atom", "2,2,4,4,5", "--spatial-overlap", "1,1", "--angular-overlap", "0,0"]
    assert run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
                "--out-coded", coded, "--out-mask", mask]) == 0
    assert run(["project", "--in", coded, "--out", proj]) == 0
    runs = {
        "reconstruct-dct": (["--in", proj, "--mask", mask, "--lambda", "0.001",
                             "--max-iters", "3", "--out", str(tmp_path / "r.lf5d")],
                            ["iterations", "termination", "final_objective", "evaluations",
                             "pairs_skipped", "objectives"]),
        "train-dict": (["--scenes", scene + ".lf.lf5d", *patching, "--lambda", "0.05",
                        "--epochs", "1", "--fista-iters", "3", "--out", dict_p],
                       ["epoch_objectives", "restarts"]),
        "reconstruct-dict": (["--in", proj, "--mask", mask, "--dict", dict_p, *patching,
                              "--lambda", "0.001", "--iters", "3",
                              "--out", str(tmp_path / "rd.lf5d")],
                             ["iterations", "restarts", "lipschitz_bound", "step",
                              "final_objective"]),
    }
    for command, (argv, keys) in runs.items():
        rep = tmp_path / f"{command}.json"
        assert run([command, *argv, "--report", str(rep), "--no-timestamp"]) == 0, command
        assert list(json.loads(rep.read_text())) == keys, command
        assert run([command, *argv, "--report", str(rep)]) == 0, command
        assert list(json.loads(rep.read_text())) == keys + ["timestamp"], command


@pytest.mark.parametrize("bad", ["--out", "--report"])
def test_train_dict_checks_output_dirs_before_training(tmp_path, monkeypatch, capsys, scene, bad):
    from codedlf import cs_dict

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output paths were checked")

    monkeypatch.setattr(cs_dict, "train_dictionary", no_training)
    paths = {"--out": str(tmp_path / "d.lfdc"), "--report": str(tmp_path / "r.json")}
    paths[bad] = str(tmp_path / "missing" / "x")
    before = sorted(os.listdir(tmp_path))
    assert run(["train-dict", "--scenes", scene + ".lf.lf5d", "--atom", "2,2,4,4,5",
                "--lambda", "0.05", *[x for kv in paths.items() for x in kv]]) == 1
    assert f"output directory not found: {paths[bad]}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


# One argument list per subcommand; the inputs need not exist, because the
# output paths are checked first.
_OUTPUT_CASES = {
    "gen-scene": ["--dims", "1,1,4,4,2", "--out-prefix", "OUT"],
    "mask-gen": ["--dims", "4,4,2", "--out", "OUT"],
    "encode": ["--in", "IN", "--out-coded", "OUT", "--out-mask", "OUT"],
    "project": ["--in", "IN", "--out", "OUT"],
    "lift": ["--in", "IN", "--mask", "IN", "--out", "OUT"],
    "reconstruct-dct": ["--in", "IN", "--mask", "IN", "--lambda", "0.1", "--out", "OUT",
                        "--report", "OUT"],
    "train-dict": ["--scenes", "IN", "--atom", "1,1,2,2,2", "--lambda", "0.1", "--out", "OUT",
                   "--report", "OUT"],
    "reconstruct-dict": ["--in", "IN", "--mask", "IN", "--dict", "IN", "--atom", "1,1,2,2,2",
                         "--lambda", "0.1", "--out", "OUT", "--report", "OUT"],
    "train-toy": ["--strategy", "naive", "--log", "OUT", "--out", "OUT"],
    "predict-toy": ["--net", "IN", "--in", "IN", "--out-cv", "OUT", "--out-disp", "OUT"],
    "evaluate": ["--pred", "IN", "--truth", "IN", "--kind", "cv", "--out", "OUT"],
    "calibrate": ["--dark", "IN", "--bright", "IN", "--times", "IN", "--bayer", "IN",
                  "--out", "OUT"],
}


def test_parsing_every_subcommand_leaves_numpy_unloaded():
    # --threads must be applied before numpy loads, so importing the CLI and
    # parsing any subcommand's argv may not import it.  A fresh interpreter,
    # because this one has loaded numpy long ago.
    script = (
        "import argparse, json, sys\n"
        "from codedlf import cli\n"
        "parser = cli._build_parser()\n"
        "sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))\n"
        "table = json.loads(sys.argv[1])\n"
        "assert sorted(table) == sorted(sub.choices), sorted(sub.choices)\n"
        "for command, argv in table.items():\n"
        "    assert parser.parse_args(['--threads', '1', command, *argv]).command == command\n"
        "print(json.dumps('numpy' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(codedlf.__file__)))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(_OUTPUT_CASES)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) is False


# The subcommands that write a JSON report, and train-toy, which ignores it.
_TAKE_NO_TIMESTAMP = {"reconstruct-dct", "train-dict", "reconstruct-dict", "train-toy",
                      "evaluate", "calibrate"}


@pytest.mark.parametrize("command", sorted(_OUTPUT_CASES))
def test_no_timestamp_belongs_to_the_report_writers(capsys, command):
    argv = [command, *_OUTPUT_CASES[command], "--no-timestamp"]
    if command in _TAKE_NO_TIMESTAMP:
        assert cli._build_parser().parse_args(argv).no_timestamp
    else:
        assert run(argv) == 1
        assert "unrecognized arguments: --no-timestamp" in capsys.readouterr().err


# An output path in a missing directory, and one that is a directory; the
# --out-prefix stem may name a directory, since its files go next to it.
@pytest.mark.parametrize("case", [
    (command, i, directory) for command, argv in _OUTPUT_CASES.items()
    for i, arg in enumerate(argv) if arg == "OUT"
    for directory in (False, True) if not (directory and argv[i - 1] == "--out-prefix")
], ids=lambda case: f"{case[0]}-{_OUTPUT_CASES[case[0]][case[1] - 1]}"
                    + ("-directory" if case[2] else ""))
def test_every_output_dir_is_checked_before_any_work(tmp_path, capsys, case):
    command, bad, directory = case
    if directory:
        path = tmp_path / "dir"
        path.mkdir()
        message = f"output path is a directory: {path}"
    else:
        path = tmp_path / "missing" / "out"
        message = f"output directory not found: {path}"
    argv = [str(path) if i == bad else str(tmp_path / f"o{i}") if arg == "OUT"
            else str(tmp_path / "in") if arg == "IN" else arg
            for i, arg in enumerate(_OUTPUT_CASES[command])]
    assert run([command, *argv]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == (["dir"] if directory else [])
    if directory:
        assert os.listdir(path) == []


_TRAIN_DICT = {"--atom": "2,2,4,4,5", "--lambda": "0.05"}
_RECON_DICT = {"--atom": "2,2,4,4,5", "--lambda": "0.001"}


@pytest.mark.parametrize("command, flag, value, message", [
    ("train-dict", "--k", "0", "k = 0.0 gives 0 atoms"),
    ("train-dict", "--k", "0.001", "k = 0.001 gives 0 atoms"),
    ("train-dict", "--k", "inf", "k = inf gives 0 atoms"),
    ("train-dict", "--lambda", "nan", "lam must be finite and >= 0"),
    ("train-dict", "--lambda", "-1", "lam must be finite and >= 0"),
    ("train-dict", "--lr", "nan", "lr must be finite"),
    ("train-dict", "--lr", "-1", "lr must be finite and >= 0"),
    ("train-dict", "--k", "1e9", "an LFDC file holds fewer than 2**32"),
    ("train-dict", "--k", "1e308", "an LFDC file holds fewer than 2**32"),
    ("train-dict", "--epochs", "0", "epochs must be an integer >= 1"),
    ("train-dict", "--batch-size", "0", "batch_size must be an integer >= 1"),
    ("train-dict", "--batch-size", "-2", "batch_size must be an integer >= 1"),
    ("train-dict", "--fista-iters", "0", "fista_iters must be an integer >= 1"),
    ("train-dict", "--spatial-overlap", "1", "--spatial-overlap needs 2 comma-separated"),
    ("train-dict", "--angular-overlap", "1,-1", "--angular-overlap values must be >= 0"),
    ("train-dict", "--atom", "2,2,4,4", "--atom needs 5 comma-separated integers u,v,s,t,C"),
    ("train-dict", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("reconstruct-dict", "--lambda", "-1", "lam must be finite and >= 0"),
    ("reconstruct-dict", "--lambda", "inf", "lam must be finite and >= 0"),
    ("reconstruct-dict", "--iters", "-1", "iters must be an integer >= 0"),
    ("reconstruct-dict", "--spatial-overlap", "1", "--spatial-overlap needs 2 comma-separated"),
    ("reconstruct-dict", "--atom", "2,2,x,4,5", "--atom needs 5 comma-separated integers"),
])
def test_dict_commands_reject_bad_knobs(tmp_path, monkeypatch, capsys, command, flag, value,
                                        message):
    def no_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(tensor, "read_lf5d", no_read)
    out = tmp_path / "out"
    if command == "train-dict":
        argv = ["train-dict", "--scenes", str(tmp_path / "s.lf5d"), "--out", str(out)]
        knobs = dict(_TRAIN_DICT)
    else:
        argv = ["reconstruct-dict", "--in", str(tmp_path / "p.lf5d"), "--mask",
                str(tmp_path / "m.lf5d"), "--dict", str(tmp_path / "d.lfdc"), "--out", str(out)]
        knobs = dict(_RECON_DICT)
    knobs[flag] = value
    capsys.readouterr()
    # The inputs do not exist: the knobs are checked before any file is read.
    assert run(argv + [x for kv in knobs.items() for x in kv]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _reconstruct_dict(tmp_path, scene, *knobs):
    """Train a dictionary on the scene, code and project it, and run
    reconstruct-dict with `knobs`, which must exit 0; returns the path of
    the reconstruction."""
    dict_p = str(tmp_path / "d.lfdc")
    assert run(["train-dict", "--scenes", scene + ".lf.lf5d", "--atom", "2,2,4,4,5",
                "--spatial-overlap", "1,1", "--angular-overlap", "0,0", "--lambda", "0.05",
                "--epochs", "1", "--fista-iters", "2", "--out", dict_p]) == 0
    mask = str(tmp_path / "m.lf5d")
    proj = str(tmp_path / "p.lf5d")
    run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
         "--out-coded", str(tmp_path / "c.lf5d"), "--out-mask", mask])
    run(["project", "--in", str(tmp_path / "c.lf5d"), "--out", proj])
    rec = str(tmp_path / "rec.lf5d")
    assert run(["reconstruct-dict", "--in", proj, "--mask", mask, "--dict", dict_p,
                "--atom", "2,2,4,4,5", "--spatial-overlap", "1,1", "--angular-overlap",
                "0,0", *knobs, "--out", rec]) == 0
    return rec


def test_reconstruct_dict_zero_iters_gives_zero_codes(tmp_path, scene):
    rec = _reconstruct_dict(tmp_path, scene, "--lambda", "0.001", "--iters", "0")
    assert not tensor.read_lf5d(rec).any()


def test_reconstruct_dict_huge_lambda_gives_zero_codes(tmp_path, scene):
    # Its float32 threshold is clamped to the largest float32, which still
    # zeroes every code; an overflow in the cast would be an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = _reconstruct_dict(tmp_path, scene, "--lambda", "1e300")
    assert not tensor.read_lf5d(rec).any()


# ---------------------------------------------------------------------------
# The exit-code contract under damaged containers: every subcommand that reads
# LF5D, LFDC or LFNN files exits 0 or 1 when one of them has bytes flipped,
# is cut short, has bytes appended or has its header changed.

_FUZZ_ATOM = ["--atom", "2,2,4,4,5", "--spatial-overlap", "1,1", "--angular-overlap", "0,0"]

# command: (its other arguments, {input flag: the sound file it reads, by its
# name in fuzz_inputs}, its output flags)
_FUZZ_COMMANDS = {
    "project": ([], {"--in": "coded"}, ["--out"]),
    "lift": ([], {"--in": "projected", "--mask": "mask"}, ["--out"]),
    "encode": ([], {"--in": "lf", "--mask": "mask"}, ["--out-coded"]),
    "reconstruct-dct": (
        ["--lambda", "0.001", "--max-iters", "3"], {"--in": "projected", "--mask": "mask"},
        ["--out"],
    ),
    "evaluate": (["--kind", "cv", "--no-timestamp"], {"--pred": "lf", "--truth": "lf"}, ["--out"]),
    "reconstruct-dict": (
        ["--lambda", "0.001", "--iters", "5", *_FUZZ_ATOM],
        {"--in": "projected", "--mask": "mask", "--dict": "dict"}, ["--out"],
    ),
    "predict-toy": ([], {"--net": "net", "--in": "coded"}, ["--out-cv", "--out-disp"]),
}

# Header lengths: LF5D's fixed 26 bytes, LFDC's 12, and LFNN's 8 plus its
# JSON spec, whose length the file's bytes 4..7 give.
_FUZZ_HEADERS = {"lf5d": lambda raw: 26, "lfdc": lambda raw: 12,
                 "lfnn": lambda raw: 8 + int.from_bytes(raw[4:8], "little")}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Sound inputs of every kind, dims (3, 3, 8, 8, 5), by name."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(d / f"{name}.{ext}") for name, ext in (
        ("coded", "lf5d"), ("projected", "lf5d"), ("mask", "lf5d"), ("dict", "lfdc"),
        ("net", "lfnn"),
    )}
    prefix = str(d / "s")
    paths["lf"] = prefix + ".lf.lf5d"
    assert run(["gen-scene", "--pattern", "random-smooth", "--dims", "3,3,8,8,5",
                "--seed", "3", "--out-prefix", prefix]) == 0
    assert run(["encode", "--in", paths["lf"], "--seed", "4", "--out-coded", paths["coded"],
                "--out-mask", paths["mask"]]) == 0
    assert run(["project", "--in", paths["coded"], "--out", paths["projected"]]) == 0
    assert run(["train-dict", "--scenes", paths["lf"], *_FUZZ_ATOM, "--lambda", "0.05",
                "--epochs", "1", "--fista-iters", "5", "--out", paths["dict"]]) == 0
    assert run(["train-toy", "--strategy", "naive", "--epochs", "1", "--scenes", "8",
                "--dims", "3,3,8,8,5", "--hidden", "4", "--head-hidden", "4",
                "--log", str(d / "log.json"), "--out", paths["net"]]) == 0
    return paths


def _damaged(raw: bytes, kind: str, rng) -> bytes:
    """`raw` with bytes flipped, cut off, appended or changed in its header."""
    buf = bytearray(raw)
    if kind == "flip":
        for pos in rng.integers(0, len(buf), size=rng.integers(1, 5)):
            buf[pos] ^= int(rng.integers(1, 256))
    elif kind == "truncate":
        del buf[int(rng.integers(0, len(buf))):]
    elif kind == "extend":
        buf += rng.integers(0, 256, size=rng.integers(1, 17)).astype(np.uint8).tobytes()
    else:  # a header byte, magic and length fields included
        header = _FUZZ_HEADERS[kind](raw)
        for pos in rng.integers(0, header, size=rng.integers(1, 4)):
            buf[pos] = int(rng.integers(0, 256))
    return bytes(buf)


def _reads_cleanly(path: str) -> bool:
    from codedlf import autodiff, cs_dict

    reader = {".lf5d": tensor.read_lf5d, ".lfdc": cs_dict.read_dictionary,
              ".lfnn": autodiff.load_net}[os.path.splitext(path)[1]]
    try:
        reader(path)
    except ValueError:
        return False
    return True


# Cases that exit 2, as the contract allows when every input was read
# cleanly and a solver then failed on the values: none so far.
_FUZZ_NUMERICAL = set()


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
def test_damaged_inputs_keep_the_exit_code_contract(command, fuzz_inputs, tmp_path, capsys):
    others, sources, out_flags = _FUZZ_COMMANDS[command]
    rng = np.random.default_rng(sorted(_FUZZ_COMMANDS).index(command))
    outs = [a for flag in out_flags for a in (flag, str(tmp_path / f"out{flag}.x"))]
    broken, numerical = [], set()
    for flag, name in sources.items():
        raw = Path(fuzz_inputs[name]).read_bytes()
        ext = os.path.splitext(fuzz_inputs[name])[1][1:]
        for kind in ("flip", "truncate", "extend", ext):
            for k in range(8):
                case = f"{command} {flag} {kind} {k}"
                damaged = str(tmp_path / f"damaged.{ext}")
                with open(damaged, "wb") as fh:
                    fh.write(_damaged(raw, kind, rng))
                ins = [a for f, n in sources.items()
                       for a in (f, damaged if f == flag else fuzz_inputs[n])]
                with np.errstate(all="ignore"):
                    code = run([command, *others, *ins, *outs])
                err = capsys.readouterr().err
                if code == 2 and _reads_cleanly(damaged):
                    numerical.add(case)
                elif code not in (0, 1):
                    broken.append((case, code, err.strip().splitlines()[-1:]))
    assert not broken
    assert numerical == {c for c in _FUZZ_NUMERICAL if c.startswith(command + " ")}
