"""CLI contract tests: files, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys

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
    data = json.loads(open(report).read())
    assert data["psnr_db"] == "inf"
    assert data["mse_px2"] == 0.0


def test_evaluate_identical_cv(scene, tmp_path):
    report = str(tmp_path / "r.json")
    assert run(["evaluate", "--pred", scene + ".cv.lf5d", "--truth",
                scene + ".cv.lf5d", "--kind", "cv", "--no-timestamp",
                "--out", report]) == 0
    data = json.loads(open(report).read())
    assert data["psnr_db"] == "inf"
    assert data["ssim"] == 1.0
    assert data["badpix07_pct"] is None


def test_evaluate_disp_kind(scene, tmp_path):
    report = str(tmp_path / "d.json")
    assert run(["evaluate", "--pred", scene + ".disp.lf5d", "--truth",
                scene + ".disp.lf5d", "--kind", "disp", "--no-timestamp",
                "--out", report]) == 0
    data = json.loads(open(report).read())
    assert data["badpix07_pct"] == 0.0
    assert data["ssim"] is None


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


def test_png_preview(tmp_path):
    prefix = str(tmp_path / "p")
    assert run(["gen-scene", "--pattern", "spectral-stripes", "--dims",
                "3,3,8,8,5", "--out-prefix", prefix, "--png-preview"]) == 0
    png = (tmp_path / "p.cv.png").read_bytes()
    assert png[:8] == b"\x89PNG\r\n\x1a\n"


def _calib_inputs(tmp_path):
    rng = np.random.default_rng(3)
    i_dim = j_dim = 8
    k_dim, n_exp = 3, 6
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
    data = json.loads(open(out).read())
    assert (tmp_path / data["vignetting"]).exists()
    assert len(data["responsivity"]) == 3
    assert data["unrecoverable"]["pixels"] == []
    v = tensor.read_lf5d(tmp_path / data["vignetting"])[0, 0, :, :, 0]
    assert abs(v.mean() - 1.0) <= 1e-5


def test_calibrate_cli_global_dark(tmp_path):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    out = str(tmp_path / "calib.json")
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--dark-mode", "global", "--out", out,
                "--no-timestamp"]) == 0
    data = json.loads(open(out).read())
    assert data["dark"]["mode"] == "global"
    assert data["unrecoverable"]["pixels"] == []


def test_calibrate_cli_reports_unrecoverable_pixel(tmp_path):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    x = tensor.read_lf5d(bright).copy()
    x[:, 0, 3, 4, :] = 1.0  # saturated at every exposure and filter
    tensor.write_lf5d(x, bright)
    out = str(tmp_path / "calib.json")
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--out", out, "--no-timestamp"]) == 0
    data = json.loads(open(out).read())
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
])
def test_calibrate_rejects_malformed_containers(tmp_path, capsys, bad, message):
    bright, dark, bayer, times = _calib_inputs(tmp_path)
    if bad == "bayer-fraction":
        _set_bayer_value(bayer, 1.7)  # used to be truncated to 1
    elif bad == "bayer-range":
        _set_bayer_value(bayer, 3.0)
    else:  # extra slices used to be dropped silently
        _double_axis(bright if bad == "bright-v" else dark, 4 if bad == "dark-k" else 1)
    assert run(["calibrate", "--dark", dark, "--bright", bright, "--times",
                times, "--bayer", bayer, "--out", str(tmp_path / "c.json")]) == 1
    assert message in capsys.readouterr().err


def test_threads_flag_overrides_preset_variables(tmp_path, monkeypatch):
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    assert run(["--threads", "2", "mask-gen", "--dims", "4,4,3", "--out",
                str(tmp_path / "m.lf5d")]) == 0
    assert {var: os.environ[var] for var in thread_vars} == dict.fromkeys(thread_vars, "2")


def test_train_and_predict_toy(tmp_path):
    log = str(tmp_path / "log.json")
    net = str(tmp_path / "net.lfnn")
    assert run(["train-toy", "--strategy", "naive", "--epochs", "1",
                "--scenes", "12", "--dims", "3,3,8,8,5", "--seed", "1",
                "--log", log, "--out", net, "--no-timestamp"]) == 0
    entries = json.loads(open(log).read())
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
                    "0.001", "--max-iters", "10", "--out", rec, "--report", str(rep),
                    "--no-timestamp"]) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert sorted(data) == ["evaluations", "final_objective", "iterations", "objectives",
                            "pairs_skipped", "termination"]
    assert data["termination"] in ("converged", "max_iters", "line_search_failed")
    objs = data["objectives"]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    assert data["evaluations"] >= data["iterations"] == len(objs) - 1
    assert 0 <= data["pairs_skipped"] <= data["iterations"]


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda", "nan", "lam must be finite"),
    ("--lambda", "inf", "lam must be finite"),
    ("--max-iters", "-3", "max_iters must be >= 0"),
    ("--grad-tol", "nan", "grad_tol must be finite"),
    ("--grad-tol", "inf", "grad_tol must be finite"),
])
def test_reconstruct_dct_rejects_bad_knobs(tmp_path, scene, capsys, flag, value, message):
    mask = str(tmp_path / "m.lf5d")
    proj = str(tmp_path / "p.lf5d")
    run(["encode", "--in", scene + ".lf.lf5d", "--seed", "7",
         "--out-coded", str(tmp_path / "c.lf5d"), "--out-mask", mask])
    run(["project", "--in", str(tmp_path / "c.lf5d"), "--out", proj])
    argv = {"--lambda": "0.001", "--max-iters": "5"}
    argv[flag] = value
    rec = tmp_path / "rec.lf5d"
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    assert run(["reconstruct-dct", "--in", proj, "--mask", mask, "--out", str(rec),
                "--report", str(rep), *[x for kv in argv.items() for x in kv]]) == 1
    assert message in capsys.readouterr().err
    assert not rec.exists() and not rep.exists()


def test_train_toy_unknown_strategy(capsys):
    assert run(["train-toy", "--strategy", "bogus", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "unknown strategy 'bogus'" in err and "mtu+al" in err


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
    ("--hidden", "0", "hidden must be >= 1"),
    ("--head-hidden", "0", "head_hidden must be >= 1"),
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


@pytest.mark.parametrize("exc, code, prefix", [
    (TypeError("boom"), 3, "internal error: TypeError: boom"),
    (KeyError("boom"), 3, "internal error: KeyError: 'boom'"),
    (ZeroDivisionError("boom"), 2, "numerical failure: boom"),
    (np.linalg.LinAlgError("boom"), 2, "numerical failure: boom"),
    (ValueError("boom"), 1, "error: boom"),
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
        assert open(out, "rb").read() == open(rec, "rb").read()
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert sorted(report) == ["final_objective", "iterations", "lipschitz_bound",
                              "restarts", "step"]
    assert report["iterations"] == 40
    assert 0 <= report["restarts"] <= 40
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


@pytest.mark.parametrize("case", [
    (command, i) for command, argv in _OUTPUT_CASES.items()
    for i, arg in enumerate(argv) if arg == "OUT"
], ids=lambda case: f"{case[0]}-{_OUTPUT_CASES[case[0]][case[1] - 1]}")
def test_every_output_dir_is_checked_before_any_work(tmp_path, capsys, case):
    command, bad = case
    missing = str(tmp_path / "missing" / "out")
    argv = [missing if i == bad else str(tmp_path / f"o{i}") if arg == "OUT"
            else str(tmp_path / "in") if arg == "IN" else arg
            for i, arg in enumerate(_OUTPUT_CASES[command])]
    assert run([command, *argv]) == 1
    assert f"output directory not found: {missing}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
    ("train-dict", "--epochs", "0", "epochs must be an integer >= 1"),
    ("train-dict", "--batch-size", "0", "batch_size must be an integer >= 1"),
    ("train-dict", "--batch-size", "-2", "batch_size must be an integer >= 1"),
    ("train-dict", "--fista-iters", "0", "fista_iters must be an integer >= 1"),
    ("train-dict", "--spatial-overlap", "1", "--spatial-overlap needs 2 comma-separated"),
    ("train-dict", "--angular-overlap", "1,-1", "--angular-overlap values must be >= 0"),
    ("train-dict", "--atom", "2,2,4,4", "--atom needs 5 comma-separated integers u,v,s,t,C"),
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


def test_reconstruct_dict_zero_iters_gives_zero_codes(tmp_path, scene):
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
                "0,0", "--lambda", "0.001", "--iters", "0", "--out", rec]) == 0
    assert not tensor.read_lf5d(rec).any()
