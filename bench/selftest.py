"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload once at toy sizes and requires its outputs to pass
their checks; then feeds each check a deliberately corrupted copy of those
outputs and requires that check to reject it, so that no check is vacuous.
It also checks the FFT-based DCT against the DCT-II definition, that
BENCHMARK.json names the workloads and per-layer metrics of the code, that a
traced operation gives the same output as an untraced one, and that the
benchmark exits non-zero without a result when the sources are missing.
Work files go to `.bench_out/` and are removed.  Exits 0 when all pass.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


def expect(ok, what) -> None:
    if not ok:
        raise AssertionError(what)


def _replace(out: dict, **changes) -> dict:
    new = dict(out)
    new.update(changes)
    return new


def _rising(report):
    objs = list(report["objectives"])
    objs[1] = objs[0] + 1.0
    return {**report, "objectives": objs}


def _scale_bayer0(v, bayer, factor):
    v = v.copy()
    v[bayer == 0] *= factor
    return v


def _log_disp_rises(log):
    log = [dict(e) for e in log]
    log[-1]["loss_disp"] = log[0]["loss_disp"] + 0.1
    return log


# One corruption per (workload, check): each must make that check fail.
CORRUPT = {
    ("owlqn-dct", "objectives non-increasing"):
        lambda wl, out: _replace(out, report=_rising(out["report"])),
    ("owlqn-dct", "final objective recomputed"):
        lambda wl, out: _replace(out, rec=out["rec"] * np.float32(1.001)),
    ("dict-fista", "atoms have unit norm"):
        lambda wl, out: _replace(out, atoms=out["atoms"] * np.r_[1.001, np.ones(out["atoms"].shape[1] - 1)]),
    ("dict-fista", "masked data residual"):
        lambda wl, out: _replace(out, rec=np.zeros_like(out["rec"])),
    ("toy-train-aux", "validation losses fall"):
        lambda wl, out: _replace(out, log=_log_disp_rises(out["log"])),
    ("toy-train-aux", "beats the constant predictor"):
        lambda wl, out: _replace(out, pred=np.zeros_like(out["pred"])),
    ("calib-fit", "v * r matches the truth"):
        lambda wl, out: _replace(out, v=_scale_bayer0(out["v"], wl.sensor.bayer, 1.05)),
    ("calib-fit", "mean(v) = 1 on recoverable pixels"):
        lambda wl, out: _replace(out, v=out["v"] * (1.0 + 1e-4)),
}


def check_dct() -> None:
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        k = np.arange(n)[:, None]
        x = np.arange(n)[None, :]
        mat = np.cos(np.pi * (2 * x + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
        mat[0] /= np.sqrt(2.0)
        a = rng.standard_normal((3, n, 2))
        expect(np.allclose(oracle.dct2_axis(a, 1), np.einsum("kx,ixj->ikj", mat, a), atol=1e-12), n)
    a = rng.standard_normal((2, 3, 4, 5, 3))
    expect(np.isclose(np.linalg.norm(oracle.dct5(a)), np.linalg.norm(a)), "DCT not orthonormal")


def check_workload(name: str, workdir: str) -> None:
    wl = workloads.WORKLOADS[name](seed=1, workdir=workdir, toy=True)
    wl.setup()
    key = list(wl.round())[0]
    rc = wl.run(key)
    expect(rc == 0, f"{name}: exit code {rc}")
    out = wl.load(key)
    failures = wl.check(key, out)
    expect(not failures, f"{name}: {failures}")
    err2, truth2 = wl.rel_err_terms(key, out)
    expect(truth2 > 0 and np.isfinite(err2), name)
    for label, method in wl.CHECKS:
        expect(getattr(wl, method)(key, out) is None, (name, label))
        bad = CORRUPT[(name, label)](wl, out)
        expect(getattr(wl, method)(key, bad), f"{name}: '{label}' accepted a corrupted output")
    print(f"ok {name}: rel_err {np.sqrt(err2 / truth2):.4g}; "
          f"{len(wl.CHECKS)} checks reject their corruptions")


def check_tracing(workdir: str) -> None:
    from codedlf import cli

    original = cli.main
    wl = workloads.WORKLOADS["owlqn-dct"](seed=2, workdir=workdir, toy=True)
    wl.setup()
    expect(wl.run(0) == 0, "untraced run failed")
    plain = wl.load(0)["rec"].copy()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "op-0"
        expect(wl.run(0) == 0, "traced run failed")
    finally:
        tracer.restore()
    expect(cli.main is original, "tracer did not restore cli.main")
    expect(np.array_equal(wl.load(0)["rec"], plain), "traced output differs")
    metrics = tracer.per_layer(n_ops=1, n_setups=1)
    expect(set(metrics) == {k for k in PER_LAYER if not k.startswith("trace.")}, "metric names")
    for key in ("transforms.dct5_forward.calls", "cs_dct.iterations", "tensor.read_lf5d.bytes"):
        expect(metrics[key] > 0, key)
    print(f"ok tracing: {len(tracer.spans)} spans, output identical, originals restored")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(listed == PER_LAYER, "per_layer list differs from tracing.PER_LAYER")


def check_bare_directory(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "calib-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without sources")
    print(f"ok bare directory: exit code {proc.returncode}, no result")


def main() -> int:
    base = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(base)
    try:
        check_dct()
        print("ok dct: FFT DCT-II matches the definition")
        check_benchmark_json()
        print("ok BENCHMARK.json: workloads and per-layer metrics match the code")
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(base, name))
            check_workload(name, os.path.join(base, name))
        os.makedirs(os.path.join(base, "trace"))
        check_tracing(os.path.join(base, "trace"))
        check_bare_directory(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
