"""Benchmark of the codedlf pipelines: one workload per run, one process.

    python3 bench/run.py --workload owlqn-dct --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/`.  BLAS is pinned to one thread before numpy loads.  The run sets up
the workload's inputs three times (the median is the set-up time), runs one
untimed warm-up operation, then runs whole rounds of operations in a closed
loop until `--seconds` have passed, checking every output.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
metrics, which are the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`.  The full result, with the machine facts
and the per-operation times, goes to `.bench_out/`, and so do the spans of a
traced run.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_in_force(np):
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes
    import glob

    pkg = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(pkg + ".libs", "*openblas*")) + glob.glob(
        os.path.join(pkg, ".libs", "*openblas*")
    )
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_in_force": blas_threads_in_force(np),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(wl, seconds: float, tracer=None) -> dict:
    """Set up, warm up and run `wl` in a closed loop; return the raw results."""
    setups = []
    for k in range(SETUP_REPEATS):
        if tracer:
            tracer.op = f"setup-{k}"
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)

    keys = list(wl.round())
    if tracer:
        tracer.op = "warmup"
    wl.run(keys[0])

    times, failures, terms = [], [], {}
    attempted = failed = 0
    correct = True
    t_loop = perf_counter()
    while True:
        for key in keys:
            if tracer:
                tracer.op = f"op-{attempted}"
            t0 = perf_counter()
            rc = wl.run(key)
            times.append(perf_counter() - t0)
            attempted += 1
            if rc != 0:
                failed += 1
                failures.append(f"op {attempted - 1} ({key}): exit code {rc}")
                continue
            try:
                out = wl.load(key)
            except (OSError, ValueError, KeyError) as exc:
                failed += 1
                correct = False
                failures.append(f"op {attempted - 1} ({key}): unreadable output: {exc!r}")
                continue
            bad = wl.check(key, out)
            if bad:
                failed += 1
                correct = False
                failures.extend(f"op {attempted - 1} ({key}): {msg}" for msg in bad)
            terms[key] = wl.rel_err_terms(key, out)
        if perf_counter() - t_loop >= seconds:
            break
    err2 = sum(e for e, _ in terms.values())
    truth2 = sum(t for _, t in terms.values())
    return {
        "setups": setups,
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
        "rel_err": (err2 / truth2) ** 0.5 if truth2 else float("nan"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "codedlf", "__init__.py")):
        print(f"error: no codedlf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import numpy as np

    import codedlf
    import workloads
    from tracing import PER_LAYER, Tracer

    if not os.path.abspath(codedlf.__file__).startswith(src + os.sep):
        print(f"error: codedlf imported from {codedlf.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        res = run_workload(wl, args.seconds, tracer)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    op_p50 = statistics.median(res["times"])
    if tracer:
        metrics = tracer.per_layer(res["attempted"], SETUP_REPEATS)
        metrics["trace.op_s.p50"] = op_p50
        metrics["trace.rel_err"] = res["rel_err"]
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(res["setups"]),
            "op_s.p50": op_p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "rel_err": res["rel_err"],
        }
        units = {"setup_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB", "rel_err": "1"}
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(np),
        "import_s": import_s,
        "setup_runs_s": res["setups"],
        "op_s": res["times"],
        "op_s.samples": len(res["times"]),
        "failures": res["failures"],
        **result,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for msg in res["failures"]:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": detail["machine"], "op_s.samples": len(res["times"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
