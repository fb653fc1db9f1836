"""Command-line interface: the full pipeline as deterministic subcommands.

Exit codes, decided in `main` alone by the kind of exception a handler raises:
0 success; 1 bad input or usage (`ValueError`, which covers every malformed
container, `FileNotFoundError`, argparse errors); 2 numerical failure
(`ArithmeticError`, such as a solver's `FloatingPointError` at a non-finite
objective, and `np.linalg.LinAlgError`, matched first: `LinAlgError` and
`tensor.NonFiniteWriteError` are ValueErrors too); 3 internal error, any other
exception (a fault in the program; the traceback goes to stderr).  Every path a
subcommand writes must lie in an existing directory and not be one itself; that
is checked before any input is read.  All randomness derives from explicit
--seed flags.  JSON reports carry a timestamp unless --no-timestamp is given, so
re-runs with identical flags and --no-timestamp are byte-identical.

Heavy imports happen after argument parsing so that --threads can cap the
BLAS worker pools through the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import zlib
from datetime import datetime, timezone


def _parse_ints(flag: str, text: str, names: str, minimum: int = 1) -> tuple[int, ...]:
    """The comma-separated integers of a flag, one per entry of `names`
    (such as "U,V,S,T,C"), each at least `minimum`."""
    parts = text.split(",")
    arity = len(names.split(","))
    try:
        if len(parts) != arity:
            raise ValueError
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(
            f"{flag} needs {arity} comma-separated integers {names}, got {text!r}"
        ) from exc
    if min(values) < minimum:
        raise ValueError(f"{flag} values must be >= {minimum}, got {text!r}")
    return values


def _parse_patching(args):
    """Atom shape and (spatial, angular) overlaps of the dictionary commands."""
    return (
        _parse_ints("--atom", args.atom, "u,v,s,t,C"),
        _parse_ints("--spatial-overlap", args.spatial_overlap, "s,t", minimum=0),
        _parse_ints("--angular-overlap", args.angular_overlap, "u,v", minimum=0),
    )


def _parse_disparity(text: str):
    name, _, rest = text.partition(":")
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValueError(f"bad disparity parameters in {text!r}") from exc
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"disparity parameters must be finite, got {text!r}")
    return name, params


def _thread_count(text: str) -> int:
    # OpenBLAS does not read an OMP_NUM_THREADS of 0 as a cap.
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _seed(text: str) -> int:
    # numpy's generators take only seeds >= 0.
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _require_files(*paths) -> None:
    for p in paths:
        if not os.path.isfile(p):
            raise ValueError(f"input file not found: {p}")


def _require_out_dirs(args) -> None:
    """Each output path must lie in an existing directory and, but for the
    --out-prefix stem, not be a directory itself."""
    for flag in _OUTPUT_FLAGS:
        p = getattr(args, flag, None)
        if p is None:
            continue
        if not os.path.isdir(os.path.dirname(p) or "."):
            raise ValueError(f"output directory not found: {p}")
        if flag != "out_prefix" and os.path.isdir(p):
            raise ValueError(f"output path is a directory: {p}")


def _read_mask(path):
    """The (S, T, C) mask of a (1, 1, S, T, C) LF5D container."""
    from . import tensor

    mask = tensor.read_lf5d(path)
    if mask.shape[:2] != (1, 1):
        raise ValueError(f"{path}: mask container must be (1, 1, S, T, C), got {mask.shape}")
    return mask[0, 0]


# The flags that name a file a subcommand writes (for --out-prefix, the stem
# of the files it writes); `main` checks them all before any work.
_OUTPUT_FLAGS = ("out", "out_prefix", "out_coded", "out_mask", "out_cv", "out_disp",
                 "report", "log")


def _report(payload: dict | list, path: str | None, no_timestamp: bool) -> None:
    """Write `payload` as JSON to `path`, or to stdout without one, with a
    timestamp field unless `no_timestamp`."""
    if not no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_float(x: float):
    # JSON has no inf/nan; report them as strings.
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return x


def _write_png(path: str, rgb) -> None:
    """Minimal 8-bit PNG writer (RGB), deterministic bytes."""
    import numpy as np
    import struct

    arr = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = arr.shape
    raw = b"".join(b"\x00" + arr[row].tobytes() for row in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data))
        )

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = zlib.compress(raw, 6)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", header))
        fh.write(chunk(b"IDAT", payload))
        fh.write(chunk(b"IEND", b""))


def _png_preview(cv, path: str) -> None:
    """Tone-map a central view to 8-bit RGB using channels (C-1, C//2, 0)."""
    import numpy as np

    n_c = cv.shape[2]
    picks = (n_c - 1, n_c // 2, 0)
    rgb = np.clip(cv[..., list(picks)], 0.0, 1.0)
    _write_png(path, np.round(rgb * 255.0).astype(np.uint8))


# ---------------------------------------------------------------------------
# subcommand handlers (imports deferred to keep --threads effective)


def _cmd_gen_scene(args) -> int:
    from . import scenegen, tensor

    profile, params = _parse_disparity(args.disparity)
    spec = scenegen.SceneSpec(
        dims=_parse_ints("--dims", args.dims, "U,V,S,T,C"),
        pattern=args.pattern,
        disparity_profile=profile,
        disparity_params=params,
        seed=args.seed,
        noise_sigma=args.noise_sigma,
    )
    cv, disp = scenegen.make_scene(spec)
    lf = scenegen.render_lightfield(cv, disp, spec.dims[0], spec.dims[1])
    tensor.write_lf5d(tensor.cv_to_tensor5(cv), args.out_prefix + ".cv.lf5d")
    tensor.write_lf5d(tensor.disp_to_tensor5(disp), args.out_prefix + ".disp.lf5d")
    tensor.write_lf5d(lf, args.out_prefix + ".lf.lf5d")
    if args.png_preview:
        _png_preview(cv, args.out_prefix + ".cv.png")
    return 0


def _cmd_mask_gen(args) -> int:
    from . import coding, tensor

    s, t, c = _parse_ints("--dims", args.dims, "S,T,C")
    mask = coding.random_mask(s, t, c, args.seed)
    tensor.write_lf5d(mask[None, None], args.out)
    return 0


def _cmd_encode(args) -> int:
    from . import coding, tensor

    _require_files(args.infile)
    lf = tensor.read_lf5d(args.infile)
    if args.mask:
        _require_files(args.mask)
        mask = _read_mask(args.mask)
    else:
        mask = coding.random_mask(lf.shape[2], lf.shape[3], lf.shape[4], args.seed)
    coded = coding.encode(lf, mask)
    tensor.write_lf5d(coded, args.out_coded)
    if args.out_mask:
        tensor.write_lf5d(mask[None, None], args.out_mask)
    return 0


def _cmd_project(args) -> int:
    from . import coding, tensor

    _require_files(args.infile)
    tensor.write_lf5d(coding.project(tensor.read_lf5d(args.infile)), args.out)
    return 0


def _cmd_lift(args) -> int:
    from . import coding, tensor

    _require_files(args.infile, args.mask)
    lp = tensor.read_lf5d(args.infile)
    mask = _read_mask(args.mask)
    tensor.write_lf5d(coding.lift(lp, mask), args.out)
    return 0


def _cmd_reconstruct_dct(args) -> int:
    from . import cs_dct, tensor

    _require_files(args.infile, args.mask)
    lp = tensor.read_lf5d(args.infile)
    mask = _read_mask(args.mask)
    opts = cs_dct.OwlqnOptions(
        lam=args.lam,
        max_iters=args.max_iters,
        memory=args.memory,
        grad_tol=args.grad_tol,
    )
    rec, rep = cs_dct.owlqn_reconstruct(lp, mask, opts)
    tensor.write_lf5d(rec, args.out)
    if args.report:
        _report(dataclasses.asdict(rep), args.report, args.no_timestamp)
    if args.png_preview:
        _png_preview(rec[rec.shape[0] // 2, rec.shape[1] // 2], args.out + ".png")
    return 0


def _cmd_train_dict(args) -> int:
    from . import cs_dict, tensor

    atom, spatial, angular = _parse_patching(args)
    cs_dict.check_training_knobs(
        math.prod(atom), args.k, args.lam, args.lr, args.batch_size, args.fista_iters,
        args.epochs,
    )
    paths = args.scenes
    _require_files(*paths)
    scenes = [tensor.read_lf5d(p) for p in paths]
    shapes = {s.shape for s in scenes}
    if len(shapes) != 1:
        raise ValueError(f"scenes must share one shape, got {sorted(shapes)}")
    grid = cs_dict.make_patch_grid(scenes[0].shape, atom, spatial, angular)
    d, rep = cs_dict.train_dictionary(
        scenes,
        grid,
        k=args.k,
        lam=args.lam,
        lr=args.lr,
        batch_size=args.batch_size,
        fista_iters=args.fista_iters,
        epochs=args.epochs,
        seed=args.seed,
    )
    cs_dict.write_dictionary(d, args.out)
    if args.report:
        _report(dataclasses.asdict(rep), args.report, args.no_timestamp)
    return 0


def _cmd_reconstruct_dict(args) -> int:
    from . import cs_dict, tensor

    atom, spatial, angular = _parse_patching(args)
    cs_dict.check_reconstruct_knobs(args.lam, args.iters)
    _require_files(args.infile, args.mask, args.dictionary)
    lp = tensor.read_lf5d(args.infile)
    mask = _read_mask(args.mask)
    d = cs_dict.read_dictionary(args.dictionary)
    u, v, s, t, _ = lp.shape
    source = (u, v, s, t, mask.shape[2])
    grid = cs_dict.make_patch_grid(source, atom, spatial, angular)
    if grid.atom_len != d.atom_len:
        raise ValueError(f"dictionary atom length {d.atom_len} != grid {grid.atom_len}")
    rec, rep = cs_dict.dict_reconstruct(lp, mask, d, grid, args.lam, args.iters)
    tensor.write_lf5d(rec, args.out)
    if args.report:
        _report(dataclasses.asdict(rep), args.report, args.no_timestamp)
    if args.png_preview:
        _png_preview(rec[rec.shape[0] // 2, rec.shape[1] // 2], args.out + ".png")
    return 0


def _cmd_train_toy(args) -> int:
    from . import autodiff, multitask
    from .losses_metrics import SSIM_WINDOW

    dims = _parse_ints("--dims", args.dims, "U,V,S,T,C")
    config = multitask.TrainConfig(
        strategy=args.strategy,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        seed=args.seed,
        gradnorm_gamma=args.gradnorm_gamma,
        normgradsim_step=args.normgradsim_step,
    )
    if multitask.STRATEGIES[config.strategy].aux and min(dims[2:4]) < SSIM_WINDOW:
        raise ValueError(
            f"--dims S,T must be at least the SSIM window {SSIM_WINDOW} for "
            f"--strategy {args.strategy}, got {dims[2]},{dims[3]}"
        )
    net = autodiff.ToyNet(
        dims=dims, hidden=args.hidden, head_hidden=args.head_hidden, seed=args.seed
    )
    dataset = multitask.make_toy_dataset(args.scenes, dims, args.data_seed)
    net, logs = multitask.train(net, dataset, config)
    if args.out:
        autodiff.save_net(net, args.out)
    # The log is a bare array of per-epoch entries (no timestamp wrapper).
    _report([dataclasses.asdict(l) for l in logs], args.log, no_timestamp=True)
    return 0


def _cmd_predict_toy(args) -> int:
    from . import autodiff, tensor

    _require_files(args.net, args.infile)
    net = autodiff.load_net(args.net)
    coded = tensor.read_lf5d(args.infile)
    if coded.shape != net.dims:
        raise ValueError(
            f"input {coded.shape} does not match network dims {net.dims}"
        )
    cv, disp = autodiff.forward(net, coded)
    # Convert and check both maps before the first write, so a refusal
    # writes nothing.
    (cv32,) = tensor.float32_payload(args.out_cv, cv)
    (disp32,) = tensor.float32_payload(args.out_disp, disp)
    tensor.write_lf5d(tensor.cv_to_tensor5(cv32), args.out_cv)
    tensor.write_lf5d(tensor.disp_to_tensor5(disp32), args.out_disp)
    if args.png_preview:
        _png_preview(cv, args.out_cv + ".png")
    return 0


def _cmd_evaluate(args) -> int:
    import numpy as np

    from . import losses_metrics as lm
    from . import tensor

    if not (math.isfinite(args.peak) and args.peak > 0):
        raise ValueError(f"--peak must be finite and > 0, got {args.peak}")
    if not (math.isfinite(args.badpix_tau) and args.badpix_tau >= 0):
        raise ValueError(f"--badpix-tau must be finite and >= 0, got {args.badpix_tau}")
    _require_files(args.pred, args.truth)
    pred_t = tensor.read_lf5d(args.pred)
    truth_t = tensor.read_lf5d(args.truth)
    if pred_t.shape != truth_t.shape:
        raise ValueError(
            f"prediction {pred_t.shape} and truth {truth_t.shape} disagree"
        )
    report: dict = {
        "psnr_db": None,
        "ssim": None,
        "sa_deg": None,
        "sid": None,
        "mae_px": None,
        "mse_px2": None,
        "badpix07_pct": None,
    }
    if args.kind == "cv":
        # Accepts a central view (U = V = 1) or a full light field; windowed
        # and spectral metrics are averaged over the subaperture views.
        report["psnr_db"] = _json_float(lm.psnr(pred_t, truth_t, peak=args.peak))
        report["mae_px"] = lm.mae(pred_t, truth_t)
        report["mse_px2"] = lm.mse(pred_t, truth_t)
        views = [
            (pred_t[u, v], truth_t[u, v])
            for u in range(pred_t.shape[0])
            for v in range(pred_t.shape[1])
        ]
        if min(pred_t.shape[2:4]) >= lm.SSIM_WINDOW:
            ssims = [lm.ssim(p, t, peak=args.peak) for p, t in views]
            report["ssim"] = float(np.mean(ssims))
        report["sa_deg"] = float(np.mean([lm.spectral_angle(p, t) for p, t in views]))
        report["sid"] = float(np.mean([lm.sid(p, t) for p, t in views]))
    else:
        pred = tensor.tensor5_to_disp(pred_t)
        truth = tensor.tensor5_to_disp(truth_t)
        report["psnr_db"] = _json_float(lm.psnr(pred, truth, peak=args.peak))
        report["mae_px"] = lm.mae(pred, truth)
        report["mse_px2"] = lm.mse(pred, truth)
        report["badpix07_pct"] = lm.badpix(pred, truth, tau=args.badpix_tau)
    _report(report, args.out, args.no_timestamp)
    return 0


def _cmd_calibrate(args) -> int:
    import numpy as np

    from . import calib, tensor

    calib.check_mask_knobs(args.threshold, args.line_reach, args.line_axis)
    _require_files(args.dark, args.bright, args.times, args.bayer)
    # Containers: bright (L, 1, I, J, K), dark (L, 1, I, J, 1), bayer (1, 1, I, J, 1).
    bright = tensor.read_lf5d(args.bright)
    dark_t = tensor.read_lf5d(args.dark)
    bayer_t = tensor.read_lf5d(args.bayer)
    if bright.shape[1] != 1:
        raise ValueError(f"bright series must be (L, 1, I, J, K), got {bright.shape}")
    n_i, n_j = bright.shape[2:4]
    if dark_t.shape[1:] != (1, n_i, n_j, 1):
        raise ValueError(
            f"dark series must be (L, 1, {n_i}, {n_j}, 1), got {dark_t.shape}"
        )
    if bayer_t.shape != (1, 1, n_i, n_j, 1):
        raise ValueError(f"Bayer map must be (1, 1, {n_i}, {n_j}, 1), got {bayer_t.shape}")
    if not np.isin(bayer_t, (0, 1, 2)).all():
        raise ValueError("Bayer map values must be the integers 0, 1 or 2")
    bayer = bayer_t[0, 0, :, :, 0].astype(int)
    with open(args.times) as fh:
        times = np.array([float(line) for line in fh if line.strip()])
    if bright.shape[0] != times.size or dark_t.shape[0] != times.size:
        raise ValueError("exposure counts of series and times.csv disagree")
    mu = bright[:, 0].transpose(1, 2, 3, 0)  # (I, J, K, L)
    mu_dark = dark_t[:, 0, :, :, 0].transpose(1, 2, 0)  # (I, J, L)
    dark = calib.fit_dark(mu_dark, times, per_pixel=args.dark_mode == "per-pixel")
    series = calib.ExposureSeries(mu=mu, times=times, bayer=bayer)
    mask = calib.saturation_mask(
        series,
        threshold=args.threshold,
        line_reach=args.line_reach,
        line_axis=args.line_axis,
    )
    result = calib.fit_vignetting_responsivity(series, dark, mask)

    stem = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    v_path = stem + ".v.lf5d"
    maps = {v_path: np.nan_to_num(result.vignetting, nan=0.0)}
    if dark.per_pixel:
        maps[stem + ".dark_offset.lf5d"] = dark.offset
        maps[stem + ".dark_current.lf5d"] = dark.current
    # Convert and check every map before the first write, so a refusal
    # writes nothing.
    maps = {path: tensor.float32_payload(path, a)[0] for path, a in maps.items()}
    for path, a in maps.items():
        tensor.write_lf5d(a[None, None, :, :, None], path)
    payload = {
        "vignetting": os.path.basename(v_path),
        "responsivity": [
            [None if r != r else r for r in row]
            for row in result.responsivity.tolist()
        ],
        "dark": (
            {
                "mode": "per-pixel",
                "offset": os.path.basename(stem + ".dark_offset.lf5d"),
                "current": os.path.basename(stem + ".dark_current.lf5d"),
            }
            if dark.per_pixel
            else {"mode": "global", "offset": dark.offset, "current": dark.current}
        ),
        "residual": result.residual,
        "unrecoverable": {
            "pixels": [list(p) for p in result.unrecoverable_pixels],
            "responsivity_entries": [
                list(p) for p in result.unrecoverable_responsivities
            ],
        },
    }
    _report(payload, args.out, args.no_timestamp)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    fills a fresh namespace on each call.  Subcommand `x-y` runs `_cmd_x_y`,
    which `main` looks up when it is called."""
    p = argparse.ArgumentParser(
        prog="codedlf",
        description="Coded light-field simulation, reconstruction and evaluation.",
    )
    p.add_argument("--threads", type=_thread_count, default=None,
                   help="cap BLAS worker threads")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--no-timestamp", action="store_true")
        return sp

    sp = add_common(sub.add_parser("gen-scene", help="generate a synthetic scene"))
    sp.add_argument("--pattern", default="checker")
    sp.add_argument("--disparity", default="constant:0.5")
    sp.add_argument("--dims", required=True, help="U,V,S,T,C")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--png-preview", action="store_true")

    sp = add_common(sub.add_parser("mask-gen", help="generate a coding mask"))
    sp.add_argument("--dims", required=True, help="S,T,C")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add_common(sub.add_parser("encode", help="apply a coding mask"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", default=None, help="existing mask (else drawn from seed)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-coded", required=True)
    sp.add_argument("--out-mask", default=None)

    sp = add_common(sub.add_parser("project", help="sum over the spectral axis"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)

    sp = add_common(sub.add_parser("lift", help="re-expand a projected measurement"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--out", required=True)

    sp = add_common(sub.add_parser("reconstruct-dct", help="OWL-QN DCT-basis solve"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--memory", type=int, default=10)
    sp.add_argument("--grad-tol", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None)
    sp.add_argument("--png-preview", action="store_true")

    sp = add_common(sub.add_parser("train-dict", help="learn a patch dictionary"))
    sp.add_argument("--scenes", nargs="+", required=True)
    sp.add_argument("--atom", required=True, help="u,v,s,t,C atom shape")
    sp.add_argument("--spatial-overlap", default="4,4")
    sp.add_argument("--angular-overlap", default="1,1")
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--lr", type=float, default=1e-2)
    sp.add_argument("--batch-size", type=int, default=16)
    sp.add_argument("--fista-iters", type=int, default=50)
    sp.add_argument("--epochs", type=int, default=5)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None)

    sp = add_common(sub.add_parser("reconstruct-dict", help="dictionary solve"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--dict", dest="dictionary", required=True)
    sp.add_argument("--atom", required=True)
    sp.add_argument("--spatial-overlap", default="4,4")
    sp.add_argument("--angular-overlap", default="1,1")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--iters", type=int, default=300, metavar="N",
                    help="at most N FISTA iterations (0: zero codes)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None,
                    help="solve report (JSON): iterations that ran, restarts, the largest"
                         " per-group lipschitz_bound and its step, final_objective")
    sp.add_argument("--png-preview", action="store_true")

    sp = add_common(sub.add_parser("train-toy", help="train the two-head network"))
    # Checked against multitask.STRATEGIES by TrainConfig: importing it here
    # would load numpy before --threads is applied.
    sp.add_argument("--strategy", required=True, help="one of multitask.STRATEGIES")
    sp.add_argument("--epochs", type=int, default=20)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--data-seed", type=_seed, default=99)
    sp.add_argument("--scenes", type=int, default=200)
    sp.add_argument("--dims", default="3,3,8,8,5")
    sp.add_argument("--hidden", type=int, default=64)
    sp.add_argument("--head-hidden", type=int, default=64)
    sp.add_argument("--batch-size", type=int, default=16)
    sp.add_argument("--lr", type=float, default=0.1)
    sp.add_argument("--momentum", type=float, default=0.9)
    sp.add_argument("--weight-decay", type=float, default=0.0)
    sp.add_argument("--gradnorm-gamma", type=float, default=1.5)
    sp.add_argument("--normgradsim-step", type=float, default=0.1)
    sp.add_argument("--log", default=None, help="log JSON path (default stdout)")
    sp.add_argument("--out", default=None, help="trained net (LFNN)")

    sp = add_common(sub.add_parser("predict-toy", help="run a trained network"))
    sp.add_argument("--net", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out-cv", required=True)
    sp.add_argument("--out-disp", required=True)
    sp.add_argument("--png-preview", action="store_true")

    sp = add_common(sub.add_parser("evaluate", help="metric report for predictions"))
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--kind", choices=["cv", "disp"], required=True)
    sp.add_argument("--peak", type=float, default=1.0)
    sp.add_argument("--badpix-tau", type=float, default=0.07)
    sp.add_argument("--out", default=None, help="report path (default stdout)")

    sp = add_common(sub.add_parser("calibrate", help="radiometric calibration fit"))
    sp.add_argument("--dark", required=True)
    sp.add_argument("--bright", required=True)
    sp.add_argument("--times", required=True)
    sp.add_argument("--bayer", required=True)
    sp.add_argument("--dark-mode", choices=["per-pixel", "global"], default="per-pixel")
    sp.add_argument("--threshold", type=float, default=0.985)
    sp.add_argument("--line-reach", type=int, default=5)
    sp.add_argument("--line-axis", choices=["row", "col"], default="row")
    sp.add_argument("--out", required=True)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1.
        return 0 if exc.code == 0 else 1
    if args.threads is not None:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(args.threads)
    # numpy loads only now, after --threads has set the thread variables.
    import numpy as np

    try:
        _require_out_dirs(args)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    # LinAlgError and NonFiniteWriteError are ValueErrors: match them first.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
