"""Command-line interface: the full pipeline as deterministic subcommands.

Exit codes: 0 success, 1 validation / usage error, 2 numerical failure,
3 internal error (a fault in the program; the traceback goes to stderr).
Every path a subcommand writes must lie in an existing directory; that is
checked before any input is read.  All randomness derives from explicit
--seed flags.  JSON reports carry a timestamp unless --no-timestamp is
given, so re-runs with identical flags and --no-timestamp are
byte-identical.

Heavy imports happen after argument parsing so that --threads can cap the
BLAS worker pools through the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import zlib
from datetime import datetime, timezone


class ValidationError(Exception):
    """Bad inputs or flags; maps to exit code 1."""


class NumericalError(Exception):
    """Solver or numerical failure; maps to exit code 2."""


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
        raise ValidationError(
            f"{flag} needs {arity} comma-separated integers {names}, got {text!r}"
        ) from exc
    if min(values) < minimum:
        raise ValidationError(f"{flag} values must be >= {minimum}, got {text!r}")
    return values


def _parse_patching(args):
    """Atom shape and (spatial, angular) overlaps of the dictionary commands."""
    return (
        _parse_ints("--atom", args.atom, "u,v,s,t,C"),
        _parse_ints("--spatial-overlap", args.spatial_overlap, "s,t", minimum=0),
        _parse_ints("--angular-overlap", args.angular_overlap, "u,v", minimum=0),
    )


def _validated(check, *values):
    """Run a library knob check, reporting its ValueError as bad input."""
    try:
        return check(*values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_disparity(text: str):
    name, _, rest = text.partition(":")
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValidationError(f"bad disparity parameters in {text!r}") from exc
    return name, params


def _require_files(*paths) -> None:
    for p in paths:
        if not os.path.isfile(p):
            raise ValidationError(f"input file not found: {p}")


def _require_out_dirs(*paths) -> None:
    for p in paths:
        if p is not None and not os.path.isdir(os.path.dirname(p) or "."):
            raise ValidationError(f"output directory not found: {p}")


# The flags that name a file a subcommand writes (for --out-prefix, the stem
# of the files it writes); `main` checks them all before any work.
_OUTPUT_FLAGS = ("out", "out_prefix", "out_coded", "out_mask", "out_cv", "out_disp",
                 "report", "log")


def _report(payload: dict, path: str | None, no_timestamp: bool) -> None:
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
    try:
        spec = scenegen.SceneSpec(
            dims=_parse_ints("--dims", args.dims, "U,V,S,T,C"),
            pattern=args.pattern,
            disparity_profile=profile,
            disparity_params=params,
            seed=args.seed,
            noise_sigma=args.noise_sigma,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
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
    try:
        mask = coding.random_mask(s, t, c, args.seed)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    tensor.write_lf5d(mask[None, None], args.out)
    return 0


def _cmd_encode(args) -> int:
    from . import coding, tensor

    _require_files(args.infile)
    lf = tensor.read_lf5d(args.infile)
    if args.mask:
        _require_files(args.mask)
        mask = tensor.read_lf5d(args.mask)[0, 0]
    else:
        mask = coding.random_mask(lf.shape[2], lf.shape[3], lf.shape[4], args.seed)
    try:
        coded = coding.encode(lf, mask)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
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
    mask = tensor.read_lf5d(args.mask)[0, 0]
    try:
        tensor.write_lf5d(coding.lift(lp, mask), args.out)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return 0


def _cmd_reconstruct_dct(args) -> int:
    from . import cs_dct, tensor

    _require_files(args.infile, args.mask)
    lp = tensor.read_lf5d(args.infile)
    mask = tensor.read_lf5d(args.mask)[0, 0]
    try:
        opts = cs_dct.OwlqnOptions(
            lam=args.lam,
            max_iters=args.max_iters,
            memory=args.memory,
            grad_tol=args.grad_tol,
        )
        rec, rep = cs_dct.owlqn_reconstruct(lp, mask, opts)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not all(map(lambda x: x == x, rep.objectives)):
        raise NumericalError("objective became NaN")
    tensor.write_lf5d(rec, args.out)
    if args.report:
        _report(
            {
                "iterations": rep.iterations,
                "termination": rep.termination,
                "final_objective": rep.final_objective,
                "evaluations": rep.evaluations,
                "pairs_skipped": rep.pairs_skipped,
                "objectives": rep.objectives,
            },
            args.report,
            args.no_timestamp,
        )
    if args.png_preview:
        _png_preview(rec[rec.shape[0] // 2, rec.shape[1] // 2], args.out + ".png")
    return 0


def _cmd_train_dict(args) -> int:
    from . import cs_dict, tensor

    atom, spatial, angular = _parse_patching(args)
    _validated(
        cs_dict.check_training_knobs, math.prod(atom), args.k, args.lam, args.lr,
        args.batch_size, args.fista_iters, args.epochs,
    )
    paths = args.scenes
    _require_files(*paths)
    scenes = [tensor.read_lf5d(p) for p in paths]
    shapes = {s.shape for s in scenes}
    if len(shapes) != 1:
        raise ValidationError(f"scenes must share one shape, got {sorted(shapes)}")
    try:
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
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cs_dict.write_dictionary(d, args.out)
    if args.report:
        _report(
            {"epoch_objectives": rep.epoch_objectives, "restarts": rep.restarts},
            args.report,
            args.no_timestamp,
        )
    return 0


def _cmd_reconstruct_dict(args) -> int:
    from . import cs_dict, tensor

    atom, spatial, angular = _parse_patching(args)
    _validated(cs_dict.check_reconstruct_knobs, args.lam, args.iters)
    _require_files(args.infile, args.mask, args.dictionary)
    lp = tensor.read_lf5d(args.infile)
    mask = tensor.read_lf5d(args.mask)[0, 0]
    d = cs_dict.read_dictionary(args.dictionary)
    u, v, s, t, _ = lp.shape
    source = (u, v, s, t, mask.shape[2])
    try:
        grid = cs_dict.make_patch_grid(source, atom, spatial, angular)
        if grid.atom_len != d.atom_len:
            raise ValidationError(
                f"dictionary atom length {d.atom_len} != grid {grid.atom_len}"
            )
        rec, rep = cs_dict.dict_reconstruct(lp, mask, d, grid, args.lam, args.iters)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    tensor.write_lf5d(rec, args.out)
    if args.report:
        _report(
            {
                "iterations": rep.iterations,
                "restarts": rep.restarts,
                "lipschitz_bound": rep.lipschitz_bound,
                "step": rep.step,
                "final_objective": _json_float(rep.final_objective),
            },
            args.report,
            args.no_timestamp,
        )
    if args.png_preview:
        _png_preview(rec[rec.shape[0] // 2, rec.shape[1] // 2], args.out + ".png")
    return 0


def _cmd_train_toy(args) -> int:
    from . import autodiff, multitask

    dims = _parse_ints("--dims", args.dims, "U,V,S,T,C")
    try:
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
        net = autodiff.ToyNet(
            dims=dims, hidden=args.hidden, head_hidden=args.head_hidden, seed=args.seed
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    dataset = multitask.make_toy_dataset(args.scenes, dims, args.data_seed)
    net, logs = multitask.train(net, dataset, config)
    if not all(
        l.loss_cv == l.loss_cv and l.loss_disp == l.loss_disp for l in logs
    ):
        raise NumericalError("training diverged to NaN")
    if args.out:
        autodiff.save_net(net, args.out)
    # The log is a bare array of per-epoch entries (no timestamp wrapper).
    text = json.dumps([l.as_dict() for l in logs], indent=2) + "\n"
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_predict_toy(args) -> int:
    from . import autodiff, tensor

    _require_files(args.net, args.infile)
    net = autodiff.load_net(args.net)
    coded = tensor.read_lf5d(args.infile)
    if coded.shape != net.dims:
        raise ValidationError(
            f"input {coded.shape} does not match network dims {net.dims}"
        )
    cv, disp = autodiff.forward(net, coded)
    tensor.write_lf5d(
        tensor.cv_to_tensor5(cv.astype("float32")), args.out_cv
    )
    tensor.write_lf5d(
        tensor.disp_to_tensor5(disp.astype("float32")), args.out_disp
    )
    if args.png_preview:
        _png_preview(cv, args.out_cv + ".png")
    return 0


def _cmd_evaluate(args) -> int:
    import numpy as np

    from . import losses_metrics as lm
    from . import tensor

    _require_files(args.pred, args.truth)
    pred_t = tensor.read_lf5d(args.pred)
    truth_t = tensor.read_lf5d(args.truth)
    if pred_t.shape != truth_t.shape:
        raise ValidationError(
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
            report["ssim"] = float(np.mean([lm.ssim(p, t) for p, t in views]))
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

    _validated(calib.check_mask_knobs, args.threshold, args.line_reach, args.line_axis)
    _require_files(args.dark, args.bright, args.times, args.bayer)
    # Containers: bright (L, 1, I, J, K), dark (L, 1, I, J, 1), bayer (1, 1, I, J, 1).
    bright = tensor.read_lf5d(args.bright)
    dark_t = tensor.read_lf5d(args.dark)
    bayer_t = tensor.read_lf5d(args.bayer)
    if bright.shape[1] != 1:
        raise ValidationError(f"bright series must be (L, 1, I, J, K), got {bright.shape}")
    n_i, n_j = bright.shape[2:4]
    if dark_t.shape[1:] != (1, n_i, n_j, 1):
        raise ValidationError(
            f"dark series must be (L, 1, {n_i}, {n_j}, 1), got {dark_t.shape}"
        )
    if bayer_t.shape != (1, 1, n_i, n_j, 1):
        raise ValidationError(f"Bayer map must be (1, 1, {n_i}, {n_j}, 1), got {bayer_t.shape}")
    if not np.isin(bayer_t, (0, 1, 2)).all():
        raise ValidationError("Bayer map values must be the integers 0, 1 or 2")
    bayer = bayer_t[0, 0, :, :, 0].astype(int)
    with open(args.times) as fh:
        times = np.array([float(line) for line in fh if line.strip()])
    if bright.shape[0] != times.size or dark_t.shape[0] != times.size:
        raise ValidationError("exposure counts of series and times.csv disagree")
    mu = bright[:, 0].transpose(1, 2, 3, 0)  # (I, J, K, L)
    mu_dark = dark_t[:, 0, :, :, 0].transpose(1, 2, 0)  # (I, J, L)
    try:
        dark = calib.fit_dark(mu_dark, times, per_pixel=args.dark_mode == "per-pixel")
        series = calib.ExposureSeries(mu=mu, times=times, bayer=bayer)
        mask = calib.saturation_mask(
            series,
            threshold=args.threshold,
            line_reach=args.line_reach,
            line_axis=args.line_axis,
        )
        result = calib.fit_vignetting_responsivity(series, dark, mask)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not np.isfinite(result.residual):
        raise NumericalError("calibration fit produced a non-finite residual")

    stem = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    v_path = stem + ".v.lf5d"
    v_out = np.nan_to_num(result.vignetting, nan=0.0).astype("float32")
    tensor.write_lf5d(v_out[None, None, :, :, None], v_path)
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
    if dark.per_pixel:
        tensor.write_lf5d(
            np.asarray(dark.offset, dtype="float32")[None, None, :, :, None],
            stem + ".dark_offset.lf5d",
        )
        tensor.write_lf5d(
            np.asarray(dark.current, dtype="float32")[None, None, :, :, None],
            stem + ".dark_current.lf5d",
        )
    _report(payload, args.out, args.no_timestamp)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="codedlf",
        description="Coded light-field simulation, reconstruction and evaluation.",
    )
    p.add_argument("--threads", type=int, default=None, help="cap BLAS worker threads")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--no-timestamp", action="store_true")
        return sp

    sp = add_common(sub.add_parser("gen-scene", help="generate a synthetic scene"))
    sp.add_argument("--pattern", default="checker")
    sp.add_argument("--disparity", default="constant:0.5")
    sp.add_argument("--dims", required=True, help="U,V,S,T,C")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--png-preview", action="store_true")
    sp.set_defaults(fn=_cmd_gen_scene)

    sp = add_common(sub.add_parser("mask-gen", help="generate a coding mask"))
    sp.add_argument("--dims", required=True, help="S,T,C")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_mask_gen)

    sp = add_common(sub.add_parser("encode", help="apply a coding mask"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", default=None, help="existing mask (else drawn from seed)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-coded", required=True)
    sp.add_argument("--out-mask", default=None)
    sp.set_defaults(fn=_cmd_encode)

    sp = add_common(sub.add_parser("project", help="sum over the spectral axis"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_project)

    sp = add_common(sub.add_parser("lift", help="re-expand a projected measurement"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_lift)

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
    sp.set_defaults(fn=_cmd_reconstruct_dct)

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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_train_dict)

    sp = add_common(sub.add_parser("reconstruct-dict", help="dictionary solve"))
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--dict", dest="dictionary", required=True)
    sp.add_argument("--atom", required=True)
    sp.add_argument("--spatial-overlap", default="4,4")
    sp.add_argument("--angular-overlap", default="1,1")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--iters", type=int, default=300, help="FISTA iterations (0: zero codes)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None, help="solve report (JSON)")
    sp.add_argument("--png-preview", action="store_true")
    sp.set_defaults(fn=_cmd_reconstruct_dict)

    sp = add_common(sub.add_parser("train-toy", help="train the two-head network"))
    # Checked against multitask.STRATEGIES by TrainConfig: importing it here
    # would load numpy before --threads is applied.
    sp.add_argument("--strategy", required=True, help="one of multitask.STRATEGIES")
    sp.add_argument("--epochs", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--data-seed", type=int, default=99)
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
    sp.set_defaults(fn=_cmd_train_toy)

    sp = add_common(sub.add_parser("predict-toy", help="run a trained network"))
    sp.add_argument("--net", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out-cv", required=True)
    sp.add_argument("--out-disp", required=True)
    sp.add_argument("--png-preview", action="store_true")
    sp.set_defaults(fn=_cmd_predict_toy)

    sp = add_common(sub.add_parser("evaluate", help="metric report for predictions"))
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--kind", choices=["cv", "disp"], required=True)
    sp.add_argument("--peak", type=float, default=1.0)
    sp.add_argument("--badpix-tau", type=float, default=0.07)
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.set_defaults(fn=_cmd_evaluate)

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
    sp.set_defaults(fn=_cmd_calibrate)

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
    try:
        _require_out_dirs(*(getattr(args, flag, None) for flag in _OUTPUT_FLAGS))
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        import numpy as np

        from . import tensor

        if isinstance(exc, (ArithmeticError, np.linalg.LinAlgError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, (tensor.LF5DError, ValueError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
