"""Span tracing of calls into the codedlf modules, installed from outside.

`Tracer.install` replaces public functions where their callers look them
up (module attributes, `multitask.AUX_LOSSES` entries and the
`ToyNet.forward_batch` method) with wrappers that record one span per call:
name, start, end, parent span, operation id and an optional size or count
taken from the arguments or the result.  Spans stay in memory until
`write`.  `restore` puts every original back.  Nothing inside `src/` is
changed, and a wrapper passes arguments and results through untouched, so a
traced run computes the same numbers as an untraced one.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import numpy as np

# Per-layer metrics whose work happens while the inputs are made; they are
# reported per set-up.  Every other metric is reported per timed operation.
SETUP_METRICS = (
    "setup.scenegen.render_lightfield.s",
    "setup.scenegen.render_lightfield.calls",
    "cs_dict.train_dictionary.s",
    "cs_dict.lipschitz_bound.calls",
)

LOSSES = ("huber", "ssim_loss", "spectral_cos_loss", "tv_smoothness", "normal_similarity")

# (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "tensor.read_lf5d.s": ("s", "lower"),
    "tensor.read_lf5d.bytes": ("B", "lower"),
    "tensor.write_lf5d.s": ("s", "lower"),
    "tensor.write_lf5d.bytes": ("B", "lower"),
    "scenegen.render_lightfield.s": ("s", "lower"),
    "scenegen.render_lightfield.calls": ("count", "lower"),
    "setup.scenegen.render_lightfield.s": ("s", "lower"),
    "setup.scenegen.render_lightfield.calls": ("count", "lower"),
    "coding.random_mask.calls": ("count", "lower"),
    "coding.random_mask.s": ("s", "lower"),
    "coding.encode.calls": ("count", "lower"),
    "coding.encode.s": ("s", "lower"),
    "coding.lift.s": ("s", "lower"),
    "transforms.dct5_forward.calls": ("count", "lower"),
    "transforms.dct5_forward.s": ("s", "lower"),
    "transforms.dct5_inverse.calls": ("count", "lower"),
    "transforms.dct5_inverse.s": ("s", "lower"),
    "transforms.flops": ("computed_flop", "lower"),
    "cs_dct.owlqn_reconstruct.self_s": ("s", "lower"),
    "cs_dct.iterations": ("count", "lower"),
    "cs_dict.train_dictionary.s": ("s", "lower"),
    "cs_dict.lipschitz_bound.calls": ("count", "lower"),
    "cs_dict.dict_reconstruct.self_s": ("s", "lower"),
    "cs_dict.patch.calls": ("count", "lower"),
    "cs_dict.patch.s": ("s", "lower"),
    "cs_dict.depatch.s": ("s", "lower"),
    "cs_dict.lipschitz_bound.s": ("s", "lower"),
    **{
        f"losses_metrics.{loss}.{kind}": (unit, "lower")
        for loss in LOSSES
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "autodiff.forward_batch.calls": ("count", "lower"),
    "autodiff.forward_batch.s": ("s", "lower"),
    "autodiff.batched_loss.self_s": ("s", "lower"),
    "autodiff.collect_gradients.calls": ("count", "lower"),
    "autodiff.collect_gradients.s": ("s", "lower"),
    "autodiff.sgd_step.s": ("s", "lower"),
    "multitask.train.self_s": ("s", "lower"),
    "multitask.validate.s": ("s", "lower"),
    "multitask.epochs": ("count", "lower"),
    "calib.fit_dark.s": ("s", "lower"),
    "calib.saturation_mask.s": ("s", "lower"),
    "calib.fit_vignetting_responsivity.s": ("s", "lower"),
    "calib.sweeps": ("count", "lower"),
    "trace.op_s.p50": ("s", "lower"),
    "trace.rel_err": ("1", "lower"),
}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _dct_flops(args, kwargs, result):
    # Five dense per-axis products: 2 * n_axis * N multiply-adds each.
    shape = np.shape(result)
    return {"flops": 2 * int(np.prod(shape)) * int(sum(shape))}


class Tracer:
    """Records nested spans; `op` labels the spans of the current operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, fn, name: str, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if extra is not None:
                span.update(extra(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, extra=None):
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, extra)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))
        return wrapped

    def install(self) -> None:
        from codedlf import (
            autodiff, calib, cli, coding, cs_dct, cs_dict, losses_metrics,
            multitask, scenegen, tensor, transforms,
        )

        self._patch(cli, "main", "cli.main")
        self._patch(tensor, "read_lf5d", "tensor.read_lf5d", _file_bytes)
        self._patch(tensor, "write_lf5d", "tensor.write_lf5d", _file_bytes)
        self._patch(scenegen, "render_lightfield", "scenegen.render_lightfield")
        for fn in ("random_mask", "encode", "lift"):
            self._patch(coding, fn, f"coding.{fn}")
        for fn in ("dct5_forward", "dct5_inverse"):
            self._patch(transforms, fn, f"transforms.{fn}", _dct_flops)
        self._patch(
            cs_dct, "owlqn_reconstruct", "cs_dct.owlqn_reconstruct",
            lambda a, k, res: {"iterations": res[1].iterations},
        )
        for fn in ("train_dictionary", "lipschitz_bound", "dict_reconstruct", "patch", "depatch"):
            self._patch(cs_dict, fn, f"cs_dict.{fn}")
        wrapped = {
            fn: self._patch(losses_metrics, fn, f"losses_metrics.{fn}") for fn in LOSSES
        }
        aux = multitask.AUX_LOSSES
        for task, entries in list(aux.items()):
            self._restore.append((aux, task, entries))
            aux[task] = tuple((key, wrapped[fn.__name__]) for key, fn in entries)
        self._patch(autodiff.ToyNet, "forward_batch", "autodiff.forward_batch")
        for fn in ("batched_loss", "collect_gradients", "sgd_step"):
            self._patch(autodiff, fn, f"autodiff.{fn}")
        self._patch(
            multitask, "train", "multitask.train",
            lambda a, k, res: {"epochs": len(res[1])},
        )
        self._patch(multitask, "validate", "multitask.validate")
        self._patch(calib, "fit_dark", "calib.fit_dark")
        self._patch(calib, "saturation_mask", "calib.saturation_mask")
        self._patch(
            calib, "fit_vignetting_responsivity", "calib.fit_vignetting_responsivity",
            lambda a, k, res: {"sweeps": (len(res.objective_trace) - 1) // 2},
        )

    def restore(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def per_layer(self, n_ops: int, n_setups: int) -> dict[str, float]:
        """Per-operation (or, for SETUP_METRICS, per-set-up) layer metrics."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        sums: dict[str, float] = {}

        def add(key, value):
            sums[key] = sums.get(key, 0.0) + value

        for i, span in enumerate(self.spans):
            op = span["op"] or ""
            if op.startswith("setup-"):
                prefix = "setup."
            elif op.startswith("op-"):
                prefix = ""
            else:
                continue  # the warm-up operation
            name = span["name"]
            dur = span["end"] - span["start"]
            add(f"{prefix}{name}.s", dur)
            add(f"{prefix}{name}.calls", 1.0)
            add(f"{prefix}{name}.self_s", dur - child[i])
            for key in ("bytes", "flops", "iterations", "epochs", "sweeps"):
                if key in span:
                    add(f"{prefix}{name}.{key}", float(span[key]))
        # Counts kept from the span extras, under the names of the metric list.
        sums["transforms.flops"] = sums.get("transforms.dct5_forward.flops", 0.0) + sums.get(
            "transforms.dct5_inverse.flops", 0.0
        )
        sums["cs_dct.iterations"] = sums.get("cs_dct.owlqn_reconstruct.iterations", 0.0)
        sums["multitask.epochs"] = sums.get("multitask.train.epochs", 0.0)
        sums["calib.sweeps"] = sums.get("calib.fit_vignetting_responsivity.sweeps", 0.0)
        for key in ("cs_dict.train_dictionary.s", "cs_dict.lipschitz_bound.calls"):
            sums[key] = sums.get("setup." + key, 0.0)
        out = {}
        for key in PER_LAYER:
            if key.startswith("trace."):
                continue
            per = n_setups if key in SETUP_METRICS else n_ops
            out[key] = sums.get(key, 0.0) / per
        return out
