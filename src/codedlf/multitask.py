"""Multi-task and auxiliary-loss weighting strategies, plus the training loop.

Two tasks are trained from a coded light field: the central view and the
disparity map, each with a Huber main loss.  Auxiliary losses per task:
SSIM and spectral-cosine for the central view, edge-aware smoothness and
normal similarity for disparity.  `STRATEGIES` maps each strategy name to
one `Strategy(weights, weighting, aux)` row, and `train` reads nothing
else of the name:

* weights: the fixed (cv, disp) task weights, (1, 0) for st-cv, (0, 1) for
  st-disp and (0.5, 0.5) for the rest.  A task of weight 0 is not trained.
* weighting: None keeps the fixed weights.  "mtu" (mtu, mtu+al) uses
  per-task trainable log-variances s_i; total = sum_i exp(-s_i)/2 * L_i
  + s_i/2 (Kendall et al. 2018); the s_i take the same optimizer step as
  the network weights.  "gradnorm" chases the task weights toward
  equalized, rate-adjusted shared gradient norms (Chen et al. 2018),
  renormalized to sum to the task count.
* aux: None trains the main losses alone.  "gradsim" weights each
  auxiliary loss per batch by the truncated cosine between main and
  auxiliary shared-trunk gradients (Du et al. 2018).  "normgradsim"
  (normgradsim, mtu+al) keeps auxiliary gates alpha_j (truncated cosine
  target) and scale equalizers beta_j (target |G_main| / |G_aux_j|), each
  nudged one clipped step per batch toward its target, inside the
  normalized combination

      L_task = (L_main + sum_j alpha_j beta_j L_aux_j) / (1 + sum_j alpha_j)

  whose gradient stays on the scale of the main loss when the betas sit at
  their targets.  That L_task is the task loss the weighting reads.

All similarity and norm computations use the shared-trunk gradient.  The
alpha, beta and task weights are treated as constants in the network
update itself.

A batch draws its B coding masks in one `coding.random_masks` pass and is
coded with one `coding.encode_batch`.  The validation masks are fixed, so
`train` codes the validation split once per call, and each epoch scores it
with one batched forward.  That forward rounds differently from one sample
at a time, so the validation losses match the per-sample path to 1e-12
relative, a bound a test enforces; the training batches and the trained
net are bit-identical to it.

Each batch takes one forward pass.  Every active loss then gets its value
and head-output gradient (its seed) from one batched call through
`autodiff.batched_loss`.  The similarity and norm tests need only inner
products of the per-loss parameter gradients, so they read them from the
L x L Gram that `autodiff.gradient_gram` builds per task from the seeds,
over the shared trunk; no per-loss gradient is formed.  gradnorm reads
only the main losses' squared norms; without an aux rule or gradnorm no
Gram is built.  The update is the gradient of the combined loss
sum_i w_i (c_main,i L_main,i + sum_j c_aux,ij L_aux,ij), with the task
weights w_i and coefficients c treated as constants.  Because the backward
is linear in its seed, that is one `autodiff.collect_gradients` pass of the
combined seed per head, w_i (c_main,i seed_main,i + sum_j c_aux,ij
seed_aux,ij), into a reused flat vector.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import coding, losses_metrics, scenegen


class Strategy(NamedTuple):
    """Fixed (cv, disp) task weights, the adaptive weighting that replaces
    them per batch (None, "mtu" or "gradnorm"), and the auxiliary-loss rule
    (None, "gradsim" or "normgradsim")."""

    weights: tuple[float, float]
    weighting: str | None
    aux: str | None


STRATEGIES = {
    "st-cv": Strategy((1.0, 0.0), None, None),
    "st-disp": Strategy((0.0, 1.0), None, None),
    "naive": Strategy((0.5, 0.5), None, None),
    "mtu": Strategy((0.5, 0.5), "mtu", None),
    "gradnorm": Strategy((0.5, 0.5), "gradnorm", None),
    "gradsim": Strategy((0.5, 0.5), None, "gradsim"),
    "normgradsim": Strategy((0.5, 0.5), None, "normgradsim"),
    "mtu+al": Strategy((0.5, 0.5), "mtu", "normgradsim"),
}

TASKS = ("cv", "disp")

# Share of the data set held out for validation, taken from its end.
VAL_FRACTION = 0.2

# Auxiliary losses per task, in a fixed order.
AUX_LOSSES = {
    "cv": (
        ("ssim", losses_metrics.ssim_loss),
        ("cos", losses_metrics.spectral_cos_loss),
    ),
    "disp": (
        ("tv", losses_metrics.tv_smoothness),
        ("normal", losses_metrics.normal_similarity),
    ),
}


@dataclass
class MtuState:
    """Trainable per-task log-variances, initialized at zero."""

    s: np.ndarray

    @classmethod
    def initial(cls) -> "MtuState":
        return cls(s=np.zeros(len(TASKS)))


@dataclass
class GradNormState:
    """Adaptive task weights, initial losses, and the asymmetry exponent."""

    weights: np.ndarray
    gamma: float = 1.5
    lr: float = 0.1
    initial_losses: np.ndarray | None = None

    @classmethod
    def initial(cls, gamma: float = 1.5, lr: float = 0.1):
        return cls(weights=np.ones(len(TASKS)), gamma=gamma, lr=lr)


def mtu_loss(losses: np.ndarray, state: MtuState) -> tuple[float, np.ndarray]:
    """Uncertainty-weighted total and its gradient with respect to s.

    total = sum_i exp(-s_i)/2 * L_i + s_i/2;  d total / d s_i is zero
    exactly when exp(s_i) = L_i.
    """
    losses = np.asarray(losses, dtype=np.float64)
    total = float(np.sum(0.5 * np.exp(-state.s) * losses + 0.5 * state.s))
    ds = 0.5 * (1.0 - np.exp(-state.s) * losses)
    return total, ds


def mtu_effective_weights(state: MtuState) -> np.ndarray:
    return 0.5 * np.exp(-state.s)


def gradnorm_update(
    grad_norms: np.ndarray, losses: np.ndarray, state: GradNormState
) -> np.ndarray:
    """One subgradient step on the GradNorm balancing objective.

    Targets per task: mean_i(w_i |G_i|) * r_i^gamma with r_i the relative
    inverse training rate (L_i / L_i(0), normalized); targets are treated
    as constants.  Weights are clamped positive and renormalized to sum to
    the number of tasks.  Returns a copy of the new weights.
    """
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if np.all(grad_norms == 0.0):
        warnings.warn("all task gradient norms are zero; skipping gradnorm update")
        return state.weights.copy()
    if state.initial_losses is None:
        state.initial_losses = np.maximum(losses.copy(), 1e-12)
    ratios = losses / state.initial_losses
    r = ratios / ratios.mean()
    weighted = state.weights * grad_norms
    target = weighted.mean() * np.power(r, state.gamma)
    grad_w = np.sign(weighted - target) * grad_norms
    w = state.weights - state.lr * grad_w
    w = np.maximum(w, 1e-4)
    w *= len(w) / w.sum()
    state.weights = w
    return w.copy()


def _gram_norms(gram: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(0.0, np.diag(gram)))


def _truncated_cosine(dot: float, nm: float, na: float) -> float:
    """max(0, cosine) of two gradients with inner product dot and norms nm, na."""
    if nm == 0.0 or na == 0.0:
        return 0.0
    return max(0.0, float(dot) / (nm * na))


def gram_gradsim_weights(gram: np.ndarray) -> np.ndarray:
    """Truncated cosine similarity of each auxiliary gradient to the main
    one, from the Gram of [g_main, *g_aux]."""
    norms = _gram_norms(gram)
    return np.array(
        [_truncated_cosine(gram[0, j], norms[0], norms[j]) for j in range(1, len(gram))]
    )


def gram_normgradsim_update(
    gram: np.ndarray, alpha: np.ndarray, beta: np.ndarray, step: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Move alpha and beta one clipped step toward their per-batch targets,
    read from the Gram of [g_main, *g_aux].

    Targets: alpha_j* = truncated cosine(g_main, g_aux_j) and
    beta_j* = |g_main| / |g_aux_j|.  The move is the signed-subgradient step
    on |alpha_j - alpha_j*| and |beta_j |g_aux_j|| - |g_main||, clipped to
    the distance to the target so the fixed points are reached exactly.
    Degenerate (zero-norm) gradients leave the pair unchanged.  Alphas are
    clamped to [0, 1], betas kept strictly positive.
    """
    alpha = np.asarray(alpha, dtype=np.float64).copy()
    beta = np.asarray(beta, dtype=np.float64).copy()
    norms = _gram_norms(gram)
    nm = norms[0]
    for j in range(len(gram) - 1):
        na = norms[1 + j]
        if nm == 0.0 or na == 0.0:
            warnings.warn(f"degenerate gradient norm for auxiliary loss {j}; skipped")
            continue
        a_target = _truncated_cosine(gram[0, 1 + j], nm, na)
        b_target = nm / na
        alpha[j] += np.clip(a_target - alpha[j], -step, step)
        beta[j] += np.clip(b_target - beta[j], -step, step)
    alpha = np.clip(alpha, 0.0, 1.0)
    beta = np.maximum(beta, 1e-8)
    return alpha, beta


def normgradsim_loss(
    l_main: float, l_aux: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> float:
    """Normalized auxiliary combination for one task.

    (L_main + sum_j alpha_j beta_j L_aux_j) / (1 + sum_j alpha_j); the
    weights are constants with respect to the network parameters.
    """
    l_aux = np.asarray(l_aux, dtype=np.float64)
    return float((l_main + np.sum(alpha * beta * l_aux)) / (1.0 + np.sum(alpha)))


def normgradsim_coefficients(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Coefficients (c_main, c_aux_j) so the task loss is their linear mix."""
    denom = 1.0 + float(np.sum(alpha))
    return 1.0 / denom, (alpha * beta) / denom


# ---------------------------------------------------------------------------
# dataset and training loop


@dataclass
class Sample:
    lightfield: np.ndarray  # (U, V, S, T, C)
    cv: np.ndarray  # (S, T, C)
    disp: np.ndarray  # (S, T)


def make_toy_dataset(
    n: int, dims: tuple[int, int, int, int, int], seed: int
) -> list[Sample]:
    """Render n random scenes at the given light-field dimensions."""
    samples = []
    rng = np.random.default_rng(seed)
    for _ in range(n):
        spec = scenegen.sample_spec(dims, int(rng.integers(2**63)))
        cv, disp = scenegen.make_scene(spec)
        lf = scenegen.render_lightfield(cv, disp, dims[0], dims[1])
        samples.append(Sample(lightfield=lf, cv=cv, disp=disp))
    return samples


def baseline_losses(train: list[Sample], val: list[Sample]) -> tuple[float, float]:
    """Huber losses of the constant predictor (pixelwise train mean) on val."""
    cv_mean = np.mean([s.cv for s in train], axis=0)
    disp_mean = np.mean([s.disp for s in train], axis=0)
    cv_l = np.mean(
        [losses_metrics.huber(cv_mean, s.cv, with_grad=False).value for s in val]
    )
    disp_l = np.mean(
        [losses_metrics.huber(disp_mean, s.disp, with_grad=False).value for s in val]
    )
    return float(cv_l), float(disp_l)


@dataclass
class TrainConfig:
    strategy: str = "naive"
    epochs: int = 20
    batch_size: int = 16
    lr: float = 1e-2
    momentum: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0
    gradnorm_gamma: float = 1.5
    normgradsim_step: float = 0.1
    # Optional early stop: quit once active-task validation losses drop
    # below these (cv, disp) thresholds; None disables.
    stop_below: tuple[float | None, float | None] | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {', '.join(STRATEGIES)}"
            )
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("lr", "momentum", "weight_decay", "gradnorm_gamma", "normgradsim_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # A negative rate or decay ascends the loss; momentum must lie in
        # [0, 1) for the velocity to stay bounded.
        for name in ("lr", "weight_decay", "gradnorm_gamma", "normgradsim_step"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def _derive_seed(*parts: int) -> int:
    # Fold parts into one 64-bit seed with SplitMix-style mixing; every sum
    # wraps modulo 2**64, so a negative part counts as its two's complement.
    acc = coding._GOLDEN
    for p in parts:
        acc = coding._mix64((acc + int(p)) & coding._MASK64)
    return acc


@dataclass
class EpochLog:
    epoch: int
    loss_cv: float
    loss_disp: float
    alphas: dict[str, list[float]]
    betas: dict[str, list[float]]
    task_weights: list[float]


def _stack(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The light fields, central views and disparities of a split, stacked."""
    return tuple(
        np.stack([getattr(s, name) for s in samples]) for name in ("lightfield", "cv", "disp")
    )


def validate(
    net: ad.ToyNet, coded: np.ndarray, cv: np.ndarray, disp: np.ndarray
) -> tuple[float, float]:
    """Mean Huber validation losses of a coded split (B, U, V, S, T, C)
    against its central views and disparities, from one batched forward."""
    cv_hat, disp_hat, _ = net.forward_batch(coded)
    return (
        losses_metrics.huber(cv_hat, cv, with_grad=False, batched=True).value,
        losses_metrics.huber(disp_hat, disp, with_grad=False, batched=True).value,
    )


def train(
    net: ad.ToyNet, dataset: list[Sample], config: TrainConfig
) -> tuple[ad.ToyNet, list[EpochLog]]:
    """Train the two-head net with the chosen weighting strategy.

    Fresh coding masks are drawn per sample and epoch during training, one
    `coding.random_masks` call and one `coding.encode_batch` per batch;
    validation always uses the fixed evaluation masks, so the split is coded
    once per call.  Returns the net and one log entry per epoch with
    validation losses and the current weights.  Deterministic in (dataset,
    config, net seed).  A non-finite validation loss raises
    FloatingPointError.
    """
    n_val = max(1, int(round(len(dataset) * VAL_FRACTION)))
    train_set = dataset[:-n_val]
    val_set = dataset[-n_val:]
    if not train_set:
        raise ValueError("dataset too small for the validation split")

    n_s, n_t, n_c = net.dims[2], net.dims[3], net.dims[4]
    # The validation masks depend on (seed, 1, i) alone: code the split once
    # and keep only the coded copy.
    val_lf, val_cv, val_disp = _stack(val_set)
    val_coded = coding.encode_batch(
        val_lf,
        coding.random_masks(n_s, n_t, n_c, [_derive_seed(config.seed, 1, i) for i in range(n_val)]),
    )
    del val_lf
    weights, weighting, aux = STRATEGIES[config.strategy]
    # Auxiliary gates and scales per task.  gradsim keeps its last
    # per-batch weights in alpha; its betas stay at one.
    alpha = {t: np.zeros(len(AUX_LOSSES[t])) for t in TASKS}
    beta = {t: np.ones(len(AUX_LOSSES[t])) for t in TASKS}
    mtu_state = MtuState.initial()
    gn_state = GradNormState.initial(gamma=config.gradnorm_gamma)
    rng = np.random.default_rng(_derive_seed(config.seed, 0xD5))
    total = np.empty_like(net.flat)
    velocity = np.zeros_like(net.flat) if config.momentum else None
    update = total if velocity is None else velocity
    velocity_s = np.zeros_like(mtu_state.s)
    logs: list[EpochLog] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            idxs = order[start : start + config.batch_size]
            masks = coding.random_masks(
                n_s, n_t, n_c, [_derive_seed(config.seed, 2, epoch, int(i)) for i in idxs]
            )
            lightfields, cv, disp = _stack([train_set[i] for i in idxs])
            coded = coding.encode_batch(lightfields, masks).astype(np.float64)
            cv_pred, disp_pred, acts = net.forward_batch(coded)
            pred = {"cv": cv_pred, "disp": disp_pred}
            truth = {"cv": cv, "disp": disp}

            # One pass over the active tasks: each loss's value and seed
            # (main, then the auxiliaries when a rule weights them), the Gram
            # of their trunk gradients when the rule or gradnorm reads it,
            # the task loss, and the seed coefficients (c_main, c_aux).
            task_losses = np.zeros(len(TASKS))
            main_norms = np.zeros(len(TASKS))
            seeds, coeffs = {}, {}
            for ti, task in enumerate(TASKS):
                if not weights[ti]:
                    continue
                fns = [losses_metrics.huber] + [fn for _, fn in AUX_LOSSES[task] if aux]
                vals, seeds[task] = zip(
                    *(ad.batched_loss(pred[task], fn, truth[task]) for fn in fns)
                )
                task_losses[ti] = vals[0]
                coeffs[task] = (1.0, ())
                if aux or weighting == "gradnorm":
                    gram = ad.gradient_gram(net, acts, task, seeds[task])
                    main_norms[ti] = _gram_norms(gram)[0]
                if aux == "gradsim":
                    alpha[task] = gram_gradsim_weights(gram)
                    coeffs[task] = (1.0, alpha[task])
                elif aux == "normgradsim":
                    alpha[task], beta[task] = gram_normgradsim_update(
                        gram, alpha[task], beta[task], step=config.normgradsim_step
                    )
                    task_losses[ti] = normgradsim_loss(vals[0], vals[1:], alpha[task], beta[task])
                    coeffs[task] = normgradsim_coefficients(alpha[task], beta[task])

            task_weights = np.array(weights)
            if weighting == "gradnorm":
                task_weights = gradnorm_update(main_norms, task_losses, gn_state)
            elif weighting == "mtu":
                _, ds = mtu_loss(task_losses, mtu_state)
                task_weights = mtu_effective_weights(mtu_state)
                # the log-variances take the same optimizer step as the net
                velocity_s = config.momentum * velocity_s + ds
                mtu_state.s -= config.lr * velocity_s

            # One backward of the combined seed per head: task weight times
            # (c_main seed_main + sum_j c_aux_j seed_aux_j).
            head_seeds = {}
            for task, (c_main, c_aux) in coeffs.items():
                w = task_weights[TASKS.index(task)]
                scales = [w * c_main] + [w * float(c) for c in c_aux]
                terms = [scale * seed for seed, scale in zip(seeds[task], scales) if scale != 0.0]
                if terms:
                    head_seeds[task] = sum(terms)
            ad.collect_gradients(net, acts, head_seeds, out=total)

            if velocity is not None:
                velocity *= config.momentum
                velocity += total
            ad.sgd_step(net.flat, update, config.lr, config.weight_decay)

        loss_cv, loss_disp = validate(net, val_coded, val_cv, val_disp)
        if not (math.isfinite(loss_cv) and math.isfinite(loss_disp)):
            raise FloatingPointError(f"validation losses {loss_cv}, {loss_disp} at epoch {epoch}")
        logs.append(
            EpochLog(
                epoch=epoch,
                loss_cv=loss_cv,
                loss_disp=loss_disp,
                alphas={t: [float(x) for x in alpha[t]] for t in TASKS},
                betas={t: [float(x) for x in beta[t]] for t in TASKS},
                task_weights=[float(x) for x in task_weights],
            )
        )
        if config.stop_below is not None:
            cv_target, disp_target = config.stop_below
            cv_ok = not weights[0] or cv_target is None or loss_cv < cv_target
            disp_ok = not weights[1] or disp_target is None or loss_disp < disp_target
            if cv_ok and disp_ok:
                break
    return net, logs
