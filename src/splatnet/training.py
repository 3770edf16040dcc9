"""Training-recipe mathematics and a deterministic desk-scale trainer.

Covers the learning-rate schedule (linear warmup into cosine decay with
batch-size scaled peak), label-smoothed cross entropy, mixup, and momentum
SGD that decays conv and FC weights only. ``train_toy`` wires them into a
small, fully seeded training loop over a synthetic two-class image task; given
(seed, config) a run is bit-reproducible, including across an
interrupt/resume at an epoch boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .params import ConfigurationError, Module, spawn_rng


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message names the offending step."""


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------


@dataclass
class ScheduleConfig:
    batch_size: int
    total_epochs: int
    steps_per_epoch: int
    base_lr: float = 0.1
    warmup_epochs: int = 5

    def __post_init__(self):
        if self.warmup_epochs < 0:
            raise ConfigurationError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.total_epochs <= self.warmup_epochs:
            raise ConfigurationError(
                f"warmup ({self.warmup_epochs} epochs) must be shorter than the "
                f"run ({self.total_epochs} epochs)"
            )
        if self.batch_size < 1 or self.steps_per_epoch < 1:
            raise ConfigurationError("batch_size and steps_per_epoch must be positive")

    @property
    def peak_lr(self) -> float:
        # linear batch-size scaling against a reference batch of 256
        return (self.batch_size / 256.0) * self.base_lr

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


@dataclass
class LossConfig:
    num_classes: int
    smoothing: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigurationError(f"smoothing must be in [0, 1), got {self.smoothing}")
        if self.smoothing > 0.0 and self.num_classes < 2:
            raise ConfigurationError("smoothing needs at least two classes")


@dataclass
class MixupConfig:
    alpha: float = 0.2
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and self.alpha <= 0.0:
            raise ConfigurationError(f"mixup alpha must be positive, got {self.alpha}")


@dataclass
class OptimizerConfig:
    momentum: float = 0.9
    weight_decay: float = 1e-4


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def lr_at(step: int, sched: ScheduleConfig) -> float:
    """Learning rate for one optimizer step.

    Steps [0, warmup_steps) ramp linearly so that the last warmup step (and
    the first cosine step) both equal the scaled peak rate; afterwards a
    half-cosine decays towards zero over the remaining steps.
    """
    if not 0 <= step < sched.total_steps:
        raise ConfigurationError(
            f"step {step} outside schedule range [0, {sched.total_steps})"
        )
    peak = sched.peak_lr
    if step < sched.warmup_steps:
        return peak * (step + 1) / sched.warmup_steps
    t = step - sched.warmup_steps
    span = sched.total_steps - sched.warmup_steps
    return peak * 0.5 * (1.0 + math.cos(math.pi * t / span))


# ---------------------------------------------------------------------------
# Losses and targets
# ---------------------------------------------------------------------------


def smooth_targets(targets: np.ndarray, smoothing: float) -> np.ndarray:
    """Blend a target distribution towards uniform-off-target mass.

    A one-hot row becomes (1 - eps) on the labelled class and eps/(K-1)
    elsewhere; the map is linear, so mixed targets smooth component-wise.
    Row sums are preserved.
    """
    if smoothing == 0.0:
        return targets
    k = targets.shape[-1]
    return (1.0 - smoothing) * targets + (smoothing / (k - 1)) * (1.0 - targets)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigurationError(
            f"label out of range: {int(labels.max())} with {num_classes} classes"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy_soft(logits: np.ndarray, targets: np.ndarray):
    """Mean cross entropy against a target distribution, plus its gradient.

    Gradient w.r.t. the logits is (softmax(z) - p) / N per row: the batch
    mean of the per-sample gradient q - p.
    """
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -(targets * logq).sum() / n
    grad = (np.exp(logq) - targets) / n
    return loss, grad


def label_smooth_ce(logits: np.ndarray, labels: np.ndarray, smoothing: float):
    """Label-smoothed cross entropy on integer labels.

    smoothing 0 gives the ordinary hard-label cross entropy
    -z_c + log(sum_j exp(z_j)).
    """
    targets = smooth_targets(one_hot(labels, logits.shape[1], logits.dtype), smoothing)
    return cross_entropy_soft(logits, targets)


# ---------------------------------------------------------------------------
# Mixup
# ---------------------------------------------------------------------------


def beta_samples(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Beta(alpha, alpha) via the two-gamma-draw construction."""
    if alpha <= 0.0:
        raise ConfigurationError(f"beta parameter must be positive, got {alpha}")
    g1 = rng.gamma(alpha, 1.0, size)
    g2 = rng.gamma(alpha, 1.0, size)
    return g1 / (g1 + g2)


def mixup_batch(x: np.ndarray, y: np.ndarray, alpha: float,
                rng: np.random.Generator | None = None,
                lam: np.ndarray | None = None):
    """Mix each sample with its reversed-order partner.

    x: [N, ...]; y: [N, K] target rows. Each example gets its own mixing
    coefficient lam ~ Beta(alpha, alpha) (or an explicit ``lam`` array), and
    inputs and targets are combined identically:
    out_n = lam_n * in_n + (1 - lam_n) * in_{N-1-n}.
    """
    n = x.shape[0]
    if lam is None:
        if rng is None:
            raise ConfigurationError("mixup needs an rng when lam is not given")
        lam = beta_samples(rng, alpha, n)
    lam = np.asarray(lam, dtype=x.dtype)
    lx = lam.reshape((n,) + (1,) * (x.ndim - 1))
    ly = lam.reshape(n, 1)
    x_mixed = lx * x + (1.0 - lx) * x[::-1]
    y_mixed = ly * y + (1.0 - ly) * y[::-1]
    return x_mixed, y_mixed


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def sgd_step(model: Module, velocities: dict[str, np.ndarray],
             lr: float, opt: OptimizerConfig) -> None:
    """Classical momentum update of every parameter of ``model``, through its
    ``writing`` door, with ``velocities`` keyed by parameter path.

    v <- momentum * v + (grad + wd * w), v starting at 0;  w <- w - lr * v.
    Only parameters of rank >= 2 (conv and FC weights) take the decay wd * w.
    """
    with model.writing():
        for name, p in model.named_parameters():
            g = p.grad
            if opt.weight_decay != 0.0 and p.value.ndim > 1:
                g = g + opt.weight_decay * p.value
            v = velocities.get(name)
            if v is None:
                v = velocities[name] = np.zeros_like(p.value)
            v *= opt.momentum
            v += g
            p.value -= lr * v


# ---------------------------------------------------------------------------
# Desk-scale trainer
# ---------------------------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    accuracy: float
    lr: float

    def log_line(self) -> str:
        return f"{self.epoch}\t{self.loss:.10e}\t{self.accuracy:.6f}\t{self.lr:.10e}"


@dataclass
class TrainResult:
    epochs: list[EpochMetrics] = field(default_factory=list)
    lr_trace: list[float] = field(default_factory=list)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # one independent stream per epoch makes epoch-boundary resume exact
    return spawn_rng(seed, 1000 + epoch)


def train_toy(network, dataset, sched: ScheduleConfig, loss_cfg: LossConfig,
              mixup_cfg: MixupConfig, opt_cfg: OptimizerConfig, seed: int = 0,
              checkpoint_path=None, resume_from=None, log_fn=None,
              end_epoch: int | None = None) -> TrainResult:
    """Deterministic training loop over an in-memory dataset.

    ``dataset`` is anything with ``images`` [M, C, H, W] and ``labels`` [M].
    Batch order, mixup draws, and any dropout all derive from per-epoch
    generators seeded by (seed, epoch), so a run interrupted at an epoch
    boundary and resumed from its checkpoint reproduces the uninterrupted
    run exactly. Emits one metrics row per epoch; optionally saves a
    checkpoint (parameters, normalization buffers, optimizer velocities, and
    the epoch counter) after every epoch.

    ``end_epoch`` cuts the run short while keeping the schedule defined by
    ``sched.total_epochs`` (a truncated run, not a shorter schedule).
    """
    images, labels = dataset.images, dataset.labels
    m = images.shape[0]
    if sched.steps_per_epoch * sched.batch_size > m:
        raise ConfigurationError(
            f"schedule wants {sched.steps_per_epoch} x {sched.batch_size} samples "
            f"per epoch but the dataset has {m}"
        )
    velocities: dict[str, np.ndarray] = {}  # sgd_step creates them on first use
    start_epoch = 0
    if resume_from is not None:
        start_epoch = restore_training_state(network, velocities, resume_from)
        if checkpoint_path is not None and start_epoch >= sched.total_epochs:
            # nothing left to train: re-emit the restored state as-is
            save_training_state(network, velocities, start_epoch, checkpoint_path)

    result = TrainResult()
    last = sched.total_epochs if end_epoch is None else min(end_epoch, sched.total_epochs)
    for epoch in range(start_epoch, last):
        rng = _epoch_rng(seed, epoch)
        order = rng.permutation(m)
        epoch_loss = 0.0
        correct = 0
        seen = 0
        last_lr = 0.0
        for step_in_epoch in range(sched.steps_per_epoch):
            gstep = epoch * sched.steps_per_epoch + step_in_epoch
            idx = order[step_in_epoch * sched.batch_size : (step_in_epoch + 1) * sched.batch_size]
            xb = images[idx]
            yb = labels[idx]
            targets = one_hot(yb, loss_cfg.num_classes, xb.dtype)
            if mixup_cfg.enabled:
                xb, targets = mixup_batch(xb, targets, mixup_cfg.alpha, rng)
            targets = smooth_targets(targets, loss_cfg.smoothing)

            logits = network.forward(xb, mode="train", rng=rng)
            loss, dlogits = cross_entropy_soft(logits, targets)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss diverged at epoch {epoch} step {step_in_epoch} "
                    f"(global step {gstep})"
                )
            network.backward(dlogits)
            last_lr = lr_at(gstep, sched)
            result.lr_trace.append(last_lr)
            sgd_step(network, velocities, last_lr, opt_cfg)

            epoch_loss += float(loss) * len(idx)
            # accuracy against the un-mixed labels of the batch
            correct += int((logits.argmax(axis=1) == yb).sum())
            seen += len(idx)

        metrics = EpochMetrics(epoch, epoch_loss / seen, correct / seen, last_lr)
        result.epochs.append(metrics)
        if checkpoint_path is not None:
            save_training_state(network, velocities, epoch + 1, checkpoint_path)
        if log_fn is not None:
            log_fn(metrics.log_line())
    return result


def save_training_state(network, velocities: dict[str, np.ndarray],
                        next_epoch: int, path) -> None:
    tensors = dict(network.named_state())
    for name, v in velocities.items():
        tensors[f"velocity.{name}"] = v
    tensors["meta.next_epoch"] = np.array([float(next_epoch)])
    save_checkpoint(path, tensors)


def restore_training_state(network, velocities: dict[str, np.ndarray], path) -> int:
    """Load a training checkpoint into ``network`` and ``velocities`` (cast to
    the parameter dtypes, keyed by parameter path); returns the epoch to
    resume from. A checkpoint holds every parameter's velocity or, saved
    before any step, none."""
    tensors = load_checkpoint(path)
    next_epoch = tensors.get("meta.next_epoch")
    if next_epoch is None or next_epoch.size != 1:
        raise CheckpointError(
            f"{path}: no single-value meta.next_epoch tensor; not a training checkpoint"
        )
    next_epoch = next_epoch.item()
    if not (math.isfinite(next_epoch) and next_epoch >= 0 and next_epoch == int(next_epoch)):
        raise CheckpointError(f"{path}: meta.next_epoch {next_epoch} is not an epoch number")
    state = {k: v for k, v in tensors.items()
             if not k.startswith("velocity.") and not k.startswith("meta.")}
    network.load_state_dict(state)
    params = dict(network.named_parameters())
    keys = {f"velocity.{name}" for name in params}
    stray = [k for k in tensors if k.startswith("velocity.") and k not in keys]
    if stray:
        raise CheckpointError(f"{path}: {stray[0]} matches no parameter")
    if keys.isdisjoint(tensors):  # saved before the first step
        return int(next_epoch)
    for name, p in params.items():
        v = tensors.get(f"velocity.{name}")
        if v is None:
            raise CheckpointError(f"{path}: velocity.{name} missing from a partial set")
        if v.shape != p.value.shape:
            raise CheckpointError(
                f"{path}: velocity.{name}: shape {v.shape} != parameter shape {p.value.shape}"
            )
        velocities[name] = v.astype(p.value.dtype)
    return int(next_epoch)
