"""Self-verification suites: layout equivalence, gradients, attention
algebra, schedule and loss properties.

Each suite returns a list of :class:`CheckResult` rows (name, measured value,
threshold, verdict). The CLI prints the rows and maps any failure to a
nonzero exit code. These are the same checks the test suite pins down, kept
runnable in production builds because the layout-equivalence claim is the
whole point of the radix-major implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops, splat, training
from .gradcheck import grad_check
from .params import make_rng, spawn_rng
from .splat import (
    CARDINALITY_TO_RADIX,
    RADIX_TO_CARDINALITY,
    SplatConfig,
    SplitAttentionUnit,
    permute_params,
    reference_bn,
    reference_conv,
    reference_pool,
    splat_forward_cardinality_major,
)

EQUIVALENCE_GRID = [
    (radix, cardinality, channels)
    for radix in (1, 2, 4)
    for cardinality in (1, 2, 4)
    for channels in (8, 16, 32)
]


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{status} {self.name}: {self.value:.3e} (threshold {self.threshold:.1e}){extra}"


def _lt(name, value, threshold, detail="") -> CheckResult:
    return CheckResult(name, float(value), threshold, bool(value < threshold), detail)


def random_unit_params(cfg: SplatConfig, rng) -> dict[str, np.ndarray]:
    """Random weights, affine terms, and positive running stats for a unit."""
    unit = SplitAttentionUnit(cfg)
    params = {}
    for name, arr in unit.named_state():
        if name.endswith("running_var"):
            params[name] = np.abs(rng.standard_normal(arr.shape)) + 0.5
        else:
            params[name] = rng.standard_normal(arr.shape) * 0.5
    return params


def unit_forward(x, cfg: SplatConfig, params: dict[str, np.ndarray]):
    """Run NCHW ``x`` through a fresh eval-mode unit loaded with ``params``,
    converting to and from the unit's [C, H, W, N] layout; returns
    (NCHW y, attention weights [K, R, c, N])."""
    unit = SplitAttentionUnit(cfg)
    unit.load_state_dict(params)
    y, (_, _, (_, a)) = unit.forward(ops.to_chwn(x), mode="eval")
    return ops.to_nchw(y), a


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


def run_equivalence(seed: int = 0) -> list[CheckResult]:
    """Cardinality-major vs radix-major-after-permutation over the full grid,
    on a batch of two 6-channel 8x8 inputs."""
    results = []
    for radix, cardinality, channels in EQUIVALENCE_GRID:
        rng = spawn_rng(seed, radix, cardinality, channels)
        cfg = SplatConfig(in_channels=6, channels=channels,
                          radix=radix, cardinality=cardinality)
        params = random_unit_params(cfg, rng)
        x = rng.standard_normal((2, 6, 8, 8))
        y_radix, _ = unit_forward(x, cfg, params)
        y_card = splat_forward_cardinality_major(
            x, cfg, permute_params(params, cfg, RADIX_TO_CARDINALITY)
        )
        diff = np.abs(y_radix - y_card).max()
        results.append(
            _lt(f"equivalence R={radix} K={cardinality} C={channels}", diff, 1e-10)
        )
        round_trip = permute_params(
            permute_params(params, cfg, RADIX_TO_CARDINALITY), cfg, CARDINALITY_TO_RADIX
        )
        exact = all(np.array_equal(round_trip[k], params[k]) for k in params)
        results.append(CheckResult(
            f"permutation round trip R={radix} K={cardinality} C={channels}",
            0.0 if exact else 1.0, 1.0, exact, "must be bitwise identity",
        ))
    return results


# ---------------------------------------------------------------------------
# Attention suite
# ---------------------------------------------------------------------------


def se_reference_forward(x, cfg: SplatConfig, params: dict[str, np.ndarray]):
    """Squeeze-and-gate reference for radix == 1, coded straight through.

    Per cardinal group: transform the input, pool it, push the pooled vector
    through the bottleneck, gate the transform output with a sigmoid. No
    split machinery involved.
    """
    assert cfg.radix == 1
    k_, cw, sw = cfg.cardinality, cfg.cardinal_width, cfg.split_width
    ai_k = cfg.attention_inner // cfg.cardinality
    outs = []
    for k in range(k_):
        gsl = slice(k * sw, (k + 1) * sw)
        csl = slice(k * cw, (k + 1) * cw)
        t = reference_conv(x, params["conv_in.weight"][gsl])
        t = np.maximum(reference_bn(t, params, "bn_in", gsl), 0.0)
        if cfg.stride > 1 and cfg.fast:
            t = reference_pool(t, cfg.stride)
        t = reference_conv(t, params["conv_split.weight"][csl], padding=1)
        t = np.maximum(reference_bn(t, params, "bn_split", csl), 0.0)
        if cfg.stride > 1 and not cfg.fast:
            t = reference_pool(t, cfg.stride)
        s = t.mean(axis=(2, 3))
        asl = slice(k * ai_k, (k + 1) * ai_k)
        h = s @ params["fc1.weight"][asl].T
        h = np.maximum(reference_bn(h, params, "bn_att", asl), 0.0)
        logit = h @ params["fc2.weight"][csl].T + params["fc2.bias"][csl]
        gate = 1.0 / (1.0 + np.exp(-logit))
        outs.append(t * gate[:, :, None, None])
    return np.concatenate(outs, axis=1)


def run_attention(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = make_rng(seed + 11)

    # weight normalization across splits, and the sigmoid range for radix 1
    for radix, cardinality, channels in EQUIVALENCE_GRID:
        crng = spawn_rng(seed, 7, radix, cardinality, channels)
        cfg = SplatConfig(in_channels=5, channels=channels, radix=radix,
                          cardinality=cardinality)
        params = random_unit_params(cfg, crng)
        x = crng.standard_normal((2, 5, 6, 6))
        _, a = unit_forward(x, cfg, params)
        if radix > 1:
            err = np.abs(a.sum(axis=1) - 1.0).max()
            results.append(
                _lt(f"weight normalization R={radix} K={cardinality} C={channels}", err, 1e-12)
            )
        else:
            inside = (a > 0.0).all() and (a < 1.0).all()
            results.append(CheckResult(
                f"sigmoid gate range K={cardinality} C={channels}",
                float(a.min()), 1.0, bool(inside), "weights must lie in (0,1)",
            ))

    # radix-1 unit equals the straight squeeze-and-gate path, also when it
    # downsamples after (fast off) or before (fast on) its 3x3
    for stride, fast in [(1, False), (2, False), (2, True)]:
        for cardinality, channels in [(1, 8), (2, 16), (4, 32)]:
            crng = spawn_rng(seed, 8, cardinality, channels)
            cfg = SplatConfig(in_channels=4, channels=channels, radix=1,
                              cardinality=cardinality, stride=stride, fast=fast)
            params = random_unit_params(cfg, crng)
            x = crng.standard_normal((2, 4, 7, 7))
            y_unit, _ = unit_forward(x, cfg, params)
            y_ref = se_reference_forward(x, cfg, params)
            where = "" if stride == 1 else f" stride {stride} fast={fast}"
            results.append(
                _lt(f"squeeze-gate reduction K={cardinality} C={channels}{where}",
                    np.abs(y_unit - y_ref).max(), 1e-10)
            )

    # radix-2: the two weights of every pair sum to one
    cfg = SplatConfig(in_channels=4, channels=16, radix=2, cardinality=2)
    params = random_unit_params(cfg, rng)
    x = rng.standard_normal((3, 4, 6, 6))
    _, a = unit_forward(x, cfg, params)
    pair_err = np.abs(a.sum(axis=1) - 1.0).max()
    results.append(_lt("two-split pair weights sum to 1", pair_err, 1e-12))

    # scaling one split scales its contribution exactly
    u = rng.standard_normal((16 * 2, 5, 5, 2))
    a = splat.r_softmax(rng.standard_normal((2, 2, 8, 2)), 2)
    v = splat.weighted_fuse(u, a)
    alpha = 3.5
    u2 = u.copy()
    u2[:16] *= alpha  # split r=0 occupies the first channels block
    v2 = splat.weighted_fuse(u2, a)
    contrib = v2 - v
    expected = (alpha - 1.0) * splat.weighted_fuse(
        np.concatenate([u[:16], np.zeros_like(u[16:])], axis=0), a
    )
    results.append(
        _lt("split scale covariance", np.abs(contrib - expected).max(), 1e-12)
    )

    # permuting splits together with their logits leaves the output unchanged
    logits = rng.standard_normal((2, 4, 8, 2))
    u = rng.standard_normal((16 * 4, 5, 5, 2))
    a = splat.r_softmax(logits, 4)
    v = splat.weighted_fuse(u, a)
    perm = np.array([2, 0, 3, 1])
    ur = u.reshape(4, 16, 5, 5, 2)[perm].reshape(64, 5, 5, 2)
    ap = splat.r_softmax(logits[:, perm], 4)
    vp = splat.weighted_fuse(ur, ap)
    results.append(_lt("split permutation equivariance", np.abs(v - vp).max(), 1e-12))
    return results


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------


def splat_gradcheck(seed: int = 0):
    """Full-unit gradient check against central differences."""
    rng = make_rng(seed + 23)
    cfg = SplatConfig(in_channels=3, channels=8, radix=2, cardinality=2)
    unit = SplitAttentionUnit(cfg, rng=rng)
    x = rng.standard_normal((3, 5, 5, 2))  # [C, H, W, N]
    proj = rng.standard_normal((8, 5, 5, 2))  # fixed projection: scalar loss
    params = {"input": x}
    params.update({name: p.value for name, p in unit.named_parameters()})

    def loss_and_grads():
        # train-mode loss depends on batch statistics only; running-stat
        # drift across repeated calls is irrelevant to the check
        y, tape = unit.forward(x, mode="train")
        loss = float((y * proj).sum())
        gx = unit.backward(tape, proj)
        grads = {"input": gx}
        grads.update({name: p.grad for name, p in unit.named_parameters()})
        return loss, grads

    return grad_check(loss_and_grads, params, tolerance=1e-4,
                      max_entries_per_param=6, rng=rng, writing=unit.writing)


def run_gradcheck(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = make_rng(seed + 31)

    # single convolution
    x = rng.standard_normal((2, 5, 5, 1))  # [C, H, W, N]
    w = rng.standard_normal((4, 1, 3, 3))
    params = {"x": x, "w": w}

    def conv_loss():
        y = ops.conv2d(x, w, stride=1, padding=1, groups=2)
        gx, gw = ops.conv2d_backward(np.ones_like(y), x, w, 1, 1, 2)
        return float(y.sum()), {"x": gx, "w": gw}

    rep = grad_check(conv_loss, params, tolerance=1e-7)
    results.append(_lt("conv2d gradient", rep.max_rel_err, 1e-7))

    # softmax jacobian
    z = rng.standard_normal((3, 5))
    proj = rng.standard_normal((3, 5))

    def softmax_loss():
        y = ops.softmax(z, axis=1)
        return float((y * proj).sum()), {"z": ops.softmax_backward(proj, y, axis=1)}

    rep = grad_check(softmax_loss, {"z": z}, tolerance=1e-6)
    results.append(_lt("softmax jacobian", rep.max_rel_err, 1e-6))

    # full unit
    rep = splat_gradcheck(seed)
    results.append(_lt("split-attention unit gradient", rep.max_rel_err, 1e-4))

    # smoothed cross entropy
    logits = rng.standard_normal((4, 6))
    labels = np.array([0, 2, 5, 3])

    def ce_loss():
        loss, grad = training.label_smooth_ce(logits, labels, 0.1)
        return float(loss), {"logits": grad}

    rep = grad_check(ce_loss, {"logits": logits}, tolerance=1e-6)
    results.append(_lt("label-smoothed cross entropy gradient", rep.max_rel_err, 1e-6))
    return results


# ---------------------------------------------------------------------------
# Schedule and loss suites
# ---------------------------------------------------------------------------


def run_schedule() -> list[CheckResult]:
    results = []
    sched = training.ScheduleConfig(batch_size=256, total_epochs=100,
                                    steps_per_epoch=100, base_lr=0.1, warmup_epochs=5)
    first = training.lr_at(0, sched)
    results.append(_lt("first warmup tick equals peak/warmup_steps",
                       abs(first - sched.peak_lr / sched.warmup_steps), 1e-15))
    big = training.ScheduleConfig(batch_size=8192, total_epochs=10,
                                  steps_per_epoch=50, warmup_epochs=5)
    end_warm = training.lr_at(big.warmup_steps - 1, big)
    results.append(_lt("scaled peak at end of warmup (B=8192 -> 3.2)",
                       abs(end_warm - 3.2), 1e-12))
    junction = abs(training.lr_at(sched.warmup_steps, sched) - sched.peak_lr)
    results.append(_lt("warmup/cosine junction continuity", junction, 1e-12))
    long = training.ScheduleConfig(batch_size=256, total_epochs=101,
                                   steps_per_epoch=100, warmup_epochs=1)
    final = training.lr_at(long.total_steps - 1, long)
    results.append(_lt("final rate below 1e-3 of peak (T >= 1e4)",
                       final, long.peak_lr * 1e-3))
    values = [training.lr_at(s, sched) for s in range(0, sched.total_steps, 97)]
    results.append(CheckResult("schedule minimum sampled rate", float(min(values)),
                               0.0, min(values) >= 0.0, "must be non-negative"))
    return results


def run_loss(seed: int = 0) -> list[CheckResult]:
    results = []
    rng = make_rng(seed + 47)
    for smoothing in (0.0, 0.05, 0.3, 0.9):
        for k in (2, 5, 100):
            t = training.smooth_targets(training.one_hot(np.array([k - 1, 0]), k), smoothing)
            err = np.abs(t.sum(axis=1) - 1.0).max()
            results.append(_lt(f"smoothed targets sum to 1 (eps={smoothing}, K={k})", err, 1e-12))

    logits = rng.standard_normal((6, 9)) * 3
    labels = rng.integers(0, 9, size=6)
    loss, _ = training.label_smooth_ce(logits, labels, 0.0)
    z = logits - logits.max(axis=1, keepdims=True)
    hard = float(np.mean(-z[np.arange(6), labels] + np.log(np.exp(z).sum(axis=1))))
    results.append(_lt("zero smoothing equals hard cross entropy", abs(loss - hard), 1e-12))

    uniform = np.zeros((3, 7))
    loss_u, _ = training.label_smooth_ce(uniform, np.array([0, 3, 6]), 0.2)
    results.append(_lt("uniform logits give log K", abs(loss_u - np.log(7.0)), 1e-12))

    x = rng.standard_normal((8, 2, 4, 4))
    y = training.one_hot(rng.integers(0, 3, size=8), 3)
    xm, ym = training.mixup_batch(x, y, 0.2, lam=np.ones(8))
    results.append(_lt("mixup at lambda 1 is identity",
                       max(np.abs(xm - x).max(), np.abs(ym - y).max()), 1e-15))
    xm, ym = training.mixup_batch(x, y, 0.2, lam=np.zeros(8))
    results.append(_lt("mixup at lambda 0 reverses the batch",
                       max(np.abs(xm - x[::-1]).max(), np.abs(ym - y[::-1]).max()), 1e-15))
    xm, ym = training.mixup_batch(x, y, 0.2, rng=rng)
    lo = np.minimum(x, x[::-1]) - 1e-12
    hi = np.maximum(x, x[::-1]) + 1e-12
    convex = bool(((xm >= lo) & (xm <= hi)).all())
    results.append(CheckResult("mixup outputs are convex combinations", 0.0, 1.0, convex))
    results.append(_lt("mixed one-hot rows sum to 1", np.abs(ym.sum(axis=1) - 1.0).max(), 1e-12))

    lam = training.beta_samples(make_rng(seed + 5), 0.2, 100_000)
    results.append(_lt("mean mixing coefficient near 0.5", abs(lam.mean() - 0.5), 0.01))
    return results


SUITES = {
    "equivalence": lambda seed: run_equivalence(seed),
    "gradcheck": lambda seed: run_gradcheck(seed),
    "attention": lambda seed: run_attention(seed),
    "schedule": lambda seed: run_schedule(),
    "loss": lambda seed: run_loss(seed),
}


def run_suites(names: list[str], seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
