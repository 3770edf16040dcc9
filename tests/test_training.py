"""Training-recipe mathematics: schedule, losses, mixup, DropBlock, SGD, and
the deterministic toy trainer."""

import numpy as np
import numpy.testing as npt
import pytest

from splatnet.checkpoint import CheckpointError, load_checkpoint
from splatnet.data import make_toy_dataset
from splatnet.gradcheck import grad_check
from splatnet.layers import BatchNorm
from splatnet.network import NetworkConfig, build_network
from splatnet.ops import dropblock_mask
from splatnet.params import ConfigurationError, Module, Parameter, make_rng, spawn_rng
from splatnet.splat import SplatConfig, SplitAttentionUnit
from splatnet.training import (
    LossConfig,
    MixupConfig,
    OptimizerConfig,
    ScheduleConfig,
    TrainingDiverged,
    beta_samples,
    cross_entropy_soft,
    label_smooth_ce,
    lr_at,
    mixup_batch,
    one_hot,
    restore_training_state,
    save_training_state,
    sgd_step,
    smooth_targets,
    train_toy,
)


class TestSchedule:
    def test_first_warmup_tick(self):
        sched = ScheduleConfig(batch_size=256, total_epochs=100,
                               steps_per_epoch=100, base_lr=0.1, warmup_epochs=5)
        assert lr_at(0, sched) == pytest.approx(0.1 / 500, abs=0)

    def test_scaled_peak_large_batch(self):
        sched = ScheduleConfig(batch_size=8192, total_epochs=10,
                               steps_per_epoch=4, base_lr=0.1, warmup_epochs=5)
        assert lr_at(sched.warmup_steps - 1, sched) == pytest.approx(3.2, abs=1e-12)

    def test_junction_continuity(self):
        sched = ScheduleConfig(batch_size=512, total_epochs=30,
                               steps_per_epoch=17, warmup_epochs=5)
        peak = sched.peak_lr
        assert abs(lr_at(sched.warmup_steps - 1, sched) - peak) < 1e-15
        assert abs(lr_at(sched.warmup_steps, sched) - peak) < 1e-15

    def test_cosine_endpoint_small(self):
        sched = ScheduleConfig(batch_size=256, total_epochs=101,
                               steps_per_epoch=100, warmup_epochs=1)
        assert sched.total_steps - sched.warmup_steps == 10_000
        assert lr_at(sched.total_steps - 1, sched) < sched.peak_lr * 1e-3

    def test_monotone_warmup_and_decay(self):
        sched = ScheduleConfig(batch_size=128, total_epochs=20,
                               steps_per_epoch=10, warmup_epochs=3)
        values = [lr_at(s, sched) for s in range(sched.total_steps)]
        assert all(b > a for a, b in zip(values[:29], values[1:30]))
        assert all(b <= a for a, b in zip(values[30:-1], values[31:]))
        assert min(values) >= 0.0

    def test_step_range_errors(self):
        sched = ScheduleConfig(batch_size=32, total_epochs=2, steps_per_epoch=5,
                               warmup_epochs=1)
        with pytest.raises(ConfigurationError, match="outside"):
            lr_at(-1, sched)
        with pytest.raises(ConfigurationError, match="outside"):
            lr_at(10, sched)

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            ScheduleConfig(batch_size=32, total_epochs=5, steps_per_epoch=5,
                           warmup_epochs=5)


class TestLabelSmoothing:
    def test_smoothed_rows_sum_to_one(self):
        for eps in (0.0, 0.1, 0.5, 0.99):
            for k in (2, 3, 17):
                t = smooth_targets(one_hot(np.arange(k) % k, k), eps)
                npt.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
                if eps > 0:
                    on = t[0, 0]
                    off = t[0, 1]
                    assert on == pytest.approx(1 - eps)
                    assert off == pytest.approx(eps / (k - 1))

    def test_zero_smoothing_is_hard_ce(self):
        rng = make_rng(0)
        logits = rng.standard_normal((5, 7)) * 2
        labels = rng.integers(0, 7, 5)
        loss, _ = label_smooth_ce(logits, labels, 0.0)
        z = logits - logits.max(axis=1, keepdims=True)
        want = np.mean(-z[np.arange(5), labels] + np.log(np.exp(z).sum(axis=1)))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_uniform_logits_log_k(self):
        loss, _ = label_smooth_ce(np.zeros((4, 11)), np.arange(4), 0.3)
        assert loss == pytest.approx(np.log(11.0), abs=1e-12)

    def test_frozen_direct_formula_case(self):
        logits = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
        labels = np.array([0])
        loss, _ = label_smooth_ce(logits, labels, 0.1)
        # direct evaluation: p = (0.9, 0.025 x4), q = softmax(logits)
        q = np.exp(logits[0]) / np.exp(logits[0]).sum()
        p = np.array([0.9, 0.025, 0.025, 0.025, 0.025])
        assert loss == pytest.approx(float(-(p * np.log(q)).sum()), abs=1e-12)

    def test_gradient_is_q_minus_p_over_n(self):
        rng = make_rng(1)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        _, grad = label_smooth_ce(logits, labels, 0.2)
        q = np.exp(logits - logits.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        p = smooth_targets(one_hot(labels, 4), 0.2)
        npt.assert_allclose(grad, (q - p) / 6, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(2)
        logits = rng.standard_normal((4, 6))
        labels = np.array([1, 5, 0, 3])

        def loss():
            l, g = label_smooth_ce(logits, labels, 0.1)
            return float(l), {"logits": g}

        report = grad_check(loss, {"logits": logits}, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_label_out_of_range(self):
        with pytest.raises(ConfigurationError, match="label"):
            label_smooth_ce(np.zeros((2, 3)), np.array([0, 3]), 0.0)


class TestMixup:
    def test_lambda_one_identity(self):
        rng = make_rng(3)
        x = rng.standard_normal((6, 2, 3, 3))
        y = one_hot(rng.integers(0, 4, 6), 4)
        xm, ym = mixup_batch(x, y, 0.2, lam=np.ones(6))
        npt.assert_array_equal(xm, x)
        npt.assert_array_equal(ym, y)

    def test_lambda_zero_reverses(self):
        rng = make_rng(4)
        x = rng.standard_normal((5, 3))
        y = one_hot(rng.integers(0, 2, 5), 2)
        xm, ym = mixup_batch(x, y, 0.2, lam=np.zeros(5))
        npt.assert_array_equal(xm, x[::-1])
        npt.assert_array_equal(ym, y[::-1])

    def test_rows_sum_to_one_and_convex(self):
        rng = make_rng(5)
        x = rng.standard_normal((32, 1, 4, 4))
        y = one_hot(rng.integers(0, 3, 32), 3)
        xm, ym = mixup_batch(x, y, 0.2, rng=rng)
        npt.assert_allclose(ym.sum(axis=1), 1.0, atol=1e-12)
        lo = np.minimum(x, x[::-1])
        hi = np.maximum(x, x[::-1])
        assert (xm >= lo - 1e-12).all() and (xm <= hi + 1e-12).all()

    def test_beta_sampler_statistics(self):
        lam = beta_samples(make_rng(6), 0.2, 100_000)
        assert abs(lam.mean() - 0.5) < 0.01
        assert ((lam >= 0) & (lam <= 1)).all()

    def test_variance_decreases_with_alpha(self):
        rng = make_rng(7)
        variances = [beta_samples(rng, a, 50_000).var() for a in (0.2, 2.0, 20.0)]
        assert variances[0] > variances[1] > variances[2]

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            beta_samples(make_rng(8), 0.0, 4)
        with pytest.raises(ConfigurationError, match="alpha"):
            MixupConfig(alpha=-1.0, enabled=True)


class TestDropBlock:
    def test_zero_prob_all_ones(self):
        mask = dropblock_mask((3, 8, 8, 2), 3, 0.0, make_rng(0))
        npt.assert_array_equal(mask, 1.0)

    def test_block_size_one_is_plain_dropout_rate(self):
        rng = make_rng(9)
        mask = dropblock_mask((8, 40, 40, 8), 1, 0.2, rng)
        dropped = (mask == 0).mean()
        assert abs(dropped - 0.2) < 0.02

    def test_dropped_fraction_near_rate(self):
        rng = make_rng(10)
        fractions = []
        for _ in range(30):
            mask = dropblock_mask((4, 24, 24, 4), 3, 0.1, rng)
            fractions.append((mask == 0).mean())
        assert abs(np.mean(fractions) - 0.1) < 0.02

    def test_zeroed_regions_are_square_blocks(self):
        rng = make_rng(11)
        mask = dropblock_mask((1, 16, 16, 1), 3, 0.05, rng)  # [C, H, W, N]
        zeros = np.argwhere(mask[0, :, :, 0] == 0)
        if len(zeros):  # every zero belongs to some fully zero 3x3 square
            covered = set()
            field = mask[0, :, :, 0] == 0
            for y in range(14):
                for x in range(14):
                    if field[y : y + 3, x : x + 3].all():
                        covered.update(
                            (y + i, x + j) for i in range(3) for j in range(3)
                        )
            assert {tuple(z) for z in zeros} <= covered

    def test_survivor_rescaling(self):
        rng = make_rng(12)
        mask = dropblock_mask((2, 20, 20, 2), 3, 0.15, rng)
        for n in range(2):
            for c in range(2):
                m = mask[c, :, :, n]
                kept = (m > 0).sum()
                if kept:
                    npt.assert_allclose(m[m > 0], 400.0 / kept, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ConfigurationError, match="odd"):
            dropblock_mask((1, 8, 8, 1), 2, 0.1, make_rng(0))
        with pytest.raises(ConfigurationError, match="exceeds"):
            dropblock_mask((1, 4, 4, 1), 5, 0.1, make_rng(0))


def holding(p):
    """A module whose one parameter is ``p``, for ``sgd_step`` to update."""
    module = Module()
    module.p = p
    return module


class TestSgd:
    def test_decay_skips_ineligible(self):
        gamma = Parameter(np.ones(4))
        gamma.set_grad(np.zeros(4))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.5)
        sgd_step(holding(gamma), {}, lr=0.1, opt=opt)
        npt.assert_array_equal(gamma.value, np.ones(4))

    def test_decay_applies_to_weights(self):
        w = Parameter(np.ones((3, 2)))
        w.set_grad(np.zeros((3, 2)))
        opt = OptimizerConfig(momentum=0.0, weight_decay=0.5)
        sgd_step(holding(w), {}, lr=0.1, opt=opt)
        npt.assert_allclose(w.value, 1.0 - 0.1 * 0.5)

    def test_zero_grad_zero_velocity_noop(self):
        p = Parameter(np.full(3, 2.0))
        p.set_grad(np.zeros(3))
        sgd_step(holding(p), {}, lr=0.1, opt=OptimizerConfig(momentum=0.9, weight_decay=1e-4))
        npt.assert_array_equal(p.value, np.full(3, 2.0))

    def test_quadratic_recurrence_oracle(self):
        # f(w) = w^2 / 2, so grad = w; independent scalar recurrence
        p = Parameter(np.array([1.0]))
        velocities = {}
        opt = OptimizerConfig(momentum=0.9, weight_decay=0.0)
        w_ref, v_ref = 1.0, 0.0
        for step in range(6):
            p.set_grad(p.value.copy())  # grad = w
            sgd_step(holding(p), velocities, lr=0.1, opt=opt)
            v_ref = 0.9 * v_ref + w_ref
            w_ref = w_ref - 0.1 * v_ref
            assert p.value[0] == pytest.approx(w_ref, abs=1e-15)
            if step == 0:
                assert v_ref == 1.0 and w_ref == pytest.approx(0.9)

    def test_bare_batch_norm_keeps_one_velocity_per_parameter(self):
        """Outside a network too, each parameter has its own velocity: on the
        first momentum step beta moves by exactly -lr * its own gradient."""
        bn = BatchNorm(4)
        g_gamma, g_beta = make_rng(0).standard_normal((2, 4))
        bn.gamma.set_grad(g_gamma)
        bn.beta.set_grad(g_beta)
        velocities = {}
        sgd_step(bn, velocities, lr=0.1, opt=OptimizerConfig(momentum=0.9, weight_decay=1e-4))
        assert bn.beta.value.tobytes() == (0.0 - 0.1 * g_beta).tobytes()
        assert bn.gamma.value.tobytes() == (1.0 - 0.1 * g_gamma).tobytes()
        assert list(velocities) == ["gamma", "beta"]

    def test_bare_split_attention_unit_keys_velocities_by_path(self):
        unit = SplitAttentionUnit(SplatConfig(8, 8, radix=2, cardinality=2), rng=make_rng(1))
        grads = make_rng(2)
        for p in unit.parameters():
            p.set_grad(grads.standard_normal(p.value.shape))
        velocities = {}
        sgd_step(unit, velocities, lr=0.1, opt=OptimizerConfig())
        assert list(velocities) == [name for name, _ in unit.named_parameters()]
        for name, p in unit.named_parameters():
            assert velocities[name].shape == p.value.shape, name

    def test_missing_gradient_updates_nothing(self):
        """A parameter without a gradient (before any backward, or one left
        unset) makes the step name the first such parameter and change no
        value and no velocity."""
        net = build_network(NetworkConfig(**MICRO), make_rng(0))
        opt = OptimizerConfig(momentum=0.9, weight_decay=1e-4)
        with pytest.raises(ConfigurationError, match="stem.conv1.weight has no gradient"):
            sgd_step(net, {}, lr=0.1, opt=opt)
        rng = make_rng(1)
        x = rng.standard_normal((2, 1, 32, 32))
        velocities = {}
        net.backward(net.forward(x, mode="train")[1], rng.standard_normal((2, 2)))
        sgd_step(net, velocities, lr=0.1, opt=opt)
        net = build_network(NetworkConfig(**MICRO), make_rng(0))  # no gradient from the step
        for name, p in net.named_parameters():
            if name != "stem.bn1.gamma":
                p.set_grad(rng.standard_normal(p.value.shape))
        before = ({k: v.tobytes() for k, v in net.state_dict().items()},
                  {k: v.tobytes() for k, v in velocities.items()})
        with pytest.raises(ConfigurationError, match="stem.bn1.gamma has no gradient"):
            sgd_step(net, velocities, lr=0.1, opt=opt)
        assert ({k: v.tobytes() for k, v in net.state_dict().items()},
                {k: v.tobytes() for k, v in velocities.items()}) == before


MICRO = dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2, cardinality=1,
             base_width=64, base_planes=16, num_classes=2, input_channels=1,
             stem_width=16, dropout=0.0)


def tiny_run(seed=0, epochs=2, **kw):
    cfg = NetworkConfig(**MICRO)
    net = build_network(cfg, spawn_rng(seed, 0))
    ds = make_toy_dataset(64, size=32, noise=1.0, seed=seed)
    sched = ScheduleConfig(batch_size=16, total_epochs=epochs, steps_per_epoch=4,
                           base_lr=0.05, warmup_epochs=1)
    result = train_toy(net, ds, sched, LossConfig(2, smoothing=0.1),
                       MixupConfig(alpha=0.2, enabled=True), OptimizerConfig(),
                       seed=seed, **kw)
    return net, result


class TestTrainToy:
    def test_lr_trace_matches_schedule(self):
        _, result = tiny_run()
        sched = ScheduleConfig(batch_size=16, total_epochs=2, steps_per_epoch=4,
                               base_lr=0.05, warmup_epochs=1)
        want = [lr_at(s, sched) for s in range(8)]
        assert result.lr_trace == want

    def test_bit_reproducible(self):
        _, r1 = tiny_run(seed=3)
        _, r2 = tiny_run(seed=3)
        assert [m.log_line() for m in r1.epochs] == [m.log_line() for m in r2.epochs]
        assert r1.lr_trace == r2.lr_trace

    def test_resume_matches_uninterrupted(self, tmp_path):
        ck = tmp_path / "toy.ckpt"
        _, full = tiny_run(seed=4, epochs=3, checkpoint_path=ck)

        # same schedule interrupted right after the second epoch's checkpoint
        class Interrupt(Exception):
            pass

        def interrupter(line):
            if line.startswith("1\t"):
                raise Interrupt

        ck2 = tmp_path / "part.ckpt"
        with pytest.raises(Interrupt):
            tiny_run(seed=4, epochs=3, checkpoint_path=ck2, log_fn=interrupter)

        net2 = build_network(NetworkConfig(**MICRO), spawn_rng(999, 0))  # wrong init
        ds = make_toy_dataset(64, size=32, noise=1.0, seed=4)
        sched = ScheduleConfig(batch_size=16, total_epochs=3, steps_per_epoch=4,
                               base_lr=0.05, warmup_epochs=1)
        resumed = train_toy(net2, ds, sched, LossConfig(2, smoothing=0.1),
                            MixupConfig(alpha=0.2, enabled=True), OptimizerConfig(),
                            seed=4, resume_from=ck2)
        assert [m.log_line() for m in resumed.epochs] == \
            [m.log_line() for m in full.epochs[2:]]

    def test_checkpoint_restores_bitwise(self, tmp_path):
        ck = tmp_path / "bit.ckpt"
        net, _ = tiny_run(seed=5, checkpoint_path=ck)
        x = make_rng(6).standard_normal((2, 1, 32, 32))
        logits = net.forward(x, mode="eval")
        net2 = build_network(NetworkConfig(**MICRO), spawn_rng(123, 0))
        velocities = {name: np.zeros_like(p.value) for name, p in net2.named_parameters()}
        restore_training_state(net2, velocities, ck)
        npt.assert_array_equal(net2.forward(x, mode="eval"), logits)

    def test_restore_holds_every_velocity_or_none(self, tmp_path):
        """A checkpoint saved before the first step holds no velocity and is
        a resume point; one that lacks a single velocity is not."""
        net = build_network(NetworkConfig(**MICRO), spawn_rng(0, 0))
        ck = tmp_path / "fresh.ckpt"
        save_training_state(net, {}, 0, ck)
        velocities = {}
        assert restore_training_state(net, velocities, ck) == 0 and velocities == {}
        (first, _), *rest = net.named_parameters()
        save_training_state(net, {name: np.zeros_like(p.value) for name, p in rest}, 1, ck)
        with pytest.raises(CheckpointError, match=f"velocity.{first} missing"):
            restore_training_state(net, {}, ck)

    def test_float32_stays_float32_with_dropblock_and_mixup(self, tmp_path):
        cfg = NetworkConfig(**{**MICRO, "dropblock_prob": 0.2, "dropout": 0.2})
        net = build_network(cfg, spawn_rng(0, 0), dtype=np.float32)
        ds = make_toy_dataset(64, size=32, noise=1.0, seed=0, dtype=np.float32)
        logit_dtypes = []
        forward = net.forward

        def recording_forward(x, mode="train", rng=None):
            y, tape = forward(x, mode=mode, rng=rng)
            logit_dtypes.append(y.dtype)
            return y, tape

        net.forward = recording_forward
        sched = ScheduleConfig(batch_size=16, total_epochs=2, steps_per_epoch=4,
                               base_lr=0.05, warmup_epochs=1)
        ck = tmp_path / "f32.ckpt"
        train_toy(net, ds, sched, LossConfig(2, smoothing=0.1),
                  MixupConfig(alpha=0.2, enabled=True), OptimizerConfig(),
                  seed=0, checkpoint_path=ck, end_epoch=1)
        assert logit_dtypes == [np.float32] * 4
        for name, p in net.named_parameters():
            assert p.grad.dtype == np.float32, name
        tensors = load_checkpoint(ck)
        velocities = [k for k in tensors if k.startswith("velocity.")]
        assert len(velocities) == len(net.parameters())
        for name, arr in tensors.items():
            if name != "meta.next_epoch":
                assert arr.dtype == np.float32, name

    def test_divergence_aborts_with_step(self):
        cfg = NetworkConfig(**MICRO)
        net = build_network(cfg, spawn_rng(0, 0))
        ds = make_toy_dataset(64, size=32, noise=1.0, seed=0)
        ds.images[0, 0, 0, 0] = np.nan
        sched = ScheduleConfig(batch_size=16, total_epochs=2, steps_per_epoch=4,
                               base_lr=0.05, warmup_epochs=1)
        with pytest.raises(TrainingDiverged, match="epoch 0 step"):
            train_toy(net, ds, sched, LossConfig(2), MixupConfig(enabled=False),
                      OptimizerConfig(), seed=0)

    def test_plain_ce_when_recipe_disabled(self):
        """With mixup off and zero smoothing the step loss is exactly the
        hard cross entropy of the same batch."""
        cfg = NetworkConfig(**MICRO)
        net = build_network(cfg, spawn_rng(7, 0))
        ds = make_toy_dataset(32, size=32, noise=1.0, seed=7)
        sched = ScheduleConfig(batch_size=32, total_epochs=2, steps_per_epoch=1,
                               base_lr=0.0, warmup_epochs=1)  # lr 0: no updates
        result = train_toy(net, ds, sched, LossConfig(2, smoothing=0.0),
                           MixupConfig(enabled=False), OptimizerConfig(), seed=7)
        order = spawn_rng(7, 1000).permutation(32)
        logits, _ = net.forward(ds.images[order[:32]], mode="train")
        want, _ = label_smooth_ce(logits, ds.labels[order[:32]], 0.0)
        assert result.epochs[0].loss == pytest.approx(float(want), rel=1e-9)

    def test_dataset_too_small(self):
        cfg = NetworkConfig(**MICRO)
        net = build_network(cfg, spawn_rng(0, 0))
        ds = make_toy_dataset(16, size=32, noise=1.0, seed=0)
        sched = ScheduleConfig(batch_size=16, total_epochs=2, steps_per_epoch=4,
                               base_lr=0.05, warmup_epochs=1)
        with pytest.raises(ConfigurationError, match="dataset has 16"):
            train_toy(net, ds, sched, LossConfig(2), MixupConfig(enabled=False),
                      OptimizerConfig(), seed=0)


class TestSoftTargets:
    def test_cross_entropy_soft_gradient(self):
        rng = make_rng(13)
        logits = rng.standard_normal((5, 4))
        targets = smooth_targets(one_hot(rng.integers(0, 4, 5), 4), 0.1)

        def loss():
            l, g = cross_entropy_soft(logits, targets)
            return float(l), {"logits": g}

        assert grad_check(loss, {"logits": logits}, tolerance=1e-6).passed

    def test_smoothing_after_mixing_keeps_sums(self):
        rng = make_rng(14)
        y = one_hot(rng.integers(0, 5, 10), 5)
        _, ym = mixup_batch(rng.standard_normal((10, 2)), y, 0.2, rng=rng)
        sm = smooth_targets(ym, 0.1)
        npt.assert_allclose(sm.sum(axis=1), 1.0, atol=1e-12)
