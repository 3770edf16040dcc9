"""Network assembly: stem, bottlenecks, shapes, initialization, state."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatnet import ops
from splatnet.analysis import count_flops
from splatnet.checkpoint import load_checkpoint, save_checkpoint
from splatnet.configio import network_config, parse_settings, read_config_file
from splatnet.gradcheck import grad_check
from splatnet.network import (
    STAGE_LAYOUTS,
    Bottleneck,
    BottleneckSpec,
    NetworkConfig,
    Stem,
    build_network,
)
from splatnet.layers import (AddReLU, BatchNorm, Conv2d, DropBlock, Dropout, Linear, ReLU,
                             run_forward)
from splatnet.ops import to_chwn
from splatnet.params import ConfigurationError, Parameter, kaiming_normal, make_rng, spawn_rng
from splatnet.training import OptimizerConfig, sgd_step
from shortcut import randomize_batch_norm, shortcut_only_forward
from strategies import network_configs


MICRO = dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2, cardinality=1,
             base_width=64, base_planes=16, num_classes=2, input_channels=1,
             stem_width=16, dropout=0.0)


def micro_net(seed=0, **overrides):
    cfg = NetworkConfig(**{**MICRO, **overrides})
    return build_network(cfg, make_rng(seed))


def toy_net():
    toy = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"
    return build_network(network_config(parse_settings(read_config_file(toy), True)),
                         make_rng(0))


class TestConfig:
    def test_named_layouts(self):
        assert NetworkConfig(depth=50).stage_blocks == (3, 4, 6, 3)
        assert NetworkConfig(depth=101).stage_blocks == (3, 4, 23, 3)
        assert NetworkConfig(depth=200).stage_blocks == (3, 24, 36, 3)
        assert NetworkConfig(depth=269).stage_blocks == (3, 30, 48, 8)

    def test_layer_count_identity(self):
        for depth, blocks in STAGE_LAYOUTS.items():
            assert 3 * sum(blocks) + 2 == depth

    def test_unknown_depth_needs_stage_blocks(self):
        with pytest.raises(ConfigurationError, match="depth 77"):
            NetworkConfig(depth=77)
        cfg = NetworkConfig(depth=77, stage_blocks=(1, 1, 1, 1))
        assert cfg.stage_blocks == (1, 1, 1, 1)

    def test_stem_width_defaults(self):
        assert NetworkConfig(depth=50).stem_width == 32
        assert NetworkConfig(depth=101).stem_width == 64

    def test_dropout_default_by_depth(self):
        assert NetworkConfig(depth=50).dropout == 0.0
        assert NetworkConfig(depth=269).dropout == 0.2

    @pytest.mark.parametrize("field, value", [
        ("num_classes", 0), ("input_channels", 0), ("base_planes", 0), ("base_width", 0),
        ("stem_width", 0), ("dropblock_size", 0), ("dropblock_prob", 1.0),
        ("dropblock_prob", -0.1), ("radix", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            NetworkConfig(depth=50, **{field: value})

    def test_zero_group_width_rejected(self):
        """16 planes at width 1 would give stage-1 group width 16 * 1 // 64 = 0."""
        with pytest.raises(ConfigurationError, match="base_planes \\* base_width"):
            NetworkConfig(depth=50, stage_blocks=(1, 1, 1, 1), radix=0, base_width=1,
                          base_planes=16, input_channels=1, num_classes=2)
        assert NetworkConfig(depth=50, base_planes=16, base_width=4).base_width == 4

    def test_variant_name(self):
        cfg = NetworkConfig(depth=50, radix=2, cardinality=8, base_width=14)
        assert cfg.variant_name == "2s8x14d"

    def test_group_width_convention(self):
        spec = BottleneckSpec(64, 64, 1, 2, 8, 14, True, False)
        assert spec.group_width == (64 * 14) // 64 * 8 == 112
        assert spec.out_channels == 256


class TestStem:
    def test_spatial_halving_to_quarter(self):
        stem = Stem(NetworkConfig(depth=50, stem_width=32), rng=make_rng(0))
        x = make_rng(1).standard_normal((3, 224, 224, 1))
        y, _ = run_forward(stem.layers(), x, mode="eval")
        assert y.shape == (64, 56, 56, 1)

    def test_output_channels_double_stem_width(self):
        stem = Stem(NetworkConfig(depth=50, stem_width=32), rng=make_rng(0))
        assert stem.out_channels == 64

    def test_parameter_count_hand_sum(self):
        stem = Stem(NetworkConfig(depth=50, stem_width=64), rng=make_rng(0))
        total = sum(p.value.size for p in stem.parameters())
        convs = 3 * 3 * 3 * 64 + 3 * 3 * 64 * 64 + 3 * 3 * 64 * 128
        bns = 2 * 64 + 2 * 64 + 2 * 128
        assert total == convs + bns

    def test_classic_stem(self):
        stem = Stem(NetworkConfig(depth=50, deep_stem=False), rng=make_rng(0))
        x = make_rng(1).standard_normal((3, 224, 224, 1))
        assert run_forward(stem.layers(), x, mode="eval")[0].shape == (64, 56, 56, 1)
        conv_params = stem.conv1.weight.value.size
        assert conv_params == 64 * 3 * 7 * 7


class TestBottleneck:
    def test_zeroed_branch_passes_shortcut(self):
        spec = BottleneckSpec(64, 16, 1, 2, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        x = np.abs(make_rng(1).standard_normal((64, 8, 8, 2)))
        # fresh block: final normalization scale is zero, so out = relu(x)
        npt.assert_allclose(block.forward(x, mode="eval")[0], np.maximum(x, 0.0),
                            atol=1e-12)

    def test_stride_two_shapes(self):
        spec = BottleneckSpec(64, 32, 2, 2, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        y, _ = block.forward(make_rng(1).standard_normal((64, 16, 16, 2)), mode="eval")
        assert y.shape == (128, 8, 8, 2)

    def test_avg_down_shortcut_structure(self):
        spec = BottleneckSpec(64, 32, 2, 2, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        assert block.down_pool is not None
        assert block.down_conv.stride == (1, 1)
        classic = Bottleneck(BottleneckSpec(64, 32, 2, 2, 1, 64, False, False),
                             rng=make_rng(0))
        assert classic.down_pool is None
        assert classic.down_conv.stride == (2, 2)

    def test_radix_zero_is_standard_block(self):
        spec = BottleneckSpec(64, 16, 1, 0, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        assert not hasattr(block, "splat")
        names = [n for n, _ in block.named_parameters()]
        assert "conv1.weight" in names and "conv2.weight" in names

    def test_structural_signature_matches_plain_bottleneck_catalog(self):
        """Radix-0 blocks must be exactly the classic bottleneck: the
        parameter catalog is derived here independently and compared."""
        spec = BottleneckSpec(64, 16, 2, 0, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        got = [(n, p.value.shape) for n, p in block.named_parameters()]
        gw, out_c = 16, 64
        want = [
            ("conv1.weight", (gw, 64, 1, 1)),
            ("bn1.gamma", (gw,)), ("bn1.beta", (gw,)),
            ("conv2.weight", (gw, gw, 3, 3)),
            ("bn2.gamma", (gw,)), ("bn2.beta", (gw,)),
            ("conv3.weight", (out_c, gw, 1, 1)),
            ("bn3.gamma", (out_c,)), ("bn3.beta", (out_c,)),
            ("down_conv.weight", (out_c, 64, 1, 1)),
            ("down_bn.gamma", (out_c,)), ("down_bn.beta", (out_c,)),
        ]
        assert got == want


class TestNetwork:
    def test_logits_contract(self):
        net = micro_net()
        x = make_rng(2).standard_normal((3, 1, 32, 32))
        logits = net.forward(x, mode="eval")
        assert logits.shape == (3, 2)
        assert np.isfinite(logits).all()

    def test_resnest50_logits_shape_and_param_paths(self):
        cfg = NetworkConfig(depth=50)
        net = build_network(cfg, make_rng(0))
        names = [n for n, _ in net.named_parameters()]
        assert "stage2.block0.splat.fc1.weight" in names
        assert "stem.conv1.weight" in names
        assert "fc.bias" in names
        assert len(names) == len(set(names))

    def test_stage_spatial_bookkeeping(self):
        net = build_network(NetworkConfig(depth=50, num_classes=10), make_rng(0))
        x = make_rng(1).standard_normal((1, 3, 224, 224))
        h, _ = run_forward(net.stem.layers(), to_chwn(x), mode="eval")
        sizes = []
        for stage in (net.stage1, net.stage2, net.stage3, net.stage4):
            h, _ = run_forward(stage.block, h, mode="eval")
            sizes.append(h.shape[2])
        assert sizes == [56, 28, 14, 7]  # input / 2^(i+2)

    def test_unpoolable_input_size(self):
        """At 16x16 the stage-4 map entering the avg_down shortcut is 1x1,
        which its 2x2 pool cannot run."""
        net = micro_net()
        with pytest.raises(ConfigurationError,
                           match=r"pool kernel \(2x2\) larger than padded input \(1x1\)"):
            net.forward(np.zeros((1, 1, 16, 16)), mode="eval")

    @pytest.mark.parametrize("size", [1, 16])
    def test_small_input_runs_without_avg_down(self, size):
        """No size floor: every layer of an avg_down=False network runs a
        1x1 map, in a train forward, its backward and an eval forward."""
        net = micro_net(avg_down=False)
        rng = make_rng(5)
        x = rng.standard_normal((2, 1, size, size))
        logits, tape = net.forward(x, mode="train", rng=rng)
        assert net.backward(tape, rng.standard_normal((2, 2))).shape == x.shape
        assert np.isfinite(logits).all() and net.forward(x, mode="eval").shape == (2, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=network_configs(), size=st.integers(1, 40), regularized=st.booleans())
    def test_any_size_runs_or_raises_configuration_error(self, cfg, size, regularized):
        """The layers alone decide which input sizes run: a train forward
        with its backward, and an eval forward, either run or raise
        ConfigurationError (every warning is an error too)."""
        if regularized:
            cfg = dataclasses.replace(cfg, dropout=0.2, dropblock_prob=0.2)
        net = build_network(cfg, make_rng(0))
        rng = make_rng(size)
        x = rng.standard_normal((2, cfg.input_channels, size, size))
        try:
            _, tape = net.forward(x, mode="train", rng=rng)
            net.backward(tape, rng.standard_normal((2, 2)))
            net.forward(x, mode="eval")
        except ConfigurationError:
            pass

    def test_config_edited_after_the_build_changes_nothing(self):
        """The network keeps its own record of the config it was built from."""
        cfg = NetworkConfig(**MICRO)
        net = build_network(cfg, make_rng(0))
        rows = count_flops(net, (32, 32)).machine_lines()
        cfg.radix, cfg.num_classes, cfg.input_channels = 4, 5, 3
        assert count_flops(net, (32, 32)).machine_lines() == rows
        rng = make_rng(6)
        _, tape = net.forward(rng.standard_normal((2, 1, 32, 32)), mode="train")
        net.backward(tape, rng.standard_normal((2, 2)))

    def test_wrong_channel_count(self):
        net = micro_net()
        with pytest.raises(ConfigurationError, match="input channels"):
            net.forward(np.zeros((1, 3, 32, 32)), mode="eval")

    def test_input_that_is_not_nchw(self):
        net = micro_net()
        for shape in [(1, 32, 32), (1, 1, 1, 32, 32)]:
            with pytest.raises(ConfigurationError, match="expected NCHW images"):
                net.forward(np.zeros(shape), mode="eval")

    def test_empty_train_batch_raises_before_any_layer(self):
        """An empty batch has no batch statistics: its train forward would
        write NaN into every running buffer. An empty eval batch, which the
        cost trace runs, stays allowed."""
        net = micro_net()
        before = {k: v.tobytes() for k, v in net.state_dict().items()}
        with pytest.raises(ConfigurationError, match="at least one image"):
            net.forward(np.zeros((0, 1, 32, 32)), mode="train")
        assert {k: v.tobytes() for k, v in net.state_dict().items()} == before
        assert net.forward(np.zeros((0, 1, 32, 32)), mode="eval").shape == (0, 2)

    def test_input_of_another_dtype(self):
        net = build_network(NetworkConfig(**MICRO), make_rng(0), dtype=np.float32)
        for mode in ("train", "eval"):
            with pytest.raises(ConfigurationError, match="float32 input, got float64"):
                net.forward(np.zeros((1, 1, 32, 32)), mode=mode)

    def test_uniform_logits_on_fresh_zero_bias_head(self):
        net = micro_net()
        with net.fc.writing():
            net.fc.weight.value[...] = 0.0
        logits = net.forward(np.zeros((2, 1, 32, 32)), mode="eval")
        npt.assert_allclose(logits, logits[0, 0], atol=1e-12)

    def test_duplicate_rows_identical_eval(self):
        net = micro_net()
        x = make_rng(3).standard_normal((1, 1, 32, 32))
        batch = np.concatenate([x, x], axis=0)
        logits = net.forward(batch, mode="eval")
        npt.assert_array_equal(logits[0], logits[1])

    def test_eval_invariant_to_batch_composition(self):
        net = micro_net()
        rng = make_rng(4)
        x = rng.standard_normal((4, 1, 32, 32))
        solo = net.forward(x[:1], mode="eval")
        grouped = net.forward(x, mode="eval")
        npt.assert_allclose(solo[0], grouped[0], atol=1e-12)

    def test_zero_gamma_forward_equals_shortcut_only(self):
        net = micro_net()
        x = make_rng(5).standard_normal((2, 1, 32, 32))
        full = net.forward(x, mode="eval")
        bypass = shortcut_only_forward(net, x, mode="eval")
        assert np.abs(full - bypass).max() < 1e-10

    def test_radix_zero_signature_equals_reference_catalog(self):
        """The radix-0 network layer graph, generated independently, matches
        the built network parameter for parameter."""
        cfg = NetworkConfig(depth=50, stage_blocks=(1, 1, 1, 1), radix=0,
                            cardinality=1, base_width=64, base_planes=16,
                            num_classes=2, input_channels=1, stem_width=16,
                            dropout=0.0)
        net = build_network(cfg, make_rng(0))
        got = [(name, p.value.shape) for name, p in net.named_parameters()]

        want = []
        sw = 16
        want += [("stem.conv1.weight", (sw, 1, 3, 3)),
                 ("stem.bn1.gamma", (sw,)), ("stem.bn1.beta", (sw,)),
                 ("stem.conv2.weight", (sw, sw, 3, 3)),
                 ("stem.bn2.gamma", (sw,)), ("stem.bn2.beta", (sw,)),
                 ("stem.conv3.weight", (2 * sw, sw, 3, 3)),
                 ("stem.bn3.gamma", (2 * sw,)), ("stem.bn3.beta", (2 * sw,))]
        in_c = 2 * sw
        for i, planes in enumerate([16, 32, 64, 128], start=1):
            gw, out_c = planes, 4 * planes
            p = f"stage{i}.block0"
            want += [(f"{p}.conv1.weight", (gw, in_c, 1, 1)),
                     (f"{p}.bn1.gamma", (gw,)), (f"{p}.bn1.beta", (gw,)),
                     (f"{p}.conv2.weight", (gw, gw, 3, 3)),
                     (f"{p}.bn2.gamma", (gw,)), (f"{p}.bn2.beta", (gw,)),
                     (f"{p}.conv3.weight", (out_c, gw, 1, 1)),
                     (f"{p}.bn3.gamma", (out_c,)), (f"{p}.bn3.beta", (out_c,)),
                     (f"{p}.down_conv.weight", (out_c, in_c, 1, 1)),
                     (f"{p}.down_bn.gamma", (out_c,)), (f"{p}.down_bn.beta", (out_c,))]
            in_c = out_c
        want += [("fc.weight", (2, 512)), ("fc.bias", (2,))]
        assert got == want

    @pytest.mark.parametrize("overrides, names", [
        ({}, ("stem.conv1.weight", "stage3.block0.splat.fc2.bias",
              "stage4.block0.conv3.weight", "fc.weight")),
        # plain bottleneck, classic stem, strided 1x1 projection
        (dict(radix=0, deep_stem=False, avg_down=False),
         ("stem.conv1.weight", "stage3.block0.conv2.weight",
          "stage3.block0.down_conv.weight", "fc.weight")),
        # sigmoid gate, pool before the 3x3
        (dict(radix=1, cardinality=2, base_width=32, fast=True),
         ("stem.conv1.weight", "stage3.block0.splat.conv_split.weight",
          "stage3.block0.down_conv.weight", "fc.weight")),
    ], ids=["2s1x64d", "0s1x64d-classic", "1s2x32d-fast"])
    def test_micro_gradcheck(self, overrides, names):
        net = micro_net(**overrides)
        rng = make_rng(6)
        x = rng.standard_normal((2, 1, 32, 32))
        proj = rng.standard_normal((2, 2))
        picked = {
            name: p.value for name, p in net.named_parameters() if name in names
        }
        assert len(picked) == len(names)

        def loss():
            logits, tape = net.forward(x, mode="train")
            net.backward(tape, proj)
            grads = {name: p.grad.copy() for name, p in net.named_parameters()
                     if name in picked}
            return float((logits * proj).sum()), grads

        report = grad_check(loss, picked, tolerance=1e-5,
                            max_entries_per_param=4, rng=rng, writing=net.writing)
        assert report.passed, report.summary()

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        net = micro_net(seed=9)
        x = make_rng(10).standard_normal((2, 1, 32, 32))
        before = net.forward(x, mode="eval")
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net.state_dict())

        fresh = micro_net(seed=11)  # different init
        assert not np.array_equal(fresh.forward(x, mode="eval"), before)
        fresh.load_state_dict(load_checkpoint(path))
        npt.assert_array_equal(fresh.forward(x, mode="eval"), before)

    def test_state_mismatch_rejected(self):
        net = micro_net()
        state = net.state_dict()
        state.pop("fc.bias")
        with pytest.raises(ConfigurationError, match="state mismatch"):
            net.load_state_dict(state)

    def test_decay_eligibility_convention(self):
        """Weight decay moves conv and FC weights, never biases or normalization
        affine terms: with zero gradients, lr 1 and momentum 0, one step halves
        exactly the weights of every Conv2d and Linear and moves nothing else."""
        net = micro_net()
        with net.writing():
            for p in net.parameters():
                p.value[...] = 1.0
        for p in net.parameters():
            p.set_grad(np.zeros_like(p.value))
        sgd_step(net, {}, lr=1.0, opt=OptimizerConfig(momentum=0.0, weight_decay=0.5))
        weights = {f"{path}.weight" for path, m in net.named_modules()
                   if isinstance(m, (Conv2d, Linear))}
        assert {"fc.weight", "stage1.block0.splat.fc2.weight"} <= weights
        moved = {name for name, p in net.named_parameters() if (p.value != 1.0).any()}
        assert moved == weights
        for name, p in net.named_parameters():
            assert (p.value == (0.5 if name in weights else 1.0)).all(), name

    def test_dropblock_applied_in_last_two_stages_only(self):
        net = micro_net(dropblock_prob=0.3, dropblock_size=3, dropout=0.2)
        rng = make_rng(12)
        x = rng.standard_normal((2, 1, 32, 32))
        drop = [path for path, m in net.named_modules() if isinstance(m, DropBlock)]
        assert drop == ["dropblock3", "dropblock4"]
        masked = (net.dropblock3, net.dropblock4, net.head_dropout)
        _, tape = net.forward(x, mode="train", rng=rng)
        records = dict(zip(net.layers(), tape, strict=True))  # one record per layer
        assert all(records[layer] is not None for layer in masked)
        for layer in masked:
            # eval mode is the identity both ways and records no mask
            v = rng.standard_normal((3, 4, 4, 2))
            y, mask = layer.forward(v, mode="eval")
            assert y is v and mask is None
            assert layer.backward(mask, v) is v
        net.forward(x, mode="eval")
        assert held_arrays(net) == []


def parent_dropblock_mask(shape, block_size, drop_prob, rng):
    """The NCHW DropBlock mask kernel as it was before the [C, H, W, N] layout."""
    n, c, h, w = shape
    hv, wv = h - block_size + 1, w - block_size + 1
    gamma = drop_prob * (h * w) / (block_size * block_size * hv * wv)
    seeds = rng.random((n, c, hv, wv)) < gamma
    covered = np.zeros(shape, dtype=bool)
    for i in range(block_size):
        for j in range(block_size):
            covered[:, :, i : i + hv, j : j + wv] |= seeds
    mask = (~covered).astype(np.float64)
    return mask * ((h * w) / np.maximum(mask.sum(axis=(2, 3), keepdims=True), 1.0))


class TestRngStreams:
    """Masks are drawn in NCHW order whatever the activation layout, so a seed
    drops exactly what it dropped before the layout change."""

    def test_dropblock_mask_is_transposed_nchw_mask(self):
        x = make_rng(13).standard_normal((5, 9, 9, 4))  # [C, H, W, N]
        layer, rng = DropBlock(0.3, 3), make_rng(14)
        y, mask = layer.forward(x, mode="train", rng=rng)
        want_rng = make_rng(14)
        want = to_chwn(parent_dropblock_mask((4, 5, 9, 9), 3, 0.3, want_rng))
        assert mask.tobytes() == want.tobytes()
        assert y.tobytes() == (x * want).tobytes()
        assert rng.random() == want_rng.random()  # the same number of draws

    def test_dropout_mask_is_transposed_nf_mask(self):
        x = make_rng(15).standard_normal((12, 6))  # [F, N]
        layer, rng = Dropout(0.4), make_rng(16)
        y, mask = layer.forward(x, mode="train", rng=rng)
        want_rng = make_rng(16)
        want = to_chwn((want_rng.random((6, 12)) >= 0.4).astype(np.float64) / 0.6)
        assert mask.tobytes() == want.tobytes()
        assert y.tobytes() == (x * want).tobytes()
        assert rng.random() == want_rng.random()


class TestFloat32Network:
    def test_train_forward_and_backward_stay_float32(self):
        net = build_network(NetworkConfig(**{**MICRO, "dropblock_prob": 0.2, "dropout": 0.2}),
                            make_rng(0), dtype=np.float32)
        dtypes = []

        def recording(path, method, arrays):
            def recorded(*args, **kwargs):
                out = method(*args, **kwargs)
                dtypes.extend((path, a.dtype) for a in arrays(out))
                return out
            return recorded

        for path, m in net.named_modules():
            if next(m.named_modules(), None) is None:
                m.forward = recording(path, m.forward, lambda out: out[:1])
                m.backward = recording(path + " backward", m.backward,
                                       lambda out: out if isinstance(out, tuple) else (out,))
        x = make_rng(1).standard_normal((4, 1, 32, 32)).astype(np.float32)
        logits, tape = net.forward(x, mode="train", rng=make_rng(2))
        gx = net.backward(tape, np.ones_like(logits))
        assert len(dtypes) > 100
        assert [(p, d) for p, d in dtypes if d != np.float32] == []
        assert logits.dtype == gx.dtype == np.float32
        assert [name for name, p in net.named_parameters() if p.grad.dtype != np.float32] == []


class TestGradientContract:
    def test_no_gradient_before_first_backward(self):
        net = micro_net()
        assert all(p.grad is None for p in net.parameters())
        net.forward(make_rng(1).standard_normal((2, 1, 32, 32)), mode="eval")
        assert all(p.grad is None for p in net.parameters())

    def test_set_grad_rejects_wrong_shape_and_dtype(self):
        p = Parameter(np.zeros((2, 3)))
        with pytest.raises(ConfigurationError, match=r"does not match parameter \(2, 3\)"):
            p.set_grad(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match="float32"):
            p.set_grad(np.zeros((2, 3), dtype=np.float32))
        assert p.grad is None

    def test_second_backward_replaces_first(self):
        rng = make_rng(2)
        x = rng.standard_normal((2, 1, 32, 32))
        g1, g2 = rng.standard_normal((2, 2, 2))
        net, ref = micro_net(), micro_net()
        for g in (g1, g2):
            net.backward(net.forward(x, mode="train")[1], g)
        ref.backward(ref.forward(x, mode="train")[1], g2)
        for (name, p), q in zip(net.named_parameters(), ref.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name


class TestConvKeepsItsInput:
    """Conv2d records its input array, not its im2col columns, for its
    backward, which hands it to the conv backward kernel: a network's eval
    forward returns no record, a backward drops them."""

    @pytest.mark.parametrize("radix", [0, 2])
    def test_held_from_train_forward_to_backward_only(self, radix):
        net = micro_net(radix=radix)
        rng = make_rng(3)
        x = rng.standard_normal((2, 1, 32, 32))
        inputs = {}  # conv path -> the input of its last forward

        def recording(path, forward):
            def recorded(x, *args):
                inputs[path] = x
                return forward(x, *args)
            return recorded

        for path, m in net.named_modules():
            if isinstance(m, Conv2d):
                m.forward = recording(path, m.forward)
        assert isinstance(net.forward(x, mode="eval"), np.ndarray)
        _, tape = net.forward(x, mode="train")
        recorded = list(arrays(tape))
        assert [p for p, a in inputs.items() if not any(r is a for r in recorded)] == []
        net.backward(tape, rng.standard_normal((2, 2)))
        assert tape == []

    def test_eval_backward_matches_train_backward(self):
        rng = make_rng(4)
        conv = Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=rng)
        x = rng.standard_normal((4, 7, 7, 3))
        g = rng.standard_normal((6, 4, 4, 3))
        _, saved = conv.forward(x, mode="train")
        assert saved is x
        gx_train = conv.backward(saved, g)
        gw_train = conv.weight.grad
        _, saved = conv.forward(x, mode="eval")
        assert conv.backward(saved, g).tobytes() == gx_train.tobytes()
        assert conv.weight.grad.tobytes() == gw_train.tobytes()


class TestShapeConstants:
    """A repeated batch-1 eval forward of the toy network rebuilds nothing
    that depends only on shapes: such work is a fixed cost on every kernel
    call, and at batch 1 it outweighs the arithmetic."""

    def test_repeat_forward_builds_no_shape_constants(self, monkeypatch):
        net = toy_net()
        images = make_rng(1).standard_normal((2, 1, 1, 32, 32))
        counted = []
        window_counts = ops._window_counts

        def counting_window_counts(*args):
            counted.append(args)
            return window_counts(*args)

        def no_as_strided(*a, **k):
            raise AssertionError("as_strided called")

        monkeypatch.setattr(ops, "_window_counts", counting_window_counts)
        monkeypatch.setattr(np.lib.stride_tricks, "as_strided", no_as_strided)
        ops._pool_divisors.cache_clear()
        net.forward(images[0], mode="eval")
        assert counted  # the toy network's avg-pools divide by window counts
        counted.clear()
        windows = ops._window.cache_info()
        net.forward(images[1], mode="eval")
        assert counted == []
        # every conv and pool found its window geometry made
        assert ops._window.cache_info().misses == windows.misses
        assert ops._window.cache_info().hits - windows.hits == 26

        # a 1x1 stride-1 unpadded conv makes no columns: its input is its columns
        def no_columns(*a):
            raise AssertionError("columns made")

        monkeypatch.setattr(ops, "_columns", no_columns)
        rng = make_rng(2)
        x, w = rng.standard_normal((4, 5, 6, 1)), rng.standard_normal((6, 2, 1, 1))
        y = ops.conv2d(x, w, groups=2)
        gx, gw = ops.conv2d_backward(np.ones_like(y), x, w, groups=2)
        assert y.shape == (6, 5, 6, 1) and gx.shape == x.shape and gw.shape == w.shape

    def test_conv_normalizes_its_geometry_once_per_call(self, monkeypatch):
        # kernel, stride and padding are made pairs once per shape: not per
        # group, and not again by a later call or by the backward
        pair = ops._pair
        calls = []

        def counting_pair(v):
            calls.append(v)
            return pair(v)

        monkeypatch.setattr(ops, "_pair", counting_pair)
        ops._window.cache_clear()
        rng = make_rng(5)
        x = rng.standard_normal((8, 6, 6, 2))
        g = rng.standard_normal((8, 3, 3, 2))
        counts = []
        for groups in (1, 4):
            w = rng.standard_normal((8, 8 // groups, 3, 3))
            calls.clear()
            ops.conv2d(x, w, 2, 1, groups)
            forward = len(calls)
            calls.clear()
            ops.conv2d_backward(g, x, w, 2, 1, groups)
            ops.conv2d(x, w, 2, 1, groups)
            counts.append((forward, len(calls)))
        assert counts == [(3, 0), (3, 0)]

    def test_each_leaf_runs_once_through_its_forward(self):
        """Wrappers on every leaf instance's ``forward``, placed as the
        benchmark tracer and the cost trace place them, each see one call of
        a batch-1 eval forward, and the logits keep their bytes."""
        net = randomize_batch_norm(toy_net())
        x = make_rng(3).standard_normal((1, 1, 32, 32))
        want = net.forward(x, mode="eval").tobytes()
        calls = []

        def counting(path, forward):
            def counted(*args, **kwargs):
                calls.append(path)
                return forward(*args, **kwargs)
            return counted

        leaves = []
        for path, m in net.named_modules():
            if next(m.named_modules(), None) is None:
                leaves.append(path)
                m.forward = counting(path, m.forward)
        assert net.forward(x, mode="eval").tobytes() == want
        assert len(leaves) == 94 and sorted(calls) == sorted(leaves)

    def test_eval_after_weight_writes_matches_a_fresh_network(self):
        """What a forward keeps per input shape outlives a weight write, but
        reads no stale weight: on the batch-1 request path, an eval after an
        SGD step, and after ``load_state_dict``, gives the bytes of a fresh
        network loaded with the same state."""
        net = randomize_batch_norm(toy_net())
        rng = make_rng(4)
        x = rng.standard_normal((1, 1, 32, 32))
        first = net.forward(x, mode="eval").tobytes()  # makes every per-shape constant
        start = {name: a.copy() for name, a in net.state_dict().items()}

        def fresh_eval(state):
            fresh = toy_net()
            fresh.load_state_dict(state)
            return fresh.forward(x, mode="eval").tobytes()

        logits, tape = net.forward(rng.standard_normal((2, 1, 32, 32)), mode="train")
        net.backward(tape, rng.standard_normal(logits.shape))
        sgd_step(net, {}, lr=0.1, opt=OptimizerConfig())
        stepped = net.forward(x, mode="eval").tobytes()
        assert stepped != first
        assert stepped == fresh_eval(net.state_dict())
        net.load_state_dict(start)
        assert net.forward(x, mode="eval").tobytes() == fresh_eval(start) == first

    def test_alternating_batches_keep_their_bytes(self):
        net, ref1, ref3 = (randomize_batch_norm(toy_net()) for _ in range(3))
        rng = make_rng(5)
        x1, x3 = rng.standard_normal((1, 1, 32, 32)), rng.standard_normal((3, 1, 32, 32))
        want = [ref1.forward(x1, mode="eval").tobytes(), ref3.forward(x3, mode="eval").tobytes()]
        for _ in range(2):
            got = [net.forward(x, mode="eval").tobytes() for x in (x1, x3)]
            assert got == want


def arrays(obj):
    """Every ndarray in ``obj``, inside nested tuples and lists too."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays(item)


def kept_arrays(module):
    """(attribute, array) for every ndarray a module's attributes hold."""
    for attr, obj in vars(module).items():
        for a in arrays(obj):
            yield attr, a


def held_arrays(net):
    """Dotted paths of the arrays the modules of ``net`` hold beyond the
    batch-norm running buffers and the eval constants a batch norm makes
    from its state."""
    buffers = ("running_mean", "running_var", "_eval")
    return [f"{path}.{attr}" for path, m in net.named_modules()
            for attr, _ in kept_arrays(m)
            if not (isinstance(m, BatchNorm) and attr in buffers)]


def traced_array_bytes():
    """Bytes of the numpy arrays alive now, while tracemalloc traces."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def grad_bytes(net):
    return {name: None if p.grad is None else p.grad.tobytes()
            for name, p in net.named_parameters()}


class TestTapeFreeEval:
    """A network's eval forward keeps no activations and returns no tape; a
    train forward's tape gives one backward."""

    @pytest.mark.parametrize("radix", [0, 2])
    def test_eval_forward_keeps_no_activations(self, radix):
        net = micro_net(radix=radix, dropblock_prob=0.2, dropout=0.2)
        rng = make_rng(7)
        x = rng.standard_normal((2, 1, 32, 32))
        _, tape = net.forward(x, mode="train", rng=rng)
        net.backward(tape, rng.standard_normal((2, 2)))
        net.forward(x, mode="eval")
        assert held_arrays(net) == []

    def test_second_backward_raises(self):
        net = micro_net()
        rng = make_rng(8)
        g = rng.standard_normal((2, 2))
        _, tape = net.forward(rng.standard_normal((2, 1, 32, 32)), mode="train")
        net.backward(tape, g)
        with pytest.raises(ConfigurationError, match="train forward"):
            net.backward(tape, g)

    def test_forward_that_raises_drops_every_tape(self):
        """A train forward that fails partway (the residual join of a 40x40
        input) returns nothing and leaves no module holding an array; the
        tape of an earlier forward still gives that forward's gradients."""
        net, ref = micro_net(), micro_net()
        rng = make_rng(12)
        x = rng.standard_normal((2, 1, 32, 32))
        g = rng.standard_normal((2, 2))
        _, tape = net.forward(x, mode="train")
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            net.forward(rng.standard_normal((2, 1, 40, 40)), mode="train")
        assert held_arrays(net) == []
        gx = net.backward(tape, g)
        assert gx.tobytes() == ref.backward(ref.forward(x, mode="train")[1], g).tobytes()

    def test_eval_forward_leaves_nothing_a_train_step_sees(self):
        net, ref = (randomize_batch_norm(micro_net()) for _ in range(2))
        rng = make_rng(9)
        x = rng.standard_normal((2, 1, 32, 32))
        g = rng.standard_normal((2, 2))
        net.forward(rng.standard_normal((2, 1, 32, 32)), mode="eval")
        gx = net.backward(net.forward(x, mode="train")[1], g)
        assert gx.tobytes() == ref.backward(ref.forward(x, mode="train")[1], g).tobytes()
        assert grad_bytes(net) == grad_bytes(ref)

    def test_eval_forward_frees_every_array_but_the_logits(self):
        net = toy_net()
        x = make_rng(10).standard_normal((1, 1, 32, 32))
        net.forward(x, mode="eval")  # builds the shape constants
        tracemalloc.start()
        try:
            before = traced_array_bytes()
            logits = net.forward(x, mode="eval")
            after = traced_array_bytes()
        finally:
            tracemalloc.stop()
        assert after - before <= logits.nbytes

    def test_only_train_and_eval_are_public_modes(self):
        net = micro_net()
        x = make_rng(11).standard_normal((2, 1, 32, 32))
        for mode in ("infer", "test"):
            with pytest.raises(ConfigurationError, match="forward mode"):
                net.forward(x, mode=mode)
            with pytest.raises(ConfigurationError, match="forward mode"):
                shortcut_only_forward(net, x, mode=mode)

    @pytest.mark.parametrize("radix", [0, 2])
    def test_relu_keeps_its_output(self, radix):
        """Each ReLU's train record is the array the next layer receives, so
        its input dies with the ReLU's call."""
        net = micro_net(radix=radix)
        outputs = {}

        def recording(path, forward):
            def recorded(*args, **kwargs):
                outputs[path] = forward(*args, **kwargs)
                return outputs[path]
            return recorded

        relus = [(path, m) for path, m in net.named_modules() if isinstance(m, (ReLU, AddReLU))]
        for path, m in relus:
            m.forward = recording(path, m.forward)
        net.forward(make_rng(12).standard_normal((2, 1, 32, 32)), mode="train")
        assert len(outputs) == len(relus) > 0
        for path, (y, saved) in outputs.items():
            assert saved is y, path


class TestTrainTape:
    """A train forward records each activation once, in the tape it returns
    to its caller, and a backward empties that tape as it goes."""

    # array bytes a toy train forward at batch 32 leaves on its tape: 23.7 MB
    # measured, 26.4 MB while the max pool kept a padded copy of its input and
    # 56.5 MB while each conv kept its im2col columns
    TOY_TAPE_BYTES = 24_500_000
    # traced peak of the toy batch-32 backward above its start, the tape
    # traced too: 3.62 MB measured, 4.55 MB while a block's shortcut ran its
    # backward before its branch, whose records then outlived their use
    TOY_BACKWARD_PEAK_BYTES = 3_750_000

    def test_toy_train_forward_tape_bytes(self):
        net = toy_net()
        x = make_rng(14).standard_normal((32, 1, 32, 32))
        net.forward(x, mode="eval")  # builds the shape constants, keeps no tape
        tracemalloc.start()
        try:
            before = traced_array_bytes()
            logits, tape = net.forward(x, mode="train")
            tape_bytes = traced_array_bytes() - before - logits.nbytes
        finally:
            tracemalloc.stop()
        assert tape_bytes <= self.TOY_TAPE_BYTES
        # the max pool records the very array the ReLU before it records
        pool = net.layers().index(net.stem.maxpool)
        assert tape[pool][0] is tape[pool - 1]

    def test_toy_backward_peak(self):
        net = toy_net()
        x = make_rng(14).standard_normal((32, 1, 32, 32))
        g = make_rng(15).standard_normal((32, net.cfg.num_classes))
        tracemalloc.start()
        try:
            _, tape = net.forward(x, mode="train")
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net.backward(tape, g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= self.TOY_BACKWARD_PEAK_BYTES

    @pytest.mark.parametrize("radix", [0, 2])
    def test_backward_drops_every_tape(self, radix):
        net = micro_net(radix=radix, dropblock_prob=0.2, dropout=0.2)
        rng = make_rng(15)
        logits, tape = net.forward(rng.standard_normal((2, 1, 32, 32)), mode="train", rng=rng)
        assert list(arrays(tape)) != []
        net.backward(tape, np.ones_like(logits))
        assert tape == []

    @pytest.mark.parametrize("radix", [0, 2])
    def test_train_forward_leaves_no_array_in_a_module(self, radix):
        net = micro_net(radix=radix, dropblock_prob=0.2, dropout=0.2)
        rng = make_rng(16)
        net.forward(rng.standard_normal((2, 1, 32, 32)), mode="train", rng=rng)
        assert held_arrays(net) == []

    @pytest.mark.parametrize("radix", [0, 2])
    def test_backwards_in_reverse_order_give_each_inputs_gradients(self, radix):
        """Two train forwards, then their backwards last first: each tape gives
        its own input's gradients, byte for byte, whatever ran since."""
        cfg = dict(radix=radix, dropblock_prob=0.2, dropout=0.2)
        net = micro_net(**cfg)
        rng = make_rng(17)
        xs = rng.standard_normal((2, 2, 1, 32, 32))
        gs = rng.standard_normal((2, 2, 2))
        tapes = [net.forward(x, mode="train", rng=spawn_rng(1, i))[1] for i, x in enumerate(xs)]
        for i in (1, 0):
            gx = net.backward(tapes[i], gs[i])
            ref = micro_net(**cfg)
            _, tape = ref.forward(xs[i], mode="train", rng=spawn_rng(1, i))
            assert gx.tobytes() == ref.backward(tape, gs[i]).tobytes()
            assert grad_bytes(net) == grad_bytes(ref)

    def test_bad_logits_gradient_raises_and_keeps_the_tape(self):
        net, ref = micro_net(), micro_net()
        rng = make_rng(18)
        x = rng.standard_normal((2, 1, 32, 32))
        g = rng.standard_normal((2, 2))
        _, tape = net.forward(x, mode="train")
        for bad in (rng.standard_normal((3, 2)), g.astype(np.float32)):
            with pytest.raises(ConfigurationError, match="does not match the logits"):
                net.backward(tape, bad)
        gx = net.backward(tape, g)
        assert gx.tobytes() == ref.backward(ref.forward(x, mode="train")[1], g).tobytes()
        assert grad_bytes(net) == grad_bytes(ref)


class TestParameterWrites:
    """Parameter values and batch-norm buffers change only through
    ``Module.writing``, so no eval constant a batch norm keeps goes stale."""

    def test_write_outside_the_door_raises(self):
        net = micro_net()
        p, bn = net.fc.weight, net.stem.bn1
        before = {k: v.tobytes() for k, v in net.state_dict().items()}
        with pytest.raises(ValueError, match="read-only"):
            p.value[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            bn.running_mean += 1
        with pytest.raises(ValueError, match="read-only"):
            p.value -= 1
        assert {k: v.tobytes() for k, v in net.state_dict().items()} == before

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(cfg=network_configs(), dtype=st.sampled_from((np.float64, np.float32)))
    def test_eval_after_each_writer_matches_a_fresh_load(self, cfg, dtype):
        """After the build, a train forward (running update), an SGD step and
        ``load_state_dict``, each following an eval forward that built the
        constants, an eval forward gives the bytes of a fresh network loaded
        with the same state, in the network's dtype."""
        net = build_network(cfg, spawn_rng(0, 0), dtype=dtype)
        x = spawn_rng(0, 7).standard_normal((2, cfg.input_channels, 32, 32)).astype(dtype)

        def assert_fresh(writer):
            logits = net.forward(x, mode="eval")
            fresh = build_network(cfg, None, dtype=dtype)
            fresh.load_state_dict(net.state_dict())
            want = fresh.forward(x, mode="eval")
            assert logits.dtype == dtype and logits.tobytes() == want.tobytes(), writer

        assert_fresh("build")
        logits, _ = net.forward(x, mode="train", rng=spawn_rng(0, 8))
        assert_fresh("train forward")
        _, tape = net.forward(x, mode="train", rng=spawn_rng(0, 8))
        net.backward(tape, np.ones_like(logits))
        sgd_step(net, {}, 0.1, OptimizerConfig(momentum=0.9, weight_decay=1e-4))
        assert_fresh("sgd step")
        other = build_network(cfg, spawn_rng(0, 9), dtype=dtype)
        other.forward(x, mode="train", rng=spawn_rng(0, 8))
        net.load_state_dict(other.state_dict())
        assert_fresh("load_state_dict")


def traced_peak(fn, *args):
    """(result, peak bytes traced while ``fn(*args)`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


MiB = 1 << 20


class TestEvalMemory:
    """A float32 build draws no whole-tensor float64 copy, a grouped conv
    holds one group's columns at a time, and in eval mode a bare batch norm,
    ReLU or residual join writes into its first input, while a unit, a
    block or a network leaves its input as it was."""

    def test_float32_build_peak(self):
        # 16.4 MiB above the state while each tensor was drawn in float64 first
        net, peak = traced_peak(build_network, NetworkConfig(), make_rng(0), np.float32)
        state = sum(a.nbytes for a in net.state_dict().values())
        assert peak - state <= 2 * MiB

    def test_grouped_conv_holds_one_group_of_columns(self):
        rng = make_rng(16)
        x = rng.standard_normal((128, 56, 56, 1)).astype(np.float32)
        w = rng.standard_normal((256, 64, 3, 3)).astype(np.float32)
        group_cols = 64 * 9 * 56 * 56 * 4  # 6.9 MiB; the output is 3.1 MiB
        y, peak = traced_peak(ops.conv2d, x, w, 1, 1, 2)
        assert peak < 2 * group_cols
        _, peak = traced_peak(ops.conv2d_backward, y, x, w, 1, 1, 2)
        assert peak < 2 * group_cols

    def test_infer_writes_into_the_input(self):
        rng = make_rng(17)
        bn = BatchNorm(4)
        with bn.writing():
            bn.gamma.value[...] = rng.normal(1.0, 0.5, 4)
            bn.running_mean[...] = rng.normal(0.0, 0.5, 4)
        for layer, args in [(bn, ()), (ReLU(), ()),
                            (AddReLU(), (rng.standard_normal((4, 3, 3, 2)),))]:
            x = rng.standard_normal((4, 3, 3, 2))
            want, _ = layer.forward(x.copy(), *args, mode="eval")
            y, _ = layer.forward(x, *args, mode="eval")
            assert np.shares_memory(y, x) and y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("radix", [0, 2])
    def test_eval_forward_leaves_the_input(self, radix):
        net = randomize_batch_norm(micro_net(radix=radix))
        x = make_rng(18).standard_normal((2, 1, 32, 32))
        before = x.tobytes()
        net.forward(x, mode="eval")
        assert x.tobytes() == before
        # a block whose shortcut is the identity, called directly, and its unit
        spec = BottleneckSpec(in_channels=64, planes=16, stride=1, radix=radix,
                              cardinality=1, base_width=64, avg_down=True, fast=False)
        block = randomize_batch_norm(Bottleneck(spec, rng=make_rng(19)))
        x = make_rng(20).standard_normal((64, 8, 8, 2))
        before = x.tobytes()
        for unit in (block, block.splat) if radix else (block,):
            unit.forward(x, mode="eval")
            assert x.tobytes() == before, type(unit).__name__


class TestKaimingNormal:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_the_scaled_cast_draw(self, dtype):
        # within one draw chunk, and across 10.5 of them
        for shape in [(6, 4, 3, 3), (300, 64, 3, 3)]:
            fan_in = shape[1] * 9
            rng, ref = make_rng(13), make_rng(13)
            w = kaiming_normal(rng, shape, fan_in, dtype)
            want = (ref.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
            assert w.dtype == dtype and w.tobytes() == want.tobytes()
            assert rng.random() == ref.random()  # the generator ends where one draw leaves it
