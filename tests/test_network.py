"""Network assembly: stem, bottlenecks, shapes, initialization, state."""

import numpy as np
import numpy.testing as npt
import pytest

from splatnet.checkpoint import load_checkpoint, save_checkpoint
from splatnet.gradcheck import grad_check
from splatnet.network import (
    STAGE_LAYOUTS,
    Bottleneck,
    BottleneckSpec,
    NetworkConfig,
    Stem,
    build_network,
)
from splatnet.layers import BatchNorm, Conv2d, DropBlock
from splatnet.params import ConfigurationError, Parameter, make_rng, spawn_rng


MICRO = dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2, cardinality=1,
             base_width=64, base_planes=16, num_classes=2, input_channels=1,
             stem_width=16, dropout=0.0)


def micro_net(seed=0, **overrides):
    cfg = NetworkConfig(**{**MICRO, **overrides})
    return build_network(cfg, make_rng(seed))


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
        ("dropblock_prob", -0.1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            NetworkConfig(depth=50, **{field: value})

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
        x = make_rng(1).standard_normal((1, 3, 224, 224))
        y = stem.forward(x, mode="eval")
        assert y.shape == (1, 64, 56, 56)

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
        x = make_rng(1).standard_normal((1, 3, 224, 224))
        assert stem.forward(x, mode="eval").shape == (1, 64, 56, 56)
        conv_params = stem.conv1.weight.value.size
        assert conv_params == 64 * 3 * 7 * 7


class TestBottleneck:
    def test_zeroed_branch_passes_shortcut(self):
        spec = BottleneckSpec(64, 16, 1, 2, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        x = np.abs(make_rng(1).standard_normal((2, 64, 8, 8)))
        # fresh block: final normalization scale is zero, so out = relu(x)
        npt.assert_allclose(block.forward(x, mode="eval"), np.maximum(x, 0.0),
                            atol=1e-12)

    def test_stride_two_shapes(self):
        spec = BottleneckSpec(64, 32, 2, 2, 1, 64, True, False)
        block = Bottleneck(spec, rng=make_rng(0))
        y = block.forward(make_rng(1).standard_normal((2, 64, 16, 16)), mode="eval")
        assert y.shape == (2, 128, 8, 8)

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
        h = net.stem.forward(x, mode="eval")
        sizes = []
        for stage in net.stages():
            h = stage.forward(h, mode="eval")
            sizes.append(h.shape[2])
        assert sizes == [56, 28, 14, 7]  # input / 2^(i+2)

    def test_min_input_size(self):
        net = micro_net()
        with pytest.raises(ConfigurationError, match="minimum size 32"):
            net.forward(np.zeros((1, 1, 16, 16)), mode="eval")

    def test_wrong_channel_count(self):
        net = micro_net()
        with pytest.raises(ConfigurationError, match="input channels"):
            net.forward(np.zeros((1, 3, 32, 32)), mode="eval")

    def test_uniform_logits_on_fresh_zero_bias_head(self):
        net = micro_net()
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
        bypass = net.shortcut_only_forward(x, mode="eval")
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
            logits = net.forward(x, mode="train")
            net.backward(proj)
            grads = {name: p.grad.copy() for name, p in net.named_parameters()
                     if name in picked}
            return float((logits * proj).sum()), grads

        report = grad_check(loss, picked, tolerance=1e-5,
                            max_entries_per_param=4, rng=rng)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("overrides, names", [
        ({}, ("stem.conv2.weight", "stage2.block0.splat.conv_split.weight",
              "stage3.block0.splat.fc2.bias", "stage4.block0.conv3.weight")),
        (dict(radix=0, deep_stem=False, avg_down=False),
         ("stem.conv1.weight", "stage1.block0.conv1.weight",
          "stage2.block0.down_conv.weight", "stage3.block0.conv2.weight")),
        (dict(radix=1, cardinality=2, base_width=32, fast=True),
         ("stem.conv3.weight", "stage2.block0.conv3.weight",
          "stage3.block0.splat.conv_split.weight",
          "stage4.block0.splat.conv_split.weight")),
    ], ids=["2s1x64d", "0s1x64d-classic", "1s2x32d-fast"])
    def test_micro_gradcheck_eval_branches(self, overrides, names):
        # random batch-norm statistics (as in the bit gate) give every bn3 a
        # nonzero gamma, so the residual branches reach the logits
        net = micro_net(**overrides)
        stats = spawn_rng(0, 1)
        for _, module in net.named_modules():
            if isinstance(module, BatchNorm):
                c = module.num_features
                module.gamma.value[...] = stats.normal(1.0, 0.5, c)
                module.beta.value[...] = stats.normal(0.0, 0.2, c)
                module.running_mean[...] = stats.normal(0.0, 0.5, c)
                module.running_var[...] = stats.uniform(0.5, 2.0, c)
        rng = make_rng(6)
        x = rng.standard_normal((2, 1, 32, 32))
        proj = rng.standard_normal((2, 2))
        picked = {
            name: p.value for name, p in net.named_parameters() if name in names
        }
        assert len(picked) == len(names)
        start = {name: v.copy() for name, v in picked.items()}
        checked = {name: set() for name in picked}  # entries grad_check perturbs

        def loss():
            for name, v in picked.items():
                checked[name].update(np.flatnonzero(v != start[name]).tolist())
            logits = net.forward(x, mode="eval")
            net.backward(proj)
            grads = {name: p.grad.copy() for name, p in net.named_parameters()
                     if name in picked}
            return float((logits * proj).sum()), grads

        analytic = loss()[1]
        report = grad_check(loss, picked, tolerance=1e-5,
                            max_entries_per_param=4, rng=rng)
        assert report.passed, report.summary()
        for name, entries in checked.items():
            assert entries and analytic[name].ravel()[sorted(entries)].any(), name

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
        # conv / FC weights decay; biases and normalization affine terms never
        net = build_network(NetworkConfig(depth=50), make_rng(0))
        for name, p in net.named_parameters():
            if name.endswith(".weight") and ("conv" in name.rsplit(".", 2)[-2]
                                             or name.startswith("fc")
                                             or ".fc" in name):
                assert p.decay_eligible, name
            if name.endswith((".bias", ".gamma", ".beta")):
                assert not p.decay_eligible, name

    def test_dropblock_applied_in_last_two_stages_only(self):
        net = micro_net(dropblock_prob=0.3, dropblock_size=3)
        rng = make_rng(12)
        x = rng.standard_normal((2, 1, 32, 32))
        drop = [path for path, m in net.named_modules() if isinstance(m, DropBlock)]
        assert drop == ["dropblock3", "dropblock4"]
        net.forward(x, mode="train", rng=rng)
        assert net.dropblock3._mask is not None and net.dropblock4._mask is not None
        for layer in (net.dropblock3, net.dropblock4):
            # eval mode is the identity both ways and leaves no mask behind
            v = rng.standard_normal((2, 3, 4, 4))
            assert layer.forward(v, mode="eval") is v
            assert layer._mask is None
            assert layer.backward(v) is v
        net.forward(x, mode="eval")
        assert net.dropblock3._mask is None and net.dropblock4._mask is None


class TestGradientContract:
    def test_no_gradient_before_first_backward(self):
        net = micro_net()
        assert all(p.grad is None for p in net.parameters())
        net.forward(make_rng(1).standard_normal((2, 1, 32, 32)), mode="eval")
        assert all(p.grad is None for p in net.parameters())

    def test_set_grad_rejects_wrong_shape_and_dtype(self):
        p = Parameter(np.zeros((2, 3)), decay_eligible=True, name="w")
        with pytest.raises(ConfigurationError, match="does not match parameter w"):
            p.set_grad(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match="float32"):
            p.set_grad(np.zeros((2, 3), dtype=np.float32))
        assert p.grad is None

    def test_second_backward_replaces_first(self):
        rng = make_rng(2)
        x = rng.standard_normal((2, 1, 32, 32))
        g1, g2 = rng.standard_normal((2, 2, 2))
        net, ref = micro_net(), micro_net()
        net.forward(x, mode="train")
        net.backward(g1)
        net.forward(x, mode="train")
        net.backward(g2)
        ref.forward(x, mode="train")
        ref.backward(g2)
        for p, q in zip(net.parameters(), ref.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name


class TestColumnCache:
    """Conv2d keeps its im2col columns only from a train-mode forward to its
    backward: an eval forward holds none, a backward drops them."""

    @staticmethod
    def convs(net):
        return [(path, m) for path, m in net.named_modules() if isinstance(m, Conv2d)]

    @pytest.mark.parametrize("radix", [0, 2])
    def test_held_from_train_forward_to_backward_only(self, radix):
        net = micro_net(radix=radix)
        rng = make_rng(3)
        x = rng.standard_normal((2, 1, 32, 32))
        net.forward(x, mode="eval")
        assert [p for p, m in self.convs(net) if m._cols is not None] == []
        net.forward(x, mode="train")
        assert [p for p, m in self.convs(net) if m._cols is None] == []
        net.backward(rng.standard_normal((2, 2)))
        assert [p for p, m in self.convs(net) if m._cols is not None] == []

    def test_eval_backward_rebuilds_columns(self):
        rng = make_rng(4)
        conv = Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=rng)
        x = rng.standard_normal((3, 4, 7, 7))
        g = rng.standard_normal((3, 6, 4, 4))
        conv.forward(x, mode="train")
        gx_train = conv.backward(g)
        gw_train = conv.weight.grad
        conv.forward(x, mode="eval")
        assert conv.backward(g).tobytes() == gx_train.tobytes()
        assert conv.weight.grad.tobytes() == gw_train.tobytes()
