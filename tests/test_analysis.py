"""Cost model: hand-computed oracles, published reference rows, parity, and
the benchmark harness."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatnet.analysis import (
    REFERENCE_VARIANTS,
    bench_forward,
    block_cost_parity,
    count_flops,
    reference_comparison,
)
from splatnet.layers import Conv2d, Linear
from splatnet.network import BottleneckSpec, Network, NetworkConfig, build_network
from splatnet.params import ConfigurationError, make_rng
from strategies import input_sizes, network_configs


MICRO = dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2, cardinality=1,
             base_width=64, base_planes=16, num_classes=2, input_channels=1,
             stem_width=16, dropout=0.0)


def build(cfg_kwargs, seed=0):
    return build_network(NetworkConfig(**cfg_kwargs), make_rng(seed))


class TestCountParams:
    def test_single_conv_arithmetic(self):
        from splatnet.layers import Conv2d

        conv = Conv2d(4, 8, 1, rng=make_rng(0))
        assert sum(p.value.size for p in conv.parameters()) == 32

    def test_micro_network_hand_sum(self):
        """Spreadsheet-style oracle: per-layer arithmetic for the radix-0
        micro network, summed by hand rules."""
        net = build({**MICRO, "radix": 0})
        report = count_flops(net)

        def conv(cout, cin, k):
            return cout * cin * k * k

        want = 0
        want += conv(16, 1, 3) + conv(16, 16, 3) + conv(32, 16, 3)  # stem convs
        want += 2 * (16 + 16 + 32)  # stem bns
        in_c = 32
        for planes in (16, 32, 64, 128):
            gw, out_c = planes, 4 * planes
            want += conv(gw, in_c, 1) + conv(gw, gw, 3) + conv(out_c, gw, 1)
            want += 2 * (gw + gw + out_c)
            want += conv(out_c, in_c, 1) + 2 * out_c  # projection shortcut
            in_c = out_c
        want += 512 * 2 + 2  # classifier
        assert report.total_params == want

    def test_totals_equal_row_sum(self):
        net = build(MICRO)
        report = count_flops(net)
        assert report.total_params == sum(r.params for r in report.rows)

    def test_parameter_the_forward_never_reaches_is_caught(self, monkeypatch):
        init = Network.__init__

        def with_unused(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.unused = Linear(4, 4)  # holds parameters, never called

        # on every build, so also on the one count_flops traces
        monkeypatch.setattr(Network, "__init__", with_unused)
        with pytest.raises(AssertionError, match="cost trace saw"):
            count_flops(build(MICRO), (32, 32))

    def test_invariant_to_input_size(self):
        net = build(MICRO)
        p1 = count_flops(net, (64, 64)).total_params
        p2 = count_flops(net, (224, 224)).total_params
        assert p1 == p2

    def test_cost_report_leaves_trained_network_untouched(self):
        """Pricing a trained network leaves every attribute as it was: the
        trace runs on a fresh build of its config, so the forward caches of
        the last train step survive and its backward still gives the same
        gradients."""
        net = build(MICRO)
        rng = make_rng(1)
        x = rng.standard_normal((2, 1, 32, 32))
        g = rng.standard_normal((2, 2))
        net.forward(x, mode="train", rng=rng)
        net.backward(g)  # running stats and gradients are now non-trivial
        logits = net.forward(x, mode="train", rng=make_rng(2))
        attrs = {path: dict(vars(m)) for path, m in net.named_modules()}
        state = {k: v.copy() for k, v in net.state_dict().items()}

        count_flops(net, (64, 64))

        for path, m in net.named_modules():
            assert vars(m).keys() == attrs[path].keys(), path
            assert all(vars(m)[k] is v for k, v in attrs[path].items()), path
        after = net.state_dict()
        assert after.keys() == state.keys()
        for k, v in state.items():
            assert after[k].tobytes() == v.tobytes(), k

        gx = net.backward(g)
        ref = build(MICRO)
        ref.load_state_dict(state)
        assert ref.forward(x, mode="train", rng=make_rng(2)).tobytes() == logits.tobytes()
        assert ref.backward(g).tobytes() == gx.tobytes()

    def test_resnet50_baseline(self):
        net = build(dict(depth=50, radix=0, deep_stem=False, avg_down=False))
        total = count_flops(net).total_params
        assert abs(total / 25.5e6 - 1.0) <= 0.01
        assert total == 25_557_032  # classic 50-layer bottleneck catalog

    def test_resnet_d_50(self):
        net = build(dict(depth=50, radix=0, deep_stem=True, avg_down=True))
        total = count_flops(net).total_params
        assert abs(total / 25.6e6 - 1.0) <= 0.01


class TestCountFlops:
    def test_3x3_conv_formula(self):
        """56x56 output, 64 -> 64 channels, 3x3, groups 1."""
        net = build(dict(depth=50, radix=0, deep_stem=False, avg_down=False))
        report = count_flops(net, (224, 224))
        row = next(r for r in report.rows if r.path == "stage1.block0.conv2")
        assert row.macs == 115_605_504 == 56 * 56 * 64 * 64 * 9

    def test_formula_against_loop_count(self):
        """MAC count equals the multiply count of the naive convolution."""
        h = w = 6
        cin, cout, k, groups = 4, 6, 3, 2
        ho = wo = h - k + 1
        macs_formula = ho * wo * cout * (cin // groups) * k * k
        loops = 0
        for _o in range(cout):
            for _i in range(ho):
                for _j in range(wo):
                    loops += (cin // groups) * k * k
        assert macs_formula == loops

    def test_resnet50_gmacs(self):
        net = build(dict(depth=50, radix=0, deep_stem=False, avg_down=False))
        total = count_flops(net, (224, 224)).total_macs
        assert abs(total / 4.14e9 - 1.0) <= 0.03

    def test_published_row_matches_2s1x64d_fast(self):
        """The published complexity row for the fast split-attention model
        (27.5M / 4.34G) is reproduced by the 2s1x64d-fast configuration."""
        net = build(dict(depth=50, radix=2, cardinality=1, base_width=64, fast=True))
        report = count_flops(net, (224, 224))
        assert abs(report.total_params / 27.5e6 - 1.0) <= 0.02
        assert abs(report.total_macs / 4.34e9 - 1.0) <= 0.03

    def test_quadratic_scaling_of_conv_macs(self):
        net = build(MICRO)
        small = count_flops(net, (32, 32))
        big = count_flops(net, (64, 64))

        def conv_total(rep):
            return sum(r.macs for r in rep.rows if "conv" in r.path or "down_conv" in r.path)

        # classifier excluded by name; conv work scales with area
        assert conv_total(big) == pytest.approx(4 * conv_total(small), rel=1e-12)

    def test_doubling_width_scales_split_conv(self):
        """Closed form: the grouped 3x3 cost scales with width^2 / groups."""
        for d1, d2 in [(32, 64), (64, 128)]:
            n1 = build(dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2,
                            base_width=d1, num_classes=2))
            n2 = build(dict(depth=50, stage_blocks=(1, 1, 1, 1), radix=2,
                            base_width=d2, num_classes=2))
            r1 = count_flops(n1, (64, 64))
            r2 = count_flops(n2, (64, 64))
            row1 = next(r.macs for r in r1.rows if r.path == "stage1.block0.splat.conv_split")
            row2 = next(r.macs for r in r2.rows if r.path == "stage1.block0.splat.conv_split")
            assert row2 == 4 * row1  # width doubled, per-group depth doubled

    def test_aux_ops_per_layer_type(self):
        """Hand oracle for the aux column of one split-attention block
        (C=16, R=2, 32 attention channels, 64 outputs on a 16x16 map) and
        the head."""
        report = count_flops(build(MICRO), (64, 64))
        aux = {r.path: r.aux_ops for r in report.rows}
        c, r, hw, inner, out = 16, 2, 16 * 16, 32, 64
        want = {
            "conv_in": 0, "bn_in": 2 * c * hw, "relu_in": c * hw,
            "conv_split": 0, "bn_split": 2 * c * r * hw, "relu_split": c * r * hw,
            "fuse": (r - 1) * c * hw,  # adds
            "stats": c * hw,  # pooled sums
            "fc1": 0, "bn_att": 2 * inner, "relu_att": inner,
            "fc2": c * r,  # bias adds
            "assign": 3 * c * r,
            "weighted_fuse": (2 * r - 1) * c * hw,  # multiplies and adds
        }
        for name, value in want.items():
            assert aux[f"stage1.block0.splat.{name}"] == value, name
        for name, value in {"conv3": 0, "bn3": 2 * out * hw, "down_conv": 0,
                            "down_bn": 2 * out * hw, "add_relu": 2 * out * hw}.items():
            assert aux[f"stage1.block0.{name}"] == value, name
        assert aux["stage4.block0.down_pool"] == 256 * 2 * 2 * 4  # 2x2 window per output
        assert aux["gap"] == 512 * 2 * 2
        assert aux["fc"] == 2  # bias adds

    def test_machine_lines_format(self):
        net = build(MICRO)
        lines = count_flops(net, (64, 64)).machine_lines().splitlines()
        assert lines[-1].startswith("TOTAL\t")
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 3
            int(parts[1]), int(parts[2])


# sha256 of ``count_flops(net, hw).machine_lines()``: every row's path,
# params and MACs, pinned for five 50-layer variants at two input sizes
PINNED_ROWS = {
    "r50_classic": (
        dict(depth=50, radix=0, deep_stem=False, avg_down=False),
        {224: "4fb8b747c7b40efb59a413e97a78c91baf6f496528c8c11169aa7a9c639ccedf",
         32: "6fba9f6b86c35944a934a7546c9f1c1194cdb83a400599efd9ca6a9ded535d25"},
    ),
    "r50_d": (
        dict(depth=50, radix=0, deep_stem=True, avg_down=True),
        {224: "ce0f3718347444a2a25817193c9cd67b963cb54486684926af84ad6bb954b8e6",
         32: "2245fa09aad85c385bae38922bb1607ad8d8dd259775b2042ee1c8eedcd09495"},
    ),
    "2s1x64d_fast": (
        dict(depth=50, radix=2, cardinality=1, base_width=64, fast=True),
        {224: "450aefc46519f25fdaddec697a0bd80cc7c2683705a4ca0b32de1675ced8193b",
         32: "70c3cdc75c3800768ecf5e28bfe30d2fcab06ef37d3b73c7e1aebb9d68c9c4e4"},
    ),
    "2s2x40d": (
        dict(depth=50, radix=2, cardinality=2, base_width=40),
        {224: "1d13b1cad217c2a6a80faabf3245f524b861ba8a3ba03a1979b3fd72a189dbfb",
         32: "16616ad251314cc06b97207f0df02e22b0d59e4c7f89e3a5ed7306a7b5be4b78"},
    ),
    "1s1x64d": (
        dict(depth=50, radix=1, cardinality=1, base_width=64),
        {224: "76295b562aec6524ff8659bad5ca31e86c517b842c193a3b0159949c759ec154",
         32: "f4420a95737de570d17e670f3d034db395da32e476c057ec087f3e807fff4518"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_machine_rows_pinned(name):
    cfg_kwargs, digests = PINNED_ROWS[name]
    net = build_network(NetworkConfig(**cfg_kwargs), rng=None)
    for hw, want in digests.items():
        lines = count_flops(net, (hw, hw)).machine_lines()
        assert hashlib.sha256(lines.encode()).hexdigest() == want, (name, hw)


def test_count_flops_never_calls_the_callers_modules():
    """The rows come from a fresh build of ``net.cfg``: a seeded network
    whose every module method raises still gets the pinned rows."""
    cfg_kwargs, digests = PINNED_ROWS["2s2x40d"]
    net = build_network(NetworkConfig(**cfg_kwargs), make_rng(0))

    def refuse(*args, **kwargs):
        raise AssertionError("count_flops called a method of the caller's network")

    for m in [net, *(m for _, m in net.named_modules())]:
        for name in dir(type(m)):
            if not name.startswith("__") and callable(getattr(type(m), name)):
                setattr(m, name, refuse)
    for hw, want in digests.items():
        lines = count_flops(net, (hw, hw)).machine_lines()
        assert hashlib.sha256(lines.encode()).hexdigest() == want, hw


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(cfg=network_configs(), size=input_sizes,
       dtype=st.sampled_from((np.float32, np.float64)), seed=st.integers(0, 2**32 - 1))
def test_cost_trace_over_config_space(cfg, size, dtype, seed):
    """Every conv and FC of the caller's network gets exactly one MAC row
    (the join the benchmark's per-layer GMAC/s relies on), the totals hold
    all its parameters, and the precision of the build changes no row."""
    net = build_network(cfg, make_rng(seed), dtype=dtype)
    report = count_flops(net, (size, size))
    weighted = [path for path, m in net.named_modules() if isinstance(m, (Conv2d, Linear))]
    assert sorted(r.path for r in report.rows if r.macs) == sorted(weighted)
    assert report.total_params == sum(p.value.size for p in net.parameters())
    twin_dtype = np.float64 if dtype == np.float32 else np.float32
    twin = build_network(cfg, make_rng(seed), dtype=twin_dtype)
    assert count_flops(twin, (size, size)).machine_lines() == report.machine_lines()


class TestParity:
    SPLAT = BottleneckSpec(in_channels=256, planes=64, stride=1, radix=2,
                           cardinality=1, base_width=64, avg_down=True, fast=False)
    STD = BottleneckSpec(in_channels=256, planes=64, stride=1, radix=0,
                         cardinality=1, base_width=64, avg_down=True, fast=False)

    def test_ratio_within_band(self):
        rep = block_cost_parity(self.SPLAT, self.STD, (56, 56))
        assert 0.9 <= rep.param_ratio <= 1.15
        assert 0.9 <= rep.mac_ratio <= 1.15

    def test_radix_one_attention_excluded_is_exactly_one(self):
        splat1 = BottleneckSpec(256, 64, 1, 1, 1, 64, True, False)
        rep = block_cost_parity(splat1, self.STD, (56, 56))
        assert rep.conv_param_ratio == 1.0
        assert rep.conv_mac_ratio == 1.0

    def test_ratio_approaches_conv_ratio_for_large_inputs(self):
        """Attention cost is spatial-size independent, so the overall MAC
        ratio converges to the convolution-only ratio as H*W grows."""
        small = block_cost_parity(self.SPLAT, self.STD, (14, 14))
        large = block_cost_parity(self.SPLAT, self.STD, (112, 112))
        gap_small = abs(small.mac_ratio - small.conv_mac_ratio)
        gap_large = abs(large.mac_ratio - large.conv_mac_ratio)
        assert gap_large < gap_small
        assert gap_large < 1e-3

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            block_cost_parity(self.STD, self.STD)
        with pytest.raises(ConfigurationError):
            block_cost_parity(self.SPLAT, self.SPLAT)


class TestReferenceTable:
    def test_match_lines(self):
        cfg = NetworkConfig(depth=50, radix=0, deep_stem=False, avg_down=False)
        net = build_network(cfg, make_rng(0))
        rep = count_flops(net, (224, 224))
        line = reference_comparison(cfg, (224, 224), rep.total_params, rep.total_macs)
        assert line is not None and "MATCH" in line and "ResNet-50" in line
        assert "MISMATCH" not in line

    def test_no_match_for_unlisted_config(self):
        cfg = NetworkConfig(depth=101)
        assert reference_comparison(cfg, (224, 224), 1, 1) is None

    @pytest.mark.parametrize("change", [
        dict(stage_blocks=(1, 1, 1, 1)), dict(num_classes=10), dict(input_channels=1),
        dict(base_planes=32), dict(stem_width=16),
    ])
    def test_no_match_for_another_network(self, change):
        cfg = NetworkConfig(radix=2, fast=True)
        assert reference_comparison(cfg, (224, 224), 1, 1) is not None
        assert reference_comparison(replace(cfg, **change), (224, 224), 1, 1) is None
        assert reference_comparison(cfg, (256, 256), 1, 1) is None

    def test_reference_entries_well_formed(self):
        for ref in REFERENCE_VARIANTS:
            assert ref.params > 1e6 and ref.param_tol <= 0.02


class TestBench:
    def test_reps_required(self):
        net = build(MICRO)
        with pytest.raises(ConfigurationError, match="repetition"):
            bench_forward(net, (1, 1, 32, 32), reps=0)

    def test_deterministic_and_hashed(self):
        net = build(MICRO)
        r1 = bench_forward(net, (2, 1, 32, 32), reps=2, warmup=0, seed=3)
        r2 = bench_forward(net, (2, 1, 32, 32), reps=2, warmup=0, seed=3)
        assert r1.logits_sha256 == r2.logits_sha256
        assert len(r1.times_s) == 2
        assert r1.per_image_ms > 0
