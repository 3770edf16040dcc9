"""Split-attention unit: per-operation oracles, layout equivalence, and the
parameter permutation.

The unit's operations take batch-innermost [C, H, W, N] activations and
[K, R, c, N] attention weights; ``unit_forward`` converts from and to NCHW."""

import numpy as np
import numpy.testing as npt
import pytest

from splatnet import ops
from splatnet.layers import run_forward
from splatnet.ops import to_chwn, to_nchw
from splatnet.params import ConfigurationError, make_rng, spawn_rng
from splatnet.splat import (
    CARDINALITY_TO_RADIX,
    RADIX_TO_CARDINALITY,
    SplatConfig,
    SplitAttentionUnit,
    cardinal_fuse,
    default_attention_inner,
    permute_params,
    r_softmax,
    splat_forward_cardinality_major,
    weighted_fuse,
)
from splatnet.verify import random_unit_params, unit_forward


def unit_with_random_state(cfg, seed):
    rng = spawn_rng(seed, cfg.radix, cfg.cardinality, cfg.channels)
    return random_unit_params(cfg, rng), rng


def loaded_unit(cfg, params):
    unit = SplitAttentionUnit(cfg)
    unit.load_state_dict(params)
    return unit


class TestSplatConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigurationError, match="cardinality"):
            SplatConfig(in_channels=4, channels=10, radix=2, cardinality=4)

    def test_attention_width_rule(self):
        assert default_attention_inner(64, 2, 1) == 32
        assert default_attention_inner(512, 2, 1) == 256
        assert default_attention_inner(112, 2, 8) == 256
        assert default_attention_inner(896, 2, 8) == 448
        # always a multiple of the cardinality
        assert default_attention_inner(30, 2, 3) % 3 == 0

    def test_split_width_floor(self):
        cfg = SplatConfig(in_channels=4, channels=8, radix=4, cardinality=4)
        assert cfg.split_width == 1
        assert cfg.mid_channels == 16
        cfg = SplatConfig(in_channels=4, channels=64, radix=2, cardinality=2)
        assert cfg.split_width == 16
        assert cfg.mid_channels == 64


class TestCardinalFuse:
    def test_radix_one_identity(self):
        u = make_rng(0).standard_normal((6, 4, 4, 2))
        npt.assert_array_equal(cardinal_fuse(u, 1), u)

    def test_cancellation(self):
        u = make_rng(1).standard_normal((5, 3, 3, 2))
        stacked = np.concatenate([u, -u], axis=0)
        npt.assert_allclose(cardinal_fuse(stacked, 2), 0.0, atol=1e-15)

    def test_index_arithmetic_oracle(self):
        rng = make_rng(2)
        radix, k, cw = 3, 2, 4
        c = k * cw
        u = rng.standard_normal((radix * c, 5, 5, 2))
        got = cardinal_fuse(u, radix)
        want = np.zeros((c, 5, 5, 2))
        for kk in range(k):
            for j in range(cw):
                for r in range(radix):
                    want[kk * cw + j] += u[r * c + kk * cw + j]
        npt.assert_allclose(got, want, atol=1e-12)


class TestChannelStats:
    def test_constant(self):
        npt.assert_allclose(ops.global_avg_pool(np.full((3, 4, 4, 2), 1.25)), 1.25)

    def test_unit_spatial_identity(self):
        x = make_rng(3).standard_normal((5, 1, 1, 2))
        npt.assert_array_equal(ops.global_avg_pool(x), x[:, 0, 0])

    def test_flat_mean_oracle(self):
        x = make_rng(4).standard_normal((4, 6, 7, 3))
        want = x.reshape(4, -1, 3).sum(axis=1) / 42.0
        npt.assert_allclose(ops.global_avg_pool(x), want, atol=1e-12)


class TestRSoftmax:
    def test_equal_logits(self):
        logits = np.full((3, 2, 4, 2), -1.3)
        npt.assert_allclose(r_softmax(logits, 2), 0.5, atol=1e-15)

    def test_sigmoid_branch_at_zero(self):
        w = r_softmax(np.zeros((2, 1, 3, 1)), 1)
        npt.assert_allclose(w, 0.5)

    def test_exp_normalize_values(self):
        logits = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
        want = np.array([0.09003057, 0.24472847, 0.66524096])
        npt.assert_allclose(r_softmax(logits, 3)[0, :, 0, 0], want, atol=1e-8)

    def test_normalization_property(self):
        rng = make_rng(5)
        for radix in (2, 3, 4, 7):
            logits = rng.standard_normal((2, radix, 5, 3)) * 10
            w = r_softmax(logits, radix)
            npt.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            assert (w > 0).all() and (w < 1).all()

    def test_shape_guard(self):
        with pytest.raises(ConfigurationError):
            r_softmax(np.zeros((2, 3, 4, 1)), 2)


class TestWeightedFuse:
    def test_radix_one_unit_weights(self):
        u = make_rng(6).standard_normal((6, 4, 4, 2))
        a = np.ones((2, 1, 3, 2))
        npt.assert_allclose(weighted_fuse(u, a), u, atol=1e-15)

    def test_equal_weights_average(self):
        u = make_rng(7).standard_normal((4, 3, 3, 2))
        doubled = np.concatenate([u, u], axis=0)
        a = np.full((1, 2, 4, 2), 0.5)
        npt.assert_allclose(weighted_fuse(doubled, a), u, atol=1e-15)

    def test_triple_loop_oracle(self):
        rng = make_rng(8)
        n, k, radix, cw, h = 2, 3, 2, 4, 5
        u = rng.standard_normal((k * radix * cw, h, h, n))
        a = r_softmax(rng.standard_normal((k, radix, cw, n)), radix)
        got = weighted_fuse(u, a)
        want = np.zeros((k * cw, h, h, n))
        for b in range(n):
            for kk in range(k):
                for j in range(cw):
                    for r in range(radix):
                        want[kk * cw + j, :, :, b] += (
                            a[kk, r, j, b] * u[r * k * cw + kk * cw + j, :, :, b]
                        )
        npt.assert_allclose(got, want, atol=1e-12)


class TestSplitTransform:
    @pytest.mark.parametrize("radix,cardinality,channels", [(1, 1, 8), (2, 1, 8), (2, 2, 16)])
    def test_per_group_slicing_oracle(self, radix, cardinality, channels):
        """Each feature-group slice of the transform equals an independent
        per-group conv pipeline on the corresponding weight slices."""
        cfg = SplatConfig(in_channels=5, channels=channels, radix=radix,
                          cardinality=cardinality)
        params, rng = unit_with_random_state(cfg, 31)
        x = rng.standard_normal((2, 5, 6, 6))
        unit = loaded_unit(cfg, params)
        u = to_nchw(run_forward(unit.transform_layers(), to_chwn(x), "eval")[0])

        sw, cw = cfg.split_width, cfg.cardinal_width
        eps = 1e-5

        def bn(v, prefix, sl):
            g = params[f"{prefix}.gamma"][sl]
            b = params[f"{prefix}.beta"][sl]
            m = params[f"{prefix}.running_mean"][sl]
            var = params[f"{prefix}.running_var"][sl]
            return (v - m[None, :, None, None]) * (g / np.sqrt(var + eps))[None, :, None, None] \
                + b[None, :, None, None]

        for g in range(cfg.groups):
            zg = ops.conv2d(to_chwn(x), params["conv_in.weight"][g * sw : (g + 1) * sw])
            zg = np.maximum(bn(to_nchw(zg), "bn_in", slice(g * sw, (g + 1) * sw)), 0.0)
            ug = ops.conv2d(to_chwn(zg), params["conv_split.weight"][g * cw : (g + 1) * cw],
                            padding=1)
            ug = np.maximum(bn(to_nchw(ug), "bn_split", slice(g * cw, (g + 1) * cw)), 0.0)
            npt.assert_allclose(u[:, g * cw : (g + 1) * cw], ug, atol=1e-12)

    def test_degenerate_single_group_is_plain_pipeline(self):
        cfg = SplatConfig(in_channels=3, channels=8, radix=1, cardinality=1)
        params, rng = unit_with_random_state(cfg, 32)
        x = rng.standard_normal((1, 3, 5, 5))
        unit = loaded_unit(cfg, params)
        u, _ = run_forward(unit.transform_layers(), to_chwn(x), "eval")
        assert SplitAttentionUnit(cfg).conv_split.groups == 1
        assert u.shape == (8, 5, 5, 1)

    def test_two_splits_have_disjoint_filters(self):
        # zeroing the filters of one split only zeroes that split's output
        cfg = SplatConfig(in_channels=3, channels=8, radix=2, cardinality=1)
        params, rng = unit_with_random_state(cfg, 33)
        params["bn_split.beta"][:] = 0.0
        params["bn_split.running_mean"][:] = 0.0
        params["bn_split.gamma"][:] = 1.0
        params["bn_split.running_var"][:] = 1.0
        params["conv_split.weight"][8:] = 0.0  # second split (radix-major rows)
        x = rng.standard_normal((1, 3, 5, 5))
        unit = loaded_unit(cfg, params)
        u, _ = run_forward(unit.transform_layers(), to_chwn(x), "eval")
        assert np.abs(u[8:]).max() == 0.0
        assert np.abs(u[:8]).max() > 0.0


GRID = [(r, k, c) for r in (1, 2, 4) for k in (1, 2, 4) for c in (8, 16, 32)]


class TestLayoutEquivalence:
    @pytest.mark.parametrize("radix,cardinality,channels", GRID)
    def test_grid_point(self, radix, cardinality, channels):
        cfg = SplatConfig(in_channels=6, channels=channels, radix=radix,
                          cardinality=cardinality)
        params, rng = unit_with_random_state(cfg, 40)
        x = rng.standard_normal((2, 6, 8, 8))
        y_radix, _ = unit_forward(x, cfg, params)
        y_card = splat_forward_cardinality_major(
            x, cfg, permute_params(params, cfg, RADIX_TO_CARDINALITY)
        )
        assert np.abs(y_radix - y_card).max() < 1e-10

    @pytest.mark.parametrize("fast", [False, True])
    def test_strided_units_agree_too(self, fast):
        cfg = SplatConfig(in_channels=4, channels=16, radix=2, cardinality=2,
                          stride=2, fast=fast)
        params, rng = unit_with_random_state(cfg, 41)
        x = rng.standard_normal((2, 4, 8, 8))
        y_radix, _ = unit_forward(x, cfg, params)
        y_card = splat_forward_cardinality_major(
            x, cfg, permute_params(params, cfg, RADIX_TO_CARDINALITY)
        )
        assert y_radix.shape[2:] == (4, 4)
        assert np.abs(y_radix - y_card).max() < 1e-10

    def test_identity_layout_when_degenerate(self):
        # with one cardinal group or one split the orderings coincide
        for radix, cardinality in [(1, 3), (3, 1), (1, 1)]:
            cfg = SplatConfig(in_channels=4, channels=12, radix=radix,
                              cardinality=cardinality)
            params, _ = unit_with_random_state(cfg, 42)
            permuted = permute_params(params, cfg, RADIX_TO_CARDINALITY)
            for key in params:
                npt.assert_array_equal(permuted[key], params[key])


class TestPermuteParams:
    def test_round_trip_identity(self):
        cfg = SplatConfig(in_channels=5, channels=24, radix=3, cardinality=2)
        params, _ = unit_with_random_state(cfg, 43)
        back = permute_params(
            permute_params(params, cfg, RADIX_TO_CARDINALITY), cfg, CARDINALITY_TO_RADIX
        )
        for key in params:
            npt.assert_array_equal(back[key], params[key])

    def test_is_bijection(self):
        cfg = SplatConfig(in_channels=5, channels=16, radix=2, cardinality=4)
        params, _ = unit_with_random_state(cfg, 44)
        moved = permute_params(params, cfg, RADIX_TO_CARDINALITY)
        npt.assert_array_equal(
            np.sort(moved["bn_in.gamma"]), np.sort(params["bn_in.gamma"])
        )

    def test_index_arrays_against_nested_loops(self):
        """Destination block (outer, inner) of the target layout reads the
        source block holding the same (cardinal group, split)."""
        from splatnet.splat import _group_perm

        for k_ in (1, 2, 3, 4):
            for r_ in (1, 2, 4):
                for block in (1, 2, 5, 8):
                    to_card = [(r * k_ + k) * block + e
                               for k in range(k_) for r in range(r_) for e in range(block)]
                    to_radix = [(k * r_ + r) * block + e
                                for r in range(r_) for k in range(k_) for e in range(block)]
                    npt.assert_array_equal(
                        _group_perm(k_, r_, block, RADIX_TO_CARDINALITY), to_card)
                    npt.assert_array_equal(
                        _group_perm(k_, r_, block, CARDINALITY_TO_RADIX), to_radix)

    def test_unknown_direction(self):
        cfg = SplatConfig(in_channels=5, channels=16, radix=2, cardinality=4)
        params, _ = unit_with_random_state(cfg, 45)
        with pytest.raises(ConfigurationError, match="direction"):
            permute_params(params, cfg, "sideways")

    def test_attention_tensors_never_move(self):
        cfg = SplatConfig(in_channels=5, channels=16, radix=4, cardinality=2)
        params, _ = unit_with_random_state(cfg, 46)
        moved = permute_params(params, cfg, RADIX_TO_CARDINALITY)
        for key in ("fc1.weight", "fc2.weight", "fc2.bias", "bn_att.gamma"):
            npt.assert_array_equal(moved[key], params[key])


class TestUnitForward:
    def test_zero_split_filters_give_zero_output(self):
        # zero 3x3 weights and zero shift: attention sees zeros, gates zeros
        cfg = SplatConfig(in_channels=3, channels=8, radix=2, cardinality=1)
        unit = SplitAttentionUnit(cfg, rng=make_rng(50))
        with unit.writing():
            unit.conv_split.weight.value[...] = 0.0
            unit.bn_split.beta.value[...] = 0.0
        x = make_rng(51).standard_normal((3, 6, 6, 2))
        y, _ = unit.forward(x, mode="train")
        npt.assert_allclose(y, 0.0, atol=1e-15)

    def test_mutating_weighted_fuse_breaks_equivalence(self, monkeypatch):
        """A sign flip in the weighted combination must be caught by the
        layout-equivalence check (the reference path shares nothing)."""
        import splatnet.splat as splat_mod
        from splatnet.verify import run_equivalence

        original = splat_mod.weighted_fuse
        monkeypatch.setattr(splat_mod, "weighted_fuse",
                            lambda u, a: -original(u, a))
        results = run_equivalence(seed=0)
        assert any(not r.passed for r in results)

    def test_train_and_eval_attention_identical_given_same_stats(self):
        # attention has no stochastic element; with frozen normalization
        # statistics the weights agree between modes
        cfg = SplatConfig(in_channels=3, channels=8, radix=2, cardinality=2)
        params, rng = unit_with_random_state(cfg, 52)
        x = rng.standard_normal((2, 3, 5, 5))
        _, a_eval = unit_forward(x, cfg, params)
        assert a_eval.shape == (2, 2, 4, 2)  # [K, R, c, N]
        assert np.isfinite(a_eval).all()
