"""The split-attention unit, in both channel layouts.

A unit partitions its internal width ``channels`` into ``cardinality``
cardinal groups and gives each cardinal group ``radix`` splits, so there are
``cardinality * radix`` feature groups in total. Each feature group is
transformed by a 1x1 convolution slice followed by a 3x3 convolution; the
splits of a cardinal group are fused by summation, pooled into per-channel
statistics, pushed through a two-layer bottleneck (grouped by cardinal
group), and the resulting per-split weights recombine the splits into the
unit output.

Two channel orderings implement the same mathematics:

* radix-major (class :class:`SplitAttentionUnit`): feature groups sharing a
  radix index are adjacent, so the whole unit runs as one 1x1 convolution,
  one grouped 3x3 convolution, and two grouped FC layers. This is the
  production path and the only one with a backward pass.

* cardinality-major (:func:`splat_forward_cardinality_major`): feature
  groups of the same cardinal group are adjacent and every per-group
  transform is executed explicitly. Slow and obvious, kept as the reference.

:func:`permute_params` is the bijection between the two parameter orderings;
the forwards agree to double-precision rounding after applying it.

Width rule: each feature group's 1x1 slice has ``split_width =
max(1, channels // (cardinality * radix))`` input-side output channels, so
the unified 1x1 output has ``mid_channels = cardinality * radix *
split_width`` channels (equal to ``channels`` whenever divisibility holds).
This keeps parameters and MACs of a unit in line with a standard residual
block of the same width, which is what the surrounding bottleneck assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import ops
from .params import ConfigurationError, Module
from .layers import (INFER, AvgPool2d, BatchNorm, Conv2d, GlobalAvgPool, Linear, ReLU,
                     run_backward, run_forward)


def _round_up(v: int, mult: int) -> int:
    return ((v + mult - 1) // mult) * mult


def default_attention_inner(channels: int, radix: int, cardinality: int) -> int:
    """Hidden width of the attention bottleneck: quarter of the expanded
    width with a floor of 32 per cardinal group, rounded up to a multiple of
    the cardinality so the grouped FC splits evenly."""
    return _round_up(max(32 * cardinality, (channels * radix) // 4), cardinality)


@dataclass
class SplatConfig:
    """Shape parameters of one split-attention unit."""

    in_channels: int
    channels: int
    radix: int = 2
    cardinality: int = 1
    stride: int = 1
    fast: bool = False  # downsample before (True) or after (False) the 3x3 conv

    def __post_init__(self):
        if self.radix < 1:
            raise ConfigurationError(f"radix must be >= 1, got {self.radix}")
        if self.cardinality < 1:
            raise ConfigurationError(f"cardinality must be >= 1, got {self.cardinality}")
        if self.in_channels < 1 or self.channels < 1:
            raise ConfigurationError(
                f"channel counts must be positive, got in={self.in_channels} "
                f"channels={self.channels}"
            )
        if self.channels % self.cardinality != 0:
            raise ConfigurationError(
                f"channels {self.channels} not divisible by cardinality {self.cardinality}"
            )

    @property
    def attention_inner(self) -> int:
        """Hidden width of the attention bottleneck."""
        return default_attention_inner(self.channels, self.radix, self.cardinality)

    @property
    def groups(self) -> int:
        """Total feature groups: cardinality * radix."""
        return self.cardinality * self.radix

    @property
    def cardinal_width(self) -> int:
        """Channels per cardinal group in the unit output."""
        return self.channels // self.cardinality

    @property
    def split_width(self) -> int:
        """1x1 output channels per feature group (3x3 input side)."""
        return max(1, self.channels // self.groups)

    @property
    def mid_channels(self) -> int:
        """Width of the unified 1x1 output."""
        return self.groups * self.split_width


# ---------------------------------------------------------------------------
# Elementary split-attention operations (radix-major layout)
# ---------------------------------------------------------------------------


def cardinal_fuse(u: np.ndarray, radix: int) -> np.ndarray:
    """Sum the radix splits of each cardinal group.

    ``u`` is radix-major [C*R, H, W, N]: channel r*C + k*c + j belongs to
    split r of cardinal group k, so u is [R, C, H, W, N] and the fusion is a
    sum over its leading axis. Returns [C, H, W, N].
    """
    cr = u.shape[0]
    if cr % radix != 0:
        raise ConfigurationError(f"channels {cr} not divisible by radix {radix}")
    return u.reshape(radix, cr // radix, *u.shape[1:]).sum(axis=0)


def cardinal_fuse_backward(grad_out: np.ndarray, radix: int) -> np.ndarray:
    split = np.broadcast_to(grad_out, (radix, *grad_out.shape))
    return split.reshape(radix * grad_out.shape[0], *grad_out.shape[1:])


def r_softmax(logits: np.ndarray, radix: int) -> np.ndarray:
    """Per-split assignment weights from logits [K, R, c, N].

    Softmax across the radix axis when radix > 1 (weights of each
    (cardinal group, channel, sample) sum to one); an elementwise sigmoid
    gate when radix == 1.
    """
    if logits.ndim != 4 or logits.shape[1] != radix:
        raise ConfigurationError(
            f"expected logits [K, R={radix}, c, N], got {logits.shape}"
        )
    if radix > 1:
        return ops.softmax(logits, axis=1)
    return ops.sigmoid(logits)


def r_softmax_backward(grad_out: np.ndarray, weights: np.ndarray, radix: int) -> np.ndarray:
    if radix > 1:
        return ops.softmax_backward(grad_out, weights, axis=1)
    return ops.sigmoid_backward(grad_out, weights)


def weighted_fuse(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Attention-weighted combination of splits.

    u: radix-major [K*R*c, H, W, N]; a: weights [K, R, c, N] broadcast over
    space. Output channel (k, j) is sum over splits r of a[k, r, j] *
    u[r*K*c + k*c + j].
    """
    k, r, c, n = a.shape
    if u.shape[0] != k * r * c:
        raise ConfigurationError(
            f"split tensor has {u.shape[0]} channels, weights imply {k * r * c}"
        )
    ur = u.reshape(r, k, c, *u.shape[1:])
    ar = a.transpose(1, 0, 2, 3)[:, :, :, None, None]  # [R, K, c, 1, 1, N]
    return (ur * ar).sum(axis=0).reshape(k * c, *u.shape[1:])


def weighted_fuse_backward(grad_out: np.ndarray, u: np.ndarray, a: np.ndarray):
    k, r, c, n = a.shape
    ur = u.reshape(r, k, c, *u.shape[1:])
    ar = a.transpose(1, 0, 2, 3)[:, :, :, None, None]
    gv = grad_out.reshape(1, k, c, *grad_out.shape[1:])
    gu = (gv * ar).reshape(u.shape)
    ga = (gv * ur).sum(axis=(3, 4)).transpose(1, 0, 2, 3)  # back to [K, R, c, N]
    return gu, ga


# ---------------------------------------------------------------------------
# Attention stages as leaf layers. They call the functions above through the
# module namespace, so replacing one of those functions reaches the unit.
# ---------------------------------------------------------------------------


class CardinalFuse(Module):
    """Sum of the radix splits: [C*R, H, W, N] -> [C, H, W, N]."""

    def __init__(self, radix: int):
        self.radix = radix

    def forward(self, u, mode="train", rng=None):
        return cardinal_fuse(u, self.radix)

    def cost(self, x_shape, y_shape):
        return 0, prod(x_shape) - prod(y_shape)

    def backward(self, grad_out):
        return cardinal_fuse_backward(grad_out, self.radix)


class RSoftmax(Module):
    """Per-split weights [K, R, c, N] from the flat attention logits [K*R*c, N]."""

    def __init__(self, radix: int, cardinality: int, cardinal_width: int):
        self.radix = radix
        self.cardinality = cardinality
        self.cardinal_width = cardinal_width

    @property
    def weights(self):
        """The weights of the last forward that kept a tape, until its backward."""
        return self._tape

    def forward(self, logits, mode="train", rng=None):
        logits = logits.reshape(self.cardinality, self.radix, self.cardinal_width,
                                logits.shape[1])
        self._tape = weights = r_softmax(logits, self.radix)
        return weights

    def cost(self, x_shape, y_shape):
        return 0, 3 * prod(y_shape)

    def backward(self, grad_out):
        weights, self._tape = self._tape, None
        g = r_softmax_backward(grad_out, weights, self.radix)
        return g.reshape(self.cardinality * self.radix * self.cardinal_width, g.shape[3])


class WeightedFuse(Module):
    """Splits [C*R, H, W, N] weighted by [K, R, c, N] -> [C, H, W, N]."""

    def forward(self, u, a, mode="train"):
        self._tape = None if mode == INFER else (u, a)
        return weighted_fuse(u, a)

    def cost(self, x_shape, y_shape):
        return 0, 2 * prod(x_shape) - prod(y_shape)

    def backward(self, grad_out):
        """Gradients with respect to the splits and the weights."""
        (u, a), self._tape = self._tape, None
        return weighted_fuse_backward(grad_out, u, a)


# ---------------------------------------------------------------------------
# Radix-major unit (production path, with backward)
# ---------------------------------------------------------------------------


class SplitAttentionUnit(Module):
    """Radix-major split-attention unit: x [Cin, H, W, N] -> [C, H', W', N].

    Composition: unified 1x1 conv -> BN -> ReLU -> grouped 3x3 conv -> BN ->
    ReLU -> split fusion -> pooled statistics -> grouped FC bottleneck ->
    per-split weights -> weighted fusion. A stride > 1 is realized by a 3x3
    average pool placed before the 3x3 conv (``fast``) or after it.

    The residual shortcut is the enclosing block's business, not this unit's.
    """

    def __init__(self, cfg: SplatConfig, rng=None, dtype=np.float64):
        self.cfg = cfg
        c = cfg
        self.conv_in = Conv2d(c.in_channels, c.mid_channels, 1, rng=rng, dtype=dtype)
        self.bn_in = BatchNorm(c.mid_channels, dtype=dtype)
        self.relu_in = ReLU()
        self.conv_split = Conv2d(
            c.mid_channels, c.channels * c.radix, 3, padding=1,
            groups=c.groups, rng=rng, dtype=dtype,
        )
        self.bn_split = BatchNorm(c.channels * c.radix, dtype=dtype)
        self.relu_split = ReLU()
        self.pool = AvgPool2d(3, stride=c.stride, padding=1) if c.stride > 1 else None
        self.fc1 = Linear(c.channels, c.attention_inner, groups=c.cardinality,
                          bias=False, rng=rng, dtype=dtype)
        self.bn_att = BatchNorm(c.attention_inner, dtype=dtype)
        self.relu_att = ReLU()
        self.fc2 = Linear(c.attention_inner, c.channels * c.radix,
                          groups=c.cardinality, bias=True, rng=rng, dtype=dtype)
        self.fuse = CardinalFuse(c.radix)
        self.stats = GlobalAvgPool()
        self.assign = RSoftmax(c.radix, c.cardinality, c.cardinal_width)
        self.weighted_fuse = WeightedFuse()

    def transform_layers(self):
        """x -> radix-major splits [C*R, H', W', N]."""
        fast = self.cfg.fast
        return [self.conv_in, self.bn_in, self.relu_in, self.pool if fast else None,
                self.conv_split, self.bn_split, self.relu_split, None if fast else self.pool]

    def attention_layers(self):
        """Splits -> per-split weights [K, R, c, N]."""
        return [self.fuse, self.stats, self.fc1, self.bn_att, self.relu_att, self.fc2,
                self.assign]

    def forward(self, x, mode="train", rng=None):
        u = run_forward(self.transform_layers(), x, mode)
        a = run_forward(self.attention_layers(), u, mode, rng)
        return self.weighted_fuse.forward(u, a, mode)

    def backward(self, grad_out):
        gu, ga = self.weighted_fuse.backward(grad_out)
        gu = gu + run_backward(self.attention_layers(), ga)
        return run_backward(self.transform_layers(), gu)


# ---------------------------------------------------------------------------
# Cardinality-major reference path
# ---------------------------------------------------------------------------


def reference_bn(x, params: dict[str, np.ndarray], prefix: str, sl: slice):
    """Eval-mode batch norm over channels ``sl`` of the ``prefix`` layer.

    Coded straight from the parameter dict, without ``ops.batch_norm``, so
    the reference paths stay independent of the production kernels.
    """
    shape = (1, -1) + (1,) * (x.ndim - 2)
    mean = params[f"{prefix}.running_mean"][sl].reshape(shape)
    inv = 1.0 / np.sqrt(params[f"{prefix}.running_var"][sl] + ops.BN_EPS)
    scale = (params[f"{prefix}.gamma"][sl] * inv).reshape(shape)
    return (x - mean) * scale + params[f"{prefix}.beta"][sl].reshape(shape)


def reference_conv(x, weight, padding=0):
    """``ops.conv2d`` on an NCHW input, converting to and from its layout."""
    return ops.to_nchw(ops.conv2d(ops.to_chwn(x), weight, padding=padding))


def reference_pool(x, stride):
    """The unit's 3x3 pad-1 ``ops.avg_pool2d`` on an NCHW input."""
    return ops.to_nchw(ops.avg_pool2d(ops.to_chwn(x), 3, stride=stride, padding=1))


def splat_forward_cardinality_major(x, cfg: SplatConfig, params: dict[str, np.ndarray]):
    """Explicit per-group forward in cardinality-major parameter order.

    x is NCHW. Feature group (k, r) lives at block index k * radix + r: all
    splits of a cardinal group are adjacent. Every transform is applied group
    by group and every cardinal group gets its own dense FC pair; nothing is
    shared with the radix-major path except the convolution and pooling
    kernels, which run in their own [C, H, W, N] layout, so the
    layout-equivalence check also compares the two activation layouts.

    Normalization uses the stored running statistics (eval behaviour), which
    is also what the layout-equivalence check runs.
    """
    c = cfg
    n = x.shape[0]
    k_, r_, cw, sw = c.cardinality, c.radix, c.cardinal_width, c.split_width
    ai_k = c.attention_inner // c.cardinality

    w_in = params["conv_in.weight"]
    w_split = params["conv_split.weight"]
    outputs = []
    for k in range(k_):
        splits = []
        for r in range(r_):
            g = k * r_ + r
            z = reference_conv(x, w_in[g * sw : (g + 1) * sw])
            z = np.maximum(reference_bn(z, params, "bn_in", slice(g * sw, (g + 1) * sw)), 0.0)
            if c.stride > 1 and c.fast:
                z = reference_pool(z, c.stride)
            u = reference_conv(z, w_split[g * cw : (g + 1) * cw], padding=1)
            u = np.maximum(reference_bn(u, params, "bn_split", slice(g * cw, (g + 1) * cw)), 0.0)
            if c.stride > 1 and not c.fast:
                u = reference_pool(u, c.stride)
            splits.append(u)

        fused = np.sum(splits, axis=0)
        s = fused.mean(axis=(2, 3))  # [N, cw]

        h = s @ params["fc1.weight"][k * ai_k : (k + 1) * ai_k].T
        h = np.maximum(reference_bn(h, params, "bn_att", slice(k * ai_k, (k + 1) * ai_k)), 0.0)
        rows = slice(k * r_ * cw, (k + 1) * r_ * cw)
        logits = h @ params["fc2.weight"][rows].T + params["fc2.bias"][rows]
        logits = logits.reshape(n, r_, cw)

        if r_ > 1:
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            a = e / e.sum(axis=1, keepdims=True)
        else:
            a = 1.0 / (1.0 + np.exp(-logits))

        v = np.zeros_like(splits[0])
        for r in range(r_):
            v = v + splits[r] * a[:, r][:, :, None, None]
        outputs.append(v)

    return np.concatenate(outputs, axis=1)


# ---------------------------------------------------------------------------
# Layout permutation
# ---------------------------------------------------------------------------

RADIX_TO_CARDINALITY = "radix_to_cardinality"
CARDINALITY_TO_RADIX = "cardinality_to_radix"


def _group_perm(cardinality: int, radix: int, block: int, direction: str) -> np.ndarray:
    """Index array reordering feature-group blocks between layouts: the source
    blocks are the source layout's [R, K] or [K, R] grid read column-wise."""
    grids = {RADIX_TO_CARDINALITY: (radix, cardinality),
             CARDINALITY_TO_RADIX: (cardinality, radix)}
    if direction not in grids:
        raise ConfigurationError(f"unknown permutation direction {direction!r}")
    src = np.arange(radix * cardinality).reshape(grids[direction]).T.ravel()
    return (src[:, None] * block + np.arange(block)).ravel()


def permute_params(params: dict[str, np.ndarray], cfg: SplatConfig,
                   direction: str) -> dict[str, np.ndarray]:
    """Reorder unit parameters between radix-major and cardinality-major.

    Only tensors indexed by feature group move: the 1x1 filters and their
    normalization channels (blocks of ``split_width``) and the 3x3 filters
    and theirs (blocks of ``cardinal_width``). The attention FC tensors are
    cardinal-group-ordered in both layouts and pass through unchanged.
    Applying the two directions in sequence is the identity.
    """
    perm_in = _group_perm(cfg.cardinality, cfg.radix, cfg.split_width, direction)
    perm_split = _group_perm(cfg.cardinality, cfg.radix, cfg.cardinal_width, direction)
    moved = {
        "conv_in.weight": perm_in,
        "bn_in.gamma": perm_in,
        "bn_in.beta": perm_in,
        "bn_in.running_mean": perm_in,
        "bn_in.running_var": perm_in,
        "conv_split.weight": perm_split,
        "bn_split.gamma": perm_split,
        "bn_split.beta": perm_split,
        "bn_split.running_mean": perm_split,
        "bn_split.running_var": perm_split,
    }
    out = {}
    for name, arr in params.items():
        perm = moved.get(name)
        out[name] = arr[perm].copy() if perm is not None else arr.copy()
    return out
