"""Residual networks assembled from split-attention bottlenecks.

Stage layout follows the classic four-stage residual meta-architecture with
bottleneck expansion 4 and strides (1, 2, 2, 2). Two stem flavours exist: the
classic single 7x7 convolution, and the deep stem of three 3x3 convolutions.
Transition-block shortcuts optionally downsample with a 2x2 average pool
before their 1x1 projection. With ``radix == 0`` a block degenerates to a
plain bottleneck (grouped 3x3 in the middle, stride on the 3x3), which is the
baseline the cost model calibrates against.

The final normalization scale of every residual branch is initialized to
zero, so a freshly built network computes only its shortcut chain.

The network runs as one chain, :meth:`Network.layers`: the stem's
conv-BN-ReLU triples and max pool, every block of the four stages, the
DropBlock layers and the head, in forward order. ``run_forward`` and
``run_backward`` (:mod:`splatnet.layers`) run both passes from it; the stem
and stages only name their modules. A block runs its branch and shortcut,
and only its residual sum routes gradients by hand.

Activations are NCHW only at the network's boundary, which converts once on
the way in and once on the way out; every module inside takes [C, H, W, N]
(or [F, N]) arrays (:mod:`splatnet.ops`). Any input size the layers can run
is taken: a conv or pool rejects a kernel larger than its padded input, the
residual join two paths of different shapes.

A train forward returns the logits and the tape (:mod:`splatnet.layers`),
which the caller holds until one backward uses it up. An eval forward keeps
no tape and no activations: its batch norms, ReLUs and residual joins write
in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .params import ConfigurationError, Module, normal_fill
from .layers import (AddReLU, AvgPool2d, BatchNorm, Conv2d, DropBlock, Dropout,
                     GlobalAvgPool, Linear, MaxPool2d, ReLU, run_backward, run_forward)
from .splat import SplatConfig, SplitAttentionUnit

STAGE_LAYOUTS: dict[int, tuple[int, int, int, int]] = {
    50: (3, 4, 6, 3),
    101: (3, 4, 23, 3),
    200: (3, 24, 36, 3),
    269: (3, 30, 48, 8),
}


def _check_mode(mode):
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"unknown forward mode {mode!r}; expected 'train' or 'eval'")


@dataclass
class NetworkConfig:
    """Everything needed to build one network."""

    depth: int = 50
    stage_blocks: tuple[int, int, int, int] | None = None
    stem_width: int | None = None
    deep_stem: bool = True
    radix: int = 2
    cardinality: int = 1
    base_width: int = 64
    fast: bool = False
    avg_down: bool = True
    dropout: float | None = None
    num_classes: int = 1000
    input_channels: int = 3
    base_planes: int = 64
    dropblock_prob: float = 0.0
    dropblock_size: int = 3

    def __post_init__(self):
        if self.stage_blocks is None:
            if self.depth not in STAGE_LAYOUTS:
                raise ConfigurationError(
                    f"depth {self.depth} has no named layout; known: "
                    f"{sorted(STAGE_LAYOUTS)} (or give stage_blocks explicitly)"
                )
            self.stage_blocks = STAGE_LAYOUTS[self.depth]
        else:
            self.stage_blocks = tuple(int(b) for b in self.stage_blocks)
            if len(self.stage_blocks) != 4 or min(self.stage_blocks) < 1:
                raise ConfigurationError(
                    f"stage_blocks needs 4 entries of at least 1, got {self.stage_blocks}"
                )
        if self.radix < 0:
            raise ConfigurationError(f"radix must be >= 0, got {self.radix}")
        if self.stem_width is None:
            self.stem_width = 32 if self.depth <= 50 else 64
        if self.dropout is None:
            self.dropout = 0.2 if self.depth > 200 else 0.0
        for key in ("cardinality", "num_classes", "input_channels", "base_planes",
                    "base_width", "stem_width", "dropblock_size"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.base_planes * self.base_width < 64:  # stage-1 group width would be 0
            raise ConfigurationError(f"base_planes * base_width must be >= 64, got "
                                     f"{self.base_planes} * {self.base_width}")
        for key in ("dropout", "dropblock_prob"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigurationError(f"{key} must be in [0, 1), got {getattr(self, key)}")

    @property
    def variant_name(self) -> str:
        return f"{self.radix}s{self.cardinality}x{self.base_width}d"


@dataclass
class BottleneckSpec:
    """Derived shape bookkeeping for one block."""

    in_channels: int
    planes: int
    stride: int
    radix: int
    cardinality: int
    base_width: int
    avg_down: bool
    fast: bool

    @property
    def group_width(self) -> int:
        return (self.planes * self.base_width) // 64 * self.cardinality

    @property
    def out_channels(self) -> int:
        return 4 * self.planes

    @property
    def needs_projection(self) -> bool:
        return self.stride != 1 or self.in_channels != self.out_channels


class Bottleneck(Module):
    """Residual bottleneck, split-attention interior when radix >= 1."""

    def __init__(self, spec: BottleneckSpec, rng=None, dtype=np.float64):
        self.spec = spec
        gw = spec.group_width
        if spec.radix >= 1:
            self.splat = SplitAttentionUnit(
                SplatConfig(
                    spec.in_channels, gw, spec.radix, spec.cardinality,
                    stride=spec.stride, fast=spec.fast,
                ),
                rng=rng, dtype=dtype,
            )
        else:
            self.conv1 = Conv2d(spec.in_channels, gw, 1, rng=rng, dtype=dtype)
            self.bn1 = BatchNorm(gw, dtype=dtype)
            self.relu1 = ReLU()
            self.conv2 = Conv2d(gw, gw, 3, stride=spec.stride, padding=1,
                                groups=spec.cardinality, rng=rng, dtype=dtype)
            self.bn2 = BatchNorm(gw, dtype=dtype)
            self.relu2 = ReLU()
        self.conv3 = Conv2d(gw, spec.out_channels, 1, rng=rng, dtype=dtype)
        self.bn3 = BatchNorm(spec.out_channels, dtype=dtype)
        # silence the residual branch at initialization
        with self.bn3.writing():
            self.bn3.gamma.value[...] = 0.0

        if spec.needs_projection:
            self.down_pool = (
                AvgPool2d(2, stride=2) if (spec.avg_down and spec.stride > 1) else None
            )
            conv_stride = 1 if self.down_pool is not None else spec.stride
            self.down_conv = Conv2d(spec.in_channels, spec.out_channels, 1,
                                    stride=conv_stride, rng=rng, dtype=dtype)
            self.down_bn = BatchNorm(spec.out_channels, dtype=dtype)
        else:
            self.down_pool = None
            self.down_conv = None
            self.down_bn = None
        self.add_relu = AddReLU()

    def branch(self):
        if self.spec.radix >= 1:
            return [self.splat, self.conv3, self.bn3]
        return [self.conv1, self.bn1, self.relu1, self.conv2, self.bn2, self.relu2,
                self.conv3, self.bn3]

    def shortcut(self):
        """All ``None`` (the identity) when the block keeps its shape."""
        return [self.down_pool, self.down_conv, self.down_bn]

    def forward(self, x, mode="train", rng=None):
        v, branch = run_forward(self.branch(), x, mode, rng)
        s, shortcut = run_forward(self.shortcut(), x, mode, rng)
        y, join = self.add_relu.forward(v, s, mode)
        return y, [shortcut, branch, join]  # in the order the backward pops them

    def backward(self, tape, grad_out):
        g = self.add_relu.backward(tape.pop(), grad_out)
        gx = run_backward(self.branch(), tape.pop(), g)
        return gx + run_backward(self.shortcut(), tape.pop(), g)


class Stage(Module):
    def __init__(self, blocks: list[Bottleneck]):
        self.block = blocks


class Stem(Module):
    """Conv-BN-ReLU triples ``conv<i>, bn<i>, relu<i>`` then a max pool."""

    # the layer list, built once, sits in a slot: the module scans read
    # vars(), so they still find each layer once, under its own name
    __slots__ = ("_layers",)

    def __init__(self, cfg: NetworkConfig, rng=None, dtype=np.float64):
        ic, sw = cfg.input_channels, cfg.stem_width
        # (in, out, kernel, stride, padding) of each triple's convolution
        convs = ([(ic, sw, 3, 2, 1), (sw, sw, 3, 1, 1), (sw, 2 * sw, 3, 1, 1)]
                 if cfg.deep_stem else [(ic, 64, 7, 2, 3)])
        for i, (cin, cout, k, s, p) in enumerate(convs, start=1):
            setattr(self, f"conv{i}", Conv2d(cin, cout, k, stride=s, padding=p,
                                             rng=rng, dtype=dtype))
            setattr(self, f"bn{i}", BatchNorm(cout, dtype=dtype))
            setattr(self, f"relu{i}", ReLU())
        self.out_channels = cout
        self.maxpool = MaxPool2d(3, stride=2, padding=1)
        # the children in the order they were built, which is forward order
        self._layers = [child for _, child in self._children()]

    def layers(self):
        return self._layers


class Network(Module):
    """Stem, four bottleneck stages, pooled classifier head."""

    def __init__(self, cfg: NetworkConfig, rng=None, dtype=np.float64):
        self.cfg = cfg = replace(cfg)  # its own record: later edits to the caller's miss it
        self.stem = Stem(cfg, rng=rng, dtype=dtype)
        in_ch = self.stem.out_channels
        stages = []
        for i, n_blocks in enumerate(cfg.stage_blocks):
            planes = cfg.base_planes * (2 ** i)
            stride = 1 if i == 0 else 2
            blocks = []
            for b in range(n_blocks):
                spec = BottleneckSpec(
                    in_channels=in_ch,
                    planes=planes,
                    stride=stride if b == 0 else 1,
                    radix=cfg.radix,
                    cardinality=cfg.cardinality,
                    base_width=cfg.base_width,
                    avg_down=cfg.avg_down,
                    fast=cfg.fast,
                )
                blocks.append(Bottleneck(spec, rng=rng, dtype=dtype))
                in_ch = spec.out_channels
            stages.append(Stage(blocks))
        self.stage1, self.stage2, self.stage3, self.stage4 = stages
        # structured dropout after the last two stages only
        self.dropblock3, self.dropblock4 = (
            [DropBlock(cfg.dropblock_prob, cfg.dropblock_size) for _ in range(2)]
            if cfg.dropblock_prob > 0 else [None, None]
        )
        self.gap = GlobalAvgPool()
        self.head_dropout = Dropout(cfg.dropout) if cfg.dropout > 0 else None
        self.fc = Linear(in_ch, cfg.num_classes, bias=True, dtype=dtype)
        if rng is not None:
            with self.fc.writing():
                normal_fill(rng, self.fc.weight.value, 0.01)

    def layers(self):
        """The one chain the network runs: the stem's layers, every block, the
        DropBlocks and the head, in forward order."""
        return [*self.stem.layers(), *self.stage1.block, *self.stage2.block,
                *self.stage3.block, self.dropblock3, *self.stage4.block, self.dropblock4,
                self.gap, self.head_dropout, self.fc]

    def forward(self, x, mode="train", rng=None):
        """NCHW images -> logits [N, classes]; in train mode ``(logits, tape)``,
        the tape that one :meth:`backward` uses up. An input that is not NCHW
        in the network's dtype, or an empty train batch, raises before any
        layer runs; an unreducible size, in the first layer it fails."""
        _check_mode(mode)
        dtype = self.fc.weight.value.dtype
        if x.ndim != 4 or x.shape[1] != self.cfg.input_channels:
            raise ConfigurationError(f"expected NCHW images with {self.cfg.input_channels} "
                                     f"input channels, got shape {x.shape}")
        if x.shape[0] == 0 and mode == "train":
            raise ConfigurationError("a train forward needs at least one image")
        if x.dtype != dtype:
            raise ConfigurationError(f"expected {dtype} input, got {x.dtype}")
        y, tape = run_forward(self.layers(), ops.to_chwn(x), mode, rng)
        logits = ops.to_nchw(y)
        return (logits, tape) if mode == "train" else logits

    def backward(self, tape, grad_logits):
        """Gradient of the logits [N, classes] -> gradient of the NCHW input.

        It uses up ``tape``, from a train forward. A used tape, or a gradient
        of another shape or dtype than the logits, raises before any record
        is popped."""
        if not tape:
            raise ConfigurationError("backward needs the tape of a train forward "
                                     "that no backward has used yet")
        # the classifier records its [F, N] input
        want = (tape[-1].shape[-1], self.cfg.num_classes), self.fc.weight.value.dtype
        if (grad_logits.shape, grad_logits.dtype) != want:
            raise ConfigurationError(f"logits gradient {grad_logits.shape} {grad_logits.dtype} "
                                     f"does not match the logits {want[0]} {want[1]}")
        records = tape.copy()
        tape.clear()  # used up, even by a backward that raises
        return ops.to_nchw(run_backward(self.layers(), records, ops.to_chwn(grad_logits)))


def build_network(cfg: NetworkConfig, rng: np.random.Generator,
                  dtype=np.float64) -> Network:
    """Build and initialize a network."""
    return Network(cfg, rng=rng, dtype=dtype)
