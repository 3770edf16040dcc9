"""Static cost model and micro-benchmark harness.

The cost model builds a fresh, weightless network from the caller's config
(every weight an ``np.zeros`` array nothing writes), runs its eval-mode
forward on an empty batch, ``[0, C, H, W]`` (``[C, H, W, 0]`` inside), and
records every leaf-layer call in call order. Each call gives one row: the
layer's dotted path, its per-image output shape, its parameter count (taken
from the build's parameter arrays, so every parameter is counted exactly
once) and the ``(macs, aux_ops)`` its ``cost`` method returns for the
per-image input and output shapes. The topology is therefore written once,
in the forward, and an input size the forward rejects cannot be priced. The
rows depend only on the config, and the caller's network is never run.

Conventions, stated once and loudly because the field is inconsistent:

* 1 FLOP = 1 multiply-accumulate. A 3x3 convolution over an HxW output with
  Cout filters of depth Cin/g costs H*W*Cout*(Cin/g)*9 under this convention,
  which makes the classic 50-layer baseline land at about 4.1 G.
* Elementwise work (normalization, activations, additions, bias adds) and
  pooling are excluded from the headline MAC total and itemized in a
  secondary "aux ops" column instead. Fully-connected layers, including the
  attention bottleneck, do count as MACs.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .params import ConfigurationError, Module, check_allocatable, make_rng
from .network import Bottleneck, BottleneckSpec, Network


@dataclass
class CostRow:
    path: str
    out_shape: tuple[int, ...]
    params: int
    macs: int
    aux_ops: int = 0


@dataclass
class CostReport:
    rows: list[CostRow]
    config: str
    input_hw: tuple[int, int]

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_aux(self) -> int:
        return sum(r.aux_ops for r in self.rows)

    def text(self) -> str:
        width = max((len(r.path) for r in self.rows), default=10)
        lines = [f"config: {self.config}", f"input: {self.input_hw[0]}x{self.input_hw[1]}"]
        lines.append(f"{'layer':<{width}}  {'out shape':>18}  {'params':>12}  {'macs':>14}  {'aux ops':>12}")
        for r in self.rows:
            shape = "x".join(str(s) for s in r.out_shape)
            lines.append(
                f"{r.path:<{width}}  {shape:>18}  {r.params:>12}  {r.macs:>14}  {r.aux_ops:>12}"
            )
        lines.append(
            f"{'TOTAL':<{width}}  {'':>18}  {self.total_params:>12}  "
            f"{self.total_macs:>14}  {self.total_aux:>12}"
        )
        return "\n".join(lines)

    def machine_lines(self) -> str:
        out = [f"{r.path}\t{r.params}\t{r.macs}" for r in self.rows]
        out.append(f"TOTAL\t{self.total_params}\t{self.total_macs}")
        return "\n".join(out)


def _nparams(module) -> int:
    return sum(p.value.size for p in module.parameters())


def _trace_rows(module: Module, input_shape, prefix: str = "") -> list[CostRow]:
    """One cost row per leaf-layer call of an empty-batch eval forward.

    ``module`` is a throwaway build: recording wrappers go on its leaf
    instances and stay there. ``input_shape`` has a zero batch: NCHW for a
    network, [C, H, W, 0] for a module inside one. Leaves see batch-last
    arrays: per image, ``shape[:-1]``.
    """
    rows: list[CostRow] = []

    def recording(path, leaf):
        forward = leaf.forward

        def recorded(x, *args, **kwargs):
            y = forward(x, *args, **kwargs)
            macs, aux = leaf.cost(x.shape[:-1], y.shape[:-1])
            rows.append(CostRow(path, y.shape[:-1], _nparams(leaf), macs, aux))
            return y
        return recorded

    for path, m in module.named_modules(prefix):
        if next(m.named_modules(), None) is None:
            m.forward = recording(path, m)
    check_allocatable("the traced input", input_shape)
    module.forward(np.zeros(input_shape), mode="eval")
    return rows


def count_flops(network: Network, input_hw: tuple[int, int] = (224, 224)) -> CostReport:
    """Per-layer parameter and MAC accounting for one input image.

    Reads only ``network.cfg``: a fresh weightless build of it is traced.
    Raises ``ConfigurationError`` for an input size the forward rejects.
    """
    if min(input_hw) < 1:
        raise ConfigurationError(f"input size must be >= 1, got {input_hw[0]}x{input_hw[1]}")
    cfg = network.cfg
    build = Network(cfg)
    rows = _trace_rows(build, (0, cfg.input_channels, *input_hw))
    echo = (
        f"depth={cfg.depth} {cfg.variant_name} stage_blocks={cfg.stage_blocks} "
        f"deep_stem={cfg.deep_stem} stem_width={cfg.stem_width} "
        f"avg_down={cfg.avg_down} fast={cfg.fast} classes={cfg.num_classes}"
    )
    report = CostReport(rows, echo, input_hw)
    # ground truth cross-check: every parameter counted exactly once
    direct = _nparams(build)
    if direct != report.total_params:
        raise AssertionError(
            f"cost trace saw {report.total_params} params, network holds {direct}"
        )
    return report


# ---------------------------------------------------------------------------
# Block cost parity
# ---------------------------------------------------------------------------


@dataclass
class ParityReport:
    splat_params: int
    standard_params: int
    splat_macs: int
    standard_macs: int
    attention_params: int
    attention_macs: int

    @property
    def param_ratio(self) -> float:
        return self.splat_params / self.standard_params

    @property
    def mac_ratio(self) -> float:
        return self.splat_macs / self.standard_macs

    @property
    def conv_param_ratio(self) -> float:
        """Ratio with the attention bottleneck excluded from the splat side."""
        return (self.splat_params - self.attention_params) / self.standard_params

    @property
    def conv_mac_ratio(self) -> float:
        return (self.splat_macs - self.attention_macs) / self.standard_macs


def _block_rows(spec: BottleneckSpec, input_hw) -> list[CostRow]:
    return _trace_rows(Bottleneck(spec), (spec.in_channels, *input_hw, 0), "block.")


_ATTENTION_PARTS = (".fc1", ".bn_att", ".relu_att", ".fc2")


def block_cost_parity(splat_spec: BottleneckSpec, standard_spec: BottleneckSpec,
                      input_hw: tuple[int, int] = (56, 56)) -> ParityReport:
    """Compare a split-attention bottleneck against a standard one."""
    if splat_spec.radix < 1:
        raise ConfigurationError("splat_spec must have radix >= 1")
    if standard_spec.radix != 0:
        raise ConfigurationError("standard_spec must have radix == 0")
    splat_rows = _block_rows(splat_spec, input_hw)
    std_rows = _block_rows(standard_spec, input_hw)
    att_params = sum(r.params for r in splat_rows if r.path.endswith(_ATTENTION_PARTS))
    att_macs = sum(r.macs for r in splat_rows if r.path.endswith(_ATTENTION_PARTS))
    return ParityReport(
        splat_params=sum(r.params for r in splat_rows),
        standard_params=sum(r.params for r in std_rows),
        splat_macs=sum(r.macs for r in splat_rows),
        standard_macs=sum(r.macs for r in std_rows),
        attention_params=att_params,
        attention_macs=att_macs,
    )


# ---------------------------------------------------------------------------
# Reference variants from the published complexity table
# ---------------------------------------------------------------------------


# every published row prices the ResNet-50 layout on a 224x224 ImageNet image
REFERENCE_INPUT = (224, 224)
_REFERENCE_NETWORK = dict(stage_blocks=(3, 4, 6, 3), num_classes=1000, input_channels=3,
                          base_planes=64)


@dataclass
class ReferenceVariant:
    label: str
    params: float
    gmacs: float
    param_tol: float
    mac_tol: float
    match: dict

    def matches(self, cfg, input_hw) -> bool:
        """True when ``cfg`` at ``input_hw`` is this row's network."""
        want = {**_REFERENCE_NETWORK, **self.match}
        return (tuple(input_hw) == REFERENCE_INPUT
                and all(getattr(cfg, k) == v for k, v in want.items()))


REFERENCE_VARIANTS = [
    ReferenceVariant(
        "ResNet-50 (classic stem)", 25.5e6, 4.14e9, 0.01, 0.03,
        dict(radix=0, cardinality=1, base_width=64, deep_stem=False, avg_down=False),
    ),
    ReferenceVariant(
        "ResNet-D-50", 25.6e6, 4.34e9, 0.01, 0.03,
        dict(radix=0, cardinality=1, base_width=64, stem_width=32,
             deep_stem=True, avg_down=True),
    ),
    ReferenceVariant(
        "ResNeSt-50-fast 2s1x64d", 27.5e6, 4.34e9, 0.02, 0.03,
        dict(radix=2, cardinality=1, base_width=64, stem_width=32,
             deep_stem=True, avg_down=True, fast=True),
    ),
]


def reference_comparison(cfg, input_hw, total_params: int, total_macs: int) -> str | None:
    """One-line comparison when ``cfg`` at ``input_hw`` is a known reference
    variant's network."""
    for ref in REFERENCE_VARIANTS:
        if ref.matches(cfg, input_hw):
            p_dev = total_params / ref.params - 1.0
            m_dev = total_macs / ref.gmacs - 1.0
            return (
                f"reference {ref.label}: params {ref.params / 1e6:.1f}M "
                f"(ours {total_params / 1e6:.3f}M, {p_dev:+.2%}, tol ±{ref.param_tol:.0%}) "
                f"{'MATCH' if abs(p_dev) <= ref.param_tol else 'MISMATCH'}"
                f"; gmacs {ref.gmacs / 1e9:.2f} (ours {total_macs / 1e9:.3f}, "
                f"{m_dev:+.2%}, tol ±{ref.mac_tol:.0%}) "
                f"{'MATCH' if abs(m_dev) <= ref.mac_tol else 'MISMATCH'}"
            )
    return None


# ---------------------------------------------------------------------------
# Micro-benchmark
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    batch_shape: tuple[int, ...]
    reps: int
    warmup: int
    times_s: list[float] = field(default_factory=list)
    logits_sha256: str = ""

    @property
    def min_s(self) -> float:
        return min(self.times_s)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times_s)

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.times_s)

    @property
    def per_image_ms(self) -> float:
        return 1000.0 * self.median_s / self.batch_shape[0]

    def text(self) -> str:
        return (
            f"batch {self.batch_shape}, reps {self.reps} (warmup {self.warmup}): "
            f"min {self.min_s * 1e3:.2f} ms, median {self.median_s * 1e3:.2f} ms, "
            f"mean {self.mean_s * 1e3:.2f} ms, {self.per_image_ms:.2f} ms/image "
            f"(wall clock, machine dependent)\n"
            f"logits sha256 {self.logits_sha256}"
        )


def bench_forward(network, batch_shape, reps: int = 30, warmup: int = 5,
                  seed: int = 0) -> BenchResult:
    """Time eval-mode forwards on a fixed seeded batch.

    All repetitions must produce identical logits (the forward is
    deterministic); the shared hash is reported so separate runs can be
    compared.
    """
    if reps < 1:
        raise ConfigurationError("bench needs at least one repetition")
    if min(batch_shape) < 1:
        raise ConfigurationError(f"bench needs a batch and input size of at least 1, "
                                 f"got batch shape {tuple(batch_shape)}")
    if warmup < 0:
        raise ConfigurationError(f"bench warmup must be >= 0, got {warmup}")
    check_allocatable("the bench batch", batch_shape)
    rng = make_rng(seed)
    dtype = network.fc.weight.value.dtype
    x = rng.standard_normal(batch_shape).astype(dtype)
    result = BenchResult(tuple(batch_shape), reps, warmup)
    reference = None
    for _ in range(warmup):
        network.forward(x, mode="eval")
    for _ in range(reps):
        t0 = time.perf_counter()
        logits = network.forward(x, mode="eval")
        result.times_s.append(time.perf_counter() - t0)
        if reference is None:
            reference = logits
        elif not np.array_equal(reference, logits):
            raise AssertionError("non-deterministic forward: logits differ between reps")
    result.logits_sha256 = hashlib.sha256(np.ascontiguousarray(reference).tobytes()).hexdigest()
    return result
