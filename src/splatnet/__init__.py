"""Split-attention convolutional networks built from first principles.

The package provides the dense kernels (ops), the split-attention unit in
both channel layouts (splat), full network assembly (network), a static
parameter/MAC cost model (analysis), the training-recipe mathematics and a
deterministic desk-scale trainer (training), plus a command-line front end
(cli).
"""

from .params import ConfigurationError, Module, Parameter, make_rng, spawn_rng
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, grad_check
from .splat import SplatConfig, SplitAttentionUnit, permute_params
from .network import Network, NetworkConfig, build_network
from .analysis import CostReport, bench_forward, block_cost_parity, count_flops
from .training import (
    LossConfig,
    MixupConfig,
    OptimizerConfig,
    ScheduleConfig,
    label_smooth_ce,
    lr_at,
    mixup_batch,
    sgd_step,
    train_toy,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigurationError",
    "CostReport",
    "GradCheckReport",
    "LossConfig",
    "MixupConfig",
    "Module",
    "Network",
    "NetworkConfig",
    "OptimizerConfig",
    "Parameter",
    "ScheduleConfig",
    "SplatConfig",
    "SplitAttentionUnit",
    "bench_forward",
    "block_cost_parity",
    "build_network",
    "count_flops",
    "grad_check",
    "label_smooth_ce",
    "load_checkpoint",
    "lr_at",
    "make_rng",
    "mixup_batch",
    "permute_params",
    "save_checkpoint",
    "sgd_step",
    "spawn_rng",
    "train_toy",
]
