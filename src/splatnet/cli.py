"""Command-line front end.

Subcommands:
    analyze             parameter/MAC report for a network config
    verify              run self-verification suites
    bench               wall-clock forward timing (machine dependent)
    train               deterministic toy training run
    inspect-checkpoint  list the tensors in a checkpoint file

Configuration comes from an optional ``--config`` key=value file plus
per-key override flags; unknown config keys are errors. Exit codes: 0
success, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, verify
from .checkpoint import CheckpointError, load_checkpoint
from .configio import (
    NETWORK_KEYS,
    TRAIN_KEYS,
    network_config,
    parse_settings,
    read_config_file,
    train_settings,
)
from .data import make_toy_dataset
from .network import Network, build_network
from .params import ConfigurationError, make_rng, spawn_rng
from .training import (
    LossConfig,
    MixupConfig,
    OptimizerConfig,
    ScheduleConfig,
    TrainingDiverged,
    train_toy,
)

_DTYPES = {"f32": np.float32, "f64": np.float64}


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    parser.add_argument("--config", type=Path, help="key=value configuration file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{key}", metavar="VALUE",
                            help=f"override config key {key}")


def _gather_settings(args) -> dict:
    # every command accepts the full schema so one file can describe a whole
    # run; commands read only the keys they care about, typos still fail
    raw = read_config_file(args.config) if args.config else {}
    for key in list(NETWORK_KEYS) + list(TRAIN_KEYS):
        override = getattr(args, f"cfg_{key}", None)
        if override is not None:
            raw[key] = override
    return parse_settings(raw, allow_training=True)


def cmd_analyze(args) -> int:
    # the report depends on the config alone: no weights are drawn for it
    cfg = network_config(_gather_settings(args))
    input_hw = (args.input_size, args.input_size)
    report = analysis.count_flops(Network(cfg), input_hw)
    print(report.text())
    ref = analysis.reference_comparison(cfg, input_hw, report.total_params, report.total_macs)
    if ref:
        print(ref)
    machine = report.machine_lines()
    if args.out:
        Path(args.out).write_text(machine + "\n")
        print(f"machine-readable rows written to {args.out}")
    else:
        print("-- machine readable --")
        print(machine)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    cfg = network_config(_gather_settings(args))
    net = build_network(cfg, make_rng(args.seed), dtype=_DTYPES[args.precision])
    shape = (args.batch, cfg.input_channels, args.input_size, args.input_size)
    result = analysis.bench_forward(net, shape, reps=args.reps, warmup=args.warmup,
                                    seed=args.seed)
    print(result.text())
    return 0


def cmd_train(args) -> int:
    for path in (args.out, args.checkpoint):  # fail before training, not after
        if path is not None and not path.parent.is_dir():
            raise ConfigurationError(f"directory {path.parent} of {path} does not exist")
    settings = _gather_settings(args)
    cfg = network_config(settings)
    ts = train_settings(settings)
    if "seed" not in settings:
        ts.seed = args.seed  # missing seed key: fall back to the global flag (default 0)
    if ts.batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {ts.batch}")
    # one seed drives initialization, data, and the step loop
    net = build_network(cfg, spawn_rng(ts.seed, 0), dtype=_DTYPES[args.precision])
    dataset = make_toy_dataset(args.samples, size=args.image_size,
                               noise=args.noise, seed=ts.seed,
                               dtype=_DTYPES[args.precision])
    steps = dataset.images.shape[0] // ts.batch
    sched = ScheduleConfig(batch_size=ts.batch, total_epochs=ts.epochs,
                           steps_per_epoch=steps, base_lr=ts.base_lr,
                           warmup_epochs=ts.warmup_epochs)
    loss_cfg = LossConfig(num_classes=cfg.num_classes, smoothing=ts.smoothing)
    mix = MixupConfig(alpha=ts.mixup_alpha, enabled=ts.mixup_alpha != 0)
    opt = OptimizerConfig(momentum=ts.momentum, weight_decay=ts.weight_decay)

    lines = [
        f"# seed={ts.seed} epochs={ts.epochs} batch={ts.batch} base_lr={ts.base_lr} "
        f"warmup_epochs={ts.warmup_epochs} mixup_alpha={ts.mixup_alpha} "
        f"smoothing={ts.smoothing} weight_decay={ts.weight_decay} "
        f"momentum={ts.momentum}",
        f"# network depth={cfg.depth} {cfg.variant_name} stage_blocks={cfg.stage_blocks} "
        f"classes={cfg.num_classes}",
        "# epoch\tloss\tacc\tlr",
    ]
    for line in lines:
        print(line)

    def log_fn(row: str):
        lines.append(row)
        print(row)

    try:
        train_toy(net, dataset, sched, loss_cfg, mix, opt, seed=ts.seed,
                  checkpoint_path=args.checkpoint, resume_from=args.resume,
                  log_fn=log_fn)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text("".join(l + "\n" for l in lines))
        print(f"metric log written to {args.out}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_inspect(args) -> int:
    tensors = load_checkpoint(args.path)
    print(f"{args.path}: {len(tensors)} tensors")
    for name, arr in tensors.items():
        shape = "x".join(str(s) for s in arr.shape) or "scalar"
        print(f"{name}\t{arr.dtype}\t{shape}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatnet",
        description="split-attention networks: analysis, verification, toy training",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--precision", choices=sorted(_DTYPES), default="f64",
                        help="numeric precision (default f64)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameter and MAC accounting")
    _add_config_flags(p, NETWORK_KEYS)
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--out", type=Path, help="write machine-readable rows here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="forward-pass wall-clock timing")
    _add_config_flags(p, NETWORK_KEYS)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--input-size", type=int, default=64)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--warmup", type=int, default=5)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="deterministic toy training run")
    _add_config_flags(p, dict(NETWORK_KEYS, **TRAIN_KEYS))
    p.add_argument("--samples", type=int, default=512, help="synthetic set size")
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.6)
    p.add_argument("--out", type=Path, help="metric log path")
    p.add_argument("--checkpoint", type=Path, help="checkpoint path (saved per epoch)")
    p.add_argument("--resume", type=Path, help="resume from checkpoint")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("inspect-checkpoint", help="list tensors in a checkpoint")
    p.add_argument("path", type=Path)
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ConfigurationError, CheckpointError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
