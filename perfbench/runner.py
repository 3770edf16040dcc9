"""Runs one workload and reports its metrics.

Untraced runs (``trace=False``) report the end-to-end metrics. Traced runs
measure the same workload twice, for half the time each: untraced, then with
every layer wrapped in spans. They report per-layer metrics, the trace
overhead between the halves, and a per-path table joined with the cost
model's MACs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from splatnet import analysis

from .spans import (SpanFrame, Tracer, check_path_join, coverage, glue_time, layer_rows,
                    write_layer_rows)
from .workloads import WORKLOADS, Segment

# set-up is repeated at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_S seconds (at most SETUP_MAX_REPS times); the median is reported
SETUP_MIN_REPS = 5
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 100

# share of the end-to-end time the layer spans' self time must account for
COVERAGE_MIN = 0.9

# The median step time is printed and recorded but not gated: on a shared
# host whose speed switches between two levels ~40% apart every few seconds,
# the run median lands in either mode (IQR/median up to 0.34 over ten runs),
# while the tail percentile and the mean rate stay far steadier.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

KERNELS = (
    "conv2d", "conv2d_backward", "batch_norm", "batch_norm_backward",
    "relu", "relu_backward", "avg_pool2d", "avg_pool2d_backward",
    "max_pool2d", "max_pool2d_backward", "fully_connected",
    "fully_connected_backward", "global_avg_pool", "global_avg_pool_backward",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for k in KERNELS:
        units[f"ops.{k}.self_ms"] = "ms"
        units[f"ops.{k}.calls"] = "count"
    for k in ("conv2d", "conv2d_backward"):
        units[f"ops.{k}.gmac_per_s"] = "GMAC/s"
    units.update({
        "splat.attention.self_ms": "ms",
        "network.forward_ms": "ms",
        "network.backward_ms": "ms",
        "network.glue_ms": "ms",
        "network.build_s": "s",
        "training.sgd_step_ms": "ms",
        "training.loss_ms": "ms",
        "training.targets_ms": "ms",
        "checkpoint.save_ms": "ms",
        "checkpoint.bytes": "bytes",
        "data.make_toy_dataset_s": "s",
        "analysis.count_flops_ms": "ms",
        "trace.coverage": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


PER_LAYER = per_layer_units()


def blas_info(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_set": threads}


def git_revision(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, threads: int, workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(threads),
        "nproc": len(os.sched_getaffinity(0)),
        "dtype": np.dtype(workload.dtype).name,
        "seed": seed,
        "git_revision": git_revision(root),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(workload) -> list[dict]:
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MAX_REPS and (
            len(setups) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S):
        setups.append(workload.setup())
    return setups


def end_to_end(workload, setups: list[dict], seg: Segment, rss_mb: float) -> tuple[dict, dict]:
    totals = [sum(s.values()) for s in setups]
    step_ms = 1e3 * np.array(seg.step_s)
    tail_ms = float(np.percentile(step_ms, workload.tail_pct))
    metrics = {
        "setup_s": statistics.median(totals),
        "throughput_per_s": seg.items / seg.wall_s,
        "step_ms_tail": tail_ms,
        "peak_rss_mb": rss_mb,
    }
    # the guide asks for >= 10 samples beyond the tail percentile
    tail = {"pct": workload.tail_pct, "n": len(step_ms),
            "beyond": int((step_ms > tail_ms).sum())}
    return metrics, {"setup_s_runs": totals, "tail": tail,
                     "step_ms_p50": float(np.median(step_ms))}


def layer_metrics(workload, setups, base: Segment, traced: Segment, frame,
                  macs_per_image: dict[str, int], count_flops_s: float) -> dict:
    steps = traced.attempted
    m = {}
    for k in KERNELS:
        name = f"ops.{k}"
        m[f"{name}.self_ms"] = 1e3 * frame.total_self(name) / steps
        m[f"{name}.calls"] = frame.count(name) / steps
    for name, factor in (("ops.conv2d", 1), ("ops.conv2d_backward", 2)):
        mask = frame.mask(name)
        secs = frame.self_time[mask].sum()
        macs = factor * workload.batch * sum(macs_per_image.get(p, 0) for p in frame.paths[mask])
        m[f"{name}.gmac_per_s"] = macs / secs / 1e9 if secs > 0 else 0.0
    m["splat.attention.self_ms"] = 1e3 * frame.total_self("splat.attention") / steps
    for name in ("network.forward", "network.backward", "training.sgd_step",
                 "training.loss", "training.targets"):
        m[f"{name}_ms"] = 1e3 * frame.total_duration(name) / steps
    m["network.glue_ms"] = 1e3 * glue_time(frame) / steps
    saves = frame.duration[frame.mask("checkpoint.save")]
    m["checkpoint.save_ms"] = 1e3 * float(np.median(saves)) if len(saves) else 0.0
    ckpt = workload.out_dir / f"{workload.name}.ckpt"
    m["checkpoint.bytes"] = ckpt.stat().st_size if len(saves) else 0
    for phase in ("network.build_s", "data.make_toy_dataset_s"):
        m[phase] = statistics.median(s.get(phase, 0.0) for s in setups)
    m["analysis.count_flops_ms"] = 1e3 * count_flops_s
    m["trace.coverage"] = coverage(frame, workload.root_span)
    m["trace.overhead_frac"] = (statistics.median(traced.step_s)
                                / statistics.median(base.step_s) - 1.0)
    return m


def traced_metrics(workload, setups, base: Segment, traced: Segment, frame,
                   out_dir: Path) -> tuple[dict, list[dict]]:
    """Per-layer metrics and per-path rows; writes spans and rows to ``out_dir``.

    Adds a problem to ``traced`` when the timed conv/FC paths and the cost
    report disagree, or when the layer spans cover too little of the time.
    """
    t0 = time.perf_counter()
    report = analysis.count_flops(workload.net, workload.input_hw)
    count_flops_s = time.perf_counter() - t0
    macs_per_image = {r.path: r.macs for r in report.rows}
    traced.problems += check_path_join(frame, macs_per_image)
    metrics = layer_metrics(workload, setups, base, traced, frame,
                            macs_per_image, count_flops_s)
    if metrics["trace.coverage"] < COVERAGE_MIN:
        traced.problems.append(
            f"layer spans cover {metrics['trace.coverage']:.3f} of the end-to-end "
            f"time, below {COVERAGE_MIN}")
    rows = layer_rows(frame, macs_per_image, workload.batch, traced.attempted,
                      statistics.median(traced.step_s))
    write_layer_rows(rows, out_dir / "layers.tsv")
    frame.write(out_dir / "spans.tsv.gz")
    return metrics, rows


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        threads: int, out_root: Path | None = None, **sizes) -> dict:
    """Run one workload; returns the full result record.

    Output files go to ``out_root`` (default ``<root>/.bench_out``).
    ``sizes`` override the workload's default sizes (the self-test runs
    reduced ones).
    """
    out_root = root / ".bench_out" if out_root is None else out_root
    out_dir = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](root, seed, out_dir, **sizes)
    setups = repeat_setup(workload)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(root, threads, workload, seed),
              "setup_phases": setups}
    base = workload.measure(seconds / 2 if trace else seconds)
    rss = peak_rss_mb()
    record["checks"] = workload.check(base)
    metrics, detail = end_to_end(workload, setups, base, rss)
    record.update(detail, end_to_end=metrics)
    segments, units = [base], END_TO_END
    if trace:
        traced = workload.measure(seconds / 2, tracer := Tracer())
        metrics, record["layers"] = traced_metrics(workload, setups, base, traced,
                                                   SpanFrame(tracer), out_dir)
        segments.append(traced)
        units = PER_LAYER
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    problems = [p for s in segments for p in s.problems]
    record.update({
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "correct": not problems and failed == 0 and attempted > 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    return record


def summary_lines(record: dict) -> list[str]:
    """Human-readable lines: environment, every metric with its unit, checks."""
    env = record["environment"]
    blas = env["blas"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])} "
        f"seconds {record['seconds']}",
        f"env python {env['python']} numpy {env['numpy']} blas {blas['name']} "
        f"{blas['version']} blas_threads {blas['threads_set']} nproc {env['nproc']} "
        f"dtype {env['dtype']} git {env['git_revision']}",
    ]
    for key, m in record["metrics"].items():
        lines.append(f"{key} {m['value']:.6g} {m['unit']}")
    t = record["tail"]
    lines.append(f"step_ms_p50 {record['step_ms_p50']:.6g} ms (not gated)")
    lines.append(f"tail = p{t['pct']:g} of n={t['n']} ({t['beyond']} beyond)")
    lines.append(f"failed_frac {record['failed_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']})")
    lines += [f"problem: {p}" for p in record["problems"]]
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })
