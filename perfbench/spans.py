"""Span tracing of splatnet from outside the package.

The tracer replaces public functions and leaf-layer methods with thin
wrappers that record one span per call: name, dotted module path, start,
end, parent span and step id. Spans stay in memory until the run ends;
``Tracer.restore`` puts every original attribute back.

Self time of a span is its duration minus the durations of its direct
children. Layer metrics and the per-path table are derived from self times.
"""

from __future__ import annotations

import gzip
import time
from pathlib import Path

import numpy as np

from splatnet import layers, splat
from splatnet.params import Module

_MISSING = object()

# leaf layer class -> (forward span name, backward span name)
LEAF_SPANS = {
    layers.Conv2d: ("ops.conv2d", "ops.conv2d_backward"),
    layers.Linear: ("ops.fully_connected", "ops.fully_connected_backward"),
    layers.BatchNorm: ("ops.batch_norm", "ops.batch_norm_backward"),
    layers.ReLU: ("ops.relu", "ops.relu_backward"),
    layers.AvgPool2d: ("ops.avg_pool2d", "ops.avg_pool2d_backward"),
    layers.MaxPool2d: ("ops.max_pool2d", "ops.max_pool2d_backward"),
    layers.GlobalAvgPool: ("ops.global_avg_pool", "ops.global_avg_pool_backward"),
    layers.Dropout: ("ops.dropout", "ops.dropout_backward"),
}

# forward kernels whose layers carry MACs in the cost report
MAC_KERNELS = ("ops.conv2d", "ops.fully_connected")

# spans whose self time is glue between layers rather than layer work
GLUE_SPANS = ("network.forward", "network.backward")


def named_modules(module, prefix=""):
    """(dotted path, module) for every module below ``module``.

    Paths follow the parameter and checkpoint keys: attribute names joined by
    dots, list members suffixed with their index (``stage1.block0``).
    """
    for attr, obj in vars(module).items():
        items = [(attr, obj)]
        if isinstance(obj, (list, tuple)):
            items = [(f"{attr}{i}", item) for i, item in enumerate(obj)]
        for name, child in items:
            if isinstance(child, Module):
                path = f"{prefix}{name}"
                yield path, child
                yield from named_modules(child, path + ".")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer(Patches):
    """Records spans around wrapped callables."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.paths: list[str] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.step = 0

    def open(self, name, path=""):
        i = len(self.names)
        self.names.append(name)
        self.paths.append(path)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def next_step(self):
        self.step += 1

    def wrap(self, owner, attr, name, path="", after=None):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                i = tracer.open(name, path)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(i)
                    if after is not None:
                        after()
            return traced

        self.replace(owner, attr, make)

    def wrap_network(self, net):
        """Wrap the network, every split-attention unit and every leaf layer."""
        self.wrap(net, "forward", "network.forward")
        self.wrap(net, "backward", "network.backward")
        for path, module in named_modules(net):
            if isinstance(module, splat.SplitAttentionUnit):
                self.wrap(module, "forward", "splat.attention", path)
                self.wrap(module, "backward", "splat.attention", path)
                continue
            if next(named_modules(module), None) is not None:
                continue  # containers: their glue counts towards the parent
            fwd, bwd = LEAF_SPANS.get(
                type(module),
                (f"layers.{type(module).__name__}",
                 f"layers.{type(module).__name__}_backward"),
            )
            self.wrap(module, "forward", fwd, path)
            self.wrap(module, "backward", bwd, path)


class SpanFrame:
    """Recorded spans as arrays, with self times."""

    def __init__(self, tracer: Tracer):
        self.names = np.array(tracer.names, dtype=object)
        self.paths = np.array(tracer.paths, dtype=object)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.steps = np.array(tracer.steps, dtype=np.int64)
        self.starts = np.array(tracer.starts)
        self.duration = np.array(tracer.ends) - self.starts
        covered = np.zeros(len(self.names))
        has_parent = self.parents >= 0
        np.add.at(covered, self.parents[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def mask(self, name):
        return self.names == name

    def total_self(self, name) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def total_duration(self, name) -> float:
        return float(self.duration[self.mask(name)].sum())

    def count(self, name) -> int:
        return int(self.mask(name).sum())

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tpath\tparent\tstep\tstart_s\tend_s\tself_s\n")
            t0 = self.starts.min() if len(self.starts) else 0.0
            for i in range(len(self.names)):
                fh.write(
                    f"{i}\t{self.names[i]}\t{self.paths[i]}\t{self.parents[i]}\t"
                    f"{self.steps[i]}\t{self.starts[i] - t0:.9f}\t"
                    f"{self.starts[i] + self.duration[i] - t0:.9f}\t"
                    f"{self.self_time[i]:.9f}\n"
                )


def glue_time(frame: SpanFrame) -> float:
    """Self time of the network's forward and backward spans.

    This is the work between layers that no layer accounts for: residual
    adds, gradient sums and the loops over stages and blocks.
    """
    return sum(frame.total_self(name) for name in GLUE_SPANS)


def coverage(frame: SpanFrame, root: str) -> float:
    """Share of the root spans' time that layer spans' self time accounts for.

    The self time of the root and of the network glue spans is unattributed.
    """
    layer = ~np.isin(frame.names, (root,) + GLUE_SPANS)
    return float(frame.self_time[layer].sum()) / frame.total_duration(root)


def layer_rows(frame: SpanFrame, macs_per_image: dict[str, int], batch: int,
               steps: int, step_s: float) -> list[dict]:
    """One row per leaf-layer path: per-step forward/backward time and rate.

    MACs are the cost model's per-image count times the batch, doubled for
    the backward pass; ``share`` is the row's time over the step time.
    """
    rows: dict[str, dict] = {}
    leaf = (frame.paths != "") & (frame.names != "splat.attention")
    for i in np.flatnonzero(leaf):
        name, path = frame.names[i], frame.paths[i]
        row = rows.setdefault(path, {"path": path, "kernel": name,
                                     "fwd_s": 0.0, "bwd_s": 0.0})
        key = "bwd_s" if name.endswith("_backward") else "fwd_s"
        row[key] += frame.self_time[i]
    out = []
    for row in rows.values():
        macs = macs_per_image.get(row["path"], 0) * batch
        fwd_ms = 1e3 * row["fwd_s"] / steps
        bwd_ms = 1e3 * row["bwd_s"] / steps
        out.append({
            "path": row["path"],
            "kernel": row["kernel"],
            "fwd_ms": fwd_ms,
            "bwd_ms": bwd_ms,
            "macs": macs,
            "fwd_gmac_per_s": macs / (fwd_ms * 1e6) if macs and fwd_ms else None,
            "bwd_gmac_per_s": 2 * macs / (bwd_ms * 1e6) if macs and bwd_ms else None,
            "share": (fwd_ms + bwd_ms) / (1e3 * step_s),
        })
    return out


def check_path_join(frame: SpanFrame, macs_per_image: dict[str, int]) -> list[str]:
    """Problems joining timed conv/FC spans with the cost report's MAC rows."""
    timed = set(frame.paths[np.isin(frame.names, MAC_KERNELS)])
    costed = {path for path, macs in macs_per_image.items() if macs > 0}
    problems = [f"cost row without a timed span: {p}" for p in sorted(costed - timed)]
    problems += [f"timed span without a cost row: {p}" for p in sorted(timed - costed)]
    return problems


def write_layer_rows(rows: list[dict], path: Path) -> None:
    cols = ["path", "kernel", "fwd_ms", "bwd_ms", "macs",
            "fwd_gmac_per_s", "bwd_gmac_per_s", "share"]
    lines = ["\t".join(cols)]
    for row in rows:
        lines.append("\t".join(
            "" if row[c] is None else (f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]))
            for c in cols
        ))
    path.write_text("\n".join(lines) + "\n")

