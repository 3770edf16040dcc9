"""The benchmark workloads.

Each workload is a closed loop with one caller: the next unit of work (a
train step, an eval forward, an inference request) starts only when the
previous one has returned. A workload builds everything from its seed,
then offers three calls:

* ``setup()`` builds the network and inputs and warms up, returning the
  time of each phase;
* ``measure(seconds, tracer=None)`` runs work for ``seconds`` and returns a
  :class:`Segment` with the time of every unit and per-unit output checks;
* ``check(segment)`` runs the whole-run output checks (determinism against a
  rebuilt copy, agreement with a reference) and records failures.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from splatnet import analysis, training
from splatnet.configio import network_config, parse_settings, read_config_file, train_settings
from splatnet.data import make_toy_dataset
from splatnet.network import Network, NetworkConfig, build_network
from splatnet.params import make_rng, spawn_rng

from .spans import Patches, Tracer

TOY_CONFIG = Path("configs") / "toy.cfg"
# toy image side and class noise, the ``splatnet train`` defaults
TOY_IMAGE_SIZE = 32
TOY_NOISE = 0.6

# largest relative deviation allowed between the float32 ResNeSt-50 logits
# and a float64 forward of the same weights; about 0.3e-6 is typical, and
# float32 rounding (eps 1.2e-7) over ~50 chained layers stays well below this
F64_RTOL = 1e-5


@dataclass
class Segment:
    """One stretch of timed closed-loop work."""

    step_s: list[float] = field(default_factory=list)
    items: int = 0  # samples (train) or images (eval, inference) processed
    wall_s: float = 0.0  # time spent inside the program's calls
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(problem)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _toy_settings(root: Path, seed: int):
    """Network and training settings of the toy config, seeded by ``seed``."""
    settings = parse_settings(read_config_file(root / TOY_CONFIG), allow_training=True)
    settings["seed"] = seed
    return network_config(settings), train_settings(settings)


class _TimeUp(Exception):
    """Raised from the epoch callback to end a timed training run."""


class ToyTrain:
    """``train_toy`` on the toy config, built as ``splatnet train`` builds it."""

    name = "toy_train"
    root_span = "training.train_toy"
    tail_pct = 75.0
    dtype = np.float64

    def __init__(self, root: Path, seed: int, out_dir: Path, samples: int = 512):
        self.cfg, self.ts = _toy_settings(root, seed)
        self.seed = seed
        self.samples = samples
        self.batch = self.ts.batch
        self.input_hw = (TOY_IMAGE_SIZE, TOY_IMAGE_SIZE)
        self.out_dir = out_dir
        self.net = None
        self.rows: list[str] = []  # TSV rows of the first timed run
        self.epoch0: tuple[str, str] | None = None  # its epoch 0 row and checkpoint digest

    def _build(self) -> Network:
        return build_network(self.cfg, spawn_rng(self.seed, 0), dtype=self.dtype)

    def setup(self) -> dict[str, float]:
        self.net = None
        t0 = time.perf_counter()
        self.net = self._build()
        t1 = time.perf_counter()
        self.dataset = make_toy_dataset(self.samples, size=TOY_IMAGE_SIZE,
                                        noise=TOY_NOISE, seed=self.seed,
                                        dtype=self.dtype)
        t2 = time.perf_counter()
        ts = self.ts
        self.steps_per_epoch = self.samples // ts.batch
        self.sched = training.ScheduleConfig(
            batch_size=ts.batch, total_epochs=ts.epochs,
            steps_per_epoch=self.steps_per_epoch, base_lr=ts.base_lr,
            warmup_epochs=ts.warmup_epochs)
        self.loss_cfg = training.LossConfig(num_classes=self.cfg.num_classes,
                                            smoothing=ts.smoothing)
        self.mix = training.MixupConfig(
            alpha=ts.mixup_alpha if ts.mixup_alpha > 0 else 0.2,
            enabled=ts.mixup_alpha > 0)
        self.opt = training.OptimizerConfig(momentum=ts.momentum,
                                            weight_decay=ts.weight_decay)
        # an eval forward leaves no state behind, so training still starts
        # from the freshly built weights
        self.net.forward(self.dataset.images[: self.batch], mode="eval")
        t3 = time.perf_counter()
        return {"network.build_s": t1 - t0, "data.make_toy_dataset_s": t2 - t1,
                "warmup_s": t3 - t2}

    def _train(self, net, checkpoint, log_fn, end_epoch=None):
        training.train_toy(net, self.dataset, self.sched, self.loss_cfg, self.mix,
                           self.opt, seed=self.ts.seed, checkpoint_path=checkpoint,
                           log_fn=log_fn, end_epoch=end_epoch)

    def _wrap_training(self, tracer: Tracer) -> None:
        tracer.wrap(training, "sgd_step", "training.sgd_step", after=tracer.next_step)
        tracer.wrap(training, "cross_entropy_soft", "training.loss")
        for fn in ("one_hot", "smooth_targets", "mixup_batch"):
            tracer.wrap(training, fn, "training.targets")
        tracer.wrap(training, "save_checkpoint", "checkpoint.save")

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Segment:
        """Train freshly built networks, whole epochs at a time, for ``seconds``.

        Step times run from one optimizer step's end to the next, so the
        first step of an epoch carries the previous epoch's checkpoint write.
        """
        seg = Segment()
        ticks: list[float] = []
        patches = tracer if tracer is not None else Patches()
        patches.replace(training, "sgd_step", lambda sgd: _after(sgd, ticks))
        if tracer is not None:
            self._wrap_training(tracer)
        checkpoint = self.out_dir / f"{self.name}.ckpt"
        try:
            while seg.wall_s < seconds:
                net = self.net = self._build()
                if tracer is not None:
                    tracer.wrap_network(net)
                rows: list[str] = []
                epoch0 = []
                start = time.perf_counter()
                first_tick = len(ticks)

                def on_epoch(row):
                    rows.append(row)
                    if not epoch0:
                        epoch0.append((row, _file_digest(checkpoint)))
                    if seg.wall_s + time.perf_counter() - start >= seconds:
                        raise _TimeUp

                span = tracer.open(self.root_span) if tracer is not None else None
                try:
                    self._train(net, checkpoint, on_epoch)
                except _TimeUp:
                    pass
                except Exception as exc:  # report the failed step, keep the run
                    seg.fail(1, f"train_toy raised {type(exc).__name__}: {exc}")
                    seg.attempted += 1
                    break
                finally:
                    if span is not None:
                        tracer.close(span)
                    seg.wall_s += time.perf_counter() - start
                    done = ticks[first_tick:]
                    seg.step_s += list(np.diff([start] + done))
                    seg.attempted += len(done)
                    seg.items += len(done) * self.batch
                for row in rows:
                    if not np.isfinite(float(row.split("\t")[1])):
                        seg.fail(self.steps_per_epoch, f"non-finite loss row: {row}")
                # every run starts from the same seeded build, so its first
                # epoch must log the same row and checkpoint, traced or not
                if self.epoch0 is None:
                    self.rows, self.epoch0 = rows, epoch0[0]
                elif epoch0 and epoch0[0] != self.epoch0:
                    seg.fail(self.steps_per_epoch,
                             f"epoch 0 differs between runs: {epoch0[0][0]!r}")
        finally:
            patches.restore()
        return seg

    def check(self, seg: Segment) -> dict:
        """Epoch 0 retrained on a rebuilt network: same TSV row, same checkpoint."""
        rows: list[str] = []
        checkpoint = self.out_dir / f"{self.name}.check.ckpt"
        self._train(self._build(), checkpoint, rows.append, end_epoch=1)
        rerun = (rows[0], _file_digest(checkpoint))
        if self.epoch0 is not None and rerun != self.epoch0:
            seg.fail(self.steps_per_epoch,
                     f"epoch 0 differs on rerun: {rerun} vs {self.epoch0}")
        return {"epoch_rows": self.rows, "epoch0_checkpoint_sha256": rerun[1],
                "checkpoint_bytes": checkpoint.stat().st_size}


def _after(fn, ticks):
    """``fn`` that appends the clock reading to ``ticks`` when it returns."""
    def timed(*args, **kwargs):
        result = fn(*args, **kwargs)
        ticks.append(time.perf_counter())
        return result
    return timed


class _ForwardLoop:
    """Closed loop of eval forwards; subclasses choose the inputs."""

    root_span = "request"
    batch = 1

    def _input(self, i: int) -> tuple[int, np.ndarray]:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Segment:
        """Eval forwards for ``seconds``; each input's logits must repeat bitwise."""
        seg = Segment()
        patches = tracer if tracer is not None else Patches()
        if tracer is not None:
            tracer.wrap_network(self.net)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                key, x = self._input(seg.attempted)
                span = None
                if tracer is not None:
                    tracer.step = seg.attempted
                    span = tracer.open(self.root_span)
                t0 = time.perf_counter()
                try:
                    logits = self.net.forward(x, mode="eval")
                except Exception as exc:  # count the failed request, keep going
                    logits = None
                    seg.fail(1, f"forward raised {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
                seg.attempted += 1
                seg.step_s.append(dt)
                seg.wall_s += dt
                seg.items += self.batch
                if logits is None:
                    continue
                ref = self.reference.setdefault(key, logits)
                if logits.dtype != self.dtype or not np.array_equal(ref, logits):
                    seg.fail(1, f"logits for input {key} changed on request {seg.attempted - 1}")
        finally:
            patches.restore()
        return seg


class R50Eval(_ForwardLoop):
    """ResNeSt-50 2s1x64d eval forward, batch 1, as ``splatnet bench`` runs it."""

    name = "r50_eval"
    tail_pct = 75.0
    dtype = np.float32

    def __init__(self, root: Path, seed: int, out_dir: Path,
                 cfg: NetworkConfig | None = None, input_size: int = 224):
        # the defaults are ResNeSt-50 2s1x64d with deep stem and avg-down
        self.cfg = cfg if cfg is not None else NetworkConfig()
        self.seed = seed
        self.input_hw = (input_size, input_size)
        self.shape = (1, self.cfg.input_channels, input_size, input_size)
        self.out_dir = out_dir
        self.net = None

    def setup(self) -> dict[str, float]:
        self.net = None
        t0 = time.perf_counter()
        self.net = build_network(self.cfg, make_rng(self.seed), dtype=self.dtype)
        t1 = time.perf_counter()
        # the same input bench_forward draws; its single rep is the warm-up
        self.x = make_rng(self.seed).standard_normal(self.shape).astype(self.dtype)
        bench = analysis.bench_forward(self.net, self.shape, reps=1, warmup=0,
                                       seed=self.seed)
        t2 = time.perf_counter()
        self.bench_sha256 = bench.logits_sha256
        self.reference: dict[int, np.ndarray] = {}
        return {"network.build_s": t1 - t0, "warmup_s": t2 - t1}

    def _input(self, i):
        return 0, self.x

    def check(self, seg: Segment) -> dict:
        """Logits hash matches ``bench_forward``; float64 forward agrees."""
        logits = self.reference.get(0)
        if logits is None:
            seg.fail(0, "no forward completed")
            return {}
        digest = _digest(logits)
        if digest != self.bench_sha256:
            seg.fail(seg.attempted, f"logits sha256 {digest} != bench_forward {self.bench_sha256}")
        if not np.all(np.isfinite(logits)):
            seg.fail(seg.attempted, "non-finite logits")
        ref64 = Network(self.cfg, dtype=np.float64)
        ref64.load_state_dict(self.net.state_dict())
        logits64 = ref64.forward(self.x.astype(np.float64), mode="eval")
        rel = float(np.abs(logits - logits64).max() / np.abs(logits64).max())
        if not rel <= F64_RTOL:
            seg.fail(seg.attempted, f"float32 vs float64 relative deviation {rel:.3g} > {F64_RTOL}")
        return {"logits_sha256": digest, "bench_sha256": self.bench_sha256,
                "f64_rel_dev": rel, "f64_rtol": F64_RTOL}


class ToyInfer(_ForwardLoop):
    """Toy network eval forward, batch 1, over a pool of distinct seeded images."""

    name = "toy_infer"
    # p99 (the highest percentile with 10 samples beyond it) swings by a
    # third between runs with the host's scheduling hiccups; p90 holds steady
    tail_pct = 90.0
    dtype = np.float64

    def __init__(self, root: Path, seed: int, out_dir: Path, pool: int = 256):
        self.cfg, _ = _toy_settings(root, seed)
        self.seed = seed
        self.pool = pool
        self.input_hw = (TOY_IMAGE_SIZE, TOY_IMAGE_SIZE)
        self.out_dir = out_dir
        self.net = None

    def setup(self) -> dict[str, float]:
        self.net = None
        t0 = time.perf_counter()
        self.net = build_network(self.cfg, spawn_rng(self.seed, 0), dtype=self.dtype)
        t1 = time.perf_counter()
        self.images = make_toy_dataset(self.pool, size=TOY_IMAGE_SIZE, noise=TOY_NOISE,
                                       seed=self.seed, dtype=self.dtype).images
        t2 = time.perf_counter()
        self.net.forward(self.images[:1], mode="eval")
        t3 = time.perf_counter()
        self.reference: dict[int, np.ndarray] = {}
        return {"network.build_s": t1 - t0, "data.make_toy_dataset_s": t2 - t1,
                "warmup_s": t3 - t2}

    def _input(self, i):
        k = i % self.pool
        return k, self.images[k : k + 1]

    def check(self, seg: Segment) -> dict:
        bad = [k for k, v in self.reference.items() if not np.all(np.isfinite(v))]
        if bad:
            seg.fail(len(bad), f"non-finite logits for inputs {bad[:5]}")
        return {"distinct_inputs": len(self.reference)}


WORKLOADS = {w.name: w for w in (ToyTrain, R50Eval, ToyInfer)}
