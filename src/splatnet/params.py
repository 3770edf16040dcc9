"""Parameters, module tree, RNG, and weight initialization.

Every trainable array in the library is a :class:`Parameter`: a value tensor
and the gradient its layer's last backward wrote (``None`` until then). A
parameter is named by its dotted path in the module tree
(:meth:`Module.named_parameters`); checkpoints, the SGD velocities and
reports all use that path.

Parameter values and a module's extra state (the batch-norm running buffers)
are read-only arrays. :meth:`Module.writing` is the one door for writes to
them, and only these writers go through it: the build, ``load_state_dict``,
the SGD update (:func:`splatnet.training.sgd_step`) and a train-mode batch
norm's running update. Leaving the door bumps ``Module.version`` of every
module it opened, so a module can key what it derives from its tensors on
its version: :class:`splatnet.layers.BatchNorm` keeps its eval constants per
(version, input shape).

All randomness flows through explicit ``numpy.random.Generator`` objects
seeded from a 64-bit integer via PCG64, so identical seeds give identical
streams on every platform.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid shapes, divisibility violations, or bad settings."""


# beyond a 47-bit address space: no host maps an array this large
MAX_ARRAY_BYTES = 1 << 47


def check_allocatable(what: str, shape, dtype=np.float64) -> None:
    """Reject an array of more than ``MAX_ARRAY_BYTES`` before it is made. A
    zero extent counts as 1, as numpy counts it, so an empty batch is priced
    per image."""
    nbytes = np.dtype(dtype).itemsize * prod(max(d, 1) for d in shape)
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(f"cannot allocate {what}: shape {tuple(shape)} of "
                                 f"{np.dtype(dtype)} needs {nbytes} bytes")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent substream derived from (seed, stream ids), reproducibly."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


class Parameter:
    """A tensor and the gradient of its layer's last backward.

    ``grad`` is None until a backward writes it; each backward replaces it,
    so nothing needs clearing between steps. ``value`` is made read-only
    here; its owning module's :meth:`Module.writing` lets writers change it.
    """

    def __init__(self, value: np.ndarray):
        value.flags.writeable = False
        self.value = value
        self.grad: np.ndarray | None = None

    def set_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape or g.dtype != self.value.dtype:
            raise ConfigurationError(f"gradient {g.shape} {g.dtype} does not match "
                                     f"parameter {self.value.shape} {self.value.dtype}")
        self.grad = g


class Module:
    """Minimal container: tracks Parameters and child Modules by attribute.
    It keeps no per-call state; a forward hands what its backward reads to
    the caller (:mod:`splatnet.layers`).

    Children are discovered by scanning instance attributes (including lists
    of modules), which is enough for the fixed, small topologies built here.
    The dotted attribute paths they give are the stable names of modules,
    parameters and persistent tensors.
    """

    version = 0  # bumped on leaving each writing() block that opened this module

    def _children(self):
        for attr, obj in vars(self).items():
            if isinstance(obj, Module):
                yield attr, obj
            elif isinstance(obj, (list, tuple)):
                for i, item in enumerate(obj):
                    if isinstance(item, Module):
                        yield f"{attr}{i}", item

    def named_modules(self, prefix: str = ""):
        """(dotted path, module) for every module below this one, depth first."""
        for name, child in self._children():
            yield f"{prefix}{name}", child
            yield from child.named_modules(f"{prefix}{name}.")

    def named_parameters(self, prefix: str = ""):
        for attr, obj in vars(self).items():
            if isinstance(obj, Parameter):
                yield (f"{prefix}{attr}", obj)
        for name, child in self._children():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-trainable arrays to persist (e.g. normalization running stats)."""
        return {}

    def own_state(self):
        """(name, array) for this module's own parameter values and extra state."""
        for attr, obj in vars(self).items():
            if isinstance(obj, Parameter):
                yield attr, obj.value
        yield from self.extra_state().items()

    def named_state(self, prefix: str = ""):
        """All persistent tensors: parameters plus extra state, path-named."""
        for key, arr in self.own_state():
            yield (f"{prefix}{key}", arr)
        for name, child in self._children():
            yield from child.named_state(f"{prefix}{name}.")

    @contextmanager
    def writing(self):
        """The one door for writes to persistent tensors: inside the block the
        parameter values and extra state of this module and every module below
        it are writeable; on leaving, they are read-only again and each of
        those modules' ``version`` moves on. Blocks do not nest."""
        modules = [self, *(m for _, m in self.named_modules())]
        arrays = [arr for m in modules for _, arr in m.own_state()]
        for arr in arrays:
            arr.flags.writeable = True
        try:
            yield
        finally:
            for arr in arrays:
                arr.flags.writeable = False
            for m in modules:
                m.version += 1

    def state_dict(self) -> dict[str, np.ndarray]:
        return dict(self.named_state())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_state())
        missing = [k for k in own if k not in state]
        extra = [k for k in state if k not in own]
        if missing or extra:
            raise ConfigurationError(
                f"state mismatch: missing={missing[:4]} unexpected={extra[:4]}"
            )
        for key, arr in own.items():
            src = state[key]
            if src.shape != arr.shape:
                raise ConfigurationError(
                    f"state tensor {key}: shape {src.shape} != expected {arr.shape}"
                )
        with self.writing():
            for key, arr in own.items():
                arr[...] = state[key]


# values per float64 draw buffer of ``normal_fill``: 128 KiB
DRAW_CHUNK = 1 << 14


def normal_fill(rng: np.random.Generator, out: np.ndarray, std: float) -> np.ndarray:
    """Fill the C-contiguous ``out`` with N(0, std²) draws, in row-major order.

    The values are those of ``(rng.standard_normal(out.shape) *
    std).astype(out.dtype)``, and so is the generator's state afterwards.
    Every dtype gets them ``DRAW_CHUNK`` at a time from one reused float64
    buffer, scaled and cast chunk by chunk, so no float64 copy of the whole
    tensor is made. Returns ``out``.
    """
    flat = out.reshape(-1)
    buf = np.empty(min(DRAW_CHUNK, flat.size))
    for start in range(0, flat.size, DRAW_CHUNK):
        part = buf[: flat.size - start]
        rng.standard_normal(out=part)
        part *= std
        flat[start : start + part.size] = part
    return out


def kaiming_normal(
    rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int, dtype=np.float64
) -> np.ndarray:
    """Fan-in scaled normal init, std = sqrt(2 / fan_in), drawn straight into
    an array of ``dtype`` by ``normal_fill``; zeros, drawing nothing, for a
    weightless build (no ``rng``)."""
    if fan_in <= 0:
        raise ConfigurationError(f"fan_in must be positive, got {fan_in}")
    check_allocatable("a weight", shape, dtype)
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return normal_fill(rng, np.empty(shape, dtype=dtype), np.sqrt(2.0 / fan_in))
