"""Finite-difference verification of analytic gradients.

Works on any scalar-valued computation expressed as a zero-argument callable
that (re)runs the forward/backward pass against the current contents of a set
of named arrays. Central differences in float64, per-parameter worst-case
relative error, with the symmetric normalization

    rel_err = |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager

import numpy as np


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float
    h: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if e.max_rel_err > self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{'FAIL' if e in self.failures else 'ok  '} {e.name}: "
            f"max rel err {e.max_rel_err:.3e} at {e.worst_index} "
            f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e})"
            for e in self.entries
        ]
        return "\n".join(lines)


def rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(
    loss_and_grads: Callable[[], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-6,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
    writing: Callable[[], ContextManager] = nullcontext,
) -> GradCheckReport:
    """Compare analytic gradients with central differences.

    ``loss_and_grads`` must recompute everything from the live ``params``
    arrays (which are perturbed in place and restored, each write inside a
    ``writing()`` block: pass the owning module's ``Module.writing`` when
    ``params`` holds parameter values). When a parameter is large,
    ``max_entries_per_param`` limits the check to a random subset of
    elements (requires ``rng``).
    """
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise TypeError(f"grad_check requires float64 parameters, {name} is {arr.dtype}")

    _, grads = loss_and_grads()
    entries = []
    for name, arr in params.items():
        g = grads[name]
        indices = np.arange(arr.size)
        if max_entries_per_param is not None and arr.size > max_entries_per_param:
            if rng is None:
                raise ValueError("subsampled grad_check needs an rng")
            indices = rng.choice(arr.size, size=max_entries_per_param, replace=False)
        worst = GradCheckEntry(name, -1.0, (), 0.0, 0.0)
        for i in indices:
            # index the array itself: a reshape of a non-contiguous one is a copy
            idx = tuple(int(j) for j in np.unravel_index(int(i), arr.shape))
            orig = arr[idx]
            with writing():
                arr[idx] = orig + h
            lp = loss_and_grads()[0]
            with writing():
                arr[idx] = orig - h
            lm = loss_and_grads()[0]
            with writing():
                arr[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = g[idx]
            e = rel_err(analytic, numeric)
            if e > worst.max_rel_err:
                worst = GradCheckEntry(name, e, idx, float(analytic), float(numeric))
        entries.append(worst)
    return GradCheckReport(entries, tolerance, h)
