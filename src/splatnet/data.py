"""Seed-reproducible synthetic image data for desk-scale training runs.

Two visually distinct texture classes on 32x32 single-channel images:

* class 0: oriented bars (diagonal stripes with random spacing, phase and
  polarity),
* class 1: checkerboards (random cell size, phase and polarity),

both corrupted by Gaussian pixel noise. The generator is a pure function of
its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ConfigurationError, make_rng


@dataclass
class ToyDataset:
    images: np.ndarray  # [M, 1, size, size]
    labels: np.ndarray  # [M] int64


def _bars(size: int, spacing: int, phase: int, sign: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return sign * np.where(((yy + xx + phase) // spacing) % 2 == 0, 1.0, -1.0)


def _checkerboard(size: int, cell: int, phase: int, sign: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return sign * np.where(
        (((yy + phase) // cell) + ((xx + phase) // cell)) % 2 == 0, 1.0, -1.0
    )


def make_toy_dataset(n: int, size: int = 32, noise: float = 0.6,
                     seed: int = 0, dtype=np.float64) -> ToyDataset:
    """Balanced two-class set of n images; deterministic in (n, size, noise, seed)."""
    if n < 1 or size < 1:
        raise ConfigurationError(f"toy dataset needs samples and image size >= 1, got {n}, {size}")
    rng = make_rng(seed)
    images = np.empty((n, 1, size, size), dtype=dtype)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % 2
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if label == 0:
            pattern = _bars(size, int(rng.integers(3, 6)), int(rng.integers(0, 8)), sign)
        else:
            pattern = _checkerboard(size, int(rng.integers(2, 4)), int(rng.integers(0, 6)), sign)
        images[i, 0] = pattern + noise * rng.standard_normal((size, size))
        labels[i] = label
    # fixed shuffle so classes interleave irregularly but reproducibly
    order = rng.permutation(n)
    return ToyDataset(images[order], labels[order])
