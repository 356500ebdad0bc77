"""Synthetic input generators.

The paper's trend-based predictor exploits *spatio-value similarity*:
neighbouring outputs tend to lie on local trends.  These generators
produce data in that regime with controllable roughness:

* :func:`smooth_series` — sinusoid mixtures plus relative noise (signals,
  images, weights);
* :func:`clustered_values` — draws around a few popular centers
  (blackscholes option parameters: poor trends, memoization-friendly).
"""
from __future__ import annotations

import math
import random
from typing import List, Sequence


def smooth_series(
    rng: random.Random,
    n: int,
    base: float = 1.0,
    amplitude: float = 1.0,
    noise_rel: float = 0.05,
    period: float = 40.0,
) -> List[float]:
    """Sum of two incommensurate sinusoids with relative jitter."""
    phase1 = rng.uniform(0, 2 * math.pi)
    phase2 = rng.uniform(0, 2 * math.pi)
    out = []
    for k in range(n):
        v = base + amplitude * (
            math.sin(2 * math.pi * k / period + phase1)
            + 0.4 * math.sin(2 * math.pi * k / (period * 0.37) + phase2)
        )
        v *= 1.0 + rng.uniform(-noise_rel, noise_rel)
        out.append(v)
    return out


def clustered_values(
    rng: random.Random,
    n: int,
    centers: Sequence[float],
    jitter_rel: float = 0.02,
) -> List[float]:
    """Independent draws around a few popular centers (no spatial trend)."""
    out = []
    for _ in range(n):
        c = centers[rng.randrange(len(centers))]
        out.append(c * (1.0 + rng.uniform(-jitter_rel, jitter_rel)))
    return out


def smooth_grid(
    rng: random.Random,
    height: int,
    width: int,
    base: float = 1.0,
    amplitude: float = 1.0,
    noise_rel: float = 0.05,
    period: float = 12.0,
) -> List[float]:
    """Row-major 2-D field, smooth along both axes."""
    phase_y = rng.uniform(0, 2 * math.pi)
    phase_x = rng.uniform(0, 2 * math.pi)
    out = []
    for y in range(height):
        for x in range(width):
            v = base + amplitude * (
                math.sin(2 * math.pi * y / period + phase_y)
                * math.cos(2 * math.pi * x / period + phase_x)
            )
            v *= 1.0 + rng.uniform(-noise_rel, noise_rel)
            out.append(v)
    return out


def diagonally_dominant_matrix(
    rng: random.Random,
    n: int,
    noise_rel: float = 0.1,
) -> List[float]:
    """Row-major n x n matrix safe for LU decomposition without pivoting."""
    cells = smooth_grid(rng, n, n, base=1.0, amplitude=0.8, noise_rel=noise_rel,
                        period=2.2 * n)
    for i in range(n):
        row_sum = sum(abs(cells[i * n + j]) for j in range(n) if j != i)
        cells[i * n + i] = row_sum + 1.0 + rng.uniform(0.0, 0.5)
    return cells


def rough_series(
    rng: random.Random,
    n: int,
    base: float = 1.0,
    amplitude: float = 1.0,
) -> List[float]:
    """A hostile input for trend prediction: independent draws with sign
    flips, no spatial correlation at all.  Used by the robustness study to
    drive run-time management into its conventional-protection fallback."""
    out = []
    for _ in range(n):
        v = base + amplitude * rng.uniform(-1.0, 1.0)
        if rng.random() < 0.5:
            v = -v
        out.append(v)
    return out
