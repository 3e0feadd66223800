"""Association and divergence statistics used throughout the pipeline.

Three small tools: Pearson chi-square on 2x2 contingency tables (with
positive-association gating), a truncated Gaussian kernel for positional
profiles, and base-2 Jensen-Shannon divergence between distributions on a
shared support (the definition that cluster's JSD over presence columns
matches bit for bit).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Kernel support is cut at this many standard deviations on each side.
TRUNCATION_SIGMAS = 4.0


class ContingencyTable(NamedTuple):
    """Counts for a 2x2 association test between a condition and an item.

    a: condition holds, item present    b: condition holds, item absent
    c: condition fails, item present    d: condition fails, item absent
    """

    a: float
    b: float
    c: float
    d: float

    @property
    def n(self) -> float:
        return self.a + self.b + self.c + self.d


def chi2(table: ContingencyTable, positive_only: bool = True) -> float:
    """Pearson chi-square statistic of a 2x2 table.

    Any zero margin yields 0.0 rather than a division error. With
    positive_only (the default) a negatively associated table (ad < bc)
    also yields 0.0, so rankings never surface anti-correlated items.
    Raises ValueError if the table is empty or has negative counts.
    """
    a, b, c, d = table
    if min(a, b, c, d) < 0:
        raise ValueError("contingency counts must be non-negative")
    n = a + b + c + d
    if n <= 0:
        raise ValueError("chi2 requires a non-empty table")
    cross = a * d - b * c
    if positive_only and cross < 0:
        return 0.0
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * cross * cross / denom


def gaussian_density(x: float, sigma: float) -> float:
    """Gaussian density at offset x, truncated to zero beyond 4 sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if abs(x) > TRUNCATION_SIGMAS * sigma:
        return 0.0
    coeff = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return coeff * math.exp(-(x * x) / (2.0 * sigma * sigma))


def gaussian_kernel(sigma: float) -> tuple[int, np.ndarray]:
    """Kernel sampled at integer offsets -radius..radius.

    Returns (radius, values) where radius = floor(4 * sigma) and values has
    length 2 * radius + 1. values[radius + x] == gaussian_density(x, sigma).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(TRUNCATION_SIGMAS * sigma)
    xs = np.arange(-radius, radius + 1, dtype=float)
    coeff = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return radius, coeff * np.exp(-(xs * xs) / (2.0 * sigma * sigma))


def jsd(p: np.ndarray | list[float], q: np.ndarray | list[float]) -> float:
    """Jensen-Shannon divergence with base-2 logs; ranges over [0, 1].

    p and q must be probability vectors over the same support (same length,
    same index meaning). Zero entries contribute nothing on their own side.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError("distributions must share a support")
    if pa.ndim != 1:
        raise ValueError("distributions must be one-dimensional")
    s = pa + qa
    return 0.5 * _kl2(pa, s) + 0.5 * _kl2(qa, s)


def _kl2(p: np.ndarray, s: np.ndarray) -> float:
    """KL(p || m) for the midpoint m = s / 2, taken as p * log2(2p / s).

    Halving s first would underflow a subnormal entry to zero and make the
    ratio infinite; s >= p > 0 wherever the mask holds, so 2p / s is safe.
    """
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(2.0 * p[mask] / s[mask])))
