"""Transport distances in the regimes where closed forms exist.

Covers the three building blocks everything else reduces to:

* order-p distance between two equal-size empirical samples on the line,
  computed by sorting (the optimal coupling pairs order statistics),
* squared 2-distance between univariate or isotropic Gaussians,
* the exact sliced squared 2-distance between isotropic Gaussians,
  ``(1/d) * ||mean gap||^2 + (sigma gap)^2``.

All functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, InvalidOrder, InvalidSample, LengthMismatch


def _finite_1d(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if arr.size < 1:
        raise InvalidSample("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise InvalidSample("samples must be finite (no NaN or inf)")
    return arr


@dataclass
class Samples1d:
    """A batch of real samples with uniform weights."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _finite_1d(self.values)

    def __len__(self) -> int:
        return self.values.size


def wasserstein_1d_pp(x: Samples1d, y: Samples1d, p: float = 2.0) -> float:
    """Order-p transport cost (to the p-th power) between two 1D samples.

    Both sample sets must have the same size n; the optimal coupling of two
    uniform empirical measures on the line matches order statistics, so the
    cost is ``mean(|x_(i) - y_(i)|^p)``. Accumulation uses numpy's pairwise
    summation, keeping rounding error negligible even at n = 10^4 and above.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"sample sizes differ: {len(x)} vs {len(y)}")
    p = float(p)
    if p < 1.0:
        raise InvalidOrder(f"order p must be >= 1, got {p}")
    diff = np.abs(np.sort(x.values) - np.sort(y.values))
    if p == 2.0:
        diff *= diff
    elif p != 1.0:
        diff **= p
    return float(np.mean(diff))


@dataclass(frozen=True)
class Gaussian1d:
    """Univariate Gaussian, parameterized by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InvalidSample("Gaussian parameters must be finite")
        if self.variance < 0.0:
            raise InvalidSample(f"variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class IsoGaussian:
    """Isotropic Gaussian on R^d: N(mean, sigma^2 * I_d), sigma a scalar std."""

    dim: int
    mean: np.ndarray = field(repr=False)
    sigma: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidSample(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "mean", _finite_1d(self.mean))
        if self.mean.size != self.dim:
            raise DimMismatch(f"mean has length {self.mean.size}, expected {self.dim}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise InvalidSample(f"sigma must be finite and >= 0, got {self.sigma}")


def w2_gaussian_1d(a: Gaussian1d, b: Gaussian1d) -> float:
    """Squared 2-distance between univariate Gaussians:
    ``(mean gap)^2 + (std gap)^2``."""
    return (a.mean - b.mean) ** 2 + (math.sqrt(a.variance) - math.sqrt(b.variance)) ** 2


def w2_gaussian_iso(a: IsoGaussian, b: IsoGaussian) -> float:
    """Squared 2-distance between isotropic Gaussians on R^d:
    ``||mean gap||^2 + d * (sigma gap)^2``."""
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    delta = a.mean - b.mean
    return float(delta @ delta) + a.dim * (a.sigma - b.sigma) ** 2


def sw2_gaussian_iso_closed(a: IsoGaussian, b: IsoGaussian) -> float:
    """Exact sliced squared 2-distance between isotropic Gaussians:
    ``(1/d) * ||mean gap||^2 + (sigma gap)^2``.

    Averaging the squared mean separation over uniform directions contributes
    the 1/d factor; the scale mismatch term is direction-independent.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    delta = a.mean - b.mean
    return float(delta @ delta) / a.dim + (a.sigma - b.sigma) ** 2
