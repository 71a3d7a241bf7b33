"""Transport distances in the regimes where closed forms exist.

Covers the two building blocks everything else reduces to:

* order-p distance between two equal-size empirical samples on the line,
  computed by sorting (the optimal coupling pairs order statistics), for one
  pair of samples or for a batch of rows at once (the kernel behind every
  Monte Carlo projection),
* the exact sliced squared 2-distance between isotropic Gaussians,
  ``(1/d) * ||mean gap||^2 + (sigma gap)^2``.

All functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, InvalidOrder, InvalidSample, LengthMismatch


# Elements per block of check_finite: its bool temporary is 64 KiB whatever
# the array's size.
_FINITE_BLOCK = 1 << 16


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise InvalidSample unless every element of the C-contiguous ``arr``
    is finite. Blocks of _FINITE_BLOCK elements are checked in turn, so no
    temporary grows with the array."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _FINITE_BLOCK):
        if not np.isfinite(flat[lo : lo + _FINITE_BLOCK]).all():
            raise InvalidSample(f"{what} must be finite (no NaN or inf)")


def _finite_1d(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if arr.size < 1:
        raise InvalidSample("need at least one sample")
    check_finite(arr, "samples")
    return arr


@dataclass
class Samples1d:
    """A batch of real samples with uniform weights."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _finite_1d(self.values)

    def __len__(self) -> int:
        return self.values.size


def check_order(p) -> float:
    """The transport order as a float; raises InvalidOrder unless 1 <= p < inf
    (NaN included)."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise InvalidOrder(f"order p must be finite and >= 1, got {p}")
    return p


def sorted_gap_costs(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Order-p transport cost (to the p-th power) between matching rows of
    two (k, n) arrays: ``mean(|x_(i) - y_(i)|^p)`` per row.

    The optimal coupling of two uniform empirical measures on the line
    matches order statistics. Both arrays are sorted row by row in place and
    ``x`` is overwritten by the gaps; ``p`` must already be checked. Each
    row is reduced by numpy's pairwise summation, keeping rounding error
    negligible even at n = 10^4 and above. Raises InvalidOrder when a row's
    cost overflows float64, as a large p does on gaps above 1.
    """
    x.sort(axis=1)
    y.sort(axis=1)
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite cost
        x -= y
        if p == 2.0:  # squaring needs no abs: it gives the same bits
            x *= x
        else:
            np.abs(x, out=x)
            if p != 1.0:
                x **= p
        costs = x.mean(axis=1)
    if not np.all(np.isfinite(costs)):
        raise InvalidOrder(f"order p={p} overflows float64 in the p-th power of the gaps")
    return costs


def wasserstein_1d_pp(x: Samples1d, y: Samples1d, p: float = 2.0) -> float:
    """Order-p transport cost (to the p-th power) between two 1D samples of
    the same size: :func:`sorted_gap_costs` of one-row copies."""
    if len(x) != len(y):
        raise LengthMismatch(f"sample sizes differ: {len(x)} vs {len(y)}")
    p = check_order(p)
    return float(sorted_gap_costs(np.array(x.values, ndmin=2), np.array(y.values, ndmin=2), p)[0])


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


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def sw2_gaussian_iso_closed(a: IsoGaussian, b: IsoGaussian) -> float:
    """Exact sliced squared 2-distance between isotropic Gaussians:
    ``(1/d) * ||mean gap||^2 + (sigma gap)^2``.

    Averaging the squared mean separation over uniform directions contributes
    the 1/d factor; the scale mismatch term is direction-independent.
    """
    _check_dims(a, b)
    delta = a.mean - b.mean
    return float(delta @ delta) / a.dim + (a.sigma - b.sigma) ** 2
