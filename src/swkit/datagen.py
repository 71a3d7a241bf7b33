"""Seeded generators for every synthetic regime the benchmarks use.

Two families:

* independent-factor datasets: each column drawn from its own Gaussian or
  Gamma marginal, with per-dataset hyperparameters themselves drawn from a
  seeded stream so a config reproduces both the hyperparameters and the data,
* stationary AR(1) trajectories ``X_t = alpha * X_{t-1} + eps_t`` with
  Gaussian or Student-t(10) innovations, burned in before the kept window.

Everything is a pure function of (config, seed): same seed, same bytes.
Rows of AR(1) datasets are generated from fixed-size per-block streams, so
blocks could be produced in parallel without changing the output.

Projection directions come from :func:`swkit.estimators.sample_directions`,
the sampler Monte Carlo itself uses.
"""

from __future__ import annotations

import enum
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np
from scipy.signal import lfilter

from . import rng
from .errors import DatasetParseError, InvalidSample
from .estimators import EmpiricalDistribution

_ROW_BLOCK = 512  # fixed trajectory block size; part of the output contract


class FactorFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    GAMMA = "gamma"


class DatasetRole(str, enum.Enum):
    """Selects which of the two per-dataset hyperparameter recipes to use."""

    FIRST = "first"
    SECOND = "second"


class NoiseKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T10 = "student-t10"


# Per-role marginal hyperparameters: Gaussian columns get means drawn from
# N(1, 1) and a shared std; Gamma columns get shapes drawn uniformly from a
# role-specific interval and a shared scale.
_GAUSSIAN_SIGMA = {DatasetRole.FIRST: 1.0, DatasetRole.SECOND: math.sqrt(10.0)}
_GAMMA_SHAPE_RANGE = {DatasetRole.FIRST: (1.0, 5.0), DatasetRole.SECOND: (5.0, 10.0)}
_GAMMA_SCALE = {DatasetRole.FIRST: 2.0, DatasetRole.SECOND: 3.0}


@dataclass(frozen=True)
class FactorConfig:
    """Recipe for an independent-factor dataset."""

    dim: int
    n: int
    family: FactorFamily = FactorFamily.GAUSSIAN
    centered: bool = False
    role: DatasetRole = DatasetRole.FIRST
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.n < 1:
            raise InvalidSample(f"dim and n must be >= 1, got dim={self.dim}, n={self.n}")
        object.__setattr__(self, "family", FactorFamily(self.family))
        object.__setattr__(self, "role", DatasetRole(self.role))


@dataclass(frozen=True)
class Ar1Config:
    """Recipe for a dataset of independent stationary AR(1) trajectories."""

    dim: int
    n: int
    alpha: float
    noise: NoiseKind = NoiseKind.GAUSSIAN
    burn_in: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.n < 1:
            raise InvalidSample(f"dim and n must be >= 1, got dim={self.dim}, n={self.n}")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidSample(f"alpha must be in [0, 1), got {self.alpha}")
        if self.burn_in < 0:
            raise InvalidSample(f"burn_in must be >= 0, got {self.burn_in}")
        object.__setattr__(self, "noise", NoiseKind(self.noise))


@dataclass(frozen=True)
class FactorHyperparams:
    """Realized per-dataset marginal parameters.

    ``per_column`` holds the Gaussian column means or the Gamma column shapes;
    ``scale`` is the shared Gaussian std or Gamma scale.
    """

    family: FactorFamily
    per_column: np.ndarray
    scale: float


def factor_hyperparams(cfg: FactorConfig) -> FactorHyperparams:
    """Draw the per-dataset marginal parameters from the (seed, role)-keyed
    hyperparameter stream; regenerating with the same config reproduces them."""
    role_code = 0 if cfg.role is DatasetRole.FIRST else 1
    g = rng.substream(cfg.seed, "factor-hyper", role_code)
    if cfg.family is FactorFamily.GAUSSIAN:
        per_column = g.normal(loc=1.0, scale=1.0, size=cfg.dim)
        scale = _GAUSSIAN_SIGMA[cfg.role]
    else:
        lo, hi = _GAMMA_SHAPE_RANGE[cfg.role]
        per_column = g.uniform(lo, hi, size=cfg.dim)
        scale = _GAMMA_SCALE[cfg.role]
    return FactorHyperparams(family=cfg.family, per_column=per_column, scale=scale)


def gen_factors(cfg: FactorConfig) -> EmpiricalDistribution:
    """Dataset with independent columns drawn from the config's marginals.

    Column j is i.i.d. from the family's j-th marginal with the realized
    hyperparameters of :func:`factor_hyperparams`; ``centered`` subtracts the
    empirical column means afterwards.
    """
    hyper = factor_hyperparams(cfg)
    role_code = 0 if cfg.role is DatasetRole.FIRST else 1
    g = rng.substream(cfg.seed, "factor-data", role_code)
    if cfg.family is FactorFamily.GAUSSIAN:
        data = g.normal(loc=hyper.per_column, scale=hyper.scale, size=(cfg.n, cfg.dim))
    else:
        data = g.gamma(shape=hyper.per_column, scale=hyper.scale, size=(cfg.n, cfg.dim))
    if cfg.centered:
        data -= data.mean(axis=0)
    return EmpiricalDistribution(data)


def gen_ar1(cfg: Ar1Config) -> EmpiricalDistribution:
    """Dataset of n independent AR(1) trajectories; row = last dim steps.

    Each trajectory starts at X_1 = eps_1, iterates the recursion for
    burn_in + dim steps and keeps the final dim values, by which point the
    marginal law is stationary to beyond 64-bit precision for any practical
    burn-in (the transient decays like alpha^burn_in).
    """
    steps = cfg.burn_in + cfg.dim
    noise_code = 0 if cfg.noise is NoiseKind.GAUSSIAN else 1
    out = np.empty((cfg.n, cfg.dim))
    for block, lo in enumerate(range(0, cfg.n, _ROW_BLOCK)):
        hi = min(lo + _ROW_BLOCK, cfg.n)
        g = rng.substream(cfg.seed, "ar1", noise_code, block)
        if cfg.noise is NoiseKind.GAUSSIAN:
            eps = g.standard_normal((hi - lo, steps))
        else:
            eps = g.standard_t(10.0, size=(hi - lo, steps))
        traj = lfilter([1.0], [1.0, -cfg.alpha], eps, axis=1)
        out[lo:hi] = traj[:, cfg.burn_in :]
    return EmpiricalDistribution(out)


def atomic_write(path, write: Callable[[TextIO], object]) -> None:
    """Create or replace the text file ``path`` atomically: ``write(fh)``
    fills a temporary file in the same directory, which is renamed over
    ``path`` once complete and removed if anything fails before that."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_csv(dist: EmpiricalDistribution, path, header: bool = False) -> None:
    """Write a dataset as CSV, one row per sample, atomically (temp + rename).

    Values are written with 17 significant digits so a round trip through
    :func:`load_csv` is bit-exact.
    """
    def write(fh):
        if header:
            fh.write(",".join(f"x{j}" for j in range(dist.dim)) + "\n")
        np.savetxt(fh, dist.data, fmt="%.17g", delimiter=",")

    atomic_write(path, write)


def load_csv(path) -> EmpiricalDistribution:
    """Read a dataset written by :func:`save_csv` (or any numeric CSV).

    Comment lines starting with '#' are skipped; a single leading non-numeric
    line is treated as a header. Malformed content raises
    :class:`DatasetParseError` carrying the file and line number.
    """
    path = os.fspath(path)
    rows = []
    width = None
    first_content = True
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split(",")
            try:
                row = [float(f) for f in fields]
            except ValueError:
                if first_content:  # header line
                    first_content = False
                    continue
                raise DatasetParseError(path, lineno, f"non-numeric field in {text!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetParseError(
                    path, lineno, f"expected {width} columns, found {len(row)}"
                )
            rows.append(row)
            first_content = False
    if not rows:
        raise DatasetParseError(path, 0, "no data rows")
    try:
        return EmpiricalDistribution(np.array(rows))
    except InvalidSample as exc:
        raise DatasetParseError(path, 0, str(exc))
