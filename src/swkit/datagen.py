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
import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

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
    from scipy.signal import lfilter  # here: it loads in over a second, only AR(1) needs it

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


def _parse_rows(lines) -> np.ndarray:
    """Parse CSV lines into an (rows, columns) float64 array with numpy's C
    float parser. This is the one definition of a numeric field: header
    detection, the bulk parse and the error locator of :func:`load_csv` all
    call it. Raises ValueError on a non-numeric field or a ragged row."""
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _data_lines(lines):
    """Yield ``(file line number, line)`` for each data row of a CSV file.

    Blank, whitespace-only and '#' comment lines are skipped, and so is the
    first remaining line if it does not parse as a numeric row (a header).
    """
    first = True
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if first:
            first = False
            try:
                _parse_rows([line])
            except ValueError:
                continue
        yield lineno, line


def _utf8_lines(fh, path):
    """Lines of ``fh``, opened with ``errors="surrogateescape"``; raises
    :class:`DatasetParseError` at the first line holding a byte that is not
    UTF-8."""
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetParseError(path, lineno, "not UTF-8 text") from None
        yield line


def _raise_first_fault(path) -> None:
    """Error path of :func:`load_csv`: re-read the file and raise
    :class:`DatasetParseError` at the first line that is not UTF-8 text or
    whose row is non-numeric, differs in width from the first row or holds
    a non-finite value."""
    width = None
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in _data_lines(_utf8_lines(fh, path)):
            try:
                row = _parse_rows([line])
            except ValueError:
                raise DatasetParseError(
                    path, lineno, f"non-numeric field in {line.strip()!r}") from None
            if width is None:
                width = row.shape[1]
            elif row.shape[1] != width:
                raise DatasetParseError(
                    path, lineno, f"expected {width} columns, found {row.shape[1]}")
            if not np.isfinite(row).all():
                raise DatasetParseError(path, lineno, "non-finite value")


def load_csv(path) -> EmpiricalDistribution:
    """Read a dataset written by :func:`save_csv` (or any numeric CSV).

    The file must be UTF-8 text (a leading byte-order mark is skipped) with
    one sample per line and fields separated by commas. Blank lines and
    full-line '#' comments are skipped, and one optional header line is
    dropped: the first remaining line, if it is not numeric. A numeric field
    is whatever numpy's float parser accepts, surrounding whitespace
    allowed; Python-only spellings such as ``1_0`` are rejected. Rows must
    all have the same width and hold finite values. Any violation raises
    :class:`DatasetParseError` with the file and the line of the first
    fault; a file without data rows raises it with line 0.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = _data_lines(fh)
            first = next(rows, None)
            if first is None:
                raise DatasetParseError(path, 0, "no data rows")
            data = _parse_rows(line for _, line in itertools.chain([first], rows))
        return EmpiricalDistribution(data)
    except (ValueError, InvalidSample):  # UnicodeDecodeError is a ValueError
        _raise_first_fault(path)
        raise
