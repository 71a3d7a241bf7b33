"""Seeded generators for every synthetic regime the benchmarks use.

Two families:

* independent-factor datasets: each column drawn from its own Gaussian or
  Gamma marginal, with per-dataset hyperparameters themselves drawn from a
  seeded stream so a config reproduces both the hyperparameters and the data,
* stationary AR(1) trajectories ``X_t = alpha * X_{t-1} + eps_t`` with
  Gaussian or Student-t(10) innovations. A Gaussian row starts from an exact
  draw of its stationary law, eps_0 / sqrt(1 - alpha^2), and runs only its
  kept steps. The Student-t law has no closed-form stationary law, so a
  Student row runs from a zero start for as many steps before the kept
  window as it takes the start's trace, alpha^(t+1) times the stationary
  value, to fall to 2^-53 (:func:`_ar1_burn_in`). A row that keeps every
  step it runs (every Gaussian row, and a Student row at alpha = 0) draws
  its innovations straight into its row of the output and is stepped there
  in place; only Student rows with a burn-in draw into a separate buffer.

Everything is a pure function of (config, seed): same seed, same bytes.
Every draw comes from :func:`rng.data_stream` (SFC64) streams: one for a
dataset's hyperparameters, one for its factor data, and one per fixed-size
block of AR(1) rows, so blocks could be produced in parallel without
changing the output.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import secrets
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from . import rng
from .errors import DatasetParseError, InvalidSample
from .estimators import EmpiricalDistribution

_ROW_BLOCK = 512  # fixed trajectory block size; part of the output contract
_AR1_NOISE_BYTES = 32 << 20  # AR(1) innovations per batch, drawn into out unless burned in
_AR1_CHUNK = 64  # AR(1) steps per time-major buffer, which stays in cache
_PAD = 8  # doubles added to a transpose buffer's row stride against cache-set conflicts
_AR1_TRANSIENT = 2.0 ** -53  # largest relative trace of the zero start left in a kept step
_CSV_BLOCK = 2048  # values per formatted block of save_csv (at least one row)


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
    """Recipe for a dataset of independent stationary AR(1) trajectories.

    A Gaussian row draws exactly ``dim`` innovations at any ``alpha``: its
    first step is drawn from the stationary law. A Student row also runs the
    steps before its kept window that ``alpha`` alone sets
    (:func:`_ar1_burn_in`): none at alpha = 0, 164 at 0.8, and about
    36.7 / (1 - alpha) near 1, so it draws that many innovations more than
    it keeps (36,718 at alpha = 0.999)."""

    dim: int
    n: int
    alpha: float
    noise: NoiseKind = NoiseKind.GAUSSIAN
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.n < 1:
            raise InvalidSample(f"dim and n must be >= 1, got dim={self.dim}, n={self.n}")
        check_alpha(self.alpha)
        object.__setattr__(self, "noise", NoiseKind(self.noise))


def check_alpha(alpha) -> None:
    """The AR coefficient must lie in [0, 1) (InvalidSample)."""
    if not 0.0 <= alpha < 1.0:
        raise InvalidSample(f"alpha must be in [0, 1), got {alpha}")


def _ar1_burn_in(alpha) -> int:
    """The smallest B >= 0 with alpha^(B+1) <= 2^-53: the steps a Student
    AR(1) trajectory runs from y_{-1} = 0 before its kept window (a Gaussian
    one starts stationary and runs none).

    The zero start leaves alpha^(t+1) * y~_{-1} of the stationary path y~ in
    step t, so from step B on that trace is at most 2^-53 of a stationary
    value, below the rounding of the step itself. B is 0 at alpha = 0, 52 at
    0.5 and 164 at 0.8; near 1 it grows like 36.7 / (1 - alpha).
    """
    if alpha == 0.0:
        return 0
    steps = math.ceil(math.log2(_AR1_TRANSIENT) / math.log2(alpha))  # B + 1
    while steps > 1 and alpha ** (steps - 1) <= _AR1_TRANSIENT:  # log2 may round up...
        steps -= 1
    while alpha ** steps > _AR1_TRANSIENT:  # ...or down
        steps += 1
    return steps - 1


@dataclass(frozen=True)
class FactorHyperparams:
    """Realized per-dataset marginal parameters.

    ``per_column`` holds the Gaussian column means or the Gamma column shapes;
    ``scale`` is the shared Gaussian std or Gamma scale.
    """

    per_column: np.ndarray
    scale: float


def factor_hyperparams(cfg: FactorConfig) -> FactorHyperparams:
    """Draw the per-dataset marginal parameters from the (seed, role)-keyed
    hyperparameter stream; regenerating with the same config reproduces them."""
    role_code = 0 if cfg.role is DatasetRole.FIRST else 1
    g = rng.data_stream(cfg.seed, "factor-hyper", role_code)
    if cfg.family is FactorFamily.GAUSSIAN:
        per_column = g.normal(loc=1.0, scale=1.0, size=cfg.dim)
        scale = _GAUSSIAN_SIGMA[cfg.role]
    else:
        lo, hi = _GAMMA_SHAPE_RANGE[cfg.role]
        per_column = g.uniform(lo, hi, size=cfg.dim)
        scale = _GAMMA_SCALE[cfg.role]
    return FactorHyperparams(per_column=per_column, scale=scale)


def gen_factors(cfg: FactorConfig) -> EmpiricalDistribution:
    """Dataset with independent columns drawn from the config's marginals.

    Column j is i.i.d. from the family's j-th marginal with the realized
    hyperparameters of :func:`factor_hyperparams`; ``centered`` subtracts the
    empirical column means afterwards.
    """
    hyper = factor_hyperparams(cfg)
    role_code = 0 if cfg.role is DatasetRole.FIRST else 1
    g = rng.data_stream(cfg.seed, "factor-data", role_code)
    # The bits of g.normal(per_column, scale) and g.gamma(per_column, scale):
    # both compute loc + scale * z from the same stream values, and the
    # single-parameter fills skip numpy's broadcast iterator.
    if cfg.family is FactorFamily.GAUSSIAN:
        data = g.standard_normal((cfg.n, cfg.dim))
        data *= hyper.scale
        data += hyper.per_column
    else:
        data = g.standard_gamma(hyper.per_column, size=(cfg.n, cfg.dim))
        data *= hyper.scale
    if cfg.centered:
        data -= data.mean(axis=0)
    data.flags.writeable = False  # nothing else holds it: wrapped without a copy
    return EmpiricalDistribution(data)


def _ar1_noise(cfg: Ar1Config, steps: int, out: np.ndarray):
    """Yield ``(lo, eps)``: the innovations of rows ``lo, lo + 1, ...`` of the
    dataset, ``steps`` per row, as many rows at a time as fit in
    ``_AR1_NOISE_BYTES`` (one row if a row alone is larger).

    When a row's steps are its kept window (``steps`` equals the width of
    ``out``: every Gaussian row, and a Student row at alpha = 0), ``eps`` is
    the view ``out[lo:hi]``, drawn in place for the caller to step in place.
    Otherwise (a Student row with a burn-in) it is a buffer that this
    generator owns and refills for each batch. Student draws come from
    ``standard_t``, which has no ``out=``: each call draws at most an eighth
    of a batch into a temporary that is copied in.

    A batch is the next run of as many consecutive rows as fit, wherever the
    row blocks start and end. Row block b draws its rows in order from
    ``rng.data_stream(seed, "ar1", noise, b)``, opened at the block's first row;
    a stream draws the same values in one call or in several, so the
    batching never changes a bit.
    """
    rows = min(cfg.n, max(1, _AR1_NOISE_BYTES // (8 * steps)))
    own = None if steps == out.shape[1] else np.empty((rows, steps))
    draw = max(1, rows // 8)  # rows per Student call
    noise_code = 0 if cfg.noise is NoiseKind.GAUSSIAN else 1
    for lo in range(0, cfg.n, rows):
        hi = min(lo + rows, cfg.n)
        buf = out[lo:hi] if own is None else own[: hi - lo]
        # lo, each block start after it in the batch, and hi
        cuts = [lo, *range((lo // _ROW_BLOCK + 1) * _ROW_BLOCK, hi, _ROW_BLOCK), hi]
        for r, stop in zip(cuts, cuts[1:]):
            if r % _ROW_BLOCK == 0:
                g = rng.data_stream(cfg.seed, "ar1", noise_code, r // _ROW_BLOCK)
            if cfg.noise is NoiseKind.GAUSSIAN:
                g.standard_normal(out=buf[r - lo : stop - lo])
            else:
                for s in range(r, stop, draw):
                    part = buf[s - lo : min(s + draw, stop) - lo]
                    part[...] = g.standard_t(10.0, size=part.shape)
        yield lo, buf


def gen_ar1(cfg: Ar1Config) -> EmpiricalDistribution:
    """Dataset of n independent AR(1) trajectories; row = last dim steps.

    Each trajectory runs y_t = eps_t + alpha * y_{t-1} for B + dim steps
    from y_{-1} = 0, with its first innovation scaled by a start factor c,
    and keeps the final dim values.

    * Gaussian: B = 0 and c = 1 / sqrt(1 - alpha^2), so y_0 = c * eps_0 is an
      exact draw from the stationary law N(0, 1 / (1 - alpha^2)) and a row
      draws dim innovations at any alpha.
    * Student-t(10): c = 1 and B = _ar1_burn_in(alpha), the fewest steps
      after which the zero start's trace, alpha^(t+1) times the stationary
      y_{-1}, is at most 2^-53: the kept window is stationary to double
      precision. B grows like 36.7 / (1 - alpha) near alpha = 1, and so do
      the draws and the time per row.

    Each step rounds alpha * y_{t-1}, then its sum with eps_t: exactly the
    arithmetic of SciPy's IIR filter with numerator [1] and denominator
    [1, -alpha] from a zero state, run over the innovations with the first
    one scaled by c, so the output has that filter's bits (the tests compare
    the two).

    A step is two ufunc calls across every row of a noise batch (see
    :func:`_ar1_noise`), on ``_AR1_CHUNK`` steps at a time transposed
    through a panel into a small time-major chunk that this loop owns. Kept
    steps go from the chunk straight into the batch's rows of ``out``. When
    a row runs only its kept steps (every Gaussian row, and a Student row at
    alpha = 0), its innovations are drawn into its row of ``out`` and
    stepped in place: each chunk reads its columns of the batch before it
    writes them back. Besides ``out`` a call then holds one chunk and one
    panel, each no larger than a batch: both are made for the first batch,
    the largest, and every later batch steps in a slice of them. Only
    Student rows with a burn-in add a batch buffer, and Student draws a
    temporary of at most an eighth of a batch.
    """
    alpha = cfg.alpha
    if cfg.noise is NoiseKind.GAUSSIAN:  # (1 - alpha)(1 + alpha) does not cancel near 1
        burn_in, start = 0, 1.0 / math.sqrt((1.0 - alpha) * (1.0 + alpha))
    else:
        burn_in, start = _ar1_burn_in(alpha), 1.0
    steps = burn_in + cfg.dim
    out = np.empty((cfg.n, cfg.dim))
    add, multiply = np.add, np.multiply
    for lo, eps in _ar1_noise(cfg, steps, out):
        rows = len(eps)
        eps[:, 0] *= start
        # Transposes go through panels of at most _ROW_BLOCK rows with a
        # padded stride, so their strided side stays in L1 for any step count.
        # The first batch is the largest; later ones slice its buffers.
        if lo == 0:
            full_chunk = np.empty((min(_AR1_CHUNK, steps), rows + _PAD))
            panel = np.empty((min(_ROW_BLOCK, rows), _AR1_CHUNK + _PAD))
        chunk = full_chunk[:, :rows]
        panels = [(slice(r, r + _ROW_BLOCK), panel[: min(_ROW_BLOCK, rows - r)])
                  for r in range(0, rows, _ROW_BLOCK)]
        step_rows = list(chunk)  # one view per step, made once: the loop is call-bound
        carry = np.zeros(rows)  # alpha * y_{t-1}
        dest = out[lo : lo + rows]
        for t0 in range(0, steps, _AR1_CHUNK):
            w = min(_AR1_CHUNK, steps - t0)
            for p, tmp in panels:
                tmp[:, :w] = eps[p, t0 : t0 + w]
                chunk[:w, p] = tmp[:, :w].T
            for y_t in step_rows[:w]:
                add(y_t, carry, y_t)
                multiply(y_t, alpha, carry)
            k = max(0, burn_in - t0)  # the chunk's first kept step
            for p, _ in panels if k < w else ():
                dest[p, t0 + k - burn_in : t0 + w - burn_in] = chunk[k:w, p].T
    out.flags.writeable = False  # nothing else holds it: wrapped without a copy
    return EmpiricalDistribution(out)


def atomic_write(path, write: Callable[[TextIO], object]) -> None:
    """Create or replace the text file ``path`` atomically: ``write(fh)``
    fills a temporary file in the same directory, which is renamed over
    ``path`` once complete and removed if anything fails before that. The
    file gets the mode a plain ``open`` would give it, 0o666 under the
    process umask."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f"{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    :func:`load_csv` is bit-exact: the text is that of
    ``np.savetxt(fh, dist.data, fmt="%.17g", delimiter=",")``. Rows go out
    in blocks of at most 2048 values (one row if a row is wider), each
    formatted by one ``%`` operation. Besides the data the writer holds one
    block's floats and text: about 100 KB at any row count, or one row's
    worth when a row is wider than a block.
    """
    row_format = ",".join(["%.17g"] * dist.dim) + "\n"
    rows = max(1, _CSV_BLOCK // dist.dim)

    def write(fh):
        if header:
            fh.write(",".join(f"x{j}" for j in range(dist.dim)) + "\n")
        for lo in range(0, dist.n, rows):
            block = dist.data[lo : lo + rows]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))

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
        data.flags.writeable = False  # nothing else holds it: wrapped without a copy
        return EmpiricalDistribution(data)
    except (ValueError, InvalidSample):  # UnicodeDecodeError is a ValueError
        _raise_first_fault(path)
        raise
