"""Sliced-Wasserstein estimators and moment diagnostics for empirical data.

Estimation routes
-----------------
* :func:`monte_carlo_sw_pp` averages one-dimensional transport costs over
  random projection directions, drawn either uniformly on the unit sphere or
  from the Gaussian law N(0, I/d). The cost of one direction is
  :func:`swkit.core_ot.wasserstein_1d_pp` of the two projected samples,
  computed a block of directions at a time by the same kernel,
  :func:`swkit.core_ot.sorted_gap_costs`. At order 2 the two direction laws
  give the same value in expectation; at other orders they differ by the
  closed-form factor :func:`gaussian_projection_constant`. The order must be
  finite and at least 1 (:func:`swkit.core_ot.check_order`).
* :func:`sw_hat` is a deterministic O(nd) approximation: it fits each dataset
  with the isotropic Gaussian of its mean and normalized centered second
  moment, and returns :func:`swkit.core_ot.sw2_gaussian_iso_closed` of the
  two fits, the squared gap of their scales plus the mean-separation term
  ``(1/d) * ||mean gap||^2``. No sampling, no sorting, no tunable projection
  count.
* :func:`monte_carlo_sw_cv` (label ``mc-cv``) is sphere Monte Carlo at order
  2 with control variates: it regresses each direction's cost on the squared
  gap of the projected means and the two projected variances, whose exact
  expectations over directions come from the moment pass of :func:`sw_hat`.
  Its directions and per-direction costs are those of
  :func:`monte_carlo_sw_pp`, bit for bit. At n = 2000 its variance per
  direction was 100-2000 times below plain Monte Carlo's on centered gamma
  pairs, and 2-5 times below on AR(1) pairs.
* :func:`estimate` is the one place a :class:`Method` label is mapped to its
  estimator, so every labelled value comes from one known route. Each
  estimator has exactly one label; the deterministic ones accept only
  order 2.

Diagnostics
-----------
:func:`moment_stats` computes the second-moment, norm-fluctuation and
inner-product statistics of a dataset; :func:`xi_d` folds them into the
scalar that controls how far typical one-dimensional projections are from
Gaussian, and :func:`theorem2_gap_bound`, :func:`indep_bound` and
:func:`weakdep_bound` evaluate the corresponding error envelopes (with unit
leading constant, so they are order-of-magnitude guides rather than certified
bounds).

Determinism
-----------
Every stochastic routine takes an explicit seed. Monte Carlo projections draw
direction l from a counter-based stream keyed (seed, l) and reduce the
per-projection values in index order, so the estimate is a pure function of
(inputs, L, law, seed) no matter how many worker threads evaluate it.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rng
from .core_ot import (
    IsoGaussian,
    Samples1d,
    check_finite,
    check_order,
    sorted_gap_costs,
    sw2_gaussian_iso_closed,
)
from .errors import (
    DimMismatch,
    InsufficientSamples,
    InvalidLag,
    InvalidOrder,
    InvalidSample,
    LengthMismatch,
)

# Directions per Monte Carlo block. It fixes three things: the row count M of
# each block's two GEMMs, the memory a team of one or two workers holds for
# the whole call, a (2, PROJECTION_BLOCK, n) workspace and a
# (PROJECTION_BLOCK, d) direction block (8 KiB * n + 4 KiB * d), and the
# low-order bits of the per-projection values, since OpenBLAS may round a GEMM
# row differently at another M. Below 512 rows each GEMM call packs the data
# operand for too few rows: 256 rows ran about 10 % slower at n = 10^4,
# d = 1000 on one OpenBLAS thread (2-vCPU x86-64 host).
PROJECTION_BLOCK = 512

# Fewest directions mc-cv accepts: its fit has up to four parameters (an
# intercept and three control variates), so L = 8 leaves at least four
# residual degrees of freedom for the standard error.
CV_MIN_PROJECTIONS = 8
# Rows of a projected block that _row_moments centers at a time, in a buffer
# of _MOMENT_CHUNK * n floats rather than a (512, n) temporary.
_MOMENT_CHUNK = 16
# mc-cv drops a control variate whose standard deviation over the directions
# is at most this fraction of the mean cost: c1 of a centered pair, or every
# variate at d = 1. Such a column is rounding noise, and so is the gap
# between its mean and its expectation; fitting it would move the estimate by
# O(sd(w)) rather than reduce its variance.
_CV_DROP_RTOL = 1e-10

# "auto" enumerates all n^2 pairs for the inner-product moments up to
# exact_pair_limit(d) and samples PAIR_BUDGET_DEFAULT pairs beyond it. Every
# n <= PAIR_FULL_LIMIT is exact at every d.
PAIR_FULL_LIMIT = 10_000
PAIR_BUDGET_DEFAULT = 10_000_000
# Rows of a square tile of the exact Gram pass: one tile's block of inner
# products is _PAIR_TILE^2 floats (2 MB) whatever n and d are.
_PAIR_TILE = 512
# Pairs per chunk of the sampled path. Chunk c draws its indices from the
# stream (seed, "moment-pairs", c), so memory is O(chunk * d) for any budget;
# changing the size changes the sampled values.
_PAIR_CHUNK = 8192


class ProjectionLaw(str, enum.Enum):
    """Distribution of Monte Carlo projection directions."""

    SPHERE_UNIFORM = "sphere"
    GAUSSIAN_SCALED = "gaussian"  # N(0, I/d)


class Method(str, enum.Enum):
    """Provenance of an estimate. ``law`` is the direction law of a Monte
    Carlo method and None for the deterministic ones."""

    def __new__(cls, value: str, law: ProjectionLaw | None = None):
        member = str.__new__(cls, value)
        member._value_ = value
        member.law = law
        return member

    MONTE_CARLO_SPHERE = "mc-sphere", ProjectionLaw.SPHERE_UNIFORM
    MONTE_CARLO_GAUSSIAN = "mc-gaussian", ProjectionLaw.GAUSSIAN_SCALED
    MONTE_CARLO_CV = "mc-cv", ProjectionLaw.SPHERE_UNIFORM
    DETERMINISTIC = "deterministic"
    RAW_MOMENT = "raw-moment"

    @property
    def is_mc(self) -> bool:
        return self.law is not None

    def check_args(self, L, p) -> tuple[int, float]:
        """``(L, p)`` checked and normalized for a call of this method: Monte
        Carlo needs L >= 1 (InvalidSample) and p passing :func:`check_order`;
        ``mc-cv`` needs L >= CV_MIN_PROJECTIONS (InvalidSample) and p = 2
        (InvalidOrder); the order-2 surrogates need p = 2 (InvalidOrder) and
        ignore L."""
        if not self.is_mc:
            if float(p) != 2.0:
                raise InvalidOrder(f"method {self.value} is an order-2 surrogate, got p={p}")
            return L, 2.0
        L = int(L)
        least = CV_MIN_PROJECTIONS if self is Method.MONTE_CARLO_CV else 1
        if L < least:
            raise InvalidSample(f"projection count L must be >= {least}, got {L}")
        if self is Method.MONTE_CARLO_CV and float(p) != 2.0:
            raise InvalidOrder(f"method {self.value} fits order-2 control variates, got p={p}")
        return L, check_order(p)


# The plain Monte Carlo label of each direction law. mc-cv draws sphere
# directions too, so a law alone does not name a method.
_PLAIN_MC = {ProjectionLaw.SPHERE_UNIFORM: Method.MONTE_CARLO_SPHERE,
             ProjectionLaw.GAUSSIAN_SCALED: Method.MONTE_CARLO_GAUSSIAN}


@dataclass(frozen=True)
class EmpiricalDistribution:
    """n samples in R^d with uniform weights; rows of ``data`` are samples.

    ``data`` is stored as a read-only, C-contiguous float64 array. Any other
    input is copied into one; a plain ndarray that already is one is kept
    without a copy, so whoever marked it read-only must not write to it
    through another reference. The shape and finiteness checks run either
    way.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = self.data
        if not (type(arr) is np.ndarray and arr.dtype == np.float64
                and arr.flags.c_contiguous and not arr.flags.writeable):
            arr = np.array(arr, dtype=np.float64, copy=True, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidSample(f"data must be an (n, d) matrix, got shape {arr.shape}")
        check_finite(arr, "data")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MomentStats:
    """Empirical moment summary of one dataset.

    ``m2_raw`` is the mean squared norm, ``alpha`` the mean absolute
    fluctuation of the squared norm around it, and ``beta1``/``beta2`` the
    1- and 2-norms of the inner product of two independently drawn samples
    (ordered pairs, the diagonal included). ``pair_count_used`` records how
    many pairs entered the beta estimates.
    """

    dim: int
    m2_raw: float
    mean: np.ndarray = field(repr=False)
    alpha: float
    beta1: float
    beta2: float
    pair_count_used: int

    def __post_init__(self):
        for name in ("m2_raw", "alpha", "beta1", "beta2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise InvalidSample(f"{name} must be finite and >= 0, got {v}")
        if self.beta1 > self.beta2 * (1.0 + 1e-12):
            raise InvalidSample(f"beta1 ({self.beta1}) exceeds beta2 ({self.beta2})")


@dataclass(frozen=True)
class SwEstimate:
    """A squared sliced-distance estimate plus its provenance.

    ``std_error`` is the Monte Carlo standard error of ``value_sq``: for
    plain Monte Carlo the sample standard deviation of the per-projection
    values over sqrt(L) (0 at L = 1), for ``mc-cv`` that of its fit's
    residuals, and 0 for the deterministic methods. The ``mc-cv`` form
    leaves out the noise of fitting beta on the same draws: on a centered
    gamma pair (n = 200, d = 5, 200 seeds) its mean over the spread of the
    estimates read 0.88 at L = 64 and 1.09 at L = 512.
    ``TestRunConvergence::test_pilot_standard_error_tracks_the_spread_of_its_estimates``
    (tests/test_bench.py) bounds that ratio to [0.85, 1.15] at L = 128.
    """

    value_sq: float
    method: Method
    num_projections: int = 0
    seed: int = 0
    wall_time_ns: int = 0
    std_error: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value_sq) or self.value_sq < 0.0:
            raise InvalidSample(f"value_sq must be finite and >= 0, got {self.value_sq}")
        object.__setattr__(self, "method", Method(self.method))
        if self.method.is_mc != (self.num_projections > 0):
            raise InvalidSample(
                f"num_projections={self.num_projections} inconsistent with method {self.method}"
            )
        if not math.isfinite(self.std_error) or self.std_error < 0.0:
            raise InvalidSample(f"std_error must be finite and >= 0, got {self.std_error}")
        if not self.method.is_mc and self.std_error != 0.0:
            raise InvalidSample(f"method {self.method} has no standard error, got {self.std_error}")

    @property
    def value(self) -> float:
        """Square root of the stored value: the distance scale when the
        estimate is a squared order-2 cost."""
        return math.sqrt(self.value_sq)


@dataclass(frozen=True)
class WeakDepParams:
    """Covariance-decay coefficients of a stationary coordinate sequence.

    ``rho0`` bounds the lag-0 terms, ``rho_max_tail`` the largest coefficient
    over lags 1..d-1, and ``rho_inf`` the sum of the whole sequence.
    """

    rho0: float
    rho_inf: float
    rho_max_tail: float

    def __post_init__(self):
        for name in ("rho0", "rho_inf", "rho_max_tail"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise InvalidSample(f"{name} must be finite and >= 0, got {v}")
        if self.rho_max_tail > self.rho0:
            raise InvalidSample("rho_max_tail cannot exceed rho0 (sequence is nonincreasing)")
        if self.rho0 > self.rho_inf:
            raise InvalidSample("rho0 cannot exceed rho_inf (rho_inf bounds the series sum)")


def center(mu: EmpiricalDistribution) -> tuple[np.ndarray, EmpiricalDistribution]:
    """Return the empirical mean and the dataset with that mean subtracted."""
    mean = mu.data.mean(axis=0)
    centered = mu.data - mean
    centered.flags.writeable = False  # so EmpiricalDistribution keeps it without a copy
    return mean, EmpiricalDistribution(centered)


def project(mu: EmpiricalDistribution, theta) -> Samples1d:
    """Project every sample onto the direction theta; output is unsorted."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.size != mu.dim:
        raise DimMismatch(f"direction has length {theta.size}, expected {mu.dim}")
    return Samples1d(mu.data @ theta)


def _fresh_philox_state(key: list[int] | None) -> dict:
    """``bit_generator.state`` of a Philox stream built from ``key``: counter
    0, buffer empty. Python ints, which the state setter reads about three
    times faster than numpy scalars."""
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def sample_directions(
    d: int, seed: int, count: int,
    law: ProjectionLaw = ProjectionLaw.SPHERE_UNIFORM, start: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``count`` projection directions in R^d under ``law``, one per row.

    Row i is Monte Carlo direction ``start + i``, drawn from the stream keyed
    (seed, start + i), so any range of directions can be drawn on its own and
    equals the same rows of a longer draw. Sphere directions are normalized
    Gaussian vectors (a zero vector, of probability zero, is redrawn from the
    same stream); Gaussian directions are N(0, I/d).

    The rows are drawn into ``out``, a C-contiguous (count, d) float64 array
    that is returned, or into a new array when ``out`` is None; where they
    land never changes their bits.

    Rather than build ``rng.substream(seed, start + i)`` per row, one Philox
    generator is set to each row's key from :func:`rng.philox_keys` in the
    state of a fresh stream, so it yields the same bits. Sphere rows are
    normalized together after the draws: one stacked matmul takes each
    row's squared norm by the same dot product as ``row @ row``.
    """
    if d < 1 or count < 1:
        raise InvalidSample(f"d and count must be >= 1, got d={d}, count={count}")
    if out is not None and out.shape != (count, d):
        raise InvalidSample(f"out must have shape {(count, d)}, got {out.shape}")
    law = ProjectionLaw(law)
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    state = _fresh_philox_state(None)
    keys = rng.philox_keys(seed, start, count).tolist()
    dirs = np.empty((count, d)) if out is None else out
    for row, key in zip(dirs, keys):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.standard_normal(out=row)
    if law is ProjectionLaw.GAUSSIAN_SCALED:
        dirs /= math.sqrt(d)
        return dirs
    norms = np.sqrt(dirs[:, None, :] @ dirs[:, :, None]).reshape(count)
    for i in np.flatnonzero(norms == 0.0):  # probability zero, but keep the contract airtight
        state["state"]["key"] = keys[i]
        bit_generator.state = state
        generator.standard_normal(out=dirs[i])  # the zero draw again; redraw after it
        while norms[i] == 0.0:
            generator.standard_normal(out=dirs[i])
            norms[i] = math.sqrt(float(dirs[i] @ dirs[i]))
    dirs /= norms[:, None]
    return dirs


def _row_moments(rows: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance (denominator n) of each row of the (k, n) array
    ``rows``. Rows are centered a chunk at a time in the reused buffer
    ``buf``, so no (k, n) temporary is made."""
    mean = rows.mean(axis=1)
    sq_sum = np.empty(len(rows))
    for lo in range(0, len(rows), len(buf)):
        hi = min(lo + len(buf), len(rows))
        chunk = np.subtract(rows[lo:hi], mean[lo:hi, None], out=buf[: hi - lo])
        sq_sum[lo:hi] = np.einsum("ij,ij->i", chunk, chunk)
    return mean, sq_sum / rows.shape[1]


def _span_costs(sides, p, law, seed, lo, hi, values, covariates, team, member):
    """Member ``member`` of the team of one or two threads that computes the
    costs of directions lo..hi-1 (index-keyed streams) into ``values[lo:hi]``
    and, given an (L, 3) ``covariates`` array (mc-cv only), their control
    variates, taken before the sort: the squared gap of the projected means
    and the projected variances of mu and nu.

    ``sides`` is (mu data, nu data) and ``team`` the span's (2, rows, n)
    workspace, (rows, d) direction block and barrier, rows = min(hi - lo,
    PROJECTION_BLOCK). Per block of k directions (``lo`` is a multiple of
    PROJECTION_BLOCK), member m of s draws rows [m k // s, (m + 1) k // s)
    straight into the direction block, runs the whole GEMM of each side in
    ``range(m, 2, s)`` (a GEMM split by rows may round differently), then
    the costs of its rows of both sides. A barrier after each stage keeps
    the next from starting before the whole team is done, so a failing
    block stops the span there: its member breaks the barrier and raises,
    and its partner returns."""
    ws, dirs, barrier = team
    size = barrier.parties
    buf = None if covariates is None else np.empty((_MOMENT_CHUNK, ws.shape[2]))
    try:
        for start in range(lo, hi, PROJECTION_BLOCK):
            k = min(PROJECTION_BLOCK, hi - start)
            a, b = member * k // size, (member + 1) * k // size
            if b > a:
                sample_directions(dirs.shape[1], seed, b - a, law, start=start + a, out=dirs[a:b])
            barrier.wait()
            for side in range(member, 2, size):
                np.matmul(dirs[:k], sides[side].T, out=ws[side, :k])
            barrier.wait()
            x, y = ws[0, a:b], ws[1, a:b]
            if covariates is not None:
                (mean_x, var_x), (mean_y, var_y) = _row_moments(x, buf), _row_moments(y, buf)
                covariates[start + a : start + b] = np.column_stack(
                    ((mean_x - mean_y) ** 2, var_x, var_y))
            values[start + a : start + b] = sorted_gap_costs(x, y, p)
            barrier.wait()
    except threading.BrokenBarrierError:
        return  # the partner failed and raises its own error
    except BaseException:
        barrier.abort()
        raise


def _check_pair(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> None:
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise LengthMismatch(f"sample sizes differ: {mu.n} vs {nu.n}")


def _projection_costs(mu, nu, L, p, law, seed, workers, covariates=None) -> np.ndarray:
    """The L per-projection costs of directions 0..L-1, in blocks of
    ``PROJECTION_BLOCK``, on ``threads = min(workers, 2 * blocks)`` threads.

    Span i owns the thread slots 2i up to e = min(2i + 2, threads) and the
    blocks ``blocks * 2i // threads`` up to ``blocks * e // threads``, both
    ends exclusive, so a one-slot span gets half a pair's share. Each span
    runs on a team of one thread per slot (:func:`_span_costs`) that shares
    one workspace and one direction block, so ``ceil(threads / 2)`` of each
    exist at once. The spans write disjoint slices of the one returned
    vector (and of ``covariates``)."""
    blocks = -(-L // PROJECTION_BLOCK)
    threads = min(max(1, int(workers)), 2 * blocks)
    slots = [*range(0, threads, 2), threads]
    bounds = [min(blocks * s // threads * PROJECTION_BLOCK, L) for s in slots]
    values = np.empty(L)
    runs = []
    for lo, hi, first, last in zip(bounds, bounds[1:], slots, slots[1:]):
        rows = min(hi - lo, PROJECTION_BLOCK)
        team = (np.empty((2, rows, mu.n)), np.empty((rows, mu.dim)),
                threading.Barrier(last - first))
        runs += [partial(_span_costs, (mu.data, nu.data), p, law, seed, lo, hi, values,
                         covariates, team, member) for member in range(last - first)]
    with ThreadPoolExecutor(max_workers=threads) as pool:  # one worker starts no thread
        list((map if threads == 1 else pool.map)(lambda run: run(), runs))
    return values


def monte_carlo_sw_pp(
    mu: EmpiricalDistribution,
    nu: EmpiricalDistribution,
    L: int,
    p: float = 2.0,
    law: ProjectionLaw = ProjectionLaw.SPHERE_UNIFORM,
    seed: int = 0,
    workers: int = 1,
) -> tuple[SwEstimate, np.ndarray]:
    """Monte Carlo estimate of the order-p sliced transport cost (p-th power).

    Returns the estimate (the arithmetic mean of per-projection 1D costs,
    with the standard error of that mean) and the full vector of L
    per-projection values. Direction l comes from the stream keyed (seed, l)
    and the mean is reduced in index order, so the result is identical for
    any ``workers`` count.

    Directions run in blocks of ``PROJECTION_BLOCK``, each pair of workers
    on one contiguous span of blocks, one worker per input
    (:func:`_projection_costs`). The span's team reuses one float64 (2,
    PROJECTION_BLOCK, n) workspace and one (PROJECTION_BLOCK, d) direction
    block for all of its blocks, so a call holds ``ceil(workers / 2)`` of
    each (8 KiB * n + 4 KiB * d per pair of workers) at any L. A one-block
    call (L <= PROJECTION_BLOCK) runs on two threads when given two workers.
    """
    _check_pair(mu, nu)
    law = ProjectionLaw(law)
    method = _PLAIN_MC[law]
    L, p = method.check_args(L, p)

    t0 = time.perf_counter_ns()
    values = _projection_costs(mu, nu, L, p, law, seed, workers)
    estimate = SwEstimate(
        value_sq=float(np.mean(values)),
        method=method,
        num_projections=L,
        seed=int(seed),
        wall_time_ns=time.perf_counter_ns() - t0,
        std_error=float(values.std(ddof=1)) / math.sqrt(L) if L > 1 else 0.0,
    )
    return estimate, values


def _control_variate_fit(w: np.ndarray, c: np.ndarray, expected: np.ndarray):
    """``(value, standard error)`` of the OLS control-variate estimate from
    per-direction costs ``w``, the (L, k) control variates ``c`` and their
    exact expectations ``expected``.

    Columns at rounding level (``_CV_DROP_RTOL``) are dropped; the rest are
    centered and scaled to unit spread, and w is fitted on them with an
    intercept by least squares. The value is mean(w) - beta^T (mean(c) -
    E c), clipped at 0 since the distance is not negative. The standard
    error is the residuals' standard deviation, with ddof the number of
    fitted parameters, over sqrt(L). With every column dropped both are
    the plain Monte Carlo mean and standard error, bit for bit.
    """
    mean_w = float(np.mean(w))
    spread = c.std(axis=0)
    keep = spread > _CV_DROP_RTOL * mean_w
    mean_c, scale = c[:, keep].mean(axis=0), spread[keep]
    z = (c[:, keep] - mean_c) / scale
    beta = np.linalg.lstsq(z, w - mean_w, rcond=None)[0]
    value = mean_w - float(beta @ ((mean_c - expected[keep]) / scale))
    std_error = float((w - z @ beta).std(ddof=1 + len(beta))) / math.sqrt(len(w))
    return max(0.0, value), std_error


def monte_carlo_sw_cv(
    mu: EmpiricalDistribution,
    nu: EmpiricalDistribution,
    L: int,
    seed: int = 0,
    workers: int = 1,
) -> tuple[SwEstimate, np.ndarray]:
    """Sphere Monte Carlo estimate of the squared sliced 2-distance with
    control variates (label ``mc-cv``).

    Direction l and its cost w_l are those of :func:`monte_carlo_sw_pp` with
    the sphere law and p = 2, bit for bit. Next to w_l, the projections give
    three control variates: c1 = (theta^T (m_mu - m_nu))^2, the squared gap
    of the projected means, and c2 = theta^T S_mu theta, c3 = theta^T S_nu
    theta, the projected variances (denominator n). Since E[theta theta^T] =
    I/d, their exact expectations are ``(||m_mu - m_nu||^2 / d, tr S_mu / d,
    tr S_nu / d)``, the mean gap and the two scaled moments of
    :func:`_mean_and_scaled_m2`, one pass over each input.

    The estimate is mean(w) - beta^T (mean(c) - E c), with beta the least
    squares fit of w on c with an intercept (Leluc et al., "Sliced-Wasserstein
    Estimation with Spherical Harmonics as Control Variates", ICML 2024;
    Portier & Segers, J. Appl. Probab. 2019), and its standard error comes
    from the residuals (:func:`_control_variate_fit`). Fitting beta on the
    same draws biases the estimate by O(1/L), and the standard error leaves
    out the noise of that fit: its mean over the spread of the estimates
    read 0.88 at L = 64 and 1.09 at L = 512 on a centered gamma pair (see
    :class:`SwEstimate`). ``L`` must be at least ``CV_MIN_PROJECTIONS``.

    Returns the estimate and the L per-direction costs. w and c are filled in
    index order and fitted once, so the result is identical for any
    ``workers`` count. Beyond the workspaces and direction blocks of
    :func:`monte_carlo_sw_pp`, a call holds the (L, 3) variates and a
    (_MOMENT_CHUNK, n) centering buffer per thread.
    """
    _check_pair(mu, nu)
    L, p = Method.MONTE_CARLO_CV.check_args(L, 2.0)

    t0 = time.perf_counter_ns()
    covariates = np.empty((L, 3))
    values = _projection_costs(mu, nu, L, p, ProjectionLaw.SPHERE_UNIFORM, seed, workers,
                               covariates)
    (mean_mu, scaled_mu), (mean_nu, scaled_nu) = _mean_and_scaled_m2(mu), _mean_and_scaled_m2(nu)
    gap = mean_mu - mean_nu
    value_sq, std_error = _control_variate_fit(
        values, covariates, np.array([float(gap @ gap) / mu.dim, scaled_mu, scaled_nu]))
    estimate = SwEstimate(
        value_sq=value_sq,
        method=Method.MONTE_CARLO_CV,
        num_projections=L,
        seed=int(seed),
        wall_time_ns=time.perf_counter_ns() - t0,
        std_error=std_error,
    )
    return estimate, values


def _stirling_tail(z: float) -> float:
    zi = 1.0 / z
    z2 = zi * zi
    return zi * (1.0 / 12.0 + z2 * (-1.0 / 360.0 + z2 * (1.0 / 1260.0 + z2 * (-1.0 / 1680.0))))


def _lgamma_diff(x: float, a: float) -> float:
    """log Gamma(x + a) - log Gamma(x) without large-argument cancellation.

    Direct differencing loses ~x*log(x)*eps absolute accuracy; above x = 40
    the leading Stirling terms are recombined through log1p so the result
    keeps near-machine precision up to x ~ 1e9 and beyond.
    """
    if x <= 0.0 or x + a <= 0.0:
        raise InvalidSample(f"lgamma difference needs positive arguments, got x={x}, a={a}")
    if x < 40.0:
        return math.lgamma(x + a) - math.lgamma(x)
    lead = (x - 0.5) * math.log1p(a / x) + a * math.log(x + a) - a
    return lead + _stirling_tail(x + a) - _stirling_tail(x)


def gaussian_projection_constant(d: int, p: float) -> float:
    """Ratio between sliced costs under Gaussian N(0, I/d) and sphere-uniform
    projections: ``sqrt(2/d) * (Gamma(d/2 + p/2) / Gamma(d/2))^(1/p)``.

    Equals 1 exactly at p = 2; evaluated through a cancellation-free
    log-Gamma difference so that holds to ~1e-15 up to d = 10^6 and beyond.
    """
    d = int(d)
    if d < 1:
        raise InvalidSample(f"dimension must be >= 1, got {d}")
    p = check_order(p)
    return math.sqrt(2.0 / d) * math.exp(_lgamma_diff(d / 2.0, p / 2.0) / p)


def exact_pair_limit(d: int) -> int:
    """Largest n at which ``moment_stats(..., "auto")`` enumerates all pairs
    in dimension d.

    Exact enumeration costs O(n^2 d) in Gram tiles, sampling
    PAIR_BUDGET_DEFAULT pairs O(d) per pair in row gathers, and a gathered
    coordinate costs far more than a GEMM one, so the crossover grows with d.
    With one BLAS thread it was near n = 10,200-10,800 at d = 1 (a
    one-column GEMM is slow), 14,000-16,000 at d = 2, 22,000 at d = 10,
    31,000 at d = 50 and 41,000-45,000 at d >= 100. Above d = 1 the limit
    follows the fitted cost ratio 40,000 * sqrt((d + 4) / (d + 40)).
    """
    if d == 1:
        return PAIR_FULL_LIMIT
    return max(PAIR_FULL_LIMIT, int(40_000 * math.sqrt((d + 4) / (d + 40))))


def check_pair_budget(pair_budget) -> int | str:
    """A :func:`moment_stats` pair budget checked: ``"auto"`` and ``"all"``
    pass, anything else becomes an int that must be >= 1 (InvalidSample)."""
    if pair_budget in ("auto", "all"):
        return pair_budget
    budget = int(pair_budget)
    if budget < 1:
        raise InvalidSample(f"pair budget must be >= 1, got {budget}")
    return budget


def _resolve_pair_count(n: int, pair_budget, d: int) -> int | None:
    """None means full enumeration; otherwise the number of sampled pairs."""
    budget = check_pair_budget(pair_budget)
    if budget == "auto":
        return None if n <= exact_pair_limit(d) else PAIR_BUDGET_DEFAULT
    return None if budget == "all" else budget


def moment_stats(
    mu: EmpiricalDistribution,
    pair_budget: int | str = "auto",
    seed: int = 0,
) -> MomentStats:
    """Empirical moment diagnostics of a dataset.

    ``pair_budget`` controls the inner-product moments beta1/beta2: ``"all"``
    enumerates all n^2 ordered pairs exactly, from the upper triangle of the
    Gram matrix in square tiles of bounded size; ``"auto"`` does so up to
    n = exact_pair_limit(d), where exact enumeration costs no more than
    sampling (10^4 at d = 1, rising to about 39,000 at d = 1000), and beyond
    that draws 10^7 seeded independent uniform pairs; an
    integer requests that many sampled pairs. beta1 and beta2 always come
    from the same pairs, preserving beta1 <= beta2.
    """
    data = mu.data
    n = mu.n
    sq_norms = np.einsum("ij,ij->i", data, data)
    m2_raw = float(np.mean(sq_norms))
    alpha = float(np.mean(np.abs(sq_norms - m2_raw)))
    mean = data.mean(axis=0)

    budget = _resolve_pair_count(n, pair_budget, mu.dim)
    abs_sum = 0.0
    sq_sum = 0.0
    if budget is None:
        pair_count = n * n
        # Gram tile (I, J) with J > I stands for itself and its transpose.
        for lo in range(0, n, _PAIR_TILE):
            rows = data[lo : lo + _PAIR_TILE]
            for col in range(lo, n, _PAIR_TILE):
                gram = rows @ data[col : col + _PAIR_TILE].T
                weight = 1.0 if col == lo else 2.0
                sq_sum += weight * float(np.einsum("ij,ij->", gram, gram))
                abs_sum += weight * float(np.abs(gram, out=gram).sum())
    else:
        pair_count = budget
        # np.take into two reused buffers gathered rows 1.4-7x faster than
        # fancy indexing, which allocates a new array per gather. mode="clip"
        # skips take's buffered bounds check; drawn indices are in range.
        left = np.empty((min(_PAIR_CHUNK, budget), mu.dim))
        right = np.empty_like(left)
        for chunk, lo in enumerate(range(0, budget, _PAIR_CHUNK)):
            size = min(_PAIR_CHUNK, budget - lo)
            g = rng.substream(seed, "moment-pairs", chunk)
            np.take(data, g.integers(0, n, size=size), axis=0, out=left[:size], mode="clip")
            np.take(data, g.integers(0, n, size=size), axis=0, out=right[:size], mode="clip")
            prods = np.einsum("ij,ij->i", left[:size], right[:size])
            abs_sum += float(np.abs(prods).sum())
            sq_sum += float((prods * prods).sum())
    beta1 = abs_sum / pair_count
    beta2 = math.sqrt(sq_sum / pair_count)
    return MomentStats(
        dim=mu.dim,
        m2_raw=m2_raw,
        mean=mean,
        alpha=alpha,
        beta1=beta1,
        beta2=beta2,
        pair_count_used=pair_count,
    )


def xi_d(stats: MomentStats) -> float:
    """Scalar controlling how non-Gaussian typical 1D projections are:
    ``(alpha + sqrt(m2 * beta1) + m2^(1/5) * beta2^(4/5)) / d``."""
    return (
        stats.alpha
        + math.sqrt(stats.m2_raw * stats.beta1)
        + stats.m2_raw ** 0.2 * stats.beta2 ** 0.8
    ) / stats.dim


def theorem2_gap_bound(stats_mu: MomentStats, stats_nu: MomentStats) -> float:
    """Unit-constant envelope for the gap between the true sliced distance
    and its Gaussian surrogate: ``sqrt(xi_d(mu) + xi_d(nu))``.

    The true envelope carries an unspecified universal constant; with it set
    to 1 this is an order-of-magnitude diagnostic, not a certified bound.

    For :func:`sw_hat`, pass the statistics of the centered inputs
    (:func:`center`): its mean term ``||mean gap||^2 / d`` is exact, so its
    error is its error on the centered pair. Raw statistics of non-centered
    data describe another pair, and give an envelope several times larger
    that stays flat in d.
    """
    if stats_mu.dim != stats_nu.dim:
        raise DimMismatch(f"dimensions differ: {stats_mu.dim} vs {stats_nu.dim}")
    return math.sqrt(xi_d(stats_mu) + xi_d(stats_nu))


# Size of the blocks the moment passes read, in bytes rather than rows so a
# block stays in cache while it is read twice at any d, and blocks stay large
# enough at small d that per-block call overhead does not dominate.
_CENTER_BLOCK_BYTES = 1 << 19

# Largest kappa^2 = m2 / m2c at which _mean_and_scaled_m2 keeps its one-pass
# moment m2 - ||mean||^2; see its docstring for the error bound.
_KAPPA2_MAX = 16.0


def _block_sums(data: np.ndarray, shift: np.ndarray | None = None):
    """Column sums and sum of squares of ``data - shift``, or of ``data``
    itself when no shift is given, read in blocks of _CENTER_BLOCK_BYTES.

    Per block, the column sums are one GEMV (``ones @ block``) and the sum of
    squares is one dot per 8192-element run of the flat block. OpenBLAS
    splits a product of more than 10^4 elements across its threads, so
    blocks of at most 8192 rows (the whole GEMV at d = 1) and runs of 8192
    elements keep the bits independent of the BLAS thread count.

    Only a shifted pass writes, into one reused block buffer on a 64-byte
    cache line: malloc aligns to 16 bytes, and a misaligned buffer made each
    pass 12-15 % slower at n = 10^4, d = 1000.
    """
    n, d = data.shape
    run = 8192
    rows = min(n, run, max(1, _CENTER_BLOCK_BYTES // (data.itemsize * d)))
    if shift is not None:
        raw = np.empty(rows * d + 8)
        start = -raw.ctypes.data % 64 // 8
        buf = raw[start : start + rows * d].reshape(-1, d)
    ones = np.ones(rows)
    col_sum = np.zeros(d)
    sq_sum = 0.0
    for lo in range(0, n, rows):
        block = data[lo : lo + rows]
        if shift is not None:
            block = np.subtract(block, shift, out=buf[: len(block)])
        col_sum += ones[: len(block)] @ block
        flat = block.reshape(-1)
        cut = len(flat) - len(flat) % run
        runs = flat[:cut]
        sq_sum += (float((runs.reshape(-1, 1, run) @ runs.reshape(-1, run, 1)).sum())
                   + float(flat[cut:] @ flat[cut:]))
    return col_sum, sq_sum


def _mean_and_scaled_m2(dist: EmpiricalDistribution) -> tuple[np.ndarray, float]:
    """Empirical mean and normalized centered second moment m2c/d.

    The data is read in row blocks by :func:`_block_sums`, raw first and,
    when that is not accurate enough, once more shifted by the raw mean.

    * Raw pass. The column sums and the sum of squares of the raw rows give
      the mean and m2 = mean ||x||^2, and m2c = m2 - ||mean||^2. Rounding
      errors of relative size eps in m2 and in ||mean||^2 give m2c an error
      of up to eps (m2 + ||mean||^2) <= 2 eps m2 = 2 kappa^2 eps m2c, where
      kappa^2 = m2 / m2c (Chan, Golub & LeVeque, The American Statistician
      1983). Here eps stands for the relative rounding error of the sums,
      which grows with their number of terms as it does in the shifted pass
      below. The result is kept when m2c > 0 and kappa^2 <= _KAPPA2_MAX = 16,
      so its relative error is at most 2 kappa^2 <= 32 times that of the
      shifted pass: 5 bits.
    * Shifted pass, for every other input (far from the origin, constant
      or a single row). The raw mean s is subtracted from each block into a
      small reused buffer, and the same sums are taken of the shifted rows.
      With t their mean, the mean is s + t and m2c = max(0,
      mean ||x - s||^2 - ||t||^2). The raw mean is accurate to the rounding
      of the data, so ||t||^2 is tiny and the subtraction does not cancel:
      the relative error of m2c stays near eps at any offset.

    No full-size temporary is made on either pass.
    """
    data = dist.data
    n, d = data.shape
    col_sum, sq_sum = _block_sums(data)
    mean = col_sum / n
    m2 = sq_sum / n
    m2c = m2 - float(mean @ mean)
    if m2c > 0.0 and m2 <= _KAPPA2_MAX * m2c:
        return mean, m2c / d
    col_sum, sq_sum = _block_sums(data, mean)
    offset = col_sum / n
    return mean + offset, max(0.0, sq_sum / n - float(offset @ offset)) / d


def sw_hat(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> SwEstimate:
    """Deterministic approximation of the squared sliced 2-distance.

    Each dataset is fitted by the isotropic Gaussian N(mean, (m2c / d) I)
    of its mean and normalized centered second moment, and the value is
    :func:`swkit.core_ot.sw2_gaussian_iso_closed` of the two fits:

        ||mean_mu - mean_nu||^2 / d + (sqrt(m2c_mu / d) - sqrt(m2c_nu / d))^2

    O(nd) time, no sorting, no randomness. Sample counts may differ: only
    means and mean squared norms enter. Inputs of different dimension fail
    before either is read.

    :func:`_mean_and_scaled_m2` reads each input in blocks, first by BLAS
    sums of the raw rows. When kappa^2 = m2 / m2c, the ratio of the raw to
    the centered second moment, is at most 16, the one-pass moment
    m2 - ||mean||^2 is kept: it has at most 2 kappa^2 <= 32 times the
    relative rounding error of a shifted pass (5 bits). Otherwise, as for
    data far from the origin, the input is read once more, as rows minus
    the raw mean, whose error does not grow with the offset. The bits do
    not depend on the BLAS thread count.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    t0 = time.perf_counter_ns()
    fits = []
    for dist in (mu, nu):
        mean, scaled = _mean_and_scaled_m2(dist)
        fits.append(IsoGaussian(dist.dim, mean, math.sqrt(scaled)))
    return SwEstimate(
        value_sq=sw2_gaussian_iso_closed(*fits),
        method=Method.DETERMINISTIC,
        wall_time_ns=time.perf_counter_ns() - t0,
    )


def sw_moment_approx_sq(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> float:
    """Mean-free variant of :func:`sw_hat`: :func:`sw2_gaussian_iso_closed`
    of the zero-mean isotropic Gaussians fitted to the *raw* normalized
    second moments.

    Accurate only when both datasets are (near) centered; on raw data with
    large means the error does not vanish with dimension, which is exactly
    the failure mode the convergence benchmark demonstrates.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    scaled_mu = float(np.mean(np.einsum("ij,ij->i", mu.data, mu.data))) / mu.dim
    scaled_nu = float(np.mean(np.einsum("ij,ij->i", nu.data, nu.data))) / nu.dim
    zero = np.zeros(mu.dim)
    return sw2_gaussian_iso_closed(IsoGaussian(mu.dim, zero, math.sqrt(scaled_mu)),
                                   IsoGaussian(nu.dim, zero, math.sqrt(scaled_nu)))


def estimate(
    mu: EmpiricalDistribution,
    nu: EmpiricalDistribution,
    method: Method,
    *,
    L: int = 0,
    p: float = 2.0,
    seed: int = 0,
    workers: int = 1,
) -> SwEstimate:
    """Squared sliced-distance estimate by ``method``, labelled with it.

    This is the only code that maps a method to its estimator. ``L`` and
    ``p`` are checked first, by :meth:`Method.check_args`. ``mc-cv`` runs
    :func:`monte_carlo_sw_cv`, and the plain Monte Carlo methods run
    :func:`monte_carlo_sw_pp` under their direction law, with ``L``, ``p``,
    ``seed`` and ``workers``. The other methods are deterministic order-2
    surrogates: they ignore ``L``, ``seed`` and ``workers``.

    * ``deterministic`` gives :func:`sw_hat`,
    * ``raw-moment`` gives :func:`sw_moment_approx_sq`.
    """
    method = Method(method)
    L, p = method.check_args(L, p)
    if method is Method.MONTE_CARLO_CV:
        return monte_carlo_sw_cv(mu, nu, L, seed=seed, workers=workers)[0]
    if method.is_mc:
        est, _ = monte_carlo_sw_pp(mu, nu, L, p=p, law=method.law, seed=seed, workers=workers)
        return est
    if method is Method.DETERMINISTIC:
        return sw_hat(mu, nu)
    t0 = time.perf_counter_ns()
    value_sq = sw_moment_approx_sq(mu, nu)
    return SwEstimate(value_sq=value_sq, method=method, wall_time_ns=time.perf_counter_ns() - t0)


def indep_bound(d: int, max_var: float, max_var_sq: float) -> float:
    """Projection non-Gaussianity envelope for independent coordinates:
    ``d^(-1/2) * sqrt(max_var_sq) + (d^(-1/4) + d^(-2/5)) * max_var``,
    where max_var bounds coordinate variances and max_var_sq the variances
    of squared coordinates."""
    if d < 1:
        raise InvalidSample(f"dimension must be >= 1, got {d}")
    if max_var < 0.0 or max_var_sq < 0.0:
        raise InvalidSample("variance bounds must be >= 0")
    return d ** -0.5 * math.sqrt(max_var_sq) + (d ** -0.25 + d ** -0.4) * max_var


def weakdep_bound(d: int, params: WeakDepParams) -> float:
    """Projection non-Gaussianity envelope under fourth-order weak dependence
    (unit leading constant). Decays to 0 as d grows for fixed coefficients."""
    if d < 1:
        raise InvalidSample(f"dimension must be >= 1, got {d}")
    core = params.rho0 ** 2 + 2.0 * params.rho_inf * params.rho_max_tail
    return (
        d ** -0.5 * math.sqrt(params.rho0 + 2.0 * params.rho_inf)
        + d ** -0.25 * math.sqrt(params.rho0) * core ** 0.25
        + d ** -0.4 * params.rho0 ** 0.2 * core ** 0.4
    )


def autocov_decay(
    mu: EmpiricalDistribution, max_lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical coordinate autocovariances of the data and of its squares.

    For each lag k <= max_lag, averages the sample covariance (denominator
    n - 1) between coordinates i and i + k over all valid i, once for the
    raw coordinates and once for their squares. Lag 0 gives the average
    per-coordinate variances. Returns (lags, cov, cov_sq).
    """
    max_lag = int(max_lag)
    if max_lag < 0 or max_lag >= mu.dim:
        raise InvalidLag(f"max_lag must be in [0, {mu.dim - 1}], got {max_lag}")
    if mu.n < 2:
        raise InsufficientSamples("autocovariances need at least 2 samples")
    n, d = mu.n, mu.dim
    x = mu.data - mu.data.mean(axis=0)
    x2 = mu.data * mu.data
    x2 -= x2.mean(axis=0)
    lags = np.arange(max_lag + 1)
    cov = np.empty(max_lag + 1)
    cov_sq = np.empty(max_lag + 1)
    for k in lags:
        width = d - k
        cov[k] = float(np.einsum("ij,ij->", x[:, :width], x[:, k:])) / ((n - 1) * width)
        cov_sq[k] = float(np.einsum("ij,ij->", x2[:, :width], x2[:, k:])) / ((n - 1) * width)
    return lags, cov, cov_sq

