"""Sliced-Wasserstein estimators and moment diagnostics for empirical data.

Estimation routes
-----------------
* :func:`monte_carlo_sw_pp` averages one-dimensional transport costs over
  random projection directions, drawn either uniformly on the unit sphere or
  from the Gaussian law N(0, I/d). At order 2 the two direction laws give the
  same value in expectation; at other orders they differ by the closed-form
  factor :func:`gaussian_projection_constant`.
* :func:`sw_hat` is a deterministic O(nd) approximation: each dataset is
  centered and replaced by a one-dimensional zero-mean Gaussian whose variance
  is the normalized second moment of the centered data, and the exact
  mean-separation term ``(1/d) * ||mean gap||^2`` is added back. No sampling,
  no sorting, no tunable projection count. The value is also the exact
  sliced distance between the two moment-fit isotropic Gaussians, so one
  label, ``deterministic``, covers both readings.
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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .core_ot import Samples1d
from .errors import (
    DimMismatch,
    InsufficientSamples,
    InvalidLag,
    InvalidOrder,
    InvalidSample,
    LengthMismatch,
)

# Fixed internal block width for batched projection work. Part of the
# numerical contract: changing it would change low-order bits of Monte Carlo
# estimates (BLAS and reduction shapes would differ).
PROJECTION_BLOCK = 1024

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
    DETERMINISTIC = "deterministic"
    RAW_MOMENT = "raw-moment"

    @property
    def is_mc(self) -> bool:
        return self.law is not None


@dataclass(frozen=True)
class EmpiricalDistribution:
    """n samples in R^d with uniform weights; rows of ``data`` are samples."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, copy=True, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidSample(f"data must be an (n, d) matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidSample("data must be finite (no NaN or inf)")
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

    ``std_error`` is the Monte Carlo standard error of ``value_sq``, the
    sample standard deviation of the per-projection values over sqrt(L)
    (0 at L = 1), and 0 for the deterministic methods.
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
    over lags 1..d-1, and ``rho_inf`` the sum of the whole sequence; ``K`` is
    the multiplicative constant of the decay condition.
    """

    rho0: float
    rho_inf: float
    rho_max_tail: float
    K: float = 1.0

    def __post_init__(self):
        for name in ("rho0", "rho_inf", "rho_max_tail", "K"):
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
    return mean, EmpiricalDistribution(mu.data - mean)


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
) -> np.ndarray:
    """``count`` projection directions in R^d under ``law``, one per row.

    Row i is Monte Carlo direction ``start + i``, drawn from the stream keyed
    (seed, start + i), so any range of directions can be drawn on its own and
    equals the same rows of a longer draw. Sphere directions are normalized
    Gaussian vectors (a zero vector, of probability zero, is redrawn from the
    same stream); Gaussian directions are N(0, I/d).

    Rather than build ``rng.substream(seed, start + i)`` per row, one Philox
    generator is set to each row's key from :func:`rng.philox_keys` in the
    state of a fresh stream, so it yields the same bits.
    """
    if d < 1 or count < 1:
        raise InvalidSample(f"d and count must be >= 1, got d={d}, count={count}")
    law = ProjectionLaw(law)
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    state = _fresh_philox_state(None)
    dirs = np.empty((count, d))
    for row, key in zip(dirs, rng.philox_keys(seed, start, count).tolist()):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.standard_normal(out=row)
        if law is ProjectionLaw.SPHERE_UNIFORM:
            norm = math.sqrt(float(row @ row))
            while norm == 0.0:  # probability zero, but keep the contract airtight
                generator.standard_normal(out=row)
                norm = math.sqrt(float(row @ row))
            row /= norm
    if law is ProjectionLaw.GAUSSIAN_SCALED:
        dirs /= math.sqrt(d)
    return dirs


def _projection_block(mu_data, nu_data, p, law, seed, lo, hi):
    """Per-projection transport costs for directions lo..hi-1 (index-keyed streams)."""
    dirs = sample_directions(mu_data.shape[1], seed, hi - lo, law, start=lo)
    px = dirs @ mu_data.T
    py = dirs @ nu_data.T
    for i in range(hi - lo):  # row-wise sorts hit numpy's vectorized path
        px[i].sort()
        py[i].sort()
    diff = px
    diff -= py
    if p == 2.0:  # squaring needs no abs: it gives the same bits
        diff *= diff
    else:
        np.abs(diff, out=diff)
        if p != 1.0:
            diff **= p
    return diff.mean(axis=1)


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
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise LengthMismatch(f"sample sizes differ: {mu.n} vs {nu.n}")
    L = int(L)
    if L < 1:
        raise InvalidSample(f"projection count L must be >= 1, got {L}")
    p = float(p)
    if p < 1.0:
        raise InvalidOrder(f"order p must be >= 1, got {p}")
    workers = max(1, int(workers))
    law = ProjectionLaw(law)

    t0 = time.perf_counter_ns()
    values = np.empty(L)
    blocks = [(lo, min(lo + PROJECTION_BLOCK, L)) for lo in range(0, L, PROJECTION_BLOCK)]
    if workers == 1 or len(blocks) == 1:
        for lo, hi in blocks:
            values[lo:hi] = _projection_block(mu.data, nu.data, p, law, seed, lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_projection_block, mu.data, nu.data, p, law, seed, lo, hi): (lo, hi)
                for lo, hi in blocks
            }
            for fut, (lo, hi) in futures.items():
                values[lo:hi] = fut.result()
    estimate = SwEstimate(
        value_sq=float(np.mean(values)),
        method=next(m for m in Method if m.law is law),
        num_projections=L,
        seed=int(seed),
        wall_time_ns=time.perf_counter_ns() - t0,
        std_error=float(values.std(ddof=1)) / math.sqrt(L) if L > 1 else 0.0,
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
    p = float(p)
    if p < 1.0:
        raise InvalidOrder(f"order p must be >= 1, got {p}")
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


def _resolve_pair_count(n: int, pair_budget, d: int = 1) -> int | None:
    """None means full enumeration; otherwise the number of sampled pairs.
    ``d`` defaults to 1, the dimension with the lowest "auto" limit."""
    if pair_budget == "auto":
        return None if n <= exact_pair_limit(d) else PAIR_BUDGET_DEFAULT
    if pair_budget == "all":
        return None
    budget = int(pair_budget)
    if budget < 1:
        raise InvalidSample(f"pair budget must be >= 1, got {budget}")
    return budget


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
    """
    if stats_mu.dim != stats_nu.dim:
        raise DimMismatch(f"dimensions differ: {stats_mu.dim} vs {stats_nu.dim}")
    return math.sqrt(xi_d(stats_mu) + xi_d(stats_nu))


# Size of the reused buffer of the centered pass, in bytes rather than rows so
# the buffer stays in cache while it is read twice at any d, and blocks stay
# large enough at small d that per-block call overhead does not dominate.
_CENTER_BLOCK_BYTES = 1 << 19


def _mean_and_scaled_m2(dist: EmpiricalDistribution) -> tuple[np.ndarray, float]:
    """Empirical mean and normalized centered second moment m2/d.

    The data is read once, in row blocks. A pilot shift s, the mean of the
    first block, is subtracted from each block into a small reused buffer,
    and the column sums and the sum of squares of the shifted rows are both
    taken from that buffer. With t the mean of the shifted rows, the mean is
    s + t and the centered moment is
    max(0, mean ||x - s||^2 - ||t||^2). Since s already lies near the mean,
    ||t||^2 is small and the subtraction does not cancel the way the raw
    identity m2 - ||mean||^2 does for far-from-origin data. No full centered
    copy is materialized.
    """
    data = dist.data
    n, d = data.shape
    rows = max(1, _CENTER_BLOCK_BYTES // (data.itemsize * d))
    shift = data[:rows].mean(axis=0)
    buf = np.empty((min(rows, n), d))
    ones = np.ones(len(buf))
    col_sum = np.zeros(d)
    sq_sum = 0.0
    for lo in range(0, n, rows):
        block = buf[: min(rows, n - lo)]
        np.subtract(data[lo : lo + rows], shift, out=block)
        col_sum += ones[: len(block)] @ block
        # einsum rather than a BLAS dot: with more than one BLAS thread the
        # dot splits the cache-resident block across cores and runs slower.
        sq_sum += float(np.einsum("ij,ij->", block, block))
    offset = col_sum / n
    return shift + offset, max(0.0, sq_sum / n - float(offset @ offset)) / d


def sw_hat(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> SwEstimate:
    """Deterministic approximation of the squared sliced 2-distance.

    Each dataset is centered and summarized by the zero-mean 1D Gaussian with
    variance equal to its normalized centered second moment; the value is the
    squared gap of those scales plus the exact mean-separation term:

        (sqrt(m2c_mu / d) - sqrt(m2c_nu / d))^2 + ||mean_mu - mean_nu||^2 / d

    O(nd) time, no sorting, no randomness. Sample counts may differ: only
    means and mean squared norms enter.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    t0 = time.perf_counter_ns()
    mean_mu, scaled_mu = _mean_and_scaled_m2(mu)
    mean_nu, scaled_nu = _mean_and_scaled_m2(nu)
    delta = mean_mu - mean_nu
    value = (math.sqrt(scaled_mu) - math.sqrt(scaled_nu)) ** 2 + float(delta @ delta) / mu.dim
    return SwEstimate(
        value_sq=value,
        method=Method.DETERMINISTIC,
        num_projections=0,
        seed=0,
        wall_time_ns=time.perf_counter_ns() - t0,
    )


def sw_moment_approx_sq(mu: EmpiricalDistribution, nu: EmpiricalDistribution) -> float:
    """Mean-free variant of :func:`sw_hat`: squared gap between the zero-mean
    1D Gaussian surrogates fitted to the *raw* normalized second moments.

    Accurate only when both datasets are (near) centered; on raw data with
    large means the error does not vanish with dimension, which is exactly
    the failure mode the convergence benchmark demonstrates.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    scaled_mu = float(np.mean(np.einsum("ij,ij->i", mu.data, mu.data))) / mu.dim
    scaled_nu = float(np.mean(np.einsum("ij,ij->i", nu.data, nu.data))) / nu.dim
    return (math.sqrt(scaled_mu) - math.sqrt(scaled_nu)) ** 2


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

    This is the only code that maps a method to its estimator. Monte Carlo
    methods run :func:`monte_carlo_sw_pp` under their direction law with
    ``L``, ``p``, ``seed`` and ``workers``. The other methods are
    deterministic order-2 surrogates: they ignore ``L``, ``seed`` and
    ``workers``, and raise :class:`InvalidOrder` unless p = 2.

    * ``deterministic`` gives :func:`sw_hat`, which is also the exact sliced
      distance between the two moment-fit isotropic Gaussians,
    * ``raw-moment`` gives :func:`sw_moment_approx_sq`.
    """
    method = Method(method)
    if method.is_mc:
        est, _ = monte_carlo_sw_pp(mu, nu, L, p=p, law=method.law, seed=seed, workers=workers)
        return est
    if float(p) != 2.0:
        raise InvalidOrder(f"method {method.value} is an order-2 surrogate, got p={p}")
    t0 = time.perf_counter_ns()
    if method is Method.RAW_MOMENT:
        value_sq = sw_moment_approx_sq(mu, nu)
    else:
        value_sq = sw_hat(mu, nu).value_sq
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

