"""Correctness oracles for the benchmark workloads.

Each oracle recomputes what a result must be by a route independent of the
code under test (a plain numpy formula, the published stream contract, an
all-pairs Gram product) or compares two results the library promises to be
identical. A failed check raises :class:`OracleFailure`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from swkit import rng

SW_HAT_RTOL = 1e-10
PER_PROJECTION_RTOL = 1e-9
EXACT_STAT_RTOL = 1e-12
MC_PREFIX = 4  # leading directions recomputed from the stream contract
SAMPLED_BETA_SIGMAS = 6.0
_BLOCK_ROWS = 500


class OracleFailure(AssertionError):
    """An output disagrees with its oracle."""


def _close(label, got, want, rtol, atol=0.0):
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise OracleFailure(f"{label}: got {got!r}, expected {want!r} (rtol {rtol:g})")


def centered_scale_sq(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean and normalized centered second moment, two passes, row blocks."""
    mean = x.mean(axis=0)
    total = 0.0
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        block = x[lo : lo + _BLOCK_ROWS] - mean
        total += float(np.sum(block * block))
    return mean, total / x.size


def sw_hat_reference(x: np.ndarray, y: np.ndarray) -> float:
    """The deterministic surrogate from its defining formula."""
    mx, sx = centered_scale_sq(x)
    my, sy = centered_scale_sq(y)
    gap = mx - my
    return (math.sqrt(sx) - math.sqrt(sy)) ** 2 + float(np.sum(gap * gap)) / x.shape[1]


def check_sw_hat(value_sq: float, reference: float) -> None:
    _close("sw_hat value_sq", value_sq, reference, SW_HAT_RTOL)


def check_mc(estimate, values: np.ndarray, x: np.ndarray, y: np.ndarray, L: int,
             seed: int) -> None:
    """Sphere-law, p=2 Monte Carlo result: shape, mean, and the first
    directions recomputed from ``rng.substream(seed, l)`` plus ``np.sort``."""
    if values.shape != (L,) or estimate.num_projections != L:
        raise OracleFailure(f"expected {L} projections, got {values.shape}")
    if estimate.value_sq != float(np.mean(values)):
        raise OracleFailure("value_sq is not the mean of the per-projection values")
    d = x.shape[1]
    for l in range(min(MC_PREFIX, L)):
        g = rng.substream(seed, l).standard_normal(d)
        theta = g / math.sqrt(float(g @ g))
        gap = np.sort(x @ theta) - np.sort(y @ theta)
        _close(f"per-projection value {l}", float(values[l]), float(np.mean(gap * gap)),
               PER_PROJECTION_RTOL)


def check_estimate_row(line: str, method: str, value_sq: float, num_projections: int) -> None:
    """``swkit estimate`` row against the in-memory estimate, bit for bit."""
    fields = line.strip().split(",")
    want = [method, repr(value_sq), repr(math.sqrt(value_sq)), str(num_projections)]
    if len(fields) != 5 or fields[:4] != want:
        raise OracleFailure(f"estimate row {line.strip()!r}, expected prefix {want}")


@dataclasses.dataclass(frozen=True)
class DiagnosticsReference:
    """Exact statistics of one dataset, from plain numpy at set-up."""

    n: int
    d: int
    m2_raw: float
    alpha: float
    mean_norm: float
    beta1: float
    beta2: float
    abs_std: float  # std of |<x_i, x_j>| over all ordered pairs
    sq_std: float  # std of <x_i, x_j>^2 over all ordered pairs
    autocov: tuple[float, ...]
    autocov_sq: tuple[float, ...]


def diagnostics_reference(x: np.ndarray, max_lag: int = 10) -> DiagnosticsReference:
    n, d = x.shape
    sq = (x * x).sum(axis=1)
    m2 = float(sq.sum() / n)
    s1 = s2 = s4 = 0.0
    for lo in range(0, n, _BLOCK_ROWS):
        gram = x[lo : lo + _BLOCK_ROWS] @ x.T
        s1 += float(np.abs(gram).sum())
        gram *= gram
        s2 += float(gram.sum())
        s4 += float((gram * gram).sum())
    pairs = n * n
    mean_abs, mean_sq = s1 / pairs, s2 / pairs
    xc = x - x.mean(axis=0)
    x2 = x * x
    x2c = x2 - x2.mean(axis=0)
    lags = range(min(max_lag, d - 1) + 1)
    return DiagnosticsReference(
        n=n, d=d, m2_raw=m2,
        alpha=float(np.abs(sq - m2).sum() / n),
        mean_norm=float(np.linalg.norm(x.mean(axis=0))),
        beta1=mean_abs, beta2=math.sqrt(mean_sq),
        abs_std=math.sqrt(max(mean_sq - mean_abs ** 2, 0.0)),
        sq_std=math.sqrt(max(s4 / pairs - mean_sq ** 2, 0.0)),
        autocov=tuple(float(np.sum(xc[:, : d - k] * xc[:, k:])) / ((n - 1) * (d - k))
                      for k in lags),
        autocov_sq=tuple(float(np.sum(x2c[:, : d - k] * x2c[:, k:])) / ((n - 1) * (d - k))
                         for k in lags),
    )


def check_diagnostics(text: str, ref: DiagnosticsReference) -> None:
    """``swkit diagnostics`` output: exact statistics to rounding, sampled
    beta statistics within a few standard errors of the all-pairs values."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise OracleFailure(f"diagnostics line without '=': {line!r}")
        out[key] = value
    try:
        if int(out["n"]) != ref.n or int(out["d"]) != ref.d:
            raise OracleFailure(f"diagnostics shape {out['n']}x{out['d']}")
        pairs = int(out["pair_count_used"])
        got = {k: float(v) for k, v in out.items() if k not in ("n", "d", "pair_count_used")}
    except (KeyError, ValueError) as exc:
        raise OracleFailure(f"diagnostics output unreadable: {exc!r}")
    if pairs < 1:
        raise OracleFailure(f"pair_count_used={pairs}")

    def val(key):
        return got.get(key, math.nan)

    m2, beta1, beta2 = val("m2_raw"), val("beta1"), val("beta2")
    _close("m2_raw", m2, ref.m2_raw, EXACT_STAT_RTOL)
    _close("m2_normalized", val("m2_normalized"), ref.m2_raw / ref.d, EXACT_STAT_RTOL)
    _close("alpha", val("alpha"), ref.alpha, EXACT_STAT_RTOL)
    _close("mean_norm", val("mean_norm"), ref.mean_norm, EXACT_STAT_RTOL)
    # Sampled pairs are drawn with replacement; all n^2 pairs are exact.
    se = 0.0 if pairs >= ref.n * ref.n else 1.0 / math.sqrt(pairs)
    _close("beta1", beta1, ref.beta1, 1e-9, SAMPLED_BETA_SIGMAS * ref.abs_std * se)
    _close("beta2^2", beta2 ** 2, ref.beta2 ** 2, 1e-9, SAMPLED_BETA_SIGMAS * ref.sq_std * se)
    xi = (val("alpha") + math.sqrt(m2 * beta1) + m2 ** 0.2 * beta2 ** 0.8) / ref.d
    _close("xi_d", val("xi_d"), xi, EXACT_STAT_RTOL)
    for k, (cov, cov_sq) in enumerate(zip(ref.autocov, ref.autocov_sq)):
        _close(f"autocov_cov[{k}]", val(f"autocov_cov[{k}]"), cov,
               0.0, 1e-9 * abs(ref.autocov[0]))
        _close(f"autocov_cov_sq[{k}]", val(f"autocov_cov_sq[{k}]"), cov_sq,
               0.0, 1e-9 * abs(ref.autocov_sq[0]))


def check_same_records(label: str, got, want) -> None:
    """Records of a repeated experiment are identical except for wall time."""
    def strip(records):
        return [dataclasses.replace(r, wall_time_ns=0) for r in records]

    if strip(got) != strip(want):
        raise OracleFailure(f"{label}: records differ between repetitions")


def check_records(label: str, records, expected_count: int) -> None:
    """Record count and the distance-scale error each record derives."""
    if len(records) != expected_count:
        raise OracleFailure(f"{label}: {len(records)} records, expected {expected_count}")
    for r in records:
        err = abs(math.sqrt(r.estimate_sq) - math.sqrt(r.reference_sq))
        if not (math.isfinite(r.estimate_sq) and r.abs_error == err):
            raise OracleFailure(f"{label}: inconsistent record {r}")


def check_ar_references(records) -> None:
    """Both AR datasets share one law, so every reference is exactly 0."""
    bad = [r for r in records if r.reference_sq != 0.0]
    if bad:
        raise OracleFailure(f"AR reference not zero: {bad[0]}")


def check_raw_surrogate(record, x: np.ndarray, y: np.ndarray) -> None:
    """A convergence record's estimate is the uncentered moment surrogate."""
    d = x.shape[1]
    sx = float(np.sum(x * x)) / x.size
    sy = float(np.sum(y * y)) / y.size
    _close(f"estimate_sq at d={d}", record.estimate_sq, (math.sqrt(sx) - math.sqrt(sy)) ** 2,
           SW_HAT_RTOL)
