"""Experiment runners for the synthetic benchmarks, with CSV output.

Two experiments, each running every configured method on every cell
through :func:`swkit.estimators.estimate`. A record's wall time is the
estimator's own clock (``SwEstimate.wall_time_ns``), so data generation and
the reference are never timed:

* :func:`run_convergence` measures, per dimension and run, the error of each
  method against a reference value that the :class:`Scenario` decides. By
  default the method is the raw moment surrogate, labelled ``raw-moment``,
  whose error on non-centered data does not vanish with dimension. This
  reproduces the error-versus-dimension study at a desk-friendly scale by
  default.
* :func:`run_timing` compares the deterministic approximation against Monte
  Carlo at several projection counts, recording accuracy against a
  high-projection reference and wall time per estimator call, the median of
  three repetitions per cell to damp scheduler noise.

Determinism: each experiment cell derives its seed from the master seed and
the cell coordinates, so serial and parallel executions produce identical
records (wall times aside). Errors are always recorded on the distance scale:
``abs_error = |sqrt(estimate_sq) - sqrt(reference_sq)|``.

Schema: the fields of :class:`ResultRecord` and :class:`SummaryRow`, in
declaration order, are the columns of the records and summary CSVs
(``RECORD_FIELDS`` and ``SUMMARY_FIELDS`` are derived from them), and
``_cell_records`` is the one place a record is built.
"""

from __future__ import annotations

import enum
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import __version__, rng
from .core_ot import IsoGaussian, sw2_gaussian_iso_closed
from .datagen import (
    Ar1Config,
    DatasetRole,
    FactorConfig,
    FactorFamily,
    NoiseKind,
    atomic_write,
    check_alpha,
    factor_hyperparams,
    gen_ar1,
    gen_factors,
)
from .errors import EmptyInput, InvalidSample, NonPositiveError, SwkitError
from .estimators import PROJECTION_BLOCK, Method, estimate, monte_carlo_sw_cv

DESK_D_GRID = (10, 32, 100, 316, 1000)
DESK_RUNS = 20
DESK_N = 2000
PAPER_RUNS = 100
PAPER_N = 10_000
REFERENCE_L = 20_000
TIMING_L_GRID = (100, 1000, 5000)
DEFAULT_ALPHAS = (0.2, 0.5, 0.8)

_TIMING_REPS = 3
# Directions in a gamma reference's first mc-cv estimate, 16 * CV_MIN_PROJECTIONS
# (124 residual degrees of freedom for the fit's four parameters). At n=2000,
# d=10..1000 a 512-direction start read 0.07-0.35 of its target standard error
# at reference_L = 5000..20000, so a full block overshot it; at 128 the
# standard error still tracks the spread of the estimates (mean se / sd read
# 0.91-1.02 over 400 seeds, 0.92-1.04 at 512).
_PILOT_L = 128

class Scenario(str, enum.Enum):
    """A synthetic study pair and its recipe: a factor scenario draws both
    datasets from ``family``, ``centered`` or not; an AR scenario draws AR(1)
    trajectories with innovations ``noise``. ``mc_reference`` is true when no
    closed form gives the reference (gamma), which is then an ``mc-cv``
    estimate; otherwise it is the sliced distance of the two Gaussian laws,
    or exactly zero for AR (one law)."""

    def __new__(cls, value, family=None, centered=False, noise=None):
        member = str.__new__(cls, value)
        member._value_ = value
        member.family = family
        member.centered = centered
        member.noise = noise
        member.mc_reference = family is FactorFamily.GAMMA
        return member

    GAUSSIAN_NONCENTERED = "gaussian-noncentered", FactorFamily.GAUSSIAN
    GAUSSIAN_CENTERED = "gaussian-centered", FactorFamily.GAUSSIAN, True
    GAMMA_NONCENTERED = "gamma-noncentered", FactorFamily.GAMMA
    GAMMA_CENTERED = "gamma-centered", FactorFamily.GAMMA, True
    AR1_GAUSSIAN = "ar1-gaussian", None, False, NoiseKind.GAUSSIAN
    AR1_STUDENT = "ar1-student", None, False, NoiseKind.STUDENT_T10


@dataclass(frozen=True)
class MethodSpec:
    """One estimator to run: a deterministic method, or Monte Carlo with a
    given projection count."""

    method: Method
    L: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "L", self.method.check_args(self.L, 2.0)[0])
        if not self.method.is_mc and self.L != 0:
            raise InvalidSample(f"non-Monte-Carlo method must have L = 0, got {self.L}")

    @property
    def label(self) -> str:
        if self.L:
            return f"{self.method.value}-{self.L}"
        return self.method.value


def _checked(field: str, check, *args) -> None:
    """``check(*args)``, with its error message prefixed by the config field."""
    try:
        check(*args)
    except SwkitError as exc:
        raise type(exc)(f"{field}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    ``alpha_list`` applies to (and is required for) the AR scenarios only.
    Both experiments write one record per cell and entry of ``methods``,
    which defaults to the convergence study's raw moment surrogate, and take
    each record's wall time from the estimator's own clock. An AR dataset
    starts stationary: a Gaussian row from an exact draw of its stationary
    law, a Student row after as many steps before its kept window as its
    alpha needs (:class:`swkit.datagen.Ar1Config`), so no field sets them.

    The scenario decides the reference (:class:`Scenario`). A Monte Carlo
    reference is an ``mc-cv`` estimate as accurate as plain sphere Monte
    Carlo with ``reference_L`` projections (:func:`_reference`). It starts
    from a 128-direction pilot and takes more directions, at most
    ``reference_L``, only when the pilot misses that accuracy, so
    ``reference_L`` obeys the ``mc-cv`` rule: at least 8.
    """

    scenario: Scenario
    d_grid: tuple[int, ...] = DESK_D_GRID
    n: int = DESK_N
    runs: int = DESK_RUNS
    alpha_list: tuple[float, ...] = ()
    reference_L: int = REFERENCE_L
    methods: tuple[MethodSpec, ...] = (MethodSpec(Method.RAW_MOMENT),)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "d_grid", tuple(int(d) for d in self.d_grid))
        object.__setattr__(self, "alpha_list", tuple(float(a) for a in self.alpha_list))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.d_grid or any(d < 1 for d in self.d_grid):
            raise InvalidSample("d_grid must be nonempty with positive entries")
        if any(b <= a for a, b in zip(self.d_grid, self.d_grid[1:])):
            raise InvalidSample(f"d_grid must be strictly increasing, got {self.d_grid}")
        if self.runs < 1 or self.n < 1:
            raise InvalidSample(f"runs and n must be >= 1, got runs={self.runs}, n={self.n}")
        is_ar = self.scenario.noise is not None
        if is_ar and not self.alpha_list:
            raise InvalidSample(f"scenario {self.scenario.value} needs a nonempty alpha_list")
        if not is_ar and self.alpha_list:
            raise InvalidSample(f"scenario {self.scenario.value} takes no alpha_list")
        for alpha in self.alpha_list:
            _checked("alpha_list", check_alpha, alpha)
        if len(set(self.alpha_list)) < len(self.alpha_list):
            raise InvalidSample(f"alpha_list must not repeat a value, got {self.alpha_list}")
        _checked("reference_L", Method.MONTE_CARLO_CV.check_args, self.reference_L, 2.0)
        if self.master_seed < 0:
            raise InvalidSample(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise InvalidSample("methods must be nonempty")


@dataclass(frozen=True)
class ResultRecord:
    """One experiment cell result, one column of the records CSV per field in
    this order; ``abs_error`` lives on the distance scale. ``reference_se``
    is the standard error of ``reference_sq``: that of the ``mc-cv``
    estimate for gamma cells, 0.0 for closed-form and AR references."""

    scenario: str
    run_id: int
    d: int
    n: int
    alpha: float | None
    method: str
    estimate_sq: float
    reference_sq: float
    reference_se: float
    abs_error: float
    wall_time_ns: int
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    scenario: str
    d: int
    method: str
    mean_error: float
    p10: float
    p90: float
    mean_time_ns: float
    slope_to_date: float | None


RECORD_FIELDS = tuple(f.name for f in fields(ResultRecord))
SUMMARY_FIELDS = tuple(f.name for f in fields(SummaryRow))


def _study_config(paper_scale: bool, desk: dict, **fields) -> ExperimentConfig:
    """``ExperimentConfig(**fields)``, each None field set to its paper-scale
    size under ``paper_scale``, else to its ``desk`` value, else left default."""
    sizes = {"n": PAPER_N, "runs": PAPER_RUNS} if paper_scale else desk
    return ExperimentConfig(**{name: sizes[name] if value is None else value
                               for name, value in fields.items()
                               if value is not None or name in sizes})


def default_convergence_config(
    scenario: Scenario,
    paper_scale: bool = False,
    master_seed: int = 0,
    d_grid: Sequence[int] | None = None,
    n: int | None = None,
    runs: int | None = None,
    alpha_list: Sequence[float] | None = None,
) -> ExperimentConfig:
    """Convergence-experiment config with desk-scale defaults (paper-scale
    sizes behind the flag) for the raw moment surrogate."""
    scenario = Scenario(scenario)
    if alpha_list is None and scenario.noise is not None:
        alpha_list = DEFAULT_ALPHAS
    return _study_config(paper_scale, {}, scenario=scenario, master_seed=master_seed,
                         d_grid=d_grid, n=n, runs=runs, alpha_list=alpha_list)


def default_timing_config(
    paper_scale: bool = False,
    master_seed: int = 0,
    d_grid: Sequence[int] | None = None,
    n: int | None = None,
    runs: int | None = None,
) -> ExperimentConfig:
    """Timing-experiment config: centered Gamma data, the deterministic
    approximation against Monte Carlo at the standard projection counts,
    errors judged against the high-projection Monte Carlo reference."""
    methods = (MethodSpec(Method.DETERMINISTIC),) + tuple(
        MethodSpec(Method.MONTE_CARLO_SPHERE, L) for L in TIMING_L_GRID
    )
    return _study_config(paper_scale, {"runs": 3},
                         scenario=Scenario.GAMMA_CENTERED, master_seed=master_seed,
                         d_grid=d_grid, n=n, runs=runs, methods=methods)


def _cell_seed(cfg: ExperimentConfig, alpha_idx: int, d: int, run: int) -> int:
    return rng.derive_seed(cfg.master_seed, "cell", cfg.scenario.value, alpha_idx, d, run)


def _generate_pair(cfg, d, alpha, cell_seed):
    """Build the two datasets of one cell plus the closed-form reference
    (None when the scenario's reference is Monte Carlo)."""
    scenario = cfg.scenario
    if scenario.noise is not None:
        mu, nu = (gen_ar1(Ar1Config(dim=d, n=cfg.n, alpha=alpha, noise=scenario.noise,
                                    seed=rng.derive_seed(cell_seed, "traj", side)))
                  for side in (0, 1))
        return mu, nu, 0.0  # same law on both sides: the true distance is zero
    cfg_a, cfg_b = (FactorConfig(dim=d, n=cfg.n, family=scenario.family,
                                 centered=scenario.centered, role=role, seed=cell_seed)
                    for role in (DatasetRole.FIRST, DatasetRole.SECOND))
    mu, nu = gen_factors(cfg_a), gen_factors(cfg_b)
    if scenario.mc_reference:
        return mu, nu, None
    ga, gb = (IsoGaussian(d, np.zeros(d) if scenario.centered else h.per_column, h.scale)
              for h in (factor_hyperparams(cfg_a), factor_hyperparams(cfg_b)))
    return mu, nu, sw2_gaussian_iso_closed(ga, gb)


def _reference(cfg, mu, nu, closed_ref, cell_seed) -> tuple[float, float]:
    """The cell's reference value and its standard error: a closed form with
    error 0, or, for gamma, the ``mc-cv`` estimate on directions 0..L-1 of
    the cell's reference stream.

    L starts at a pilot of min(reference_L, _PILOT_L) directions. The target
    standard error is sd(w) / sqrt(reference_L), that of plain sphere Monte
    Carlo at reference_L, read from the pilot's draws. Only when the pilot
    misses it does L grow, to the count its 1/sqrt(L) law asks for, rounded
    up to whole PROJECTION_BLOCK blocks and capped at reference_L; a grown
    reference is the fixed-L ``mc-cv`` call, which recomputes the pilot's
    directions."""
    if not cfg.scenario.mc_reference:
        return closed_ref, 0.0
    seed = rng.derive_seed(cell_seed, "reference")
    first = min(cfg.reference_L, _PILOT_L)
    est, w = monte_carlo_sw_cv(mu, nu, first, seed=seed)
    target = float(w.std(ddof=1)) / math.sqrt(cfg.reference_L)
    if est.std_error > target:
        blocks = math.ceil(first * (est.std_error / target) ** 2 / PROJECTION_BLOCK)
        L = min(cfg.reference_L, blocks * PROJECTION_BLOCK)
        if L > first:
            est, _ = monte_carlo_sw_cv(mu, nu, L, seed=seed)
    return est.value_sq, est.std_error


def _cells(cfg):
    alphas = cfg.alpha_list if cfg.alpha_list else (None,)
    for d in cfg.d_grid:
        for alpha_idx, alpha in enumerate(alphas):
            for run in range(cfg.runs):
                yield d, alpha_idx, alpha, run


def _with_cell_context(exc: SwkitError, cfg, d, alpha, run):
    where = f"{cfg.scenario.value}, d={d}" + ("" if alpha is None else f", alpha={alpha!r}")
    return type(exc)(f"[{where}, run={run}] {exc}")


def _cell_records(cfg, d, alpha_idx, alpha, run, reps) -> list[ResultRecord]:
    """One record per configured method for the (d, alpha, run) cell, each
    method's wall time the median of the estimator's own clock over ``reps``
    calls. The reference is computed once per cell from a stream disjoint
    from every method stream."""
    cell_seed = _cell_seed(cfg, alpha_idx, d, run)
    records = []
    try:
        mu, nu, closed_ref = _generate_pair(cfg, d, alpha, cell_seed)
        reference_sq, reference_se = _reference(cfg, mu, nu, closed_ref, cell_seed)
        for method_idx, spec in enumerate(cfg.methods):
            seed = rng.derive_seed(cell_seed, "method", method_idx)
            ests = [estimate(mu, nu, spec.method, L=spec.L, seed=seed) for _ in range(reps)]
            est = ests[-1]
            records.append(ResultRecord(
                scenario=cfg.scenario.value, run_id=run, d=d, n=cfg.n, alpha=alpha,
                method=spec.label, estimate_sq=est.value_sq, reference_sq=reference_sq,
                reference_se=reference_se,
                abs_error=abs(math.sqrt(est.value_sq) - math.sqrt(reference_sq)),
                wall_time_ns=sorted(e.wall_time_ns for e in ests)[reps // 2], seed=cell_seed,
            ))
    except SwkitError as exc:
        raise _with_cell_context(exc, cfg, d, alpha, run) from exc
    return records


def run_convergence(cfg: ExperimentConfig, workers: int = 1) -> list[ResultRecord]:
    """Error of every configured method against the reference: per
    (dimension, alpha, run) cell, one record per method, each from one
    estimator call.

    Cells are independent; with ``workers > 1`` they run on a thread pool,
    and since every cell owns a seed derived from its coordinates the records
    are identical to the serial ones (wall times aside).
    """
    cells = list(_cells(cfg))
    workers = min(max(1, int(workers)), len(cells))
    with ThreadPoolExecutor(max_workers=workers) as pool:  # one worker starts no thread
        per_cell = (map if workers == 1 else pool.map)(
            lambda cell: _cell_records(cfg, *cell, reps=1), cells)
        return [rec for records in per_cell for rec in records]


def run_timing(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Accuracy and wall time of every configured method per (d, run) cell.

    Runs strictly serially (one worker) so timings are not skewed by
    contention. A record's wall time is the median of the estimator's own
    clock over three repetitions.
    """
    return [rec for cell in _cells(cfg) for rec in _cell_records(cfg, *cell, reps=_TIMING_REPS)]


def _scenario_key(record: ResultRecord) -> str:
    if record.alpha is None:
        return record.scenario
    return f"{record.scenario}:alpha={record.alpha!r}"


def summarize(records: Sequence[ResultRecord]) -> list[SummaryRow]:
    """Aggregate records into per-(scenario, d, method) rows: mean error,
    10th and 90th percentiles (linear interpolation over the sorted per-run
    errors), mean wall time, and the running log-log slope fitted over the
    dimensions seen so far within the group.

    AR records carry their alpha inside the scenario key, one group per
    alpha, so the fixed summary schema still separates the curves.
    """
    if not records:
        raise EmptyInput("no records to summarize")
    groups: dict[tuple[str, str], dict[int, list[ResultRecord]]] = {}
    for rec in records:
        by_d = groups.setdefault((_scenario_key(rec), rec.method), {})
        by_d.setdefault(rec.d, []).append(rec)
    rows = []
    for (scenario_key, method) in sorted(groups):
        by_d = groups[(scenario_key, method)]
        d_seen: list[int] = []
        err_seen: list[float] = []
        for d in sorted(by_d):
            errors = np.array([r.abs_error for r in by_d[d]])
            times = np.array([r.wall_time_ns for r in by_d[d]], dtype=np.float64)
            mean_error = float(np.mean(errors))
            p10, p90 = (float(v) for v in np.percentile(errors, [10.0, 90.0]))
            d_seen.append(d)
            err_seen.append(mean_error)
            slope = None
            if len(d_seen) >= 2 and all(e > 0.0 for e in err_seen):
                slope = fit_loglog_slope(d_seen, err_seen)[0]
            rows.append(SummaryRow(
                scenario=scenario_key, d=d, method=method, mean_error=mean_error,
                p10=p10, p90=p90, mean_time_ns=float(np.mean(times)), slope_to_date=slope,
            ))
    return rows


def fit_loglog_slope(d_values, mean_errors) -> tuple[float, float, float]:
    """Ordinary least squares of log10(error) on log10(d).

    Returns (slope, intercept, r_squared). Needs at least two points, all
    strictly positive on both axes.
    """
    d_values = np.asarray(d_values, dtype=np.float64)
    mean_errors = np.asarray(mean_errors, dtype=np.float64)
    if d_values.size != mean_errors.size:
        raise InvalidSample("d_values and mean_errors must have equal length")
    if d_values.size < 2:
        raise EmptyInput("need at least 2 points to fit a slope")
    if np.any(d_values <= 0.0) or np.any(mean_errors <= 0.0):
        raise NonPositiveError("log-log fit needs strictly positive values")
    x = np.log10(d_values)
    y = np.log10(mean_errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), float(r_squared)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_metadata(cfg: ExperimentConfig) -> dict:
    """Provenance recorded at the top of a records CSV: the configuration,
    then the environment that ran it, starting with the swkit version, which
    changes whenever a seed maps to different data."""
    return {
        "scenario": cfg.scenario.value,
        "n": cfg.n,
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "reference": "mc-cv" if cfg.scenario.mc_reference else "closed-form",
        "reference_L": cfg.reference_L if cfg.scenario.mc_reference else "",
        "hyperparams": "regenerated-per-run",
        "swkit": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var, "unset")
           for var in ("SW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_csv(path, columns, rows, preamble=()) -> None:
    lines = [*preamble, ",".join(columns)]
    lines += [",".join(_format_value(getattr(row, f)) for f in columns) for row in rows]
    atomic_write(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_records_csv(records, path, metadata: dict | None = None) -> None:
    preamble = ["# " + " ".join(f"{k}={v}" for k, v in metadata.items())] if metadata else []
    _write_csv(path, RECORD_FIELDS, records, preamble)


def write_summary_csv(rows, path) -> None:
    _write_csv(path, SUMMARY_FIELDS, rows)


def format_summary_table(rows) -> str:
    """Plain-text table of summary rows for terminal output."""
    header = ("scenario", "d", "method", "mean_error", "p10", "p90", "mean_time_ms", "slope")
    body = [
        (
            row.scenario,
            str(row.d),
            row.method,
            f"{row.mean_error:.4g}",
            f"{row.p10:.4g}",
            f"{row.p90:.4g}",
            f"{row.mean_time_ns / 1e6:.3f}",
            "" if row.slope_to_date is None else f"{row.slope_to_date:+.3f}",
        )
        for row in rows
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines.extend(fmt.format(*r) for r in body)
    return "\n".join(lines)
