"""Experiment runners for the synthetic benchmarks, with CSV output.

Two experiments, each running every configured method on every cell
through :func:`swkit.estimators.estimate` and timing only that call, never
the data generation:

* :func:`run_convergence` measures, per dimension and run, the error of each
  method against a reference value (an exact closed form where one exists, a
  high-projection Monte Carlo estimate otherwise, and exactly zero for the AR
  scenarios where both datasets come from the same law). By default the
  method is the raw moment surrogate, labelled ``raw-moment``, whose error on
  non-centered data does not vanish with dimension. This reproduces the
  error-versus-dimension study at a desk-friendly scale by default.
* :func:`run_timing` compares the deterministic approximation against Monte
  Carlo at several projection counts, recording accuracy against a
  high-projection reference and wall time per estimator call, the median of
  three repetitions per cell to damp scheduler noise.

Determinism: each experiment cell derives its seed from the master seed and
the cell coordinates, so serial and parallel executions produce identical
records (wall times aside). Errors are always recorded on the distance scale:
``abs_error = |sqrt(estimate_sq) - sqrt(reference_sq)|``.
"""

from __future__ import annotations

import enum
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from . import rng
from .core_ot import IsoGaussian, sw2_gaussian_iso_closed
from .datagen import (
    Ar1Config,
    DatasetRole,
    FactorConfig,
    FactorFamily,
    NoiseKind,
    atomic_write,
    factor_hyperparams,
    gen_ar1,
    gen_factors,
)
from .errors import EmptyInput, InvalidSample, NonPositiveError, SwkitError
from .estimators import Method, estimate
from .estimators import sw_hat  # noqa: F401  (the benchmark's tracer test looks it up here)

DESK_D_GRID = (10, 32, 100, 316, 1000)
DESK_RUNS = 20
DESK_N = 2000
DESK_BURN_IN = 500
PAPER_RUNS = 100
PAPER_N = 10_000
PAPER_BURN_IN = 10_000
REFERENCE_L = 20_000
TIMING_L_GRID = (100, 1000, 5000)
DEFAULT_ALPHAS = (0.2, 0.5, 0.8)

_TIMING_REPS = 3

RECORD_FIELDS = (
    "scenario",
    "run_id",
    "d",
    "n",
    "alpha",
    "method",
    "estimate_sq",
    "reference_sq",
    "abs_error",
    "wall_time_ns",
    "seed",
)
SUMMARY_FIELDS = (
    "scenario",
    "d",
    "method",
    "mean_error",
    "p10",
    "p90",
    "mean_time_ns",
    "slope_to_date",
)


class Scenario(str, enum.Enum):
    GAUSSIAN_NONCENTERED = "gaussian-noncentered"
    GAUSSIAN_CENTERED = "gaussian-centered"
    GAMMA_NONCENTERED = "gamma-noncentered"
    GAMMA_CENTERED = "gamma-centered"
    AR1_GAUSSIAN = "ar1-gaussian"
    AR1_STUDENT = "ar1-student"


_FACTOR_SCENARIOS = {
    Scenario.GAUSSIAN_NONCENTERED: (FactorFamily.GAUSSIAN, False),
    Scenario.GAUSSIAN_CENTERED: (FactorFamily.GAUSSIAN, True),
    Scenario.GAMMA_NONCENTERED: (FactorFamily.GAMMA, False),
    Scenario.GAMMA_CENTERED: (FactorFamily.GAMMA, True),
}
_AR_SCENARIOS = {
    Scenario.AR1_GAUSSIAN: NoiseKind.GAUSSIAN,
    Scenario.AR1_STUDENT: NoiseKind.STUDENT_T10,
}


class ReferenceKind(str, enum.Enum):
    CLOSED_FORM = "closed-form"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class MethodSpec:
    """One estimator to run: a deterministic method, or Monte Carlo with a
    given projection count."""

    method: Method
    L: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        if self.method.is_mc and self.L < 1:
            raise InvalidSample(f"Monte Carlo method needs L >= 1, got {self.L}")
        if not self.method.is_mc and self.L != 0:
            raise InvalidSample(f"non-Monte-Carlo method must have L = 0, got {self.L}")

    @property
    def label(self) -> str:
        if self.L:
            return f"{self.method.value}-{self.L}"
        return self.method.value


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment.

    ``alpha_list`` applies to (and is required for) the AR scenarios only.
    Both experiments write one record per cell and entry of ``methods``,
    which defaults to the convergence study's raw moment surrogate.
    ``burn_in`` feeds the AR generator.
    """

    scenario: Scenario
    d_grid: tuple[int, ...] = DESK_D_GRID
    n: int = DESK_N
    runs: int = DESK_RUNS
    alpha_list: tuple[float, ...] = ()
    reference: ReferenceKind = ReferenceKind.CLOSED_FORM
    reference_L: int = REFERENCE_L
    methods: tuple[MethodSpec, ...] = (MethodSpec(Method.RAW_MOMENT),)
    master_seed: int = 0
    burn_in: int = DESK_BURN_IN

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "d_grid", tuple(int(d) for d in self.d_grid))
        object.__setattr__(self, "alpha_list", tuple(float(a) for a in self.alpha_list))
        object.__setattr__(self, "reference", ReferenceKind(self.reference))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.d_grid or any(d < 1 for d in self.d_grid):
            raise InvalidSample("d_grid must be nonempty with positive entries")
        if any(b <= a for a, b in zip(self.d_grid, self.d_grid[1:])):
            raise InvalidSample(f"d_grid must be strictly increasing, got {self.d_grid}")
        if self.runs < 1 or self.n < 1:
            raise InvalidSample(f"runs and n must be >= 1, got runs={self.runs}, n={self.n}")
        is_ar = self.scenario in _AR_SCENARIOS
        if is_ar and not self.alpha_list:
            raise InvalidSample(f"scenario {self.scenario.value} needs a nonempty alpha_list")
        if not is_ar and self.alpha_list:
            raise InvalidSample(f"scenario {self.scenario.value} takes no alpha_list")
        if any(not 0.0 <= a < 1.0 for a in self.alpha_list):
            raise InvalidSample(f"alpha values must lie in [0, 1), got {self.alpha_list}")
        if self.scenario in (Scenario.GAMMA_NONCENTERED, Scenario.GAMMA_CENTERED):
            if self.reference is ReferenceKind.CLOSED_FORM:
                raise InvalidSample("gamma scenarios have no closed-form reference")
        if self.reference is ReferenceKind.MONTE_CARLO and self.reference_L < 1:
            raise InvalidSample(f"reference_L must be >= 1, got {self.reference_L}")
        if not self.methods:
            raise InvalidSample("methods must be nonempty")


@dataclass(frozen=True)
class ResultRecord:
    """One experiment cell result; ``abs_error`` lives on the distance scale."""

    scenario: str
    run_id: int
    d: int
    n: int
    alpha: float | None
    method: str
    estimate_sq: float
    reference_sq: float
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


def _make_record(scenario, run_id, d, n, alpha, method, estimate_sq, reference_sq,
                 wall_time_ns, seed) -> ResultRecord:
    abs_error = abs(math.sqrt(estimate_sq) - math.sqrt(reference_sq))
    return ResultRecord(
        scenario=scenario,
        run_id=run_id,
        d=d,
        n=n,
        alpha=alpha,
        method=method,
        estimate_sq=float(estimate_sq),
        reference_sq=float(reference_sq),
        abs_error=abs_error,
        wall_time_ns=int(wall_time_ns),
        seed=int(seed),
    )


def default_convergence_config(
    scenario: Scenario,
    paper_scale: bool = False,
    master_seed: int = 0,
    d_grid: Sequence[int] | None = None,
    n: int | None = None,
    runs: int | None = None,
    alpha_list: Sequence[float] | None = None,
    burn_in: int | None = None,
) -> ExperimentConfig:
    """Convergence-experiment config with desk-scale defaults (paper-scale
    sizes behind the flag) for the raw moment surrogate. Gamma scenarios get
    the high-projection Monte Carlo reference; Gaussian and AR scenarios use
    their exact references.
    """
    scenario = Scenario(scenario)
    is_ar = scenario in _AR_SCENARIOS
    is_gamma = scenario in (Scenario.GAMMA_NONCENTERED, Scenario.GAMMA_CENTERED)
    return ExperimentConfig(
        scenario=scenario,
        d_grid=tuple(d_grid) if d_grid is not None else DESK_D_GRID,
        n=n if n is not None else (PAPER_N if paper_scale else DESK_N),
        runs=runs if runs is not None else (PAPER_RUNS if paper_scale else DESK_RUNS),
        alpha_list=tuple(alpha_list) if alpha_list is not None else (DEFAULT_ALPHAS if is_ar else ()),
        reference=ReferenceKind.MONTE_CARLO if is_gamma else ReferenceKind.CLOSED_FORM,
        reference_L=REFERENCE_L,
        master_seed=master_seed,
        burn_in=burn_in if burn_in is not None else (PAPER_BURN_IN if paper_scale else DESK_BURN_IN),
    )


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
    return ExperimentConfig(
        scenario=Scenario.GAMMA_CENTERED,
        d_grid=tuple(d_grid) if d_grid is not None else DESK_D_GRID,
        n=n if n is not None else (PAPER_N if paper_scale else DESK_N),
        runs=runs if runs is not None else (PAPER_RUNS if paper_scale else 3),
        reference=ReferenceKind.MONTE_CARLO,
        reference_L=REFERENCE_L,
        methods=methods,
        master_seed=master_seed,
    )


def _cell_seed(cfg: ExperimentConfig, alpha_idx: int, d: int, run: int) -> int:
    return rng.derive_seed(cfg.master_seed, "cell", cfg.scenario.value, alpha_idx, d, run)


def _generate_pair(cfg, d, alpha, cell_seed):
    """Build the two datasets of one cell plus the closed-form reference
    (None when only a Monte Carlo reference exists)."""
    if cfg.scenario in _FACTOR_SCENARIOS:
        family, centered = _FACTOR_SCENARIOS[cfg.scenario]
        cfg_a = FactorConfig(dim=d, n=cfg.n, family=family, centered=centered,
                             role=DatasetRole.FIRST, seed=cell_seed)
        cfg_b = FactorConfig(dim=d, n=cfg.n, family=family, centered=centered,
                             role=DatasetRole.SECOND, seed=cell_seed)
        mu, nu = gen_factors(cfg_a), gen_factors(cfg_b)
        closed_ref = None
        if family is FactorFamily.GAUSSIAN:
            ha, hb = factor_hyperparams(cfg_a), factor_hyperparams(cfg_b)
            zeros = np.zeros(d)
            ga = IsoGaussian(d, zeros if centered else ha.per_column, ha.scale)
            gb = IsoGaussian(d, zeros if centered else hb.per_column, hb.scale)
            closed_ref = sw2_gaussian_iso_closed(ga, gb)
        return mu, nu, closed_ref
    noise = _AR_SCENARIOS[cfg.scenario]
    mu = gen_ar1(Ar1Config(dim=d, n=cfg.n, alpha=alpha, noise=noise, burn_in=cfg.burn_in,
                           seed=rng.derive_seed(cell_seed, "traj", 0)))
    nu = gen_ar1(Ar1Config(dim=d, n=cfg.n, alpha=alpha, noise=noise, burn_in=cfg.burn_in,
                           seed=rng.derive_seed(cell_seed, "traj", 1)))
    return mu, nu, 0.0  # same law on both sides: the true distance is zero


def _reference_sq(cfg, mu, nu, closed_ref, cell_seed) -> float:
    if cfg.reference is ReferenceKind.CLOSED_FORM:
        return closed_ref
    return estimate(mu, nu, Method.MONTE_CARLO_SPHERE, L=cfg.reference_L,
                    seed=rng.derive_seed(cell_seed, "reference")).value_sq


def _cells(cfg):
    alphas = cfg.alpha_list if cfg.alpha_list else (None,)
    for d in cfg.d_grid:
        for alpha_idx, alpha in enumerate(alphas):
            for run in range(cfg.runs):
                yield d, alpha_idx, alpha, run


def _with_cell_context(exc: SwkitError, cfg, d, alpha, run):
    where = f"{cfg.scenario.value}, d={d}" + ("" if alpha is None else f", alpha={alpha:g}")
    return type(exc)(f"[{where}, run={run}] {exc}")


def _timed_estimate(spec: MethodSpec, mu, nu, seed, reps):
    """Run one estimator ``reps`` times; return (value_sq, median wall ns)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        est = estimate(mu, nu, spec.method, L=spec.L, seed=seed)
        times.append(time.perf_counter_ns() - t0)
    return est.value_sq, sorted(times)[reps // 2]


def _cell_records(cfg, d, alpha_idx, alpha, run, reps) -> list[ResultRecord]:
    """One record per configured method for the (d, alpha, run) cell, each
    method timed as the median of ``reps`` calls. The reference is computed
    once per cell from a stream disjoint from every method stream."""
    cell_seed = _cell_seed(cfg, alpha_idx, d, run)
    records = []
    try:
        mu, nu, closed_ref = _generate_pair(cfg, d, alpha, cell_seed)
        reference_sq = _reference_sq(cfg, mu, nu, closed_ref, cell_seed)
        for method_idx, spec in enumerate(cfg.methods):
            seed = rng.derive_seed(cell_seed, "method", method_idx)
            value_sq, wall = _timed_estimate(spec, mu, nu, seed, reps)
            records.append(_make_record(cfg.scenario.value, run, d, cfg.n, alpha, spec.label,
                                        value_sq, reference_sq, wall, cell_seed))
    except SwkitError as exc:
        raise _with_cell_context(exc, cfg, d, alpha, run) from exc
    return records


def run_convergence(cfg: ExperimentConfig, workers: int = 1) -> list[ResultRecord]:
    """Error of every configured method against the reference: per
    (dimension, alpha, run) cell, one record per method, each from one timed
    call.

    Cells are independent; with ``workers > 1`` they run on a thread pool,
    and since every cell owns a seed derived from its coordinates the records
    are identical to the serial ones (wall times aside).
    """
    cells = list(_cells(cfg))
    workers = max(1, int(workers))
    if workers == 1 or len(cells) == 1:
        per_cell = [_cell_records(cfg, *cell, reps=1) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(lambda cell: _cell_records(cfg, *cell, reps=1), cells))
    return [rec for records in per_cell for rec in records]


def run_timing(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Accuracy and wall time of every configured method per (d, run) cell.

    Runs strictly serially (one worker) so timings are not skewed by
    contention. Each method is timed as the median of three repetitions and
    only the estimator call is inside the clock.
    """
    return [rec for cell in _cells(cfg) for rec in _cell_records(cfg, *cell, reps=_TIMING_REPS)]


def _scenario_key(record: ResultRecord) -> str:
    if record.alpha is None:
        return record.scenario
    return f"{record.scenario}:alpha={record.alpha:g}"


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
    then the environment that ran it."""
    return {
        "scenario": cfg.scenario.value,
        "n": cfg.n,
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "reference": cfg.reference.value,
        "reference_L": cfg.reference_L if cfg.reference is ReferenceKind.MONTE_CARLO else "",
        "burn_in": cfg.burn_in,
        "hyperparams": "regenerated-per-run",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "SW_THREADS": os.environ.get("SW_THREADS", "unset"),
    }


def write_records_csv(records, path, metadata: dict | None = None) -> None:
    lines = []
    if metadata:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in metadata.items()))
    lines.append(",".join(RECORD_FIELDS))
    for rec in records:
        lines.append(",".join(_format_value(getattr(rec, f)) for f in RECORD_FIELDS))
    atomic_write(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def read_records_csv(path) -> list[ResultRecord]:
    records = []
    with open(path, "r") as fh:
        header = None
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if header is None:
                header = tuple(text.split(","))
                if header != RECORD_FIELDS:
                    raise InvalidSample(f"unexpected records header: {text}")
                continue
            f = text.split(",")
            records.append(ResultRecord(
                scenario=f[0], run_id=int(f[1]), d=int(f[2]), n=int(f[3]),
                alpha=None if f[4] == "" else float(f[4]), method=f[5],
                estimate_sq=float(f[6]), reference_sq=float(f[7]), abs_error=float(f[8]),
                wall_time_ns=int(f[9]), seed=int(f[10]),
            ))
    return records


def write_summary_csv(rows, path) -> None:
    lines = [",".join(SUMMARY_FIELDS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, f)) for f in SUMMARY_FIELDS))
    atomic_write(path, lambda fh: fh.write("\n".join(lines) + "\n"))


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
