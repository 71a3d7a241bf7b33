"""The benchmark's three workloads.

All three are closed loops: one process, one caller, each call issued after
the previous one returned. Inputs come from the workload seed through swkit's
own generators. Every public call goes through a module attribute
(``estimators.sw_hat``, ``cli.main``, ...) so the tracer can rebind it.

A workload runs in phases: ``setup`` (timed, repeated), ``prepare`` (oracle
references, untimed), ``warmup`` (discarded calls), ``cycle`` (one pass over
its steps, each call timed on its own), and ``finish`` (checks that need the
whole run). Steps map onto the uniform end-to-end metrics: ``det_step`` is
the deterministic answer, ``mc_step`` the Monte Carlo answer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np
from swkit import bench, cli, datagen, estimators, rng

import oracles

MC_SEED_KEY = "mc"
REPEAT = "_repeat"


@dataclass
class Call:
    """One timed operation: step name, seconds, and what it returned."""

    step: str
    seconds: float
    result: object


def _timed(step, fn, *args, **kwargs) -> Call:
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return Call(step, time.perf_counter() - t0, result)


def step_details(samples: dict[str, list[float]], names: dict[str, tuple[str, float, str]]):
    """(name, value, unit, sample count) per step: the median, plus the 90th
    percentile where at least ten samples lie beyond it."""
    rows = []
    for step, (name, scale, unit) in names.items():
        values = samples.get(step, [])
        if not values:
            continue
        rows.append((f"{name}_p50_{unit}", statistics.median(values) * scale, unit, len(values)))
        if len(values) >= 100:
            rows.append((f"{name}_p90_{unit}", float(np.quantile(values, 0.9)) * scale, unit,
                         len(values)))
    return rows


@dataclass(frozen=True)
class ApiSizes:
    n: int = 10_000
    d: int = 1000
    L: int = 5000


class ApiD1000:
    """Criterion 08's inputs in memory; ``sw_hat`` and sphere-law Monte Carlo
    (L=5000, p=2, one worker) interleaved, with no ingest or generation in
    the timed region."""

    name = "api-d1000"
    det_step = "sw_hat"
    mc_step = "mc_l5000"
    # At least 120 sw_hat samples in the minimum three cycles, so ten lie
    # beyond the 90th percentile.
    sw_hat_per_cycle = 40

    def __init__(self, seed: int, tmpdir: str, sizes: ApiSizes = ApiSizes()):
        self.seed = seed
        self.sizes = sizes
        self.mc_seed = rng.derive_seed(seed, MC_SEED_KEY)  # call i uses mc_seed + i
        self.mc_calls = 0

    def setup(self):
        self.mu = self.nu = None  # release the previous pair before regenerating
        s = self.sizes
        cfg = dict(dim=s.d, n=s.n, family="gamma", centered=True, seed=self.seed)
        self.mu = datagen.gen_factors(datagen.FactorConfig(role="first", **cfg))
        self.nu = datagen.gen_factors(datagen.FactorConfig(role="second", **cfg))

    def prepare(self):
        self.sw_ref = oracles.sw_hat_reference(self.mu.data, self.nu.data)

    def _mc(self, L: int) -> Call:
        seed = self.mc_seed + self.mc_calls
        self.mc_calls += 1
        call = _timed(self.mc_step, estimators.monte_carlo_sw_pp, self.mu, self.nu,
                      L, p=2.0, law=estimators.ProjectionLaw.SPHERE_UNIFORM,
                      seed=seed, workers=1)
        call.result = (call.result, seed, L)
        return call

    def warmup(self) -> list[Call]:
        """Two ``sw_hat`` calls and a one-block Monte Carlo call: enough to
        pay first-call costs without a full L=5000 call."""
        return [_timed(self.det_step, estimators.sw_hat, self.mu, self.nu) for _ in range(2)] + [
            self._mc(min(self.sizes.L, estimators.PROJECTION_BLOCK))
        ]

    def cycle(self) -> list[Call]:
        calls = [_timed(self.det_step, estimators.sw_hat, self.mu, self.nu)
                 for _ in range(self.sw_hat_per_cycle)]
        calls.append(self._mc(self.sizes.L))
        return calls

    def check(self, call: Call):
        if call.step == self.det_step:
            oracles.check_sw_hat(call.result.value_sq, self.sw_ref)
        else:
            (est, values), seed, L = call.result
            oracles.check_mc(est, values, self.mu.data, self.nu.data, L, seed)

    def finish(self) -> list[Call]:
        return []

    def details(self, samples):
        rows = step_details(samples, {self.det_step: ("sw_hat", 1e3, "ms"),
                                      self.mc_step: ("mc_l5000", 1.0, "s")})
        ratio = statistics.median(samples[self.mc_step]) / statistics.median(
            samples[self.det_step])
        rows.append(("speedup_x", ratio, "x", len(samples[self.mc_step])))
        rows.append(("speedup_margin_over_50x", ratio / 50.0, "ratio", len(samples[self.mc_step])))
        return rows


@dataclass(frozen=True)
class CliSizes:
    """n > 4000, so ``diagnostics`` takes the sampled pair path. d=50 keeps a
    ``diagnostics`` call near 2 s, so a run holds about ten of each command;
    at d=200 a call takes about 6.6 s, too few per run for a steady median."""

    n: int = 5000
    d: int = 50
    L: int = 5000


class CliCsv:
    """The README's file path: ``swkit estimate`` (deterministic and
    mc-sphere) and ``swkit diagnostics`` on CSV files, run in-process through
    ``cli.main`` with stdout captured and ``SW_THREADS`` set.

    Timed commands run with ``SW_THREADS=1``. With two workers the Monte
    Carlo command's median over a run sat near 0.83 s in some ten-run sets
    and near 1.13 s in others on a shared 2-vCPU host, a shift past the
    benchmark's bound. The two-worker path still runs once, in the warm-up,
    and is checked against the ``workers=1`` result like every timed call."""

    name = "cli-csv"
    det_step = "cli_estimate_det"
    mc_step = "cli_estimate_mc"
    diag_step = "cli_diagnostics"
    threads = 1  # SW_THREADS for the timed commands
    parallel_threads = 2  # SW_THREADS for the warm-up's Monte Carlo command

    def __init__(self, seed: int, tmpdir: str, sizes: CliSizes = CliSizes()):
        self.seed = seed
        self.sizes = sizes
        self.file_a = os.path.join(tmpdir, "a.csv")
        self.file_b = os.path.join(tmpdir, "b.csv")
        self.mc_seed = rng.derive_seed(seed, MC_SEED_KEY)

    def setup(self):
        s = self.sizes
        cfg = dict(dim=s.d, n=s.n, family="gamma", centered=False, seed=self.seed)
        self.mu = datagen.gen_factors(datagen.FactorConfig(role="first", **cfg))
        self.nu = datagen.gen_factors(datagen.FactorConfig(role="second", **cfg))
        datagen.save_csv(self.mu, self.file_a)
        datagen.save_csv(self.nu, self.file_b)

    def prepare(self):
        x, y = self.mu.data, self.nu.data
        self.det = estimators.sw_hat(self.mu, self.nu)
        oracles.check_sw_hat(self.det.value_sq, oracles.sw_hat_reference(x, y))
        self.mc, values = estimators.monte_carlo_sw_pp(self.mu, self.nu, self.sizes.L, p=2.0,
                                                       seed=self.mc_seed, workers=1)
        oracles.check_mc(self.mc, values, x, y, self.sizes.L, self.mc_seed)
        self.diag_ref = oracles.diagnostics_reference(x)

    def _run(self, step, argv, threads) -> Call:
        out = io.StringIO()
        saved = os.environ.get("SW_THREADS")
        os.environ["SW_THREADS"] = str(threads)
        try:
            with contextlib.redirect_stdout(out):
                call = _timed(step, cli.main, argv)
        finally:
            if saved is None:
                del os.environ["SW_THREADS"]
            else:
                os.environ["SW_THREADS"] = saved
        call.result = (call.result, out.getvalue())
        return call

    def _mc_argv(self):
        return ["estimate", self.file_a, self.file_b, "--method", "mc-sphere",
                "--L", str(self.sizes.L), "--seed", str(self.mc_seed)]

    def warmup(self) -> list[Call]:
        return [self._run(self.mc_step, self._mc_argv(), self.parallel_threads)]

    def cycle(self) -> list[Call]:
        # The deterministic estimate is the shortest step and the most
        # exposed to host noise, so it runs three times, interleaved.
        det = ["estimate", self.file_a, self.file_b, "--method", "deterministic"]
        return [
            self._run(self.det_step, det, self.threads),
            self._run(self.mc_step, self._mc_argv(), self.threads),
            self._run(self.det_step, det, self.threads),
            self._run(self.diag_step, ["diagnostics", self.file_a, "--seed", str(self.seed)],
                      self.threads),
            self._run(self.det_step, det, self.threads),
        ]

    def check(self, call: Call):
        code, text = call.result
        if code != 0:
            raise oracles.OracleFailure(f"{call.step} exited {code}")
        if call.step == self.det_step:
            oracles.check_estimate_row(text, "deterministic", self.det.value_sq, 0)
        elif call.step == self.mc_step:
            oracles.check_estimate_row(text, "mc-sphere", self.mc.value_sq, self.sizes.L)
        else:
            oracles.check_diagnostics(text, self.diag_ref)

    def finish(self) -> list[Call]:
        return []

    def details(self, samples):
        return step_details(samples, {s: (s, 1.0, "s")
                                      for s in (self.det_step, self.mc_step, self.diag_step)})


@dataclass(frozen=True)
class ExperimentSizes:
    """Desk-scale studies cut to a few seconds a cycle, so a run holds
    several cycles and each study's median spans the run. A smaller Monte Carlo
    reference keeps its split between stream set-up, GEMM and sorts, which
    all scale with L."""

    gamma_d: tuple[int, ...] = bench.DESK_D_GRID
    ar_d: tuple[int, ...] = bench.DESK_D_GRID
    timing_d: tuple[int, ...] = (100,)
    n: int = bench.DESK_N
    ar_runs: int = 1
    reference_L: int = 5000
    toy_n: int = 200  # warm-up's toy-size pass


class Experiments:
    """The paper's two studies through ``bench`` at reduced size: the
    gamma-centered and AR(1) convergence studies and the timing study."""

    name = "experiments"
    det_step = "conv_ar1"
    mc_step = "conv_gamma"
    timing_step = "timing_exp"

    def __init__(self, seed: int, tmpdir: str, sizes: ExperimentSizes = ExperimentSizes()):
        self.seed = seed
        self.sizes = sizes
        self.first: dict[str, list] = {}

    def _configs(self, n, gamma_d, ar_d, timing_d, reference_L):
        s = self.sizes
        gamma = bench.default_convergence_config(
            bench.Scenario.GAMMA_CENTERED, master_seed=self.seed, d_grid=gamma_d, n=n, runs=1)
        ar1 = bench.default_convergence_config(
            bench.Scenario.AR1_GAUSSIAN, master_seed=self.seed, d_grid=ar_d, n=n,
            runs=s.ar_runs)
        timing = bench.default_timing_config(master_seed=self.seed, d_grid=timing_d, n=n,
                                             runs=1)
        return {
            self.mc_step: dataclasses.replace(gamma, reference_L=reference_L),
            self.det_step: ar1,
            self.timing_step: dataclasses.replace(timing, reference_L=reference_L),
        }

    def setup(self):
        """Build the study configs and generate the input pair of every
        gamma-centered cell, from which the checks recompute the studies'
        estimates. Cells are seeded by their coordinates as ``bench`` does
        (alpha index 0, run 0); a cell missed here is generated on demand."""
        s = self.sizes
        self.cfgs = self._configs(s.n, s.gamma_d, s.ar_d, s.timing_d, s.reference_L)
        self.pairs = {}
        scenario = bench.Scenario.GAMMA_CENTERED.value
        for d in s.gamma_d:
            self._pair(d, s.n, rng.derive_seed(self.seed, "cell", scenario, 0, d, 0))

    def prepare(self):
        pass

    def _run_all(self, cfgs) -> list[Call]:
        return [
            _timed(self.mc_step, bench.run_convergence, cfgs[self.mc_step]),
            _timed(self.det_step, bench.run_convergence, cfgs[self.det_step]),
            _timed(self.timing_step, bench.run_timing, cfgs[self.timing_step]),
        ]

    def warmup(self) -> list[Call]:
        """Each study once at toy size, so first-call costs are paid before
        timing; the records are discarded."""
        s = self.sizes
        self._run_all(self._configs(s.toy_n, s.gamma_d[:1], s.ar_d[:1], s.timing_d[:1], 1000))
        return []

    def cycle(self) -> list[Call]:
        return self._run_all(self.cfgs)

    def _pair(self, d, n, seed):
        """A gamma-centered cell's two datasets, generated once per set-up."""
        key = (d, n, seed)
        if key not in self.pairs:
            cfg = dict(dim=d, n=n, family="gamma", centered=True, seed=seed)
            self.pairs[key] = (datagen.gen_factors(datagen.FactorConfig(role="first", **cfg)).data,
                               datagen.gen_factors(datagen.FactorConfig(role="second", **cfg)).data)
        return self.pairs[key]

    def check(self, call: Call):
        if call.step.endswith(REPEAT):
            got, want = call.result
            oracles.check_same_records(call.step, got, want)
            return
        records = call.result
        cfg = self.cfgs[call.step]
        cells = len(cfg.d_grid) * cfg.runs * max(1, len(cfg.alpha_list))
        oracles.check_records(call.step, records, cells * len(cfg.methods))
        if call.step == self.det_step:
            oracles.check_ar_references(records)
        elif call.step == self.mc_step:
            for r in records:
                oracles.check_raw_surrogate(r, *self._pair(r.d, r.n, r.seed))
        else:
            for r in records:
                if r.method == estimators.Method.DETERMINISTIC.value:
                    pair = self._pair(r.d, r.n, r.seed)
                    oracles.check_sw_hat(r.estimate_sq, oracles.sw_hat_reference(*pair))
        if call.step in self.first:
            oracles.check_same_records(call.step, records, self.first[call.step])
        else:
            self.first[call.step] = records

    def finish(self) -> list[Call]:
        """Repeat the first dimension of every study; cells are seeded by
        their coordinates, so the records must equal the full run's."""
        s = self.sizes
        cfgs = self._configs(s.n, s.gamma_d[:1], s.ar_d[:1], s.timing_d[:1], s.reference_L)
        calls = self._run_all(cfgs)
        for call in calls:
            d = cfgs[call.step].d_grid[0]
            want = [r for r in self.first.get(call.step, []) if r.d == d]
            call.result = (call.result, want)
            call.step += REPEAT
        return calls

    def details(self, samples):
        return step_details(samples, {s: (s, 1.0, "s")
                                      for s in (self.mc_step, self.det_step, self.timing_step)})


WORKLOADS = {w.name: w for w in (ApiD1000, CliCsv, Experiments)}
