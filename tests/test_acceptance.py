"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The long-running criteria (5, 6, 8) execute the
desk-scale benchmark configurations and dominate the suite's wall time.
"""

import itertools
import math
import time

import numpy as np
import pytest

import swkit.bench as bench
from swkit import (
    DatasetRole,
    EmpiricalDistribution,
    FactorConfig,
    FactorFamily,
    IsoGaussian,
    ProjectionLaw,
    Samples1d,
    center,
    factor_hyperparams,
    gaussian_projection_constant,
    gen_factors,
    moment_stats,
    monte_carlo_sw_pp,
    project,
    sw2_gaussian_iso_closed,
    sw_hat,
    rng,
    wasserstein_1d_pp,
)
from swkit.estimators import PROJECTION_BLOCK


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_projection_constant_is_one_at_order_two():
    t0 = time.perf_counter()
    dims = (1, 2, 3, 10, 100, 10 ** 4, 10 ** 6)
    worst = max(abs(gaussian_projection_constant(d, 2.0) - 1.0) for d in dims)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"max |c(d,2)-1| = {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, f"|c(d,2)-1| <= {worst:.2e} across d up to 1e6 in {elapsed*1e3:.1f}ms")


def test_criterion_02_sorted_solver_matches_brute_force():
    t0 = time.perf_counter()
    g = np.random.default_rng(20240202)
    checked = 0
    for trial in range(200):
        n = int(g.integers(1, 7))
        p = float(g.choice([1.0, 2.0, 3.0]))
        x = g.uniform(-10, 10, size=n)
        y = g.uniform(-10, 10, size=n)
        got = wasserstein_1d_pp(Samples1d(x), Samples1d(y), p)
        best = min(
            sum(abs(x[i] - y[perm[i]]) ** p for i in range(n)) / n
            for perm in itertools.permutations(range(n))
        )
        assert abs(got - best) <= 1e-12 * max(abs(best), 1e-300), \
            f"trial {trial}: sorted={got!r} brute={best!r}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(2, f"{checked} instances match n! enumeration within 1e-12 in {elapsed:.2f}s")


def test_criterion_03_deterministic_matches_gaussian_closed_form():
    d, n = 100, 20_000
    cfg_a = FactorConfig(dim=d, n=n, family=FactorFamily.GAUSSIAN,
                         role=DatasetRole.FIRST, seed=303)
    cfg_b = FactorConfig(dim=d, n=n, family=FactorFamily.GAUSSIAN,
                         role=DatasetRole.SECOND, seed=303)
    mu, nu = gen_factors(cfg_a), gen_factors(cfg_b)
    ha, hb = factor_hyperparams(cfg_a), factor_hyperparams(cfg_b)
    assert ha.scale == 1.0 and hb.scale == math.sqrt(10.0)
    exact = math.sqrt(sw2_gaussian_iso_closed(
        IsoGaussian(d, ha.per_column, ha.scale), IsoGaussian(d, hb.per_column, hb.scale)))
    estimate = math.sqrt(sw_hat(mu, nu).value_sq)
    rel = abs(estimate - exact) / exact
    assert rel <= 0.05, f"relative gap {rel:.4f} exceeds 5%"
    report(3, f"deterministic {estimate:.4f} vs closed form {exact:.4f} (rel {rel:.2e})")


def test_criterion_04_per_projection_translation_identity():
    g = np.random.default_rng(404)
    for trial in range(100):
        n = int(g.integers(2, 80))
        d = int(g.integers(1, 12))
        mu = EmpiricalDistribution(g.normal(g.uniform(-5, 5), 1.5, (n, d)))
        nu = EmpiricalDistribution(g.normal(g.uniform(-5, 5), 0.8, (n, d)))
        theta = g.standard_normal(d)
        mean_mu, cmu = center(mu)
        mean_nu, cnu = center(nu)
        lhs = wasserstein_1d_pp(project(mu, theta), project(nu, theta), 2)
        rhs = wasserstein_1d_pp(project(cmu, theta), project(cnu, theta), 2) \
            + float(theta @ (mean_mu - mean_nu)) ** 2
        denom = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) / denom <= 1e-9, f"trial {trial}: rel gap {abs(lhs-rhs)/denom:.2e}"
    report(4, "translation identity held to 1e-9 on 100 random (dataset, direction) pairs")


def test_criterion_05_centered_gamma_error_decays(monkeypatch):
    t0 = time.perf_counter()
    cfg = bench.default_convergence_config(bench.Scenario.GAMMA_CENTERED, master_seed=505)
    assert cfg.d_grid == (10, 32, 100, 316, 1000) and cfg.n == 2000 and cfg.runs == 20
    assert cfg.reference_L == 20_000
    reference_calls = []  # L of each reference mc-cv call: a pilot, then any grown one
    real = bench.monte_carlo_sw_cv

    def counted(mu, nu, L, seed):
        reference_calls.append(L)
        return real(mu, nu, L, seed=seed)

    monkeypatch.setattr(bench, "monte_carlo_sw_cv", counted)
    records = bench.run_convergence(cfg)
    rows = bench.summarize(records)
    slope, _, _ = bench.fit_loglog_slope(
        [r.d for r in rows], [r.mean_error for r in rows])
    elapsed = time.perf_counter() - t0
    assert slope <= -0.3, f"fitted slope {slope:.3f} > -0.3"
    assert elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s"
    # Every reference is at least as accurate as plain sphere Monte Carlo
    # with 2 * 10^4 directions: its standard error is at most sd(w) /
    # sqrt(20000), w the per-direction costs of the first block of the
    # cell's reference stream.
    worst = 0.0
    for r in records:
        mu, nu = (gen_factors(FactorConfig(dim=r.d, n=r.n, family=FactorFamily.GAMMA,
                                           centered=True, role=role, seed=r.seed))
                  for role in (DatasetRole.FIRST, DatasetRole.SECOND))
        _, w = monte_carlo_sw_pp(mu, nu, PROJECTION_BLOCK,
                                 seed=rng.derive_seed(r.seed, "reference"))
        plain_se = float(w.std(ddof=1)) / math.sqrt(20_000)
        assert r.reference_se <= plain_se, f"d={r.d} run={r.run_id}: {r.reference_se:.3g} " \
                                           f"> {plain_se:.3g}"
        worst = max(worst, r.reference_se / plain_se)
    grown = len(reference_calls) - len(records)
    report(5, f"centered-gamma slope {slope:.3f} (<= -0.3) in {elapsed:.0f}s; every reference "
              f"se <= {worst:.2f} x plain L=20000; {grown} of {len(records)} references grew "
              f"past the pilot, {sum(reference_calls)} directions in all")


def test_criterion_06_ar1_error_decays_for_each_alpha():
    t0 = time.perf_counter()
    cfg = bench.default_convergence_config(
        bench.Scenario.AR1_GAUSSIAN, master_seed=606, alpha_list=(0.2, 0.5, 0.8))
    assert cfg.d_grid == (10, 32, 100, 316, 1000) and cfg.n == 2000 and cfg.runs == 20
    records = bench.run_convergence(cfg)
    slopes = {}
    for alpha in cfg.alpha_list:
        rows = bench.summarize([r for r in records if r.alpha == alpha])
        slopes[alpha], _, _ = bench.fit_loglog_slope(
            [r.d for r in rows], [r.mean_error for r in rows])
    elapsed = time.perf_counter() - t0
    for alpha, slope in slopes.items():
        assert slope <= -0.15, f"alpha={alpha}: slope {slope:.3f} > -0.15"
    assert elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s"
    pretty = ", ".join(f"alpha={a:g}: {s:.3f}" for a, s in slopes.items())
    report(6, f"AR slopes all <= -0.15 ({pretty}) in {elapsed:.0f}s")


def test_criterion_07_noncentered_gaussian_error_does_not_vanish():
    cfg = bench.default_convergence_config(
        bench.Scenario.GAUSSIAN_NONCENTERED, master_seed=707)
    records = bench.run_convergence(cfg)
    rows = bench.summarize(records)
    slope, _, _ = bench.fit_loglog_slope(
        [r.d for r in rows], [r.mean_error for r in rows])
    assert slope > -0.1, f"fitted slope {slope:.3f} <= -0.1 (error should not vanish)"
    report(7, f"noncentered-gaussian slope {slope:.3f} (> -0.1): bounded, not decaying")


def test_criterion_08_deterministic_speedup_over_monte_carlo():
    t0 = time.perf_counter()
    d, n, L = 1000, 10_000, 5000
    mu = gen_factors(FactorConfig(dim=d, n=n, family=FactorFamily.GAMMA, centered=True,
                                  role=DatasetRole.FIRST, seed=808))
    nu = gen_factors(FactorConfig(dim=d, n=n, family=FactorFamily.GAMMA, centered=True,
                                  role=DatasetRole.SECOND, seed=808))
    det_times, mc_times = [], []
    for rep in range(3):
        t = time.perf_counter_ns()
        sw_hat(mu, nu)
        det_times.append(time.perf_counter_ns() - t)
        t = time.perf_counter_ns()
        monte_carlo_sw_pp(mu, nu, L, p=2.0, law=ProjectionLaw.SPHERE_UNIFORM, seed=rep)
        mc_times.append(time.perf_counter_ns() - t)
    det_median = sorted(det_times)[1]
    mc_median = sorted(mc_times)[1]
    ratio = mc_median / det_median
    elapsed = time.perf_counter() - t0
    assert ratio >= 50.0, f"speedup {ratio:.1f}x below 50x"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    report(8, f"median {det_median/1e6:.1f}ms vs Monte Carlo {mc_median/1e6:.0f}ms "
              f"({ratio:.0f}x) in {elapsed:.0f}s")


def test_criterion_09_direction_law_ratio_at_order_one():
    g = np.random.default_rng(909)
    L = 10_000
    for d in (5, 50):
        mu = EmpiricalDistribution(g.standard_normal((300, d)))
        nu = EmpiricalDistribution(1.8 * g.standard_normal((300, d)) + 0.4)
        eg, pg = monte_carlo_sw_pp(mu, nu, L, p=1.0,
                                   law=ProjectionLaw.GAUSSIAN_SCALED, seed=10 * d)
        es, ps = monte_carlo_sw_pp(mu, nu, L, p=1.0,
                                   law=ProjectionLaw.SPHERE_UNIFORM, seed=10 * d + 1)
        ratio = eg.value_sq / es.value_sq  # at p = 1 the stored value is the plain mean
        se = ratio * math.sqrt(
            pg.var(ddof=1) / L / eg.value_sq ** 2 + ps.var(ddof=1) / L / es.value_sq ** 2)
        constant = gaussian_projection_constant(d, 1.0)
        assert abs(ratio - constant) <= 3.0 * se, \
            f"d={d}: ratio {ratio:.5f} vs constant {constant:.5f} (3se = {3*se:.5f})"
    report(9, "direction-law ratio matched the closed-form constant at d=5 and d=50")


def test_criterion_10_parallel_execution_is_bitwise_identical():
    mu = EmpiricalDistribution(np.random.default_rng(10).standard_normal((500, 20)))
    nu = EmpiricalDistribution(np.random.default_rng(11).standard_normal((500, 20)) + 0.5)
    est1, per1 = monte_carlo_sw_pp(mu, nu, 5000, seed=42, workers=1)
    est8, per8 = monte_carlo_sw_pp(mu, nu, 5000, seed=42, workers=8)
    assert est1.value_sq == est8.value_sq
    np.testing.assert_array_equal(per1, per8)

    cfg = bench.ExperimentConfig(
        scenario=bench.Scenario.AR1_GAUSSIAN, d_grid=(10, 40), n=300, runs=4,
        alpha_list=(0.3, 0.7),
        master_seed=1010,
    )
    serial = bench.run_convergence(cfg, workers=1)
    threaded = bench.run_convergence(cfg, workers=8)
    data = lambda r: (r.scenario, r.run_id, r.d, r.n, r.alpha, r.method,
                      r.estimate_sq, r.reference_sq, r.abs_error, r.seed)
    assert [data(r) for r in serial] == [data(r) for r in threaded]
    report(10, "Monte Carlo and convergence outputs identical with 1 and 8 workers")


def test_criterion_11_moment_statistic_oracles():
    stats = moment_stats(EmpiricalDistribution(np.array([[1.0, 0.0], [-1.0, 0.0]])), "all")
    assert (stats.m2_raw, stats.alpha, stats.beta1, stats.beta2) == (1.0, 0.0, 1.0, 1.0)

    d, n = 64, 10_000
    dist = EmpiricalDistribution(np.random.default_rng(1111).standard_normal((n, d)))
    big = moment_stats(dist)
    assert abs(big.m2_raw - d) <= 0.05 * d, f"m2 {big.m2_raw:.2f} vs {d}"
    assert abs(big.beta2 - math.sqrt(d)) <= 0.10 * math.sqrt(d), \
        f"beta2 {big.beta2:.3f} vs {math.sqrt(d):.3f}"
    report(11, f"exact small-case stats and m2={big.m2_raw:.2f}, beta2={big.beta2:.2f} "
               f"on 10^4 Gaussian rows in R^64")
