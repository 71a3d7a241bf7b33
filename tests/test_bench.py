import dataclasses
import itertools
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import swkit
import swkit.bench as bench
from swkit.bench import (
    ExperimentConfig,
    MethodSpec,
    ResultRecord,
    Scenario,
    default_convergence_config,
    default_timing_config,
    fit_loglog_slope,
    run_convergence,
    run_timing,
    summarize,
)
from swkit import rng
from swkit.datagen import Ar1Config, FactorFamily
from swkit.errors import EmptyInput, InvalidSample, NonPositiveError
from swkit.estimators import (
    CV_MIN_PROJECTIONS,
    PROJECTION_BLOCK,
    Method,
    SwEstimate,
    estimate,
    monte_carlo_sw_cv,
)


def tiny_ar_config(**overrides):
    base = dict(
        scenario=Scenario.AR1_GAUSSIAN,
        d_grid=(10, 30),
        n=200,
        runs=3,
        alpha_list=(0.3, 0.7),
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        d = np.array([10.0, 32, 100, 316, 1000])
        errors = 3.0 * d ** -0.5
        slope, intercept, r2 = fit_loglog_slope(d, errors)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log10(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_have_zero_slope(self):
        slope, _, _ = fit_loglog_slope([10, 100, 1000], [0.7, 0.7, 0.7])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law_recovered(self):
        g = np.random.default_rng(8)
        d = np.array([10.0, 32, 100, 316, 1000])
        errors = 2.0 * d ** -0.7 * (1.0 + 0.01 * g.standard_normal(d.size))
        slope, _, r2 = fit_loglog_slope(d, errors)
        assert slope == pytest.approx(-0.7, abs=0.05)
        assert r2 > 0.99

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveError):
            fit_loglog_slope([10, 100], [1.0, 0.0])
        with pytest.raises(NonPositiveError):
            fit_loglog_slope([10, -5], [1.0, 1.0])

    def test_needs_two_points(self):
        with pytest.raises(EmptyInput):
            fit_loglog_slope([10], [1.0])


class TestSummarize:
    def rec(self, d, run, err, scenario="gamma-centered", method="deterministic", alpha=None):
        return ResultRecord(scenario=scenario, run_id=run, d=d, n=100, alpha=alpha,
                            method=method, estimate_sq=err ** 2, reference_sq=0.0,
                            reference_se=0.0, abs_error=err, wall_time_ns=1000, seed=1)

    def test_single_run_percentiles_collapse(self):
        rows = summarize([self.rec(10, 0, 0.5)])
        assert len(rows) == 1
        assert rows[0].p10 == rows[0].p90 == rows[0].mean_error == 0.5
        assert rows[0].slope_to_date is None

    def test_percentile_interpolation_rule(self):
        records = [self.rec(10, i, float(v)) for i, v in enumerate(range(1, 101))]
        row = summarize(records)[0]
        assert row.p10 == pytest.approx(10.9, abs=1e-12)
        assert row.p90 == pytest.approx(90.1, abs=1e-9)

    def test_permutation_invariant(self):
        g = np.random.default_rng(3)
        records = [self.rec(d, r, float(g.uniform(0.1, 2)))
                   for d in (10, 100) for r in range(6)]
        direct = summarize(records)
        shuffled = records.copy()
        g.shuffle(shuffled)
        assert summarize(shuffled) == direct

    def test_slope_to_date_progression(self):
        records = [self.rec(d, r, 2.0 * d ** -0.5) for d in (10, 100, 1000) for r in range(2)]
        rows = summarize(records)
        assert rows[0].slope_to_date is None
        assert rows[1].slope_to_date == pytest.approx(-0.5, abs=1e-9)
        assert rows[2].slope_to_date == pytest.approx(-0.5, abs=1e-9)

    def test_alpha_groups_split(self):
        records = [self.rec(10, r, 0.5, scenario="ar1-gaussian", alpha=0.2) for r in range(3)]
        records += [self.rec(10, r, 0.9, scenario="ar1-gaussian", alpha=0.8) for r in range(3)]
        rows = summarize(records)
        assert [r.scenario for r in rows] == ["ar1-gaussian:alpha=0.2", "ar1-gaussian:alpha=0.8"]

    def test_close_alphas_keep_their_own_groups(self):
        # a key of the shortest repr: distinct alphas never merge, and the
        # default labels read as before
        alphas = (*bench.DEFAULT_ALPHAS, 0.5000001)
        records = [self.rec(10, r, 0.5, scenario="ar1-gaussian", alpha=a)
                   for a in alphas for r in range(2)]
        rows = summarize(records)
        assert [r.scenario for r in rows] == [
            "ar1-gaussian:alpha=0.2", "ar1-gaussian:alpha=0.5",
            "ar1-gaussian:alpha=0.5000001", "ar1-gaussian:alpha=0.8"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            summarize([])


class TestConfigValidation:
    def test_d_grid_must_increase(self):
        with pytest.raises(InvalidSample):
            ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(10, 10))

    def test_ar_needs_alphas(self):
        with pytest.raises(InvalidSample):
            ExperimentConfig(scenario=Scenario.AR1_GAUSSIAN, alpha_list=())

    @pytest.mark.parametrize("alphas", [(0.5, 0.5), (0.2, 0.5, 0.2), (0.0, -0.0)])
    def test_repeated_alpha_rejected(self, alphas):
        # a repeated alpha would run its cells twice under one summary key
        with pytest.raises(InvalidSample, match="alpha_list must not repeat a value"):
            ExperimentConfig(scenario=Scenario.AR1_STUDENT, alpha_list=alphas)
        assert ExperimentConfig(scenario=Scenario.AR1_STUDENT,
                                alpha_list=(0.5, 0.5000001)).alpha_list == (0.5, 0.5000001)

    def test_cell_context_names_the_alpha_exactly(self):
        exc = bench._with_cell_context(InvalidSample("boom"), tiny_ar_config(), 10, 0.5000001, 2)
        assert isinstance(exc, InvalidSample)
        assert str(exc) == "[ar1-gaussian, d=10, alpha=0.5000001, run=2] boom"

    def test_factor_rejects_alphas(self):
        with pytest.raises(InvalidSample):
            ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, alpha_list=(0.5,))

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_negative_burn_in_rejected(self, scenario):
        # so is every burn-in: the AR generator takes the count from alpha
        alphas = (0.5,) if scenario.value.startswith("ar1") else ()
        for burn_in in (-1, 0, 500):
            with pytest.raises(TypeError, match="burn_in"):
                ExperimentConfig(scenario=scenario, alpha_list=alphas, burn_in=burn_in)

    def test_negative_master_seed_rejected_by_the_config(self):
        # Before the check, the study failed in its first cell with an error
        # that named neither the field nor the cell.
        with pytest.raises(InvalidSample, match="master_seed must be >= 0, got -1"):
            tiny_ar_config(master_seed=-1)
        assert tiny_ar_config(master_seed=0).master_seed == 0

    @pytest.mark.parametrize("scenario", [Scenario.GAUSSIAN_CENTERED, Scenario.GAMMA_CENTERED])
    def test_reference_projection_count_checked_for_every_scenario(self, scenario):
        for bad in (0, CV_MIN_PROJECTIONS - 1):
            with pytest.raises(InvalidSample, match="reference_L"):
                ExperimentConfig(scenario=scenario, reference_L=bad)
        assert ExperimentConfig(scenario=scenario,
                                reference_L=CV_MIN_PROJECTIONS).reference_L == CV_MIN_PROJECTIONS

    @pytest.mark.parametrize("make_config,make_owner,field", [
        (lambda: ExperimentConfig(scenario="ar1-gaussian", alpha_list=(0.5, 1.5)),
         lambda: Ar1Config(dim=2, n=2, alpha=1.5), "alpha_list"),
        (lambda: ExperimentConfig(scenario="ar1-student", alpha_list=(-0.1,)),
         lambda: Ar1Config(dim=2, n=2, alpha=-0.1), "alpha_list"),
        (lambda: ExperimentConfig(scenario="gamma-centered", reference_L=7),
         lambda: Method.MONTE_CARLO_CV.check_args(7, 2.0), "reference_L"),
    ])
    def test_config_raises_the_owners_message(self, make_config, make_owner, field):
        # one owner per rule: the config's message is the owner's, after
        # the field name when the owner's message does not name it
        with pytest.raises(InvalidSample) as owner:
            make_owner()
        with pytest.raises(InvalidSample) as config:
            make_config()
        prefix = f"{field}: " if field else ""
        assert str(config.value) == prefix + str(owner.value)

    def test_method_spec_validation(self):
        with pytest.raises(InvalidSample):
            MethodSpec(Method.MONTE_CARLO_SPHERE, 0)
        with pytest.raises(InvalidSample):
            MethodSpec(Method.DETERMINISTIC, 10)
        assert MethodSpec(Method.MONTE_CARLO_SPHERE, 100).label == "mc-sphere-100"
        assert MethodSpec(Method.DETERMINISTIC).label == "deterministic"

    def test_defaults_choose_reference_by_scenario(self):
        for scenario in Scenario:
            meta = bench.config_metadata(default_convergence_config(scenario))
            if scenario.value.startswith("gamma"):
                assert (meta["reference"], meta["reference_L"]) == ("mc-cv", 20_000)
            else:
                assert (meta["reference"], meta["reference_L"]) == ("closed-form", "")
        meta = bench.config_metadata(default_timing_config())
        assert (meta["reference"], meta["reference_L"]) == ("mc-cv", 20_000)
        ar = default_convergence_config(Scenario.AR1_GAUSSIAN)
        assert ar.alpha_list == (0.2, 0.5, 0.8)

    def test_paper_scale_defaults(self):
        cfg = default_convergence_config(Scenario.GAUSSIAN_CENTERED, paper_scale=True)
        assert cfg.n == 10_000 and cfg.runs == 100
        tim = default_timing_config(paper_scale=True)
        assert tim.n == 10_000 and tim.runs == 100
        assert tuple(m.L for m in tim.methods) == (0, 100, 1000, 5000)
        assert tim.reference_L == 20_000

    def test_desk_defaults(self):
        cfg = default_convergence_config(Scenario.GAMMA_CENTERED)
        assert (cfg.d_grid, cfg.n, cfg.runs, cfg.alpha_list) == (
            (10, 32, 100, 316, 1000), 2000, 20, ())
        tim = default_timing_config()
        assert (tim.d_grid, tim.n, tim.runs) == ((10, 32, 100, 316, 1000), 2000, 3)

    @pytest.mark.parametrize("paper_scale", [False, True])
    def test_overrides_win_at_either_scale(self, paper_scale):
        cfg = default_convergence_config(Scenario.AR1_STUDENT, paper_scale=paper_scale,
                                         d_grid=[3, 5], n=40, runs=2, alpha_list=[0.1])
        assert (cfg.d_grid, cfg.n, cfg.runs, cfg.alpha_list) == ((3, 5), 40, 2, (0.1,))
        tim = default_timing_config(paper_scale=paper_scale, d_grid=[4], n=30, runs=1)
        assert (tim.d_grid, tim.n, tim.runs) == ((4,), 30, 1)

    def test_scenario_recipe(self):
        for scenario in Scenario:
            assert (scenario.family is None) != (scenario.noise is None)
            assert scenario.centered == scenario.value.endswith("-centered")
            assert scenario.mc_reference == (scenario.family is FactorFamily.GAMMA)


class TestRunConvergence:
    def test_record_count_and_fields(self):
        cfg = ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(10,),
                               n=50, runs=1, master_seed=3)
        records = run_convergence(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.scenario == "gaussian-centered"
        assert rec.d == 10 and rec.n == 50 and rec.run_id == 0 and rec.alpha is None
        assert rec.method == "raw-moment"
        assert rec.abs_error == abs(math.sqrt(rec.estimate_sq) - math.sqrt(rec.reference_sq))

    def test_ar_reference_is_exact_zero(self):
        records = run_convergence(tiny_ar_config())
        assert len(records) == 2 * 2 * 3
        assert all(r.reference_sq == 0.0 and r.reference_se == 0.0 for r in records)
        assert {r.alpha for r in records} == {0.3, 0.7}

    def test_reproducible_modulo_wall_time(self):
        cfg = tiny_ar_config()
        a = run_convergence(cfg)
        b = run_convergence(cfg)
        for ra, rb in zip(a, b):
            assert (ra.scenario, ra.run_id, ra.d, ra.n, ra.alpha, ra.method,
                    ra.estimate_sq, ra.reference_sq, ra.abs_error, ra.seed) == \
                   (rb.scenario, rb.run_id, rb.d, rb.n, rb.alpha, rb.method,
                    rb.estimate_sq, rb.reference_sq, rb.abs_error, rb.seed)

    def test_worker_count_does_not_change_records(self):
        cfg = tiny_ar_config()
        serial = run_convergence(cfg, workers=1)
        threaded = run_convergence(cfg, workers=4)
        for ra, rb in zip(serial, threaded):
            assert ra.estimate_sq == rb.estimate_sq
            assert ra.reference_sq == rb.reference_sq
            assert ra.seed == rb.seed

    def test_one_worker_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_convergence(tiny_ar_config(), workers=1)
        assert started == []
        run_convergence(tiny_ar_config(), workers=2)
        assert started  # the counter sees a pool's threads

    def test_ar_pair_is_stationary_from_its_first_kept_step(self):
        # A fixed 500-step burn-in left column 0 with 1 - 0.999^1002 = 63 %
        # of the stationary variance 1 / (1 - alpha^2).
        alpha = 0.999
        cfg = ExperimentConfig(scenario=Scenario.AR1_GAUSSIAN, alpha_list=(alpha,),
                               n=1000, d_grid=(2,))
        for dist in bench._generate_pair(cfg, 2, alpha, bench._cell_seed(cfg, 0, 2, 0))[:2]:
            ratio = float(dist.data[:, 0].var(ddof=1)) * (1.0 - alpha ** 2)
            assert ratio == pytest.approx(1.0, rel=0.15)

    def test_monte_carlo_reference_path(self):
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_CENTERED, d_grid=(8,), n=60,
                               runs=2, reference_L=200, master_seed=2)
        records = run_convergence(cfg)
        assert len(records) == 2
        assert all(r.reference_sq > 0.0 and r.reference_se > 0.0 for r in records)

    def test_gamma_reference_is_the_seeded_monte_carlo_estimate(self):
        # The reference is the public mc-cv estimate on the cell's reference
        # stream: a 128-direction pilot (all of them below 128), grown only
        # when its standard error misses plain Monte Carlo's at reference_L,
        # sd(w) / sqrt(reference_L), to whole blocks by the 1/sqrt(L) law.
        for scenario, reference_L in itertools.product(
                (Scenario.GAMMA_NONCENTERED, Scenario.GAMMA_CENTERED), (100, 300, 20_000)):
            cfg = ExperimentConfig(scenario=scenario, d_grid=(6,), n=50,
                                   runs=1, reference_L=reference_L, master_seed=21)
            rec = run_convergence(cfg)[0]
            cell_seed = rng.derive_seed(cfg.master_seed, "cell", cfg.scenario.value, 0, 6, 0)
            assert rec.seed == cell_seed
            mu, nu, closed_ref = bench._generate_pair(cfg, 6, None, cell_seed)
            assert closed_ref is None
            seed = rng.derive_seed(cell_seed, "reference")
            L = min(reference_L, 128)
            want, w = monte_carlo_sw_cv(mu, nu, L, seed=seed)
            target = float(w.std(ddof=1)) / math.sqrt(reference_L)
            if want.std_error > target:
                grown = PROJECTION_BLOCK * math.ceil(L * (want.std_error / target) ** 2
                                                     / PROJECTION_BLOCK)
                want = estimate(mu, nu, "mc-cv", L=min(grown, reference_L), seed=seed)
            assert (rec.reference_sq, rec.reference_se) == (want.value_sq, want.std_error)
            assert want.method is Method.MONTE_CARLO_CV and want.seed == seed
            assert rec.reference_se <= target or want.num_projections == reference_L
            if reference_L < 128:
                assert want.num_projections == reference_L

    def test_gamma_reference_grows_by_whole_blocks_when_one_block_misses(self, monkeypatch):
        # A pilot standard error sqrt(10) times the target asks for 10 * 128
        # directions, 2.5 blocks: the reference takes 3 blocks from the same
        # stream, or reference_L when that is fewer.
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_CENTERED, d_grid=(6,), n=50,
                               runs=1, master_seed=21)
        mu, nu, _ = bench._generate_pair(cfg, 6, None, 7)
        seed = rng.derive_seed(7, "reference")
        real = bench.monte_carlo_sw_cv

        def reference(reference_L):
            calls = []

            def pilot_misses(mu, nu, L, seed):
                est, w = real(mu, nu, L, seed=seed)
                if not calls:
                    target = float(w.std(ddof=1)) / math.sqrt(reference_L)
                    est = dataclasses.replace(est, std_error=math.sqrt(10.0) * target)
                calls.append(L)
                return est, w

            monkeypatch.setattr(bench, "monte_carlo_sw_cv", pilot_misses)
            got = bench._reference(dataclasses.replace(cfg, reference_L=reference_L),
                                   mu, nu, None, 7)
            return calls, got

        for reference_L, grown in ((20_000, 3 * PROJECTION_BLOCK), (1000, 1000)):
            calls, got = reference(reference_L)
            assert calls == [128, grown]
            want = estimate(mu, nu, "mc-cv", L=grown, seed=seed)
            assert got == (want.value_sq, want.std_error)

    @pytest.mark.parametrize("scenario", [Scenario.GAMMA_CENTERED, Scenario.GAMMA_NONCENTERED])
    def test_pilot_standard_error_tracks_the_spread_of_its_estimates(self, scenario):
        # The reference stops on the pilot's standard error, so it must read
        # the spread of the pilot's estimate over direction seeds: a low one
        # stops early. This bounds the calibration; it does not fix it.
        cfg = ExperimentConfig(scenario=scenario, d_grid=(5,), n=200, runs=1)
        mu, nu, _ = bench._generate_pair(cfg, 5, None, bench._cell_seed(cfg, 0, 5, 0))
        ests = [monte_carlo_sw_cv(mu, nu, 128, seed=seed)[0] for seed in range(400)]
        values = np.array([e.value_sq for e in ests])
        ratio = np.mean([e.std_error for e in ests]) / float(values.std(ddof=1))
        assert 0.85 <= ratio <= 1.15, f"mean se / sd = {ratio:.3f}"

    def test_honours_configured_methods(self):
        raw_only = ExperimentConfig(scenario=Scenario.GAMMA_NONCENTERED, d_grid=(10, 20), n=100,
                                    runs=2, reference_L=50, master_seed=4)
        cfg = dataclasses.replace(raw_only, methods=(MethodSpec(Method.RAW_MOMENT),
                                                     MethodSpec(Method.DETERMINISTIC)))
        records = run_convergence(cfg)
        assert [r.method for r in records] == ["raw-moment", "deterministic"] * 4
        raw, det = records[::2], records[1::2]
        cell = lambda r: (r.d, r.run_id, r.seed, r.reference_sq)
        assert [cell(r) for r in raw] == [cell(r) for r in det]
        assert all(a.estimate_sq != b.estimate_sq for a, b in zip(raw, det))
        assert [r.estimate_sq for r in raw] == [r.estimate_sq for r in run_convergence(raw_only)]

    def test_noncentered_gamma_error_does_not_decay(self):
        # reduced-scale version of the bounded-error invariant for raw gamma data
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_NONCENTERED, d_grid=(10, 100, 1000),
                               n=400, runs=3, reference_L=2000, master_seed=14)
        rows = summarize(run_convergence(cfg))
        slope, _, _ = fit_loglog_slope([r.d for r in rows], [r.mean_error for r in rows])
        assert slope > -0.1

    def test_gaussian_reference_uses_drawn_hyperparams(self):
        # noncentered gaussian: reference = ||m1-m2||^2/d + (1 - sqrt(10))^2
        from swkit.datagen import FactorConfig, FactorFamily, DatasetRole, factor_hyperparams

        cfg = ExperimentConfig(scenario=Scenario.GAUSSIAN_NONCENTERED, d_grid=(12,),
                               n=30, runs=1, master_seed=9)
        rec = run_convergence(cfg)[0]
        ha = factor_hyperparams(FactorConfig(dim=12, n=30, family=FactorFamily.GAUSSIAN,
                                             role=DatasetRole.FIRST, seed=rec.seed))
        hb = factor_hyperparams(FactorConfig(dim=12, n=30, family=FactorFamily.GAUSSIAN,
                                             role=DatasetRole.SECOND, seed=rec.seed))
        delta = ha.per_column - hb.per_column
        want = float(delta @ delta) / 12 + (1.0 - math.sqrt(10.0)) ** 2
        assert rec.reference_sq == pytest.approx(want, rel=1e-12)
        # centered variant keeps only the scale term
        cfg_c = ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(12,),
                                 n=30, runs=1, master_seed=9)
        rec_c = run_convergence(cfg_c)[0]
        assert rec_c.reference_sq == pytest.approx((1.0 - math.sqrt(10.0)) ** 2, rel=1e-12)


class TestRunTiming:
    def test_records_per_method_and_determinism(self):
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_CENTERED, d_grid=(10,), n=80,
                               runs=2, reference_L=100,
                               methods=(MethodSpec(Method.DETERMINISTIC),
                                        MethodSpec(Method.MONTE_CARLO_SPHERE, 50),
                                        MethodSpec(Method.MONTE_CARLO_SPHERE, 400)),
                               master_seed=11)
        records = run_timing(cfg)
        assert len(records) == 2 * 3
        assert all(r.wall_time_ns > 0 for r in records)
        methods = {r.method for r in records}
        assert methods == {"deterministic", "mc-sphere-50", "mc-sphere-400"}
        again = run_timing(cfg)
        for ra, rb in zip(records, again):
            assert ra.estimate_sq == rb.estimate_sq
            assert ra.reference_sq == rb.reference_sq
        # same cell, same reference for every method
        by_run = {}
        for r in records:
            by_run.setdefault(r.run_id, set()).add(r.reference_sq)
        assert all(len(refs) == 1 for refs in by_run.values())

    def test_monte_carlo_time_grows_with_projection_count(self):
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_CENTERED, d_grid=(20,), n=500,
                               runs=1, reference_L=50,
                               methods=(MethodSpec(Method.MONTE_CARLO_SPHERE, 50),
                                        MethodSpec(Method.MONTE_CARLO_SPHERE, 2000)),
                               master_seed=12)
        records = run_timing(cfg)
        small = next(r for r in records if r.method == "mc-sphere-50")
        large = next(r for r in records if r.method == "mc-sphere-2000")
        assert large.wall_time_ns > 3 * small.wall_time_ns

    def test_wall_time_is_median_of_the_estimator_clock(self, monkeypatch):
        clocks = iter([30, 10, 20])

        def fake_estimate(mu, nu, method, **kwargs):
            return SwEstimate(value_sq=1.0, method=method, wall_time_ns=next(clocks))

        monkeypatch.setattr(bench, "estimate", fake_estimate)
        cfg = ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(3,), n=10, runs=1,
                               methods=(MethodSpec(Method.DETERMINISTIC),))
        assert [r.wall_time_ns for r in run_timing(cfg)] == [20]


class TestCsvIo:
    def test_records_round_trip(self, tmp_path):
        records = run_convergence(tiny_ar_config())
        path = tmp_path / "records.csv"
        bench.write_records_csv(records, path, metadata={"scenario": "ar1-gaussian"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# scenario=ar1-gaussian"
        assert lines[1] == ",".join(bench.RECORD_FIELDS) == (
            "scenario,run_id,d,n,alpha,method,estimate_sq,reference_sq,reference_se,"
            "abs_error,wall_time_ns,seed")
        assert len(lines) == 2 + len(records)
        for line, rec in zip(lines[2:], records):
            cells = line.split(",")
            assert len(cells) == len(bench.RECORD_FIELDS)
            for name, text in zip(bench.RECORD_FIELDS, cells):
                want = getattr(rec, name)
                if isinstance(want, float):
                    assert float(text) == want  # repr parses back to the same bits
                else:
                    assert text == str(want)

    def test_metadata_records_environment_and_is_stable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SW_THREADS", raising=False)
        cfg = tiny_ar_config()
        records = run_convergence(cfg)
        meta = bench.config_metadata(cfg)
        assert list(meta)[:list(meta).index("swkit")] == [
            "scenario", "n", "runs", "master_seed", "reference", "reference_L", "hyperparams"]
        env = list(meta)[list(meta).index("swkit"):]
        assert env == ["swkit", "python", "numpy", "cpu_count", "SW_THREADS",
                       "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        assert meta["swkit"] == swkit.__version__
        assert meta["numpy"] == np.__version__
        assert meta["SW_THREADS"] == "unset"
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            bench.write_records_csv(records, path, metadata=bench.config_metadata(cfg))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        monkeypatch.setenv("SW_THREADS", "3")
        assert bench.config_metadata(cfg)["SW_THREADS"] == "3"

    def test_package_version_is_the_pyproject_version(self):
        # the records CSV names swkit.__version__; an install reports pyproject's
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE) == [swkit.__version__]

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_metadata_records_blas_thread_variables(self, var, monkeypatch):
        cfg = tiny_ar_config()
        monkeypatch.delenv(var, raising=False)
        assert bench.config_metadata(cfg)[var] == "unset"
        monkeypatch.setenv(var, "2")
        assert bench.config_metadata(cfg)[var] == "2"

    def test_alpha_blank_for_factor_scenarios(self, tmp_path):
        cfg = ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(5,), n=20,
                               runs=1, master_seed=1)
        records = run_convergence(cfg)
        path = tmp_path / "records.csv"
        bench.write_records_csv(records, path)
        row = path.read_text().splitlines()[1].split(",")
        assert bench.RECORD_FIELDS[4] == "alpha"
        assert row[4] == ""
        assert records[0].alpha is None

    def test_summary_csv_schema(self, tmp_path):
        rows = summarize(run_convergence(tiny_ar_config()))
        path = tmp_path / "summary.csv"
        bench.write_summary_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,d,method,mean_error,p10,p90,mean_time_ns,slope_to_date"
        assert len(lines) == 1 + len(rows)
        first_data = lines[1].split(",")
        assert first_data[-1] == ""  # first d of a group has no slope yet

    def test_format_summary_table(self):
        rows = summarize(run_convergence(tiny_ar_config()))
        table = bench.format_summary_table(rows)
        assert "scenario" in table.splitlines()[0]
        assert len(table.splitlines()) == 1 + len(rows)
