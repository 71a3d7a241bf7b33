import dataclasses
import math

import numpy as np
import pytest

import swkit.bench as bench
from swkit.bench import (
    ExperimentConfig,
    MethodSpec,
    ReferenceKind,
    ResultRecord,
    Scenario,
    default_convergence_config,
    default_timing_config,
    fit_loglog_slope,
    run_convergence,
    run_timing,
    summarize,
)
from swkit.errors import EmptyInput, InvalidSample, NonPositiveError
from swkit.estimators import Method


def tiny_ar_config(**overrides):
    base = dict(
        scenario=Scenario.AR1_GAUSSIAN,
        d_grid=(10, 30),
        n=200,
        runs=3,
        alpha_list=(0.3, 0.7),
        reference=ReferenceKind.CLOSED_FORM,
        master_seed=5,
        burn_in=100,
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
                            abs_error=err, wall_time_ns=1000, seed=1)

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

    def test_factor_rejects_alphas(self):
        with pytest.raises(InvalidSample):
            ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, alpha_list=(0.5,))

    def test_gamma_needs_monte_carlo_reference(self):
        with pytest.raises(InvalidSample):
            ExperimentConfig(scenario=Scenario.GAMMA_CENTERED,
                             reference=ReferenceKind.CLOSED_FORM)

    def test_method_spec_validation(self):
        with pytest.raises(InvalidSample):
            MethodSpec(Method.MONTE_CARLO_SPHERE, 0)
        with pytest.raises(InvalidSample):
            MethodSpec(Method.DETERMINISTIC, 10)
        assert MethodSpec(Method.MONTE_CARLO_SPHERE, 100).label == "mc-sphere-100"
        assert MethodSpec(Method.DETERMINISTIC).label == "deterministic"

    def test_defaults_choose_reference_by_scenario(self):
        assert default_convergence_config(Scenario.GAMMA_CENTERED).reference \
            is ReferenceKind.MONTE_CARLO
        assert default_convergence_config(Scenario.GAUSSIAN_CENTERED).reference \
            is ReferenceKind.CLOSED_FORM
        ar = default_convergence_config(Scenario.AR1_GAUSSIAN)
        assert ar.reference is ReferenceKind.CLOSED_FORM
        assert ar.alpha_list == (0.2, 0.5, 0.8)

    def test_paper_scale_defaults(self):
        cfg = default_convergence_config(Scenario.GAUSSIAN_CENTERED, paper_scale=True)
        assert cfg.n == 10_000 and cfg.runs == 100 and cfg.burn_in == 10_000
        tim = default_timing_config(paper_scale=True)
        assert tim.n == 10_000 and tim.runs == 100
        assert tuple(m.L for m in tim.methods) == (0, 100, 1000, 5000)
        assert tim.reference_L == 20_000


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
        assert all(r.reference_sq == 0.0 for r in records)
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

    def test_monte_carlo_reference_path(self):
        cfg = ExperimentConfig(scenario=Scenario.GAMMA_CENTERED, d_grid=(8,), n=60,
                               runs=2, reference=ReferenceKind.MONTE_CARLO,
                               reference_L=200, master_seed=2)
        records = run_convergence(cfg)
        assert len(records) == 2
        assert all(r.reference_sq > 0.0 for r in records)

    def test_honours_configured_methods(self):
        raw_only = ExperimentConfig(scenario=Scenario.GAMMA_NONCENTERED, d_grid=(10, 20), n=100,
                                    runs=2, reference=ReferenceKind.MONTE_CARLO,
                                    reference_L=50, master_seed=4)
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
                               n=400, runs=3, reference=ReferenceKind.MONTE_CARLO,
                               reference_L=2000, master_seed=14)
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
                               runs=2, reference=ReferenceKind.MONTE_CARLO, reference_L=100,
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
                               runs=1, reference=ReferenceKind.MONTE_CARLO, reference_L=50,
                               methods=(MethodSpec(Method.MONTE_CARLO_SPHERE, 50),
                                        MethodSpec(Method.MONTE_CARLO_SPHERE, 2000)),
                               master_seed=12)
        records = run_timing(cfg)
        small = next(r for r in records if r.method == "mc-sphere-50")
        large = next(r for r in records if r.method == "mc-sphere-2000")
        assert large.wall_time_ns > 3 * small.wall_time_ns


class TestCsvIo:
    def test_records_round_trip(self, tmp_path):
        records = run_convergence(tiny_ar_config())
        path = tmp_path / "records.csv"
        bench.write_records_csv(records, path, metadata={"scenario": "ar1-gaussian"})
        text = path.read_text()
        assert text.startswith("# scenario=ar1-gaussian\n")
        assert text.splitlines()[1] == ",".join(bench.RECORD_FIELDS)
        back = bench.read_records_csv(path)
        assert back == records

    def test_metadata_records_environment_and_is_stable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SW_THREADS", raising=False)
        cfg = tiny_ar_config()
        records = run_convergence(cfg)
        meta = bench.config_metadata(cfg)
        for key in ("python", "numpy", "scipy", "cpu_count", "SW_THREADS"):
            assert key in meta
        assert meta["numpy"] == np.__version__
        assert meta["SW_THREADS"] == "unset"
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            bench.write_records_csv(records, path, metadata=bench.config_metadata(cfg))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        monkeypatch.setenv("SW_THREADS", "3")
        assert bench.config_metadata(cfg)["SW_THREADS"] == "3"

    def test_alpha_blank_for_factor_scenarios(self, tmp_path):
        cfg = ExperimentConfig(scenario=Scenario.GAUSSIAN_CENTERED, d_grid=(5,), n=20,
                               runs=1, master_seed=1)
        records = run_convergence(cfg)
        path = tmp_path / "records.csv"
        bench.write_records_csv(records, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == ""
        assert bench.read_records_csv(path)[0].alpha is None

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
