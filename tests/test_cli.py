import math
import os
import subprocess
import sys

import pytest

import swkit
from swkit import datagen
from swkit.cli import main
from swkit.datagen import FactorConfig, FactorFamily, gen_factors, load_csv, save_csv
from swkit.estimators import estimate, sw_moment_approx_sq


@pytest.fixture
def dataset_csv(tmp_path):
    def _write(name, seed=1, n=60, d=4, family=FactorFamily.GAUSSIAN):
        path = tmp_path / name
        save_csv(gen_factors(FactorConfig(dim=d, n=n, family=family, seed=seed)), path)
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["estimate", "--help"],
        ["diagnostics", "--help"],
        ["convergence", "--help"],
        ["timing", "--help"],
        ["generate", "--help"],
    ])
    def test_help_exits_zero(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0

    @pytest.mark.parametrize("command,flags", [
        ("estimate", ("--method", "--L", "--p", "--seed")),
        ("diagnostics", ("--pair-budget", "--seed")),
        ("convergence", ("--scenario", "--d", "--n", "--runs", "--alpha",
                         "--seed", "--paper-scale", "--out", "--summary-out")),
        ("timing", ("--d", "--n", "--runs", "--seed", "--paper-scale", "--out")),
        ("generate", ("--family", "--role", "--centered", "--alpha", "--noise",
                      "--d", "--n", "--seed", "--out", "--header")),
    ])
    def test_help_documents_every_flag(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "a.csv", "b.csv", "--bogus"])
        assert exc.value.code == 1


class TestStartup:
    def test_import_does_not_load_scipy_signal(self):
        # A fresh interpreter, so modules other tests loaded do not count.
        src = os.path.dirname(os.path.dirname(swkit.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import swkit, swkit.cli, swkit.bench; "
                "print('scipy.signal' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_import_does_not_load_scipy(self):
        # numpy is the one run-time dependency; scipy serves only the tests.
        src = os.path.dirname(os.path.dirname(swkit.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import swkit, swkit.cli, swkit.bench; "
                "print('scipy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_ar1_generation_does_not_load_scipy_signal(self, tmp_path):
        src = os.path.dirname(os.path.dirname(swkit.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from swkit import cli, datagen; "
                "datagen.gen_ar1(datagen.Ar1Config(dim=3, n=5, alpha=0.5)); "
                "code = cli.main(['generate', '--family', 'ar1', '--alpha', '0.5', "
                "'--d', '3', '--n', '5', '--out', sys.argv[2]]); "
                "print(code, 'scipy.signal' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "ar1.csv")],
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "0 False"


class TestWorkerPoolEnv:
    def test_sw_threads_caps_pool(self, dataset_csv, capsys, monkeypatch):
        a, b = dataset_csv("a.csv", seed=1), dataset_csv("b.csv", seed=2)
        argv = ["estimate", a, b, "--method", "mc-sphere", "--L", "100", "--seed", "3"]
        monkeypatch.setenv("SW_THREADS", "1")
        _, capped, _ = run_cli(capsys, argv)
        monkeypatch.delenv("SW_THREADS")
        _, free, _ = run_cli(capsys, argv)
        assert capped.split(",")[:4] == free.split(",")[:4]  # same value either way

    def test_invalid_sw_threads_is_usage_error(self, dataset_csv, capsys, monkeypatch):
        a = dataset_csv("a.csv")
        monkeypatch.setenv("SW_THREADS", "lots")
        code, _, err = run_cli(capsys, ["estimate", a, a, "--method", "mc-sphere", "--L", "10"])
        assert code == 1
        assert "SW_THREADS" in err


class TestEstimate:
    def test_same_file_deterministic_gives_zero(self, dataset_csv, capsys):
        path = dataset_csv("a.csv")
        code, out, _ = run_cli(capsys, ["estimate", path, path, "--method", "deterministic"])
        assert code == 0
        fields = out.strip().split(",")
        assert fields[0] == "deterministic"
        assert float(fields[1]) == 0.0
        assert float(fields[2]) == 0.0
        assert fields[3] == "0"

    def test_monte_carlo_row_format(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=1), dataset_csv("b.csv", seed=2)
        code, out, _ = run_cli(capsys, ["estimate", a, b, "--method", "mc-sphere",
                                        "--L", "300", "--seed", "9"])
        assert code == 0
        fields = out.strip().split(",")
        assert fields[0] == "mc-sphere"
        assert float(fields[2]) == pytest.approx(math.sqrt(float(fields[1])), rel=1e-12)
        assert fields[3] == "300"
        assert int(fields[4]) > 0

    def test_control_variate_row_format(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=1), dataset_csv("b.csv", seed=2)
        code, out, _ = run_cli(capsys, ["estimate", a, b, "--method", "mc-cv",
                                        "--L", "300", "--seed", "9"])
        assert code == 0
        fields = out.strip().split(",")
        want = estimate(load_csv(a), load_csv(b), "mc-cv", L=300, seed=9).value_sq
        assert fields[:4] == ["mc-cv", repr(want), repr(math.sqrt(want)), "300"]
        assert int(fields[4]) > 0

    def test_monte_carlo_reproducible(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=1), dataset_csv("b.csv", seed=2)
        argv = ["estimate", a, b, "--method", "mc-gaussian", "--L", "200", "--seed", "4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1.split(",")[:4] == out2.split(",")[:4]

    def test_direction_laws_agree_at_order_two(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=3, n=150), dataset_csv("b.csv", seed=4, n=150)
        vals = {}
        for method, seed in (("mc-sphere", 11), ("mc-gaussian", 12)):
            code, out, _ = run_cli(capsys, ["estimate", a, b, "--method", method,
                                            "--L", "4000", "--seed", str(seed)])
            assert code == 0
            vals[method] = float(out.split(",")[1])
        # generous cap on 3 combined standard errors for these sizes
        assert abs(vals["mc-sphere"] - vals["mc-gaussian"]) <= 0.2 * max(vals.values())

    def test_closed_form_gauss_is_invalid_choice(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=5), dataset_csv("b.csv", seed=6)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", a, b, "--method", "closed-form-gauss"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'closed-form-gauss'" in captured.err

    @pytest.mark.parametrize("method", ["deterministic", "raw-moment"])
    def test_deterministic_order_other_than_two_is_usage_error(self, dataset_csv, capsys,
                                                                method):
        a, b = dataset_csv("a.csv", seed=5), dataset_csv("b.csv", seed=6)
        code, out, err = run_cli(capsys, ["estimate", a, b, "--method", method, "--p", "1"])
        assert code == 1
        assert out == ""
        assert "p=1.0" in err

    def test_raw_moment_row(self, dataset_csv, capsys):
        a, b = dataset_csv("a.csv", seed=5), dataset_csv("b.csv", seed=6)
        code, out, _ = run_cli(capsys, ["estimate", a, b, "--method", "raw-moment"])
        assert code == 0
        fields = out.strip().split(",")
        want = sw_moment_approx_sq(load_csv(a), load_csv(b))
        assert fields[:4] == ["raw-moment", repr(want), repr(math.sqrt(want)), "0"]
        assert int(fields[4]) > 0

    def test_zero_projections_is_usage_error(self, dataset_csv, capsys):
        a = dataset_csv("a.csv")
        code, _, err = run_cli(capsys, ["estimate", a, a, "--method", "mc-sphere", "--L", "0"])
        assert code == 1
        assert "L" in err

    def test_bad_order_is_usage_error(self, dataset_csv, capsys):
        a = dataset_csv("a.csv")
        code, _, _ = run_cli(capsys, ["estimate", a, a, "--p", "0.5"])
        assert code == 1

    @pytest.mark.parametrize("method, flags, sw_threads, named", [
        pytest.param("mc-sphere", ["--p", "nan"], None, ("--p", "order"), id="nan"),
        pytest.param("mc-sphere", ["--p", "inf"], None, ("--p", "order"), id="inf"),
        pytest.param("mc-sphere", ["--p", "0.5"], None, ("--p", "order"), id="0.5"),
        pytest.param("mc-sphere", ["--L", "0"], None, ("--L",), id="mc-sphere-L0"),
        pytest.param("deterministic", ["--p", "3"], None, ("--p", "order"), id="deterministic-p3"),
        pytest.param("raw-moment", ["--p", "3"], None, ("--p", "order"), id="raw-moment-p3"),
        pytest.param("mc-sphere", [], "abc", ("SW_THREADS",), id="mc-sphere-bad-SW_THREADS"),
        pytest.param("mc-cv", ["--L", "4"], None, ("--L", ">= 8"), id="mc-cv-L4"),
        pytest.param("mc-cv", ["--p", "3"], None, ("--p", "order"), id="mc-cv-p3"),
    ])
    def test_nonfinite_order_is_usage_error_before_reading(self, capsys, tmp_path, monkeypatch,
                                                           method, flags, sw_threads, named):
        # every usage error of estimate, not only a bad order, exits 1 before a file is read
        if sw_threads is not None:
            monkeypatch.setenv("SW_THREADS", sw_threads)
        missing = str(tmp_path / "nope.csv")  # a read would exit 2
        code, out, err = run_cli(capsys, ["estimate", missing, missing,
                                          "--method", method, *flags])
        assert code == 1
        assert out == ""
        assert all(word in err for word in named)

    def test_overflowing_order_is_usage_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0,0\n1,0\n0,1\n")
        b.write_text("1000,1000\n1001,1000\n1000,1001\n")
        code, out, err = run_cli(capsys, ["estimate", str(a), str(b), "--method", "mc-sphere",
                                          "--L", "50", "--p", "200"])
        assert code == 1
        assert out == ""
        assert "--p:" in err and "overflows" in err

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.csv")
        code, _, err = run_cli(capsys, ["estimate", missing, missing])
        assert code == 2

    def test_parse_failure_reports_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\nx,y\n")
        code, _, err = run_cli(capsys, ["estimate", str(bad), str(bad)])
        assert code == 2
        assert "bad.csv:2" in err

    def test_non_utf8_file_is_runtime_error_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"1.0,2.0\n\xff\xfe,3\n")
        code, _, err = run_cli(capsys, ["estimate", str(bad), str(bad)])
        assert code == 2
        assert f"{bad}:2: not UTF-8 text" in err

    def test_dim_mismatch_is_runtime_error(self, dataset_csv, capsys):
        a = dataset_csv("a.csv", d=3)
        b = dataset_csv("b.csv", d=5)
        code, _, err = run_cli(capsys, ["estimate", a, b])
        assert code == 2


class TestDiagnostics:
    def test_zero_dataset_all_zero(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("0.0,0.0\n0.0,0.0\n")
        code, out, _ = run_cli(capsys, ["diagnostics", str(path)])
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        for key in ("m2_raw", "mean_norm", "alpha", "beta1", "beta2", "xi_d"):
            assert float(values[key]) == 0.0

    def test_keys_present_and_consistent(self, dataset_csv, capsys):
        path = dataset_csv("a.csv", n=200, d=6)
        code, out, _ = run_cli(capsys, ["diagnostics", path, "--pair-budget", "all"])
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        for value in values.values():
            float(value)  # every line is plain key=number
        assert float(values["beta1"]) <= float(values["beta2"]) * (1 + 1e-12)
        assert float(values["m2_normalized"]) == pytest.approx(
            float(values["m2_raw"]) / 6, rel=1e-12)
        assert int(values["pair_count_used"]) == 200 * 200
        for lag in range(6):
            assert f"autocov_cov[{lag}]" in values
            assert f"autocov_cov_sq[{lag}]" in values

    def test_pair_budget_integer(self, dataset_csv, capsys):
        path = dataset_csv("a.csv", n=100)
        code, out, _ = run_cli(capsys, ["diagnostics", path, "--pair-budget", "500"])
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert int(values["pair_count_used"]) == 500

    def test_bad_budget_usage_error(self, dataset_csv, capsys):
        path = dataset_csv("a.csv")
        with pytest.raises(SystemExit) as exc:
            main(["diagnostics", path, "--pair-budget", "soon"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_usage_error(self, dataset_csv, capsys, budget):
        path = dataset_csv("a.csv")
        code, out, err = run_cli(capsys, ["diagnostics", path, "--pair-budget", budget])
        assert code == 1
        assert out == ""
        assert "--pair-budget" in err

    def test_nonpositive_budget_checked_before_reading(self, capsys):
        code, out, err = run_cli(capsys, ["diagnostics", "missing.csv", "--pair-budget", "0"])
        assert code == 1
        assert out == ""
        assert "--pair-budget" in err

    @pytest.mark.parametrize("extra", [[], ["--pair-budget", "100"]])
    def test_negative_seed_usage_error(self, dataset_csv, capsys, extra):
        path = dataset_csv("a.csv")
        code, out, err = run_cli(capsys, ["diagnostics", path, "--seed", "-1", *extra])
        assert code == 1
        assert out == ""
        assert "--seed" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "missing-a.csv", "missing-b.csv"],
    ["diagnostics", "missing.csv"],
    ["convergence", "--scenario", "gaussian-centered", "--out", "records.csv",
     "--summary-out", "summary.csv"],
    ["timing", "--out", "records.csv", "--summary-out", "summary.csv"],
    ["generate", "--family", "gaussian", "--d", "2", "--n", "3", "--out", "data.csv"],
], ids=["estimate", "diagnostics", "convergence", "timing", "generate"])
def test_negative_seed_is_usage_error_before_any_work(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, [*argv, "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert "swkit: error: --seed must be >= 0, got -1" in err
    assert list(tmp_path.iterdir()) == []


class TestGenerate:
    def test_deterministic_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        argv = ["generate", "--family", "gamma", "--role", "first",
                "--d", "4", "--n", "10", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_flag(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, ["generate", "--family", "gaussian", "--d", "3",
                                      "--n", "5", "--out", str(out), "--header"])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x0,x1,x2"

    def test_ar1_requires_alpha(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["generate", "--family", "ar1", "--d", "4",
                                        "--n", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "alpha" in err

    def test_ar1_generation(self, capsys, tmp_path):
        out = tmp_path / "ar.csv"
        code, _, _ = run_cli(capsys, ["generate", "--family", "ar1", "--alpha", "0.5",
                                      "--d", "6", "--n", "8", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 8
        cfg = datagen.Ar1Config(dim=6, n=8, alpha=0.5, seed=3)
        assert load_csv(out).data.tobytes() == datagen.gen_ar1(cfg).data.tobytes()

    def test_invalid_alpha_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["generate", "--family", "ar1", "--alpha", "1.5",
                                      "--d", "4", "--n", "5",
                                      "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("flag,argv", [
        ("--alpha", ["--family", "gamma", "--alpha", "0.5"]),
        ("--noise", ["--family", "gaussian", "--noise", "gaussian"]),
        ("--centered", ["--family", "ar1", "--alpha", "0.5", "--centered"]),
        ("--role", ["--family", "ar1", "--alpha", "0.5", "--role", "first"]),
    ], ids=["alpha", "noise", "centered", "role"])
    def test_other_family_flag_is_usage_error(self, capsys, tmp_path, flag, argv):
        # An explicit flag is rejected even when it names its default value.
        code, _, err = run_cli(capsys, ["generate", *argv, "--d", "3", "--n", "4",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"{flag} does not apply to --family" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_runtime_error(self, capsys):
        code, _, _ = run_cli(capsys, ["generate", "--family", "gaussian", "--d", "2",
                                      "--n", "3", "--out", "/nonexistent-dir/x.csv"])
        assert code == 2


class TestExperimentCommands:
    def test_convergence_ar_single_cell(self, capsys, tmp_path):
        out = tmp_path / "records.csv"
        code, stdout, _ = run_cli(capsys, [
            "convergence", "--scenario", "ar1-gaussian", "--alpha", "0.5",
            "--runs", "1", "--d", "10", "--n", "100",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # header + one record
        row = lines[1].split(",")
        assert float(row[7]) == 0.0  # reference_sq exactly zero
        assert "ar1-gaussian" in stdout

    def test_convergence_writes_summary(self, capsys, tmp_path):
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, [
            "convergence", "--scenario", "gaussian-centered", "--runs", "2",
            "--d", "8,16", "--n", "60", "--seed", "5",
            "--out", str(out), "--summary-out", str(summary),
        ])
        assert code == 0
        lines = summary.read_text().splitlines()
        assert lines[0].startswith("scenario,d,method,")
        assert len(lines) == 3

    def test_convergence_reproducible_bytes(self, capsys, tmp_path):
        argv = ["convergence", "--scenario", "ar1-student", "--alpha", "0.3",
                "--runs", "2", "--d", "6,12", "--n", "40", "--seed", "8"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        strip = lambda p: ["," .join(r.split(",")[:9]) for r in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)  # identical modulo wall_time_ns,seed columns order

    def test_convergence_alpha_on_factor_scenario_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "convergence", "--scenario", "gaussian-centered", "--alpha", "0.5",
            "--runs", "1", "--d", "8", "--n", "40", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    def test_timing_tiny(self, capsys, tmp_path):
        out = tmp_path / "timing.csv"
        code, stdout, _ = run_cli(capsys, [
            "timing", "--d", "10", "--n", "60", "--runs", "1", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        # header + one record per method (deterministic + three Monte Carlo)
        assert len(lines) == 5
        assert "deterministic" in stdout

    @pytest.mark.parametrize("flags", [("--n", "0"), ("--d", "10,5")])
    def test_timing_bad_config_is_usage_error(self, capsys, tmp_path, flags):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, ["timing", *flags, "--out", str(out)])
        assert code == 1
        assert "swkit: error:" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["convergence", "--scenario", "ar1-gaussian", "--alpha", "0.5", "--runs", "1"],
        ["convergence", "--scenario", "gaussian-centered", "--runs", "1"],
        ["generate", "--family", "ar1", "--alpha", "0.5"],
    ], ids=["ar1-gaussian", "gaussian-centered", "generate"])
    def test_negative_burn_in_is_usage_error(self, capsys, tmp_path, argv):
        # so is every burn-in: the AR generator takes the count from alpha
        out = tmp_path / "r.csv"
        for value in ("-5", "5"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--burn-in", value, "--d", "3", "--n", "20", "--out", str(out)])
            assert exc.value.code == 1
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert f"error: unrecognized arguments: --burn-in {value}" in err
            assert not out.exists()

    def test_unwritable_out_is_runtime_error(self, capsys):
        code, _, _ = run_cli(capsys, [
            "convergence", "--scenario", "ar1-gaussian", "--alpha", "0.5", "--runs", "1",
            "--d", "6", "--n", "30", "--out", "/nonexistent-dir/r.csv",
        ])
        assert code == 2
