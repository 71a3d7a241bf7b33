"""Self-tests of the benchmark: tiny-size runs of every workload emit every
named metric, each oracle trips on a perturbed result, and the tracer's
self-time arithmetic holds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from swkit import datagen, estimators  # noqa: E402

TINY = {
    "api-d1000": W.ApiSizes(n=300, d=20, L=1100),
    "cli-csv": W.CliSizes(n=300, d=20, L=2100),
    "experiments": W.ExperimentSizes(gamma_d=(5, 10), ar_d=(5, 10), timing_d=(5, 10), n=100,
                                     ar_runs=2, reference_L=500, toy_n=50),
}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    import run

    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.units(False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.units(True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric(tmp_path, name, trace):
    outcome = harness.Outcome()
    harness.run(outcome, name, 5, 0.0, trace, str(tmp_path), TINY[name])
    assert outcome.correct and outcome.attempted > 0
    assert set(outcome.metrics) == set(harness.units(trace))
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in outcome.metrics.values())
    if not trace:
        assert all(v > 0 for v in outcome.metrics.values())
    else:
        assert outcome.metrics["trace.self_share"] >= 0.9


def test_layer_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        outcome = harness.Outcome()
        harness.run(outcome, "cli-csv", 5, 0.0, True, str(tmp_path), TINY["cli-csv"])
        counts.append({k: v for k, v in outcome.metrics.items()
                       if harness.units(True)[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["estimators.monte_carlo_sw_pp.projections"] == 2100
    assert counts[0]["rng.substream.calls"] == 2100
    assert counts[0]["estimators.moment_stats.pairs"] == 300 * 300


def _cycle(name, tmp_path):
    workload = W.WORKLOADS[name](5, str(tmp_path), TINY[name])
    workload.setup()
    workload.prepare()
    calls = workload.cycle()
    for call in calls:
        workload.check(call)
    return workload, calls


def test_experiments_setup_generates_every_checked_pair(tmp_path):
    workload, _ = _cycle("experiments", tmp_path)
    assert len(workload.pairs) == len(TINY["experiments"].gamma_d)


def _bump(x: float) -> float:
    return x * (1.0 + 1e-6)


def test_api_oracles_trip(tmp_path):
    workload, calls = _cycle("api-d1000", tmp_path)
    det = calls[0]
    bad = dataclasses.replace(det, result=dataclasses.replace(
        det.result, value_sq=_bump(det.result.value_sq)))
    with pytest.raises(oracles.OracleFailure):
        workload.check(bad)
    (est, values), seed, L = calls[-1].result
    for l in (0, oracles.MC_PREFIX - 1):
        shifted = values.copy()
        shifted[l] = _bump(shifted[l])
        with pytest.raises(oracles.OracleFailure):
            workload.check(dataclasses.replace(calls[-1], result=((est, shifted), seed, L)))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(calls[-1], result=((est, values), seed + 1, L)))
    off_mean = dataclasses.replace(est, value_sq=_bump(est.value_sq))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(calls[-1], result=((off_mean, values), seed, L)))


def _perturb_text(text: str, key: str) -> str:
    lines = []
    for line in text.splitlines():
        k, _, v = line.partition("=")
        lines.append(f"{k}={_bump(float(v))!r}" if k == key else line)
    return "\n".join(lines) + "\n"


def test_cli_oracles_trip(tmp_path):
    workload, calls = _cycle("cli-csv", tmp_path)
    det, mc, _, diag, _ = calls
    for call in (det, mc):
        code, text = call.result
        method, value_sq, rest = text.split(",", 2)
        perturbed = f"{method},{float(value_sq) + math.ulp(float(value_sq))!r},{rest}"
        with pytest.raises(oracles.OracleFailure):
            workload.check(dataclasses.replace(call, result=(code, perturbed)))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(det, result=(2, det.result[1])))
    code, text = diag.result
    for key in ("m2_raw", "alpha", "beta1", "beta2", "xi_d", "autocov_cov[3]"):
        with pytest.raises(oracles.OracleFailure):
            workload.check(dataclasses.replace(diag, result=(code, _perturb_text(text, key))))


def test_sampled_beta_tolerance_scales_with_pairs():
    x = np.random.default_rng(0).standard_normal((400, 30))
    ref = oracles.diagnostics_reference(x)
    stats = estimators.moment_stats(estimators.EmpiricalDistribution(x), pair_budget=20_000)
    text = (f"n=400\nd=30\nm2_raw={ref.m2_raw!r}\nm2_normalized={ref.m2_raw / 30!r}\n"
            f"mean_norm={ref.mean_norm!r}\nalpha={ref.alpha!r}\n"
            f"beta1={stats.beta1!r}\nbeta2={stats.beta2!r}\n"
            f"pair_count_used={stats.pair_count_used}\n")
    xi = (ref.alpha + math.sqrt(ref.m2_raw * stats.beta1)
          + ref.m2_raw ** 0.2 * stats.beta2 ** 0.8) / 30
    text += f"xi_d={xi!r}\n"
    text += "".join(f"autocov_cov[{k}]={v!r}\n" for k, v in enumerate(ref.autocov))
    text += "".join(f"autocov_cov_sq[{k}]={v!r}\n" for k, v in enumerate(ref.autocov_sq))
    oracles.check_diagnostics(text, ref)
    far = text.replace(f"beta1={stats.beta1!r}", f"beta1={stats.beta1 * 1.2!r}")
    with pytest.raises(oracles.OracleFailure):
        oracles.check_diagnostics(far, ref)


def _consistent(record, **changes):
    """A record with ``changes`` applied and its abs_error recomputed, so
    only the oracle that owns the changed field can catch it."""
    r = dataclasses.replace(record, **changes)
    return dataclasses.replace(
        r, abs_error=abs(math.sqrt(r.estimate_sq) - math.sqrt(r.reference_sq)))


def test_experiment_oracles_trip(tmp_path):
    workload, calls = _cycle("experiments", tmp_path)
    by_step = {c.step: c for c in calls}
    gamma = by_step[workload.mc_step]
    records = list(gamma.result)
    records[0] = _consistent(records[0], estimate_sq=_bump(records[0].estimate_sq))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(gamma, result=records))
    ar = by_step[workload.det_step]
    records = list(ar.result)
    records[-1] = _consistent(records[-1], reference_sq=1e-300)
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(ar, result=records))
    records = list(ar.result)
    records[0] = dataclasses.replace(records[0], abs_error=_bump(records[0].abs_error))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(ar, result=records))
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(ar, result=list(ar.result)[1:]))
    timing = by_step[workload.timing_step]
    records = [dataclasses.replace(r, wall_time_ns=r.wall_time_ns + 1) for r in timing.result]
    workload.check(dataclasses.replace(timing, result=records))  # wall time may differ
    records[-1] = dataclasses.replace(records[-1], seed=records[-1].seed + 1)
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(timing, result=records))
    repeats = workload.finish()
    for call in repeats:
        workload.check(call)
    got, want = repeats[0].result
    got = [_consistent(got[0], estimate_sq=_bump(got[0].estimate_sq))] + got[1:]
    with pytest.raises(oracles.OracleFailure):
        workload.check(dataclasses.replace(repeats[0], result=(got, want)))


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = spans.Tracer()
    parent = ["parent", 0.0, 10.0, None]
    tracer.spans = [
        parent,
        ["child", 1.0, 4.0, parent],  # two workers overlap on [2, 4]
        ["child", 2.0, 5.0, parent],
        ["child", 8.0, 12.0, parent],  # clipped to the parent's end
    ]
    totals = tracer.layer_totals()
    assert totals["parent"] == pytest.approx((10.0 - 4.0 - 2.0, 1))
    assert totals["child"] == pytest.approx((3.0 + 3.0 + 4.0, 3))


def test_tracer_rebinds_caller_names_and_restores_them(tmp_path):
    original = estimators.sw_hat
    x = datagen.gen_factors(datagen.FactorConfig(dim=4, n=50, seed=1))
    with spans.Tracer() as tracer:
        assert W.cli.sw_hat is not original and W.bench.sw_hat is W.cli.sw_hat
        estimators.sw_hat(x, x)

        def worker():
            estimators.monte_carlo_sw_pp(x, x, 3, seed=1)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert estimators.sw_hat is original and W.cli.sw_hat is original
    names = [s[0] for s in tracer.spans]
    assert names.count("estimators.sw_hat") == 1
    assert names.count("rng.substream") == 3
    assert tracer.counts["estimators.monte_carlo_sw_pp.projections"] == 3


def test_run_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the command exits nonzero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = _bench_json()
    start = time.monotonic()
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli-csv", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - start < 120
