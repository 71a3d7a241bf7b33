"""Runs one workload and turns its samples into the benchmark's metrics.

End-to-end metrics (``--trace 0``), lower is better for all:

* ``det_p50_s``   median seconds of the workload's deterministic step,
* ``mc_p50_s``    median seconds of its Monte Carlo step,
* ``cycle_p50_s`` median seconds of one pass over all its steps,
* ``setup_s``     median seconds of its set-up, run once before the first
  cycle and again after every cycle, so the samples span the run,
* ``peak_rss_mb`` peak resident memory of the whole process.

Per-layer metrics (``--trace 1``) come from one extra cycle run under the
tracer after the untraced ones; ``trace.overhead_s`` is that cycle's wall
time minus the median untraced cycle.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS

END_TO_END = (
    ("det_p50_s", "s"),
    ("mc_p50_s", "s"),
    ("cycle_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_CYCLES = 3
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_share", "ratio", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    return spans.layer_metric_names() + list(TRACE_METRICS)


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    details: list = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def _check_all(workload, calls, outcome: Outcome) -> None:
    for call in calls:
        outcome.attempted += 1
        try:
            workload.check(call)
        except Exception as exc:  # any wrong or unreadable output is a failed operation
            outcome.failed += 1
            print(f"perfbench: {call.step} failed its check: {exc}", file=sys.stderr)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(outcome: Outcome, workload_name: str, seed: int, seconds: float, trace: bool,
        tmpdir: str, sizes=None) -> None:
    """Set up, warm up, run cycles for about ``seconds`` (and at least
    ``MIN_CYCLES``), optionally one traced cycle, then the closing
    checks; counts and metrics go into ``outcome``.

    A cycle here includes its checks and the set-up after it. The loop stops
    before a cycle that would end more than half a cycle past ``seconds``,
    so the measured time stays close to ``seconds`` whatever the cycle
    length; a traced run leaves one cycle of that time to the traced one."""
    cls = WORKLOADS[workload_name]
    workload = cls(seed, tmpdir) if sizes is None else cls(seed, tmpdir, sizes)

    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    timed_setup()
    workload.prepare()
    _check_all(workload, workload.warmup(), outcome)

    samples: dict[str, list[float]] = {}
    cycles = []
    rounds = []  # cycle plus its checks and the set-up after it
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls = workload.cycle()
        cycles.append(time.perf_counter() - t0)
        for call in calls:
            samples.setdefault(call.step, []).append(call.seconds)
        _check_all(workload, calls, outcome)
        timed_setup()
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        per_round = statistics.median(rounds)
        if (len(cycles) >= MIN_CYCLES
                and elapsed + per_round * (1.5 if trace else 0.5) >= seconds):
            break

    if trace:
        with spans.Tracer() as tracer:
            t0 = time.perf_counter()
            calls = workload.cycle()
            traced_wall = time.perf_counter() - t0
        _check_all(workload, calls, outcome)
    _check_all(workload, workload.finish(), outcome)

    outcome.details = [("setup_s", statistics.median(setup_times), "s", len(setup_times)),
                       ("cycle_p50_s", statistics.median(cycles), "s", len(cycles))]
    outcome.details += workload.details(samples)
    if trace:
        outcome.metrics = _layer_metrics(tracer, traced_wall, statistics.median(cycles))
    else:
        outcome.metrics = {
            "det_p50_s": statistics.median(samples[workload.det_step]),
            "mc_p50_s": statistics.median(samples[workload.mc_step]),
            "cycle_p50_s": statistics.median(cycles),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }


def _layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for name, unit, _ in spans.layer_metric_names():
        if name.endswith(".self_s"):
            metrics[name] = totals.get(name[: -len(".self_s")], (0.0, 0))[0]
        elif name.endswith(".calls"):
            metrics[name] = totals.get(name[: -len(".calls")], (0.0, 0))[1]
        else:
            metrics[name] = tracer.counts.get(name, 0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.self_share"] = sum(t for t, _ in totals.values()) / traced_wall
    return metrics


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in per_layer_metrics()}
    return dict(END_TO_END)


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        **{var: os.environ.get(var, "unset")
           for var in ("SW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "seed": seed,
    }
