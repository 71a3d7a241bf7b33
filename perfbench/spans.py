"""Outside-in layer tracing for the benchmark.

The tracer wraps public swkit functions at module boundaries by rebinding
the name each caller looks up (``swkit.cli.sw_hat``, ``swkit.bench.gen_factors``,
``swkit.rng.substream``, ...), records one span per call, and restores the
original bindings on exit. The library itself is never edited.

A span's self time is its duration minus the union of its children's
intervals. The union matters because Monte Carlo blocks run on a thread pool:
spans opened on a worker thread whose own stack is empty take as parent the
innermost open span of the thread that started the trace, which is the call
that owns the pool.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

import swkit
from swkit import bench, cli, datagen, estimators, rng

# Modules whose namespaces are rebound: every place a caller can look a
# wrapped function up.
_NAMESPACES = (swkit, bench, cli, datagen, estimators, rng)


def _mc_counts(counts, args, kwargs, result):
    mu = args[0]
    L = int(args[2] if len(args) > 2 else kwargs["L"])
    counts["estimators.monte_carlo_sw_pp.projections"] += L
    counts["estimators.monte_carlo_sw_pp.gemm_flops_computed"] += 4 * L * mu.n * mu.dim
    counts["estimators.monte_carlo_sw_pp.sort_elems_computed"] += 2 * L * mu.n


def _sw_hat_counts(counts, args, kwargs, result):
    # sw_hat reads each input twice: once for the mean, once for the
    # centered second moment (``estimators._mean_and_scaled_m2``).
    mu, nu = args[0], args[1]
    counts["estimators.sw_hat.bytes_read_computed"] += 2 * 8 * mu.dim * (mu.n + nu.n)


def _moment_counts(counts, args, kwargs, result):
    counts["estimators.moment_stats.pairs"] += result.pair_count_used


def _load_csv_counts(counts, args, kwargs, result):
    counts["datagen.load_csv.bytes"] += os.path.getsize(args[0])


# (module, function, extra counter or None). Each gets ``<module>.<function>``
# ``.self_s`` and ``.calls``; the counters add the names they write.
LAYERS = (
    (datagen, "load_csv", _load_csv_counts),
    (datagen, "gen_factors", None),
    (datagen, "gen_ar1", None),
    (estimators, "EmpiricalDistribution", None),
    (estimators, "sw_hat", _sw_hat_counts),
    (estimators, "monte_carlo_sw_pp", _mc_counts),
    (estimators, "moment_stats", _moment_counts),
    (estimators, "autocov_decay", None),
    (estimators, "sw_moment_approx_sq", None),
    (rng, "substream", None),
    (rng, "derive_seed", None),
    (bench, "run_convergence", None),
    (bench, "run_timing", None),
    (cli, "main", None),
)

COUNTERS = (
    "estimators.monte_carlo_sw_pp.projections",
    "estimators.monte_carlo_sw_pp.gemm_flops_computed",
    "estimators.monte_carlo_sw_pp.sort_elems_computed",
    "estimators.sw_hat.bytes_read_computed",
    "estimators.moment_stats.pairs",
    "datagen.load_csv.bytes",
)


def layer_name(module, func: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Collects spans and counts while installed as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            else:  # a pool thread: its parent is the caller's open span
                root = tracer._root_stack
                parent = root[-1] if root else None
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                with tracer._count_lock:
                    counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        self._local.stack = self._root_stack
        for module, func, counter in LAYERS:
            original = getattr(module, func)
            wrapper = self._wrap(layer_name(module, func), original, counter)
            for ns in _NAMESPACES:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()
        return False

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per layer name: (summed self time in seconds, call count)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[id(parent)].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            name, start, end, _ = span
            covered = _union_length(children.get(id(span), ()), start, end)
            totals[name][0] += (end - start) - covered
            totals[name][1] += 1
        return {name: (t[0], t[1]) for name, t in totals.items()}


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = []
    for module, func, _ in LAYERS:
        base = layer_name(module, func)
        names.append((f"{base}.self_s", "s", "lower"))
        names.append((f"{base}.calls", "count", "lower"))
    names.extend((c, "count", "lower") for c in COUNTERS)
    return names
