"""Command-line front end: estimation, diagnostics, benchmarks, generation.

Exit codes: 0 on success, 1 on usage errors (bad flags or flag values), 2 on
runtime errors (unreadable files, dimension mismatches, unwritable outputs).
The worker pool used by the convergence experiment and Monte Carlo estimation
is capped by the SW_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bench, datagen
from .errors import InvalidOrder, SwkitError
from .estimators import (
    PAIR_BUDGET_DEFAULT,
    Method,
    SwEstimate,
    autocov_decay,
    estimate,
    exact_pair_limit,
    moment_stats,
    xi_d,
)
from .estimators import sw_hat  # noqa: F401  (the benchmark's tracer test looks it up here)


class UsageError(Exception):
    """Flag combination that parses but is not valid."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; contract says 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _worker_count() -> int:
    limit = os.environ.get("SW_THREADS")
    workers = os.cpu_count() or 1
    if limit is not None:
        try:
            workers = min(workers, max(1, int(limit)))
        except ValueError:
            raise UsageError(f"SW_THREADS must be an integer, got {limit!r}")
    return workers


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _pair_budget(text: str):
    if text in ("all", "auto"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, 'all' or 'auto', got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="swkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="sliced distance between two CSV datasets")
    est.add_argument("file_a", help="first dataset (CSV, one sample per row)")
    est.add_argument("file_b", help="second dataset (CSV, one sample per row)")
    est.add_argument("--method", default="deterministic",
                     choices=[m.value for m in Method],
                     help="estimator to run")
    est.add_argument("--L", type=int, default=1000,
                     help="projection count for Monte Carlo methods")
    est.add_argument("--p", type=float, default=2.0,
                     help="transport order; deterministic methods accept only 2")
    est.add_argument("--seed", type=int, default=0, help="RNG seed")
    est.set_defaults(func=cmd_estimate)

    diag = sub.add_parser("diagnostics", help="moment diagnostics of one CSV dataset")
    diag.add_argument("file", help="dataset (CSV, one sample per row)")
    diag.add_argument("--pair-budget", type=_pair_budget, default="auto",
                      help="pairs for the inner-product moments beta1/beta2: 'auto' "
                           "(default) is exact over all n^2 pairs up to an n that grows "
                           f"with the dimension d ({exact_pair_limit(1)} at d = 1, "
                           f"{exact_pair_limit(2)} at d = 2, {exact_pair_limit(1000)} at "
                           f"d = 1000) and samples {PAIR_BUDGET_DEFAULT} pairs beyond; "
                           "'all' is always exact; an integer samples that many pairs")
    diag.add_argument("--seed", type=int, default=0, help="seed for pair subsampling")
    diag.set_defaults(func=cmd_diagnostics)

    conv = sub.add_parser("convergence", help="error-versus-dimension experiment")
    conv.add_argument("--scenario", required=True,
                      choices=[s.value for s in bench.Scenario])
    conv.add_argument("--d", type=_int_list, default=None,
                      help="comma-separated dimension grid")
    conv.add_argument("--n", type=int, default=None, help="samples per dataset")
    conv.add_argument("--runs", type=int, default=None, help="independent runs per cell")
    conv.add_argument("--alpha", type=_float_list, default=None,
                      help="comma-separated AR coefficients (AR scenarios)")
    conv.add_argument("--burn-in", type=int, default=None, help="AR burn-in steps")
    conv.add_argument("--seed", type=int, default=0, help="master seed")
    conv.add_argument("--paper-scale", action="store_true",
                      help="full-scale sizes: n=10^4, 100 runs, burn-in 10^4")
    conv.add_argument("--out", required=True, help="records CSV path")
    conv.add_argument("--summary-out", default=None, help="summary CSV path")
    conv.set_defaults(func=cmd_convergence)

    tim = sub.add_parser("timing", help="accuracy/wall-time comparison experiment")
    tim.add_argument("--d", type=_int_list, default=None,
                     help="comma-separated dimension grid")
    tim.add_argument("--n", type=int, default=None, help="samples per dataset")
    tim.add_argument("--runs", type=int, default=None, help="independent runs per cell")
    tim.add_argument("--seed", type=int, default=0, help="master seed")
    tim.add_argument("--paper-scale", action="store_true",
                     help="full-scale sizes: n=10^4, 100 runs")
    tim.add_argument("--out", required=True, help="records CSV path")
    tim.add_argument("--summary-out", default=None, help="summary CSV path")
    tim.set_defaults(func=cmd_timing)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    gen.add_argument("--family", required=True, choices=["gaussian", "gamma", "ar1"])
    gen.add_argument("--role", default="first", choices=["first", "second"],
                     help="hyperparameter recipe (factor families)")
    gen.add_argument("--centered", action="store_true",
                     help="subtract empirical column means (factor families)")
    gen.add_argument("--alpha", type=float, default=None, help="AR coefficient (ar1)")
    gen.add_argument("--noise", default="gaussian", choices=[k.value for k in datagen.NoiseKind],
                     help="innovation law (ar1)")
    gen.add_argument("--burn-in", type=int, default=10_000, help="burn-in steps (ar1)")
    gen.add_argument("--d", type=int, required=True, help="dimension")
    gen.add_argument("--n", type=int, required=True, help="sample count")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--header", action="store_true", help="write a column header line")
    gen.set_defaults(func=cmd_generate)

    return parser


def _print_estimate(est: SwEstimate) -> None:
    row = (est.method.value, repr(est.value_sq), repr(math.sqrt(est.value_sq)),
           str(est.num_projections), str(est.wall_time_ns))
    print(",".join(row))


def cmd_estimate(args) -> int:
    method = Method(args.method)
    if method.is_mc and args.L < 1:
        raise UsageError(f"--L must be >= 1 for Monte Carlo methods, got {args.L}")
    if args.p < 1.0:
        raise UsageError(f"--p must be >= 1, got {args.p}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    mu = datagen.load_csv(args.file_a)
    nu = datagen.load_csv(args.file_b)
    workers = _worker_count() if method.is_mc else 1  # only Monte Carlo runs a worker pool
    try:
        est = estimate(mu, nu, method, L=args.L, p=args.p, seed=args.seed, workers=workers)
    except InvalidOrder as exc:
        raise UsageError(str(exc))
    _print_estimate(est)
    return 0


def cmd_diagnostics(args) -> int:
    if isinstance(args.pair_budget, int) and args.pair_budget < 1:
        raise UsageError(f"--pair-budget must be >= 1, got {args.pair_budget}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    dist = datagen.load_csv(args.file)
    stats = moment_stats(dist, pair_budget=args.pair_budget, seed=args.seed)
    print(f"n={dist.n}")
    print(f"d={dist.dim}")
    print(f"m2_raw={stats.m2_raw!r}")
    print(f"m2_normalized={stats.m2_raw / dist.dim!r}")
    print(f"mean_norm={float(math.sqrt(stats.mean @ stats.mean))!r}")
    print(f"alpha={stats.alpha!r}")
    print(f"beta1={stats.beta1!r}")
    print(f"beta2={stats.beta2!r}")
    print(f"pair_count_used={stats.pair_count_used}")
    print(f"xi_d={xi_d(stats)!r}")
    if dist.n >= 2:
        lags, cov, cov_sq = autocov_decay(dist, min(10, dist.dim - 1))
        for k in lags:
            print(f"autocov_cov[{k}]={float(cov[k])!r}")
        for k in lags:
            print(f"autocov_cov_sq[{k}]={float(cov_sq[k])!r}")
    return 0


def _echo_summary(records, summary_out) -> None:
    rows = bench.summarize(records)
    if summary_out:
        bench.write_summary_csv(rows, summary_out)
    print(bench.format_summary_table(rows))


def cmd_convergence(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    scenario = bench.Scenario(args.scenario)
    try:
        cfg = bench.default_convergence_config(
            scenario, paper_scale=args.paper_scale, master_seed=args.seed,
            d_grid=args.d, n=args.n, runs=args.runs, alpha_list=args.alpha,
            burn_in=args.burn_in,
        )
    except SwkitError as exc:
        raise UsageError(str(exc))
    records = bench.run_convergence(cfg, workers=_worker_count())
    bench.write_records_csv(records, args.out, metadata=bench.config_metadata(cfg))
    _echo_summary(records, args.summary_out)
    return 0


def cmd_timing(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        cfg = bench.default_timing_config(
            paper_scale=args.paper_scale, master_seed=args.seed,
            d_grid=args.d, n=args.n, runs=args.runs,
        )
    except SwkitError as exc:
        raise UsageError(str(exc))
    records = bench.run_timing(cfg)
    bench.write_records_csv(records, args.out, metadata=bench.config_metadata(cfg))
    _echo_summary(records, args.summary_out)
    return 0


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.family == "ar1":
        if args.alpha is None:
            raise UsageError("--alpha is required for --family ar1")
        try:
            cfg = datagen.Ar1Config(dim=args.d, n=args.n, alpha=args.alpha,
                                    noise=datagen.NoiseKind(args.noise),
                                    burn_in=args.burn_in, seed=args.seed)
        except SwkitError as exc:
            raise UsageError(str(exc))
        dist = datagen.gen_ar1(cfg)
    else:
        try:
            cfg = datagen.FactorConfig(dim=args.d, n=args.n,
                                       family=datagen.FactorFamily(args.family),
                                       centered=args.centered,
                                       role=datagen.DatasetRole(args.role),
                                       seed=args.seed)
        except SwkitError as exc:
            raise UsageError(str(exc))
        dist = datagen.gen_factors(cfg)
    datagen.save_csv(dist, args.out, header=args.header)
    print(f"wrote {dist.n} x {dist.dim} dataset to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"swkit: error: {exc}", file=sys.stderr)
        return 1
    except SwkitError as exc:
        print(f"swkit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"swkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
