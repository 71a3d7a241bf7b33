"""swkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload api-d1000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; swkit is imported from ``src/``.
Workloads: ``api-d1000``, ``cli-csv``, ``experiments`` (see README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones. The exit code is 0 only when every output
passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("api-d1000", "cli-csv", "experiments")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_swkit() -> bool:
    """Put the checkout's ``src/`` first on the path and import swkit from it."""
    if not (SRC / "swkit" / "__init__.py").is_file():
        print(f"perfbench: no swkit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import swkit

    if Path(swkit.__file__).resolve().parent != (SRC / "swkit").resolve():
        print(f"perfbench: imported swkit from {swkit.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def limit_blas_threads() -> None:
    """One BLAS thread unless the caller chose otherwise, so the only
    parallelism is the workload's own (at most ``SW_THREADS=2`` workers) and
    no more threads run than the host's cores. Must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    if not import_swkit():
        return 2
    import harness

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(harness.environment(ROOT, args.seed)))
    outcome = harness.Outcome()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        harness.run(outcome, args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)
    except Exception:
        traceback.print_exc()
        outcome.failed += 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, value, unit, count in outcome.details:
        print(f"# {name} = {value!r} {unit} (n={count})")
    units = harness.units(bool(args.trace))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in outcome.metrics.items()}
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
