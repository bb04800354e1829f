"""Benchmark of the mrforest library: one workload per run, JSON result last.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run. The library is imported from ``src/`` of the same
checkout; without it the run exits with code 3 and prints no result. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Every workload is one client in one process. Pin native thread pools to one
# thread (never more than nproc) before numpy loads, so timings do not depend
# on how many cores a BLAS call happens to grab.
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_CAP_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

EXIT_NO_LIBRARY = 3
EXIT_NO_RESULT = 4

def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "serve", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for the smoke test; timings meaningless"
    )
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args: argparse.Namespace) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mrforest").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "thread_caps": {var: os.environ[var] for var in THREAD_CAP_VARS},
    }


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "mrforest" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mrforest

    if Path(mrforest.__file__).resolve().parent != SRC / "mrforest":
        print(f"perfbench: imported mrforest from {mrforest.__file__}", file=sys.stderr)
        return EXIT_NO_LIBRARY

    import workloads

    plan = workloads.smoke_plan(args.workload) if args.smoke else workloads.PLANS[args.workload]
    _emit({"provenance": _provenance(args), "plan": repr(plan)})

    ledger = workloads.Ledger()
    # the saved model goes to a scratch directory inside the checkout
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        for _ in range(workloads.SETUP_REPS):
            start = perf_counter()
            try:
                state = workloads.setup(plan, args.seed, ledger, workdir)
            except workloads.RoundAbort:
                print(f"perfbench: set-up failed: {ledger.errors}", file=sys.stderr)
                return EXIT_NO_RESULT
            setup_times.append(perf_counter() - start)

        samples = workloads.Samples()
        if args.trace:
            metrics, rounds = workloads.traced_run(
                plan, args.seed, args.seconds, state, ledger, samples
            )
        else:
            rounds = workloads.timed_run(plan, args.seed, args.seconds, state, ledger, samples)
            try:
                metrics = workloads.end_to_end(
                    samples, setup_times, state.serve.holdout_x.shape[0]
                )
            except KeyError as exc:
                print(f"perfbench: no samples for {exc}: {ledger.errors}", file=sys.stderr)
                return EXIT_NO_RESULT
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _emit(
        {
            "details": {
                "rounds": rounds,
                "setup_s": setup_times,
                "samples": {
                    name: {"units": len(units), "visits": sum(map(len, units.values()))}
                    for name, units in samples.units.items()
                },
                "checks": dict(ledger.checks),
                "errors": ledger.errors,
            }
        }
    )
    if args.trace:
        absent = sorted(workloads.PER_LAYER_UNITS.keys() - metrics.keys())
        if absent:
            print(f"perfbench: absent per-layer metrics: {absent}", flush=True)
    _emit(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
