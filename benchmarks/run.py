"""dptool benchmark: run one workload from a seed, time it, check every output.

Run from the repository root:

    python3 benchmarks/run.py --workload verify_all --seed 0x5EED --seconds 16 --trace 0

One process, one pass at a time (a closed loop with a single client).  The
workload is set up several times; then passes run back to back until
``--seconds`` have elapsed (at least one pass), and every pass's outputs are
checked and hashed.  A pass whose digest differs from the run's first
pass counts as a failed check; so does an exception.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
pass after the untraced ones, checks that it produced the untraced digest,
runs the workload's cross-check, and prints the per-layer metrics; the
spans are written to ``.bench_work/trace_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Context lines
before it start with ``#``.
"""

import sys

# Read and write no bytecode caches in the checkout: a stale __pycache__
# is never needed and never trusted.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up runs at least SETUP_MIN_REPEATS times and, when it is cheap, until
# SETUP_MIN_SECONDS have gone by, so that setup_s is a median of enough samples.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify_all", "field_ops", "ball_scans"))
    p.add_argument("--seed", default="0x5EED", help="integer, any base int(text, 0) reads")
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        int(args.seed, 0)
    except ValueError:
        p.error(f"--seed {args.seed!r} is not an integer")
    return args


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


class Tally:
    """Output checks attempted and failed, plus the run's first digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.first_digest = None

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"# check failed: {name}", file=sys.stderr)

    def add_all(self, checks) -> None:
        for name, ok in checks:
            self.add(name, ok)

    def raised(self, where: str) -> None:
        traceback.print_exc()
        self.add(f"{where} raised", False)


def timed_pass(wl, state, tally: Tally, tracer=None):
    """One pass, then its checks; returns (seconds, digest, start) or None if it raised."""
    try:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run(state)
            elapsed = time.perf_counter() - t0
        checks, dig = wl.check(state, out)
    except Exception:
        tally.raised("pass")
        return None
    tally.add_all(checks)
    if tally.first_digest is None:
        tally.first_digest = dig
    else:
        tally.add("traced digest equals untraced" if tracer else "pass digest equals the run's first pass",
                  dig == tally.first_digest)
    return elapsed, dig, t0


def wall_summary(walls) -> str:
    """Median with its sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(walls)
    pct = next((p for p in (99, 90, 50) if n * (100 - p) / 100 >= 10), None)
    tail = f"p{pct}={statistics.quantiles(walls, n=100)[pct - 1]:.6f}s" if pct else "none (needs 20 samples)"
    return (f"wall_s median={statistics.median(walls):.6f}s samples={n} highest_percentile={tail}"
            f" passes=[{', '.join(f'{w:.3f}' for w in walls)}]")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dptool" / "cli.py").is_file():
        print(f"error: {SRC / 'dptool'} not found; run from a dptool checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    import resource

    import numpy
    import scipy

    import workloads
    from tracer import PER_LAYER, Tracer, leftover_wrappers

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "dptool").glob("*.py"))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={nproc} " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"# python={sys.version.split()[0]} numpy={numpy.__version__} scipy={scipy.__version__}"
          f" src_lines={src_lines}")

    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
                sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, run_dir, dict(os.environ))
            setup_times.append(time.perf_counter() - t0)

        walls = []
        loop_start = time.perf_counter()
        while not walls or time.perf_counter() - loop_start < args.seconds:
            got = timed_pass(wl, state, tally)
            if got is None:
                break
            walls.append(got[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# setup_s median={statistics.median(setup_times):.6f}s samples={len(setup_times)}")
        if walls:
            print(f"# {wall_summary(walls)}")
            print(f"# output sha256={tally.first_digest}")

        if args.trace == 0:
            metrics = {
                "wall_s": statistics.median(walls) if walls else 0.0,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                "pass_frac": (tally.attempted - len(tally.failed)) / tally.attempted,
            }
            units = END_TO_END_UNITS
        else:
            metrics = {key: 0.0 for key in PER_LAYER}
            units = PER_LAYER
            tracer = Tracer()
            got = timed_pass(wl, state, tally, tracer) if walls else None
            tally.add("tracer restored every binding", not leftover_wrappers())
            if got is not None:
                traced_s, _digest, t0 = got
                metrics = tracer.layer_metrics(traced_s, statistics.median(walls))
                tracer.write(WORK / f"trace_{args.workload}.json", t0)
                print(f"# traced pass {traced_s:.6f}s, {len(tracer.spans)} spans")
            if wl.cross_check is not None and walls:
                try:
                    tally.add_all(wl.cross_check(state, tally.first_digest))
                except Exception:
                    tally.raised("cross-check")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tally.failed:
        print(f"# failed checks: {sorted(set(tally.failed))}", file=sys.stderr)
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {key: {"value": val, "unit": units[key]} for key, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
