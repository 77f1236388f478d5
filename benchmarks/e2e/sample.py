"""One sample of a workload, in a fresh interpreter.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Imports
cayley8p.cli first, so that the clock reading taken right after the import
gives the set-up time, then runs the workload's operations one after another
through `cayley8p.cli.main`, checks each result against its pin and prints
one JSON line.  With --trace 1 the per-layer spans are recorded as well.
Without --workload or --probe it only imports.

    python sample.py --root ROOT --workload oracle-p5 --seed 1 --trace 0
    python sample.py --root ROOT --probe 5
"""

import sys
import time

from cayley8p import cli  # first: the set-up time ends here

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from cayley8p import kernels  # noqa: E402
from cayley8p.domain import induced_permutations  # noqa: E402

PROBE_REPEAT = 3


def run_operation(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, standard output and standard error of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped error is a failed operation, not a harness crash
            status = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return status, out.getvalue(), err.getvalue()


def sample(ops: list[tuple[str, list[str]]], traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for _, argv in ops:
        results.append(run_operation(argv))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    failures = {}
    for (label, argv), (status, stdout, stderr) in zip(ops, results):
        reason = workloads.mismatch(label, argv, status, stdout)
        if reason:
            failures[label] = f"{reason}; stderr: {stderr[-500:]!r}"
    out = {
        "ready": READY,
        "run_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer:
        out["layers"] = tracer.metrics(wall)
    return out


def sweep_speedup(p: int) -> dict:
    """The p sweep at workers 1 and 2, alternating; median time ratio and every count."""
    perms = induced_permutations(p)
    times = {1: [], 2: []}
    counts = []
    for _ in range(PROBE_REPEAT):
        for workers in times:
            t0 = time.perf_counter()
            counts.append(kernels.sweep_minimal_count(perms, workers=workers))
            times[workers].append(time.perf_counter() - t0)
    return {
        "speedup_w2": statistics.median(times[1]) / statistics.median(times[2]),
        "counts": counts,
    }


def conditions() -> dict:
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "backend": kernels.active_backend(),
        "numba_importable": kernels.HAS_NUMBA,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ must provide cayley8p")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, default=0, help="time the sweep at this p instead")
    args = parser.parse_args()
    src = Path(args.root) / "src"
    if not Path(cli.__file__).is_relative_to(src):
        raise SystemExit(f"cayley8p imported from {cli.__file__}, not from {src}")
    if kernels.active_backend() != os.environ.get(kernels.ENV_FLAG):
        raise SystemExit(f"backend {kernels.active_backend()} is not the requested one")
    out = {}
    if args.probe:
        out = sweep_speedup(args.probe)
    elif args.workload:
        out = sample(workloads.operations(args.workload, args.seed), bool(args.trace))
    out["conditions"] = conditions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
