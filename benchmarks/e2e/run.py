"""The cayley8p benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/e2e/run.py --workload oracle-p5 --seed 1 --seconds 44 --trace 0

Load model: a closed loop with one client.  Each sample runs the workload's
operations one after another in a fresh interpreter (sample.py), because the
package's lru caches and census cache would turn every later sample in one
interpreter into cache hits.  Samples repeat until --seconds have passed;
every metric is the trimmed mean over the samples of the run: the fastest
and the slowest fifth are dropped and the rest averaged.  On a shared
host other tenants slow a few samples far more than the rest; the trimmed
mean ignores those like a median does, and its sampling error is about a
fifth smaller than the median's at the 7 to 16 samples a run holds.  The sweep runs
with --workers 1 and the numpy backend (CAYLEY8P_BACKEND=numpy), so that
installing numba does not switch the measured path.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced samples and reports the per-layer metrics of the traced ones, the
tracing overhead against the untraced ones, and the speedup of the p = 5
sweep from one worker to two.  Every result is checked against pinned.json.
The last line of standard output is one JSON object; the lines before it
give the conditions and every metric with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_ROUNDS = 3
SAMPLE_TIMEOUT_S = 120
PROBE_P = 5


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _child(args: list[str]) -> tuple[float, dict]:
    """Spawn sample.py; its start time on the monotonic clock and its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        CAYLEY8P_BACKEND="numpy",
        PYTHONHASHSEED="0",
        # every module's bytecode, numpy's too, is compiled once into the checkout
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--root", str(ROOT), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sample.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def _sample(workload: str, seed: int, traced: bool) -> dict:
    spawned, out = _child(["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))])
    out["setup_s"] = out["ready"] - spawned
    return out


def _git_commit() -> str:
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
    return "unknown (not a git checkout)"


def _trimmed_mean(values) -> float:
    """Mean of the values left when the lowest and the highest fifth are dropped."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut : len(values) - cut])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run samples until `seconds` have passed; trimmed means, failures and conditions."""
    _child([])  # warm the file cache and write the checkout's bytecode
    plain, tracing = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(_sample(workload, seed, False))
        if traced:
            tracing.append(_sample(workload, seed, True))
        now = time.perf_counter()
        if len(plain) >= MIN_ROUNDS and now + (now - round_start) - start > seconds:
            break
    samples = plain + tracing
    result = {
        "samples": len(plain),
        "attempted": sum(s["attempted"] for s in samples),
        "failures": [f for s in samples for f in s["failures"].items()],
        "conditions": {
            "commit": _git_commit(),
            "nproc": os.cpu_count(),
            "workers": 1,
            **samples[0]["conditions"],
        },
        "metrics": {
            "setup_s": _trimmed_mean(s["setup_s"] for s in plain),
            "run_s": _trimmed_mean(s["run_s"] for s in plain),
            "cpu_s": _trimmed_mean(s["cpu_s"] for s in plain),
            "peak_rss_mb": _trimmed_mean(s["peak_rss_mb"] for s in plain),
        },
    }
    plain_failed = sum(len(s["failures"]) for s in plain)
    plain_attempted = sum(s["attempted"] for s in plain)
    result["metrics"]["success_rate"] = 1 - plain_failed / plain_attempted
    if traced:
        layers = {
            name: _trimmed_mean(s["layers"][name] for s in tracing)
            for name in tracing[0]["layers"]
        }
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / result["metrics"]["run_s"] - 1
        _, probe = _child(["--probe", str(PROBE_P)])
        layers["kernels.sweep.speedup_w2"] = probe["speedup_w2"]
        result["attempted"] += 1
        pinned = int(workloads.PINNED["verify-5-full"]["methods"]["orbit_partition"])
        if set(probe["counts"]) != {pinned}:
            result["failures"].append(
                ("sweep-workers-1-2", f"counts {probe['counts']}, pinned {pinned} at every worker count")
            )
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="shuffles the primes of a table's --p-list")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cayley8p" / "cli.py").is_file():
        print(f"error: no cayley8p sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    specs = _metric_specs()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    reported = result["layers"] if args.trace else result["metrics"]
    if set(reported) != set(specs[args.trace]):
        missing = set(specs[args.trace]) ^ set(reported)
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}, {result['samples']} untraced samples")
    for key, value in result["conditions"].items():
        print(f"condition {key} = {value}")
    failed = len(result["failures"])
    print(f"error_rate = {failed}/{result['attempted']} operations")
    for label, reason in result["failures"]:
        print(f"FAILED {label}: {reason}")
    units = {**specs[0], **specs[1]}
    for name, value in {**result["metrics"], **result.get("layers", {})}.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {name: {"value": reported[name], "unit": specs[args.trace][name]} for name in reported},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
