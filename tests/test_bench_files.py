"""The committed benchmark results, BENCH_<pr>.json at the root of the repository.

Each file holds the runs of benchmarks/e2e/run.py behind one change: the
commit measured against, the conditions, and for every workload the
end-to-end metrics of each run, before and with the change, with its seed.
A speed claim quotes these files, so each must report every end-to-end
metric that BENCHMARK.json lists, with its unit.
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
CONDITIONS = {"python", "numpy", "nproc", "backend", "numba_importable", "workers", "seconds"}


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_reports_every_end_to_end_metric(path):
    bench = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"])
    assert CONDITIONS <= set(bench["conditions"])
    workloads = bench["workloads"]
    assert workloads
    assert set(workloads) <= {w["name"] for w in SPEC["workloads"]}
    for name, workload in workloads.items():
        assert workload["runs"], name
        for run in workload["runs"]:
            assert isinstance(run["seed"], int)
            for side in ("parent", "change"):
                metrics = run[side]
                assert {m: metrics[m]["unit"] for m in UNITS} == UNITS, (name, run["seed"], side)
                assert all(isinstance(metrics[m]["value"], Real) for m in UNITS)
