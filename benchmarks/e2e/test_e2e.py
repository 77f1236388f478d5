"""The benchmark's own tests, on the small smoke-p3 workload.

    python -m pytest benchmarks/e2e
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "smoke-p3"]
        + ["--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    last = proc.stdout.splitlines()[-1] if proc.stdout else ""
    return proc, json.loads(last) if last.startswith("{") else None


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "benchmarks" / "e2e", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, kind):
    proc, result = bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name in declared:  # every metric is printed with its unit before the JSON line
        assert f"\n{name} = " in proc.stdout


def test_corrupted_pin_raises_error_rate(tmp_path):
    root = copy_checkout(tmp_path)
    pinned_path = root / "benchmarks" / "e2e" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["operations"]["verify-3-full"]["methods"]["burnside"] = "625"
    pinned_path.write_text(json.dumps(pinned))
    proc, result = bench(root, 0)
    assert proc.returncode == 0, proc.stderr
    samples = result["attempted"] // len(workloads.WORKLOADS["smoke-p3"])
    assert not result["correct"]
    assert result["failed"] == samples
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(2 / 3)
    assert "FAILED verify-3-full: method burnside = '624', pinned '625'" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc, result = bench(root, 0)
    assert proc.returncode != 0
    assert result is None


def test_self_times_and_remainder_add_up_to_traced_wall_time():
    out = run._sample("smoke-p3", seed=1, traced=True)
    layers = out["layers"]
    assert out["failures"] == {}
    self_times = sum(v for k, v in layers.items() if k.endswith((".s", ".self_s")))
    assert layers["trace.unattributed_s"] >= 0
    assert self_times + layers["trace.unattributed_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.unattributed_s"] < 0.1 * layers["trace.wall_s"]
    # the spans see the work of every layer the smoke workload touches
    assert layers["oracle.census.graphs"] == 624  # orbit representatives at p = 3
    assert layers["oracle.census.cache_hits"] == 1
    assert layers["kernels.masks"] == (1 << 12) + (1 << 12) + (1 << 3)  # two sweeps and the circulant one
    assert layers["domain.closed_form_cycle_type.calls"] == 24 + 80
    assert layers["domain.class_images"] == 24 * 23


def test_pins_ignore_added_fields_but_not_failed_checks():
    stdout = json.dumps(
        {
            "checks": [{"name": "automorphism_count", "status": "pass", "details": ""}],
            "counts": {"methods": {"burnside": "624", "genuine": "1"}},
            "timings": [],
        }
    )
    pin = {"exit_status": 0, "checks": [["automorphism_count", "pass"]], "methods": {"burnside": "624"}}
    argv = workloads.OPERATIONS["verify-3-full"]
    assert workloads.mismatch("verify-3-full", argv, 0, stdout, pin) is None
    assert "exit status 1" in workloads.mismatch("verify-3-full", argv, 1, stdout, pin)
    failing = stdout.replace('"pass"', '"fail"')
    assert "checks failed" in workloads.mismatch("verify-3-full", argv, 0, failing, pin)


def test_seed_shuffles_table_rows_which_must_follow_the_asked_order():
    orders = {
        argv[argv.index("--p-list") + 1]
        for seed in range(20)
        for label, argv in workloads.operations("smoke-p3", seed)
        if label == "table-3-7"
    }
    assert len(orders) > 1
    assert all(sorted(order.split(","), key=int) == ["3", "5", "7"] for order in orders)
    argv = ["table", "--p-list", "5,3", "--format", "csv"]
    asked = "p,n_total,n_circulant,n_connected\n5,18144,12,17992\n3,432,6,388\n"
    ascending = "p,n_total,n_circulant,n_connected\n3,432,6,388\n5,18144,12,17992\n"
    pin = {"exit_status": 0, **workloads.summarize("table-3-7", ascending)}
    assert workloads.mismatch("table-3-7", argv, 0, asked, pin) is None
    assert "order" in workloads.mismatch("table-3-7", argv, 0, ascending, pin)
