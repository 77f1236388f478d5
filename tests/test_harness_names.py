"""The package names the benchmark harness (benchmarks/e2e/) reads.

The harness lies outside pytest's testpaths, so a renamed function would
break every benchmark sample while this suite stayed green.  spans.py is
loaded as a plain module; `Tracer.install` is called only in a child
process, because it rewires module attributes for the rest of the session.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cayley8p import cli, kernels, oracle
from cayley8p.domain import induced_permutations

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


_spec = importlib.util.spec_from_file_location("_harness_spans", HARNESS / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"cayley8p.{module}"), attr)


@pytest.mark.parametrize(("module", "attr"), [(m, a) for m, a, _ in spans.TRACED])
def test_every_traced_function_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize(("module", "attr"), spans.CACHED)
def test_every_cached_function_has_cache_info(module, attr):
    assert hasattr(_resolve(module, attr), "cache_info")


def test_census_cache_is_a_dict():
    assert isinstance(oracle._census_cache, dict)


def test_sample_reads_the_backend_names():
    """sample.py exits unless active_backend() equals the value run.py puts
    under ENV_FLAG, and reports HAS_NUMBA as numba_importable."""
    assert kernels.HAS_NUMBA is False
    assert kernels.active_backend() == "numpy"
    run = (HARNESS / "run.py").read_text()
    assert f'{kernels.ENV_FLAG}="{kernels.active_backend()}"' in run
    # the sweep probe and the operations call these directly
    for module, attr in [
        ("cli", "main"),
        ("kernels", "sweep_minimal_count"),
        ("domain", "induced_permutations"),
    ]:
        assert callable(_resolve(module, attr))


def test_harness_passes_workers():
    """The sweep probe passes workers=2 and every workload --workers 1;
    dropping either keyword would break every benchmark sample."""
    assert kernels.sweep_minimal_count(induced_permutations(3), workers=2) == 624
    command = ["verify", "--p", "3", "--level", "full", "--workers", "1", "--format", "json"]
    assert cli.main(command) == 0


def test_tracer_installs_after_the_sample_imports():
    """sample.py imports cayley8p.cli, then numpy, then kernels and domain;
    the tracer then needs every traced module loaded, and numpy, loaded by
    sample.py itself, must have started one OpenBLAS thread."""
    tree = ast.parse((HARNESS / "sample.py").read_text())
    imports = [ast.unparse(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    script = "\n".join(
        [
            "import json, os, sys",
            f"sys.path.insert(0, {str(HARNESS)!r})",
            *imports,
            "spans.Tracer().install()",
            "print(json.dumps([len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0]))",
        ]
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120, text=True
    )
    assert proc.returncode == 0, proc.stderr
    [n_threads] = json.loads(proc.stdout)
    if n_threads and (os.cpu_count() or 1) >= 2:  # one CPU starts no worker thread anyway
        assert n_threads == 1
