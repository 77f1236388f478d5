"""The package names the benchmark harness (benchmarks/e2e/) reads.

The harness lies outside pytest's testpaths, so a renamed function would
break every benchmark sample while this suite stayed green.  spans.py is
loaded as a plain module; `Tracer.install` is never called, because it
rewires module attributes for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cayley8p import kernels, oracle

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
