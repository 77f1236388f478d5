"""Exact enumeration of Cayley graphs over the nonabelian group of order 8p.

The group is <a, b | a^{2p} = b^8 = e, a^p = b^4, b^{-1} a b = a^{-1}>
for an odd prime p.  Graphs are counted up to isomorphism by the orbit
count of the automorphism group acting on inverse-closed connection
sets, computed two ways: closed formulas (a cycle-index expression and
the three derived counts) and independent brute-force oracles (Burnside
averaging and exhaustive orbit sweeps).  The oracle side is the ground
truth; the closed forms overstate some orbit lengths on the paired
a-power classes, and every disagreement between the two sides is
computed and reported side by side rather than hidden (see verify).

The closed forms (polya, with modular, group and autos), counts and
cycle types alike, import no numpy; only polya.cycle_index_bruteforce
loads it, when called.  The brute-force engine (domain, kernels, oracle,
verify) uses numpy and loads as one unit: the first request for one of
its modules or names, as an attribute of the package or by `from
cayley8p import ...`, imports cayley8p.verify, which imports the other
three.  Every other name in __all__, and each closed-form module, loads
its own module on first request.  So `import cayley8p` and `import
cayley8p.cli` load no numpy, and neither do `count`, `table`,
`cycle-index --eval` and `cycle-types`.

The package calls no BLAS routine, yet OpenBLAS starts worker threads
when numpy loads, and an idle worker busy-waits on a free core for tens
of milliseconds, doubling the CPU time of a short command.  So unless
numpy is already loaded or the caller has set OPENBLAS_NUM_THREADS, the
package sets it to 1 when imported, and whoever loads numpy next, the
package or the caller, loads it with one BLAS thread.  OpenBLAS reads the
variable once, when it loads; the package removes it again when it loads
numpy itself (cayley8p.domain, which every engine module imports),
unless the caller has changed it in the meantime.  Until then a child
process inherits OPENBLAS_NUM_THREADS=1, also in a process that only
ever runs the closed forms.
"""

import os as _os
import sys as _sys

_blas_window = "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ
if _blas_window:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _close_blas_window() -> None:
    """Remove the OPENBLAS_NUM_THREADS=1 the package set; numpy has read it."""
    global _blas_window
    if _blas_window and _os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        del _os.environ["OPENBLAS_NUM_THREADS"]
    _blas_window = False


_ENGINE = ("domain", "kernels", "oracle", "verify")

# each exported name -> the module that defines it
_EXPORTS = {
    "GroupElement": "group",
    "all_elements": "group",
    "element_order": "group",
    "identity": "group",
    "inv": "group",
    "mul": "group",
    "Automorphism": "autos",
    "apply": "autos",
    "compose": "autos",
    "enumerate_aut": "autos",
    "build_domain": "domain",
    "closed_form_cycle_type": "polya",
    "cycle_type_of": "domain",
    "CountReport": "polya",
    "count_report": "polya",
    "cycle_index_bruteforce": "polya",
    "cycle_index_closed_form": "polya",
    "n_circulant": "polya",
    "n_connected": "polya",
    "n_total": "polya",
    "build_cayley_graph": "oracle",
    "burnside_count": "oracle",
    "circulant_orbit_count": "oracle",
    "connected_orbit_count": "oracle",
    "disconnected_census": "oracle",
    "hex_to_mask": "oracle",
    "is_connected": "oracle",
    "mask_to_hex": "oracle",
    "orbit_partition_count": "oracle",
    "orbit_representatives": "oracle",
    "to_dot": "oracle",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module in _ENGINE:
        __import__(f"{__name__}.verify")  # the engine loads as one
    elif module not in ("group", "autos", "modular", "polya"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in python -X importtime
    __import__(f"{__name__}.{module}")
    loaded = _sys.modules[f"{__name__}.{module}"]
    return loaded if module == name else getattr(loaded, name)


__version__ = "0.1.0"
