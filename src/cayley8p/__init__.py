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

The package calls no BLAS routine, yet OpenBLAS starts worker threads
when numpy loads, and an idle worker busy-waits on a free core for tens
of milliseconds, doubling the CPU time of a short command.  So unless
numpy is already loaded or the caller has set OPENBLAS_NUM_THREADS,
numpy is loaded here with one BLAS thread.  OpenBLAS reads the variable
once, when it loads; it is removed again so that child processes do not
inherit it.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .group import GroupElement, all_elements, element_order, identity, inv, mul
from .autos import Automorphism, apply, compose, enumerate_aut
from .domain import build_domain, closed_form_cycle_type, cycle_type_of
from .polya import (
    CountReport,
    count_report,
    cycle_index_bruteforce,
    cycle_index_closed_form,
    n_circulant,
    n_connected,
    n_total,
)
from .oracle import (
    build_cayley_graph,
    burnside_count,
    circulant_orbit_count,
    connected_orbit_count,
    disconnected_census,
    hex_to_mask,
    is_connected,
    mask_to_hex,
    orbit_partition_count,
    orbit_representatives,
    to_dot,
)

__all__ = [
    "GroupElement",
    "Automorphism",
    "CountReport",
    "all_elements",
    "apply",
    "build_cayley_graph",
    "build_domain",
    "burnside_count",
    "circulant_orbit_count",
    "closed_form_cycle_type",
    "compose",
    "connected_orbit_count",
    "count_report",
    "cycle_index_bruteforce",
    "cycle_index_closed_form",
    "cycle_type_of",
    "disconnected_census",
    "element_order",
    "enumerate_aut",
    "hex_to_mask",
    "identity",
    "inv",
    "is_connected",
    "mask_to_hex",
    "mul",
    "n_circulant",
    "n_connected",
    "n_total",
    "orbit_partition_count",
    "orbit_representatives",
    "to_dot",
]

__version__ = "0.1.0"
