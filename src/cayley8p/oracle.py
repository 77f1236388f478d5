"""Independent brute-force checks of every counting claim.

Nothing here relies on closed-form cycle types or the assembled cycle
index: orbit counts come from Burnside averaging over brute-force
decompositions or from exhaustive minimal-mask sweeps; connectivity
comes from breadth-first search over the multiplication table (a scalar
search per graph in `is_connected`, and one bitset search over all orbit
representatives at once in the census); the circulant count comes from
a direct orbit scan over subsets of the cyclic group of order 2p.

Exhaustive sweeps walk all 2^{4p} connection sets, once per (p, workers):
the representatives are kept and both the orbit count and the census
read them.  They are capped at p <= 5 by default.  p = 7 (2^28 masks
times 168 permutations) takes about 11 s and under 200 MiB with 2 vCPUs;
pass a larger cap explicitly to run it.  The bitset census holds the 8p
elements in one 64-bit word, so no cap goes past p = 7.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .domain import Domain, build_domain, cycle_types, induced_permutations
from .group import element_index, mul_table
from .kernels import sweep_minimal_count, sweep_minimal_masks
from .modular import check_odd_prime, units_mod

DEFAULT_ORACLE_CAP = 5
_BITSET_MAX_P = 7  # the census keeps the 8p elements in one uint64


def check_cap(p: int, cap: int) -> None:
    check_odd_prime(p)
    if p > _BITSET_MAX_P:
        raise ValueError(
            f"exhaustive oracles need p <= {_BITSET_MAX_P}: the census keeps the 8p "
            f"elements in one 64-bit word, and p={p} has {8 * p}"
        )
    if p > cap:
        raise ValueError(
            f"exhaustive sweep at p={p} exceeds the cap {cap}: 2^{4 * p} masks; "
            f"raise the cap explicitly to proceed"
        )


def _check_mask(p: int, mask: int, shown=None) -> None:
    if not 0 <= mask < 1 << 4 * p:
        raise ValueError(f"mask out of range for p={p}: {mask if shown is None else shown}")


def burnside_count(p: int) -> int:
    """Orbit count as the average number of fixed connection sets.

    A permutation with c cycles fixes exactly 2^c subsets, so the count
    is (1/|Aut|) * sum of N_c 2^c over the cycle counts c, with N_c the
    number of induced permutations that have c cycles, using brute-force
    cycle decomposition only.
    """
    check_odd_prime(p)
    maps_with = np.bincount(cycle_types(p)[1].sum(axis=1))
    total = sum(n << c for c, n in enumerate(maps_with.tolist()))
    aut_order = 4 * p * (p - 1)
    if total % aut_order:
        raise ArithmeticError(f"Burnside sum {total} not divisible by {aut_order}")
    return total // aut_order


def orbit_partition_count(p: int, cap: int = DEFAULT_ORACLE_CAP, workers: int = 1) -> int:
    """Exhaustive orbit count: the number of masks minimal within their orbit."""
    return len(orbit_representatives(p, cap=cap, workers=workers))


_reps_cache: dict[tuple[int, int], np.ndarray] = {}


def orbit_representatives(
    p: int, cap: int = DEFAULT_ORACLE_CAP, workers: int = 1
) -> np.ndarray:
    """One minimal mask per orbit, ascending; swept once per (p, workers), read-only."""
    check_cap(p, cap)
    key = (p, workers)
    if key not in _reps_cache:
        reps = sweep_minimal_masks(induced_permutations(p), workers=workers)
        reps.flags.writeable = False
        _reps_cache[key] = reps
    return _reps_cache[key]


# ---------- explicit graphs and connectivity ----------


def mask_elements(d: Domain, mask: int) -> list[int]:
    """Element indices of the union of the selected classes."""
    out = [
        element_index(g)
        for ci in range(len(d.classes))
        if mask >> ci & 1
        for g in d.classes[ci].members
    ]
    out.sort()
    return out


@dataclass(frozen=True)
class CayleyGraph:
    p: int
    mask: int
    neighbors: tuple[tuple[int, ...], ...]


def build_cayley_graph(p: int, mask: int) -> CayleyGraph:
    """Vertices are the 8p elements; x and y are adjacent iff x*y^{-1} is selected.

    Equivalently the neighbors of y are s*y over selected elements s, so
    rows come straight out of the multiplication table.
    """
    _check_mask(p, mask)
    d = build_domain(p)
    table = mul_table(p)
    selected = mask_elements(d, mask)
    neighbors = tuple(
        tuple(sorted(table[s][v] for s in selected)) for v in range(8 * p)
    )
    return CayleyGraph(p, mask, neighbors)


def is_connected(p: int, mask: int) -> bool:
    """Breadth-first traversal from the identity vertex reaches everything."""
    _check_mask(p, mask)
    d = build_domain(p)
    table = mul_table(p)
    selected = mask_elements(d, mask)
    return _reaches_all(table, selected, 8 * p)


def _reaches_all(table, selected, n_vertices: int) -> bool:
    seen = bytearray(n_vertices)
    seen[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for s in selected:
            w = table[s][v]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                queue.append(w)
    return reached == n_vertices


def _step_tables(p: int) -> np.ndarray:
    """Search-step tables over element bitsets (bit v = element v).

    u[j, k, y << 8 | x] is the bitset of s*v over s in the classes 4j + i
    for the bits i of y, and v = 8k + i for the bits i of x.  So the
    elements one step from a reached set R under a connection set S are
    the union over j, k of u[j, k] at (nibble j of S, byte k of R).
    """
    d = build_domain(p)
    table = np.asarray(mul_table(p), dtype=np.uint64)
    step = np.zeros((4 * p, 8 * p), dtype=np.uint64)  # step[c, v]: {s*v : s in class c}
    for c in range(4 * p):
        for s in mask_elements(d, 1 << c):
            step[c] |= np.uint64(1) << table[s]
    step = step.reshape(p, 4, p, 8)  # class nibble, class bit, element byte, element bit
    by_classes = np.zeros((p, p, 16, 8), dtype=np.uint64)
    for i in range(4):
        by_classes[:, :, 1 << i : 2 << i] = by_classes[:, :, : 1 << i] | step[:, i, :, None]
    u = np.zeros((p, p, 16, 256), dtype=np.uint64)
    for i in range(8):
        u[..., 1 << i : 2 << i] = u[..., : 1 << i] | by_classes[..., i, None]
    return u.reshape(p, p, 16 * 256)


def _connected_flags(p: int, masks) -> np.ndarray:
    """Per mask, whether breadth-first search from the identity reaches all 8p elements.

    All masks advance together, one bitset step at a time; a mask leaves
    when its reached set is everything (connected) or stops growing (it
    is then the subgroup the set generates: disconnected).
    """
    u = _step_tables(p)
    everything = np.uint64((1 << 8 * p) - 1)
    masks = np.asarray(masks, dtype=np.int64)
    flags = np.zeros(len(masks), dtype=bool)
    active = np.arange(len(masks))
    reached = np.ones(len(masks), dtype=np.uint64)  # the identity, element 0
    while active.size:
        selected = masks[active]
        grown = reached.copy()
        for j in range(p):
            nibble = ((selected >> 4 * j) & 15).astype(np.uint64) << np.uint64(8)
            for k in range(p):
                grown |= u[j, k][nibble | ((reached >> np.uint64(8 * k)) & np.uint64(255))]
        done = grown == everything
        flags[active[done]] = True
        growing = ~done & (grown != reached)
        active = active[growing]
        reached = grown[growing]
    return flags


_census_cache: dict[int, tuple[int, int, int]] = {}


def _classify_orbits(p: int, cap: int, workers: int) -> tuple[int, int, int]:
    """(connected, disconnected_a_only, disconnected_b_touching) orbit counts."""
    if p in _census_cache:
        return _census_cache[p]
    reps = orbit_representatives(p, cap=cap, workers=workers)
    connected = _connected_flags(p, reps)
    b_touching = (reps >> 2 * p) != 0  # classes 2p and up hold the odd powers of b
    _census_cache[p] = (
        int(np.count_nonzero(connected)),
        int(np.count_nonzero(~connected & ~b_touching)),
        int(np.count_nonzero(~connected & b_touching)),
    )
    return _census_cache[p]


def connected_orbit_count(
    p: int, cap: int = DEFAULT_ORACLE_CAP, workers: int = 1
) -> int:
    """Orbits whose representative generates the whole group (graph connected)."""
    check_cap(p, cap)
    return _classify_orbits(p, cap, workers)[0]


def disconnected_census(
    p: int, cap: int = DEFAULT_ORACLE_CAP, workers: int = 1
) -> dict[str, int]:
    """Disconnected orbits split by whether the set touches the odd-power block."""
    check_cap(p, cap)
    _, a_only, b_touching = _classify_orbits(p, cap, workers)
    return {"a_only_orbits": a_only, "b_touching_orbits": b_touching}


# ---------- circulant graphs of order 2p ----------


def circulant_orbit_count(p: int) -> int:
    """Orbits of inverse-closed subsets of Z_{2p}\\{0} under unit multiplication.

    The p classes are the pairs {i, 2p-i} (i = 1..p-1) plus the
    singleton {p}; a unit u maps the class of i to the class of u*i.
    Counted by the same minimal-mask sweep as the main oracle.
    """
    check_odd_prime(p)
    n = 2 * p

    def class_idx(m: int) -> int:
        m %= n
        return p - 1 if m == p else min(m, n - m) - 1

    reps = list(range(1, p)) + [p]
    perms = [[class_idx(u * r) for r in reps] for u in units_mod(n)]
    return sweep_minimal_count(perms)


# ---------- renderings ----------


def mask_to_hex(p: int, mask: int) -> str:
    """Fixed-width hex (p digits: one per four classes), class 0 at bit 0."""
    _check_mask(p, mask)
    return f"{mask:0{p}x}"


def hex_to_mask(p: int, text: str) -> int:
    mask = int(text, 16)
    _check_mask(p, mask, text)
    return mask


def to_dot(graph: CayleyGraph) -> str:
    """Graphviz rendering with vertices labelled by their normal form."""
    from .group import all_elements

    labels = [str(g) for g in all_elements(graph.p)]
    lines = ["graph cayley {"]
    for v, label in enumerate(labels):
        lines.append(f'  v{v} [label="{label}"];')
    for v, row in enumerate(graph.neighbors):
        for w in row:
            if v < w:
                lines.append(f"  v{v} -- v{w};")
    lines.append("}")
    return "\n".join(lines)
