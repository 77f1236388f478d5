"""Independent brute-force checks of every counting claim.

Nothing here relies on closed-form cycle types or the assembled cycle
index: orbit counts come from Burnside averaging over brute-force
decompositions or from exhaustive minimal-mask sweeps; connectivity
comes from breadth-first search over the multiplication table (a scalar
search per graph in `is_connected`; in the census, the same search finds
the maximal subgroups by brute force, and a mask is connected iff it lies
inside none of them); the circulant count comes from a direct orbit scan
over subsets of the cyclic group of order 2p.

Exhaustive sweeps run once per p, in two levels.  Every automorphism
keeps the A block and the B block (see domain.induced_halves), and the
B classes are the high bits of a mask.  So the least mask of an orbit is
its least B-part b followed by the least A-part under the maps that fix
b: one sweep of the 2^{2p} B-masks, then one sweep of the 2^{2p} A-masks
per distinct stabilizer.  The representatives are kept and both the
orbit count and the census read them.  They are capped at p <= 5 by
default; pass a larger cap explicitly to run p = 7 (2111232
representatives).  No cap goes past p = 7: they are held as one int64
mask per orbit, and p = 11 has at least 2^44/440, about 4.0e10, orbits.
"""

import os
from dataclasses import dataclass

import numpy as np

from .domain import Domain, build_domain, cycle_types, distinct_rows, induced_halves
from .group import mul_table
from .kernels import bit_tables, sweep_minimal_count, sweep_minimal_masks
from .modular import check_odd_prime, units_mod

DEFAULT_ORACLE_CAP = 5
_HELD_REPS_MAX_P = 7  # one int64 mask per orbit; p = 11 has >= 2^44/440 orbits


def check_cap(p: int, cap: int) -> None:
    check_odd_prime(p)
    if p > _HELD_REPS_MAX_P:
        aut_order = 4 * p * (p - 1)
        bits = 4 * p - aut_order.bit_length()  # in integers: a float overflows from p = 263
        raise ValueError(
            f"exhaustive oracles need p <= {_HELD_REPS_MAX_P}: they hold one int64 mask "
            f"per orbit, and p={p} has at least 2^{4 * p}/{aut_order}, more than 2^{bits}, "
            f"orbits (more than 2^{bits - 27} GiB)"
        )
    if p > cap:
        raise ValueError(
            f"exhaustive sweep at p={p} exceeds the cap {cap}: 2^{2 * p} B-masks, "
            f"then 2^{2 * p} A-masks per distinct stabilizer; raise the cap explicitly "
            f"to proceed"
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


_reps_cache: dict[int, np.ndarray] = {}


def orbit_representatives(
    p: int, cap: int = DEFAULT_ORACLE_CAP, workers: int = 1
) -> np.ndarray:
    """One minimal mask per orbit, ascending; swept once per p, read-only.

    `workers` is checked to be at least 1, before the cache is read, and
    otherwise unused: every sweep runs on the calling thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    check_cap(p, cap)
    if p not in _reps_cache:
        reps = _two_level_sweep(*induced_halves(p))
        reps.flags.writeable = False
        _reps_cache[p] = reps
    return _reps_cache[p]


def _two_level_sweep(a_rows, a_ids, b_rows, b_ids) -> np.ndarray:
    """Orbit-minimal masks, ascending: the least B-parts, then the least A-parts
    under each one's stabilizer.

    The stabilizers come from the kernel's tables: each B-representative
    is imaged under every distinct B-row by `bit_tables`, and each map
    reads whether it fixes the representative off its own B-row.  The
    A-sweep of a stabilizer depends only on its set of distinct A-rows, so
    `distinct_rows` groups the B-representatives by that set and each set
    is swept once per call.
    """
    b_reps = sweep_minimal_masks(b_rows)
    tlo, thi, lo_bits, lo_mask = bit_tables(b_rows)
    images = (tlo[:, b_reps & lo_mask] | thi[:, b_reps >> lo_bits]).T
    # whether each map fixes each B-representative, read off its distinct B-row
    fixes = (images == b_reps[:, None])[:, b_ids]
    # which distinct A-rows each stabilizer holds
    holds = np.zeros((len(b_reps), len(a_rows)), dtype=bool)
    rep, fixing = np.nonzero(fixes)
    holds[rep, a_ids[fixing]] = True
    row_sets, set_ids = distinct_rows(holds)
    a_reps = [sweep_minimal_masks(a_rows[row_set]) for row_set in row_sets]
    half = a_rows.shape[1]
    return np.concatenate([b << half | a_reps[i] for b, i in zip(b_reps.tolist(), set_ids)])


# ---------- explicit graphs and connectivity ----------


def mask_elements(d: Domain, mask: int) -> list[int]:
    """Element indices of the union of the selected classes, ascending."""
    return [e for e, c in enumerate(d.class_of_element) if c >= 0 and mask >> c & 1]


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
    selected = mask_elements(build_domain(p), mask)
    return len(_reached(mul_table(p), selected)) == 8 * p


def _reached(table, selected) -> list[int]:
    """Elements reached from the identity (element 0 first) by left
    multiplication with the selected ones: the subgroup they generate."""
    seen = bytearray(len(table))
    seen[0] = 1
    reached = [0]
    for v in reached:
        for s in selected:
            w = table[s][v]
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    return reached


def _maximal_subgroups(p: int) -> list[int]:
    """The maximal subgroups of T as class masks, ascending, by brute force.

    A subgroup is closed under inverses, so without the identity it is a
    union of classes.  Every subgroup is a join of cyclic ones, so joining
    the cyclic subgroups <class c> onto what has been found until nothing
    new appears finds them all.  The maximal ones are the proper subgroups
    inside no other proper subgroup.
    """
    d = build_domain(p)
    table = mul_table(p)

    def generated(mask: int) -> int:
        out = 0
        for v in _reached(table, mask_elements(d, mask))[1:]:
            out |= 1 << d.class_of_element[v]
        return out

    cyclic = {generated(1 << c) for c in range(4 * p)}
    found = set(cyclic)
    new = cyclic
    while new:
        new = {generated(h | c) for h in new for c in cyclic if c & ~h} - found
        found |= new
    proper = found - {(1 << 4 * p) - 1}
    return sorted(h for h in proper if not any(h != k and (h & ~k) == 0 for k in proper))


def _connected_flags(p: int, masks) -> np.ndarray:
    """Per mask, whether its classes generate T, so that the Cayley graph is
    connected: exactly when the mask lies inside no maximal subgroup."""
    masks = np.asarray(masks, dtype=np.int64)
    flags = np.ones(len(masks), dtype=bool)
    for h in _maximal_subgroups(p):
        flags &= (masks & ~h) != 0
    return flags


_census_cache: dict[int, tuple[int, int, int]] = {}


def _classify_orbits(p: int, cap: int) -> tuple[int, int, int]:
    """(connected, disconnected_a_only, disconnected_b_touching) orbit counts."""
    if p in _census_cache:
        return _census_cache[p]
    reps = orbit_representatives(p, cap=cap)
    connected = _connected_flags(p, reps)
    b_touching = (reps >> 2 * p) != 0  # classes 2p and up hold the odd powers of b
    _census_cache[p] = (
        int(np.count_nonzero(connected)),
        int(np.count_nonzero(~connected & ~b_touching)),
        int(np.count_nonzero(~connected & b_touching)),
    )
    return _census_cache[p]


def connected_orbit_count(p: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Orbits whose representative generates the whole group (graph connected)."""
    check_cap(p, cap)
    return _classify_orbits(p, cap)[0]


def disconnected_census(p: int, cap: int = DEFAULT_ORACLE_CAP) -> dict[str, int]:
    """Disconnected orbits split by whether the set touches the odd-power block."""
    check_cap(p, cap)
    _, a_only, b_touching = _classify_orbits(p, cap)
    return {"a_only_orbits": a_only, "b_touching_orbits": b_touching}


# ---------- circulant graphs of order 2p ----------


def circulant_orbit_count(p: int) -> int:
    """Orbits of inverse-closed subsets of Z_{2p}\\{0} under unit multiplication.

    The p classes are the pairs {i, 2p-i} (i = 1..p-1) plus the
    singleton {p}; a unit u maps the class of i to the class of u*i.
    Counted by the same minimal-mask sweep as the main oracle, which holds
    one int64 mask per orbit, twice while its chunks concatenate.  The
    units act in pairs u, -u, so there are at least 2^p/((p-1)/2) orbits;
    a p whose 16 bytes per orbit would take more than half of physical
    memory is refused with ValueError before any work (from p = 37 on with
    8 GiB).
    """
    check_odd_prime(p)
    pairs = (p - 1) // 2
    need = 16 * ((1 << p) // pairs)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory // 2:
        raise ValueError(
            f"p={p} needs {need >> 20:,} MiB for the at least 2^{p}/{pairs} orbits its "
            f"circulant sweep holds, more than half of the {memory / 2**20:,.1f} MiB of "
            f"physical memory"
        )
    n = 2 * p
    images = np.outer(units_mod(n), np.r_[1:p, p]) % n
    return sweep_minimal_count(np.minimum(images, n - images) - 1)


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
