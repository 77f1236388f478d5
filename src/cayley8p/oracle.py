"""Independent brute-force checks of every counting claim.

Nothing here relies on closed-form cycle types or the assembled cycle
index: orbit counts come from Burnside averaging over brute-force
decompositions or from exhaustive minimal-mask sweeps; connectivity
comes from breadth-first search over the multiplication table in
`is_connected`, one scalar search per graph, and in the census from the
p + 1 maximal subgroups, written from the class layout: a mask is
connected iff it lies inside none of them; the circulant count comes
from Burnside averaging over the units of the cyclic group of order 2p.

Exhaustive sweeps run once per p, in two levels.  Every automorphism
keeps the A block and the B block (see domain.induced_halves), and the
B classes are the high bits of a mask.  So the least mask of an orbit is
its least B-part b followed by the least A-part under the maps that fix
b: one sweep of the 2^{2p} B-masks, then one sweep of the 2^{2p} A-masks
per distinct stabilizer.  The representatives are kept and both the
orbit count and the census read them.  They run at every p up to 7
(2111232 representatives at p = 7) and at no larger p: they are held as
one int64 mask per orbit, and p = 11 has at least 2^44/440, about 4.0e10,
orbits.
"""

from dataclasses import dataclass

import numpy as np

from .domain import Domain, check_array_memory, class_table, cycle_counts, cycle_types
from .domain import distinct_rows, induced_halves
from .group import _check_params, mul_table
from .kernels import bit_tables, sweep_minimal_masks
from .modular import check_odd_prime, units_mod

_HELD_REPS_MAX_P = 7  # one int64 mask per orbit; p = 11 has >= 2^44/440 orbits


def check_cap(p: int) -> None:
    """Refuse, with ValueError, a p whose orbit representatives the exhaustive
    oracles cannot hold: every p above _HELD_REPS_MAX_P."""
    check_odd_prime(p)
    if p > _HELD_REPS_MAX_P:
        aut_order = 4 * p * (p - 1)
        bits = 4 * p - aut_order.bit_length()  # in integers: a float overflows from p = 263
        raise ValueError(
            f"exhaustive oracles need p <= {_HELD_REPS_MAX_P}: they hold one int64 mask "
            f"per orbit, and p={p} has at least 2^{4 * p}/{aut_order}, more than 2^{bits}, "
            f"orbits (more than 2^{bits - 27} GiB)"
        )


def _check_mask(p: int, mask: int, shown=None) -> None:
    _check_params(p, mask=mask)
    if not 0 <= mask < 1 << 4 * p:
        raise ValueError(f"mask out of range for p={p}: {mask if shown is None else shown}")


def burnside_count(p: int) -> int:
    """Orbit count as the average number of connection sets the 4p(p-1) maps fix."""
    check_odd_prime(p)
    return _burnside(*cycle_types(p), 4 * p * (p - 1))


def _burnside(types, ids, order: int) -> int:
    """Orbits of subsets under a group of `order` maps with cycle types types[ids].

    A permutation with c cycles fixes exactly 2^c subsets, c the sum of
    the exponents of its cycle type, so the count is (1/order) * the sum of
    2^c over the maps, using brute-force cycle decomposition only: each
    type adds its number of maps shifted by its c once.
    """
    maps_with = np.bincount(ids).tolist()
    total = sum(n << sum(e for _, e in t) for t, n in zip(types, maps_with))
    if total % order:
        raise ArithmeticError(f"Burnside sum {total} not divisible by {order}")
    return total // order


def orbit_partition_count(p: int) -> int:
    """Exhaustive orbit count: the number of masks minimal within their orbit."""
    return len(orbit_representatives(p))


_reps_cache: dict[int, np.ndarray] = {}


def orbit_representatives(p: int) -> np.ndarray:
    """One minimal mask per orbit, ascending; swept once per p, read-only."""
    check_cap(p)
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
    # filled in place: np.concatenate would hold every part and the result at once
    reps = np.empty(sum(len(a_reps[i]) for i in set_ids), dtype=np.int64)
    at = 0
    for b, i in zip(b_reps.tolist(), set_ids):
        np.bitwise_or(a_reps[i], b << half, out=reps[at : at + len(a_reps[i])])
        at += len(a_reps[i])
    return reps


# ---------- explicit graphs and connectivity ----------


def mask_elements(d: Domain, mask: int) -> list[int]:
    """Element indices of the union of the selected classes, ascending."""
    return _elements(d.class_of_element, mask)


def _elements(class_of, mask: int) -> list[int]:
    return [e for e, c in enumerate(class_of) if c >= 0 and mask >> c & 1]


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
    table = mul_table(p)
    selected = _elements(class_table(p).tolist(), mask)
    neighbors = tuple(
        tuple(sorted(table[s][v] for s in selected)) for v in range(8 * p)
    )
    return CayleyGraph(p, mask, neighbors)


def is_connected(p: int, mask: int) -> bool:
    """Breadth-first traversal from the identity vertex reaches everything."""
    _check_mask(p, mask)
    selected = _elements(class_table(p).tolist(), mask)
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
    """The p + 1 maximal subgroups of T as class masks, ascending, read off
    the class layout: <a, b^2>, which is the A block, and the p Sylow
    2-subgroups S_j = <a^j b>, j < p.  Without the identity, S_j is made of
    the classes of b^2, a^p, a^j b and a^{j+p} b (element indices 4p, p,
    2p + j and 3p + j).  The tests check them against a join closure of
    the cyclic subgroups over the multiplication table.
    """
    n = 2 * p
    class_of = class_table(p).tolist()
    sylows = [sum(1 << class_of[e] for e in (2 * n, p, n + j, n + p + j)) for j in range(p)]
    return sorted([(1 << n) - 1, *sylows])


def _connected_flags(p: int, masks) -> np.ndarray:
    """Per mask, whether its classes generate T, so that the Cayley graph is
    connected: exactly when the mask lies inside no maximal subgroup."""
    masks = np.asarray(masks, dtype=np.int64)
    flags = np.ones(len(masks), dtype=bool)
    for h in _maximal_subgroups(p):
        flags &= (masks & ~h) != 0
    return flags


_census_cache: dict[int, tuple[int, int, int]] = {}


def _classify_orbits(p: int) -> tuple[int, int, int]:
    """(connected, disconnected_a_only, disconnected_b_touching) orbit counts."""
    if p in _census_cache:
        return _census_cache[p]
    reps = orbit_representatives(p)
    connected = _connected_flags(p, reps)
    b_touching = (reps >> 2 * p) != 0  # classes 2p and up hold the odd powers of b
    _census_cache[p] = (
        int(np.count_nonzero(connected)),
        int(np.count_nonzero(~connected & ~b_touching)),
        int(np.count_nonzero(~connected & b_touching)),
    )
    return _census_cache[p]


def connected_orbit_count(p: int) -> int:
    """Orbits whose representative generates the whole group (graph connected)."""
    check_cap(p)
    return _classify_orbits(p)[0]


def disconnected_census(p: int) -> dict[str, int]:
    """Disconnected orbits split by whether the set touches the odd-power block."""
    check_cap(p)
    _, a_only, b_touching = _classify_orbits(p)
    return {"a_only_orbits": a_only, "b_touching_orbits": b_touching}


# ---------- circulant graphs of order 2p ----------


def circulant_orbit_count(p: int) -> int:
    """Orbits of inverse-closed subsets of Z_{2p}\\{0} under unit multiplication.

    The p classes are the pairs {i, 2p-i} (i = 1..p-1) plus the
    singleton {p}; a unit u maps the class of i to the class of u*i.
    Counted by Burnside over the p - 1 units, as burnside_count counts over
    the automorphisms, and refused where check_array_memory refuses p.
    """
    check_array_memory(p)
    n = 2 * p
    images = np.outer(units_mod(n), np.r_[1:p, p]) % n
    return _burnside(*cycle_counts(np.minimum(images, n - images) - 1), p - 1)


# ---------- renderings ----------


def mask_to_hex(p: int, mask: int) -> str:
    """Fixed-width hex (p digits: one per four classes), class 0 at bit 0."""
    _check_mask(p, mask)
    return f"{mask:0{p}x}"


def hex_to_mask(p: int, text: str) -> int:
    """The mask that mask_to_hex writes as text: only hex digits are read."""
    if not isinstance(text, str) or not text or text.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"not a string of hex digits: {text!r}")
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
