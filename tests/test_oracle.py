"""Brute-force oracles: Burnside, exhaustive sweeps, connectivity, circulants.

These are the ground-truth paths.  Frozen values here were produced by
the oracles themselves and cross-checked against the self-contained
model in independent_model.py, so regressions in either direction
(package or expectations) surface immediately.
"""

import math
import os
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import independent_model as im
from independent_model import apply_perm_to_mask
from cayley8p import oracle
from cayley8p.domain import (
    KIND_A2,
    KIND_AP,
    KIND_B,
    build_domain,
    class_table,
    distinct_rows,
    induced_halves,
    induced_permutations,
)
from cayley8p.group import GroupElement, element_index, mul_table
from cayley8p.kernels import sweep_minimal_count, sweep_minimal_masks
from cayley8p.oracle import (
    build_cayley_graph,
    burnside_count,
    circulant_orbit_count,
    connected_orbit_count,
    disconnected_census,
    hex_to_mask,
    is_connected,
    mask_elements,
    mask_to_hex,
    orbit_partition_count,
    orbit_representatives,
    to_dot,
)
from cayley8p.polya import cycle_index_bruteforce, n_circulant, n_connected

BURNSIDE = {3: 624, 5: 25152, 7: 2111232, 11: 41916787200, 13: 7365876904064}
# above the tested primes; the values at 31 and 37 are also benchmarks/e2e/pinned.json's
BURNSIDE_LARGE = {
    17: 272443363353431232,
    19: 55346354323624035072,
    23: 2447736832842339430672128,
    31: 5717284381888519072422401313709056,
    37: 66969460322208593711473542310152237412480,
    53: 597062620406808391161964113129627694560323915932673343835392,
    101: 1022673219044321141843380262330357605367700299023833660459437297817553584091921788974876365058950562324741808126920448,
}


def test_burnside_frozen_values():
    for p, want in BURNSIDE.items():
        assert burnside_count(p) == want


def test_genuine_totals_frozen_above_the_tested_primes():
    for p, want in BURNSIDE_LARGE.items():
        assert burnside_count(p) == cycle_index_bruteforce(p).evaluate(2) == want


def test_orbit_partition_matches_burnside():
    assert orbit_partition_count(3) == burnside_count(3) == 624
    assert orbit_partition_count(5) == burnside_count(5) == 25152


def test_orbit_partition_matches_independent_model():
    count, reps = im.orbit_data(3)
    # the independent model indexes classes differently, so compare the
    # count and the orbit-size multiset rather than raw representatives
    assert orbit_partition_count(3) == count == 624
    assert len(orbit_representatives(3)) == count


def test_representatives_are_orbit_minima():
    perms = induced_permutations(3)
    reps = orbit_representatives(3)
    rng = random.Random(11)
    for m in rng.sample([int(x) for x in reps], 30):
        orbit = {apply_perm_to_mask(m, perm) for perm in perms}
        assert min(orbit) == m


def test_cap_refuses_large_p():
    """The first prime above the held limit is refused by all four oracles."""
    with pytest.raises(ValueError, match="p <= 7"):
        orbit_partition_count(11)
    with pytest.raises(ValueError, match="p <= 7"):
        orbit_representatives(11)
    with pytest.raises(ValueError, match="p <= 7"):
        connected_orbit_count(11)
    with pytest.raises(ValueError, match="p <= 7"):
        disconnected_census(11)


def test_p7_sweep_equals_burnside(monkeypatch):
    """p = 7, the largest p whose representatives are held, needs no option."""
    monkeypatch.setattr(oracle, "_reps_cache", {})  # drop the 2.1 M representatives afterwards
    assert orbit_partition_count(7) == burnside_count(7) == 2111232


def test_p7_is_held_with_p_alone(monkeypatch):
    monkeypatch.setattr(oracle, "_reps_cache", {})  # drop the 2.1 M representatives afterwards
    monkeypatch.setattr(oracle, "_census_cache", {})
    assert connected_orbit_count(7) == 2108120
    assert disconnected_census(7) == {"a_only_orbits": 3104, "b_touching_orbits": 8}


def test_p_beyond_the_bitset_limit_is_refused_before_any_sweep(monkeypatch):
    swept = []
    monkeypatch.setattr(oracle, "sweep_minimal_masks", lambda *a, **k: swept.append(a))
    for p in (11, 13):
        for fn in (
            orbit_partition_count,
            orbit_representatives,
            connected_orbit_count,
            disconnected_census,
        ):
            with pytest.raises(ValueError, match="p <= 7"):
                fn(p)
    assert swept == []


@pytest.mark.parametrize("p", [263, 401, 3571])
def test_cap_refusal_is_worded_in_integers(p):
    """2^{4p}/|Aut| is too large for a float from p = 263 on."""
    bound = rf"p={p} has at least 2\^{4 * p}/{4 * p * (p - 1)}, more than 2\^\d+, orbits"
    with pytest.raises(ValueError, match=rf"need p <= 7: .*{bound}"):
        oracle.check_cap(p)


def test_representatives_are_swept_once_per_p(monkeypatch):
    calls = []
    original = oracle.sweep_minimal_masks

    def sweep(perms):
        calls.append(len(perms))
        return original(perms)

    monkeypatch.setattr(oracle, "_reps_cache", {})
    monkeypatch.setattr(oracle, "_census_cache", {})
    monkeypatch.setattr(oracle, "sweep_minimal_masks", sweep)
    total = orbit_partition_count(3)
    assert connected_orbit_count(3) + sum(disconnected_census(3).values()) == total == 624
    swept = len(calls)
    assert swept
    reps = orbit_representatives(3)
    assert orbit_representatives(3) is reps
    assert orbit_partition_count(3) == 624
    assert len(calls) == swept
    assert list(oracle._reps_cache) == [3]


@pytest.mark.parametrize("workers", [0, -5])
def test_fewer_than_one_worker_is_refused_cold_and_warm(workers):
    """A sweep that has run at workers=1 still refuses fewer than one worker."""
    perms = induced_permutations(3)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        sweep_minimal_count(perms, workers=workers)
    assert sweep_minimal_count(perms, workers=1) == 624
    with pytest.raises(ValueError, match="workers must be at least 1"):
        sweep_minimal_count(perms, workers=workers)


@pytest.mark.parametrize("p", [3, 5])
def test_representatives_equal_the_flat_sweep(p, monkeypatch):
    monkeypatch.setattr(oracle, "_reps_cache", {})
    flat = sweep_minimal_masks(induced_permutations(p))
    oracle._reps_cache.pop(p, None)  # re-sweep: a cached array would only equal itself
    reps = orbit_representatives(p)
    assert reps.dtype == flat.dtype
    assert reps.tobytes() == flat.tobytes()


def test_a_map_across_the_blocks_is_refused_before_any_sweep(monkeypatch):
    crossed = class_table(5).copy()
    crossed[crossed == 9] = 10  # a^5, the singleton A class, relabelled into B
    swept = []
    monkeypatch.setattr(oracle, "_reps_cache", {})
    monkeypatch.setattr("cayley8p.domain.class_table", lambda p: crossed)
    monkeypatch.setattr(oracle, "induced_halves", induced_halves.__wrapped__)
    monkeypatch.setattr(oracle, "sweep_minimal_masks", lambda *a, **k: swept.append(a))
    with pytest.raises(ArithmeticError, match="across the A and B blocks"):
        orbit_representatives(5)
    assert swept == []


def test_each_distinct_stabilizer_is_swept_once(monkeypatch):
    """One B-sweep, then one A-sweep per distinct set of stabilizer A-rows,
    counted here from the B-parts of the representatives by scalar images."""
    perms = induced_permutations(5)
    b_parts = sorted({int(m) >> 10 for m in orbit_representatives(5)})
    rows = perms.tolist()
    row_sets = {
        frozenset(
            tuple(row[:10]) for row in rows if apply_perm_to_mask(b, [t - 10 for t in row[10:]]) == b
        )
        for b in b_parts
    }
    swept = []
    original = oracle.sweep_minimal_masks

    def sweep(rows):
        swept.append({tuple(row) for row in np.asarray(rows).tolist()})
        return original(rows)

    monkeypatch.setattr(oracle, "_reps_cache", {})
    monkeypatch.setattr(oracle, "sweep_minimal_masks", sweep)
    assert len(orbit_representatives(5)) == 25152
    assert len(b_parts) == 45 and len(row_sets) == 2
    assert sorted(map(sorted, swept[1:])) == sorted(map(sorted, row_sets))


def test_stabilizers_of_equal_size_are_swept_apart():
    """x swaps bits 0, 1 of each block and y bits 2, 3: B-part 0b0100 is fixed
    by x alone and 0b0001 by y alone, two stabilizers of the same size."""
    e, x, y = range(4), [1, 0, 2, 3], [0, 1, 3, 2]
    group = [(e, e), (x, x), (y, y), ([x[i] for i in y], [x[i] for i in y])]
    rows = np.array([list(a) + [4 + t for t in b] for a, b in group])
    halves = [distinct_rows(np.array(half)) for half in zip(*group)]
    reps = oracle._two_level_sweep(*halves[0], *halves[1])
    assert reps.tolist() == sweep_minimal_masks(rows).tolist()


def test_cached_representatives_are_read_only():
    reps = orbit_representatives(3)
    assert not reps.flags.writeable
    with pytest.raises(ValueError):
        reps[0] = 1


def test_census_flags_match_the_scalar_search():
    assert oracle._connected_flags(3, range(4096)).tolist() == [
        is_connected(3, m) for m in range(4096)
    ]
    sample = random.Random(20261018).sample([int(m) for m in orbit_representatives(5)], 500)
    assert oracle._connected_flags(5, sample).tolist() == [is_connected(5, m) for m in sample]


def test_census_counts_match_independent_model(monkeypatch):
    monkeypatch.setattr(oracle, "_census_cache", {})
    census = disconnected_census(3)
    counts = (connected_orbit_count(3), census["a_only_orbits"], census["b_touching_orbits"])
    assert counts == im.census(3)


def test_census_frozen_values():
    assert connected_orbit_count(3) == 568
    assert disconnected_census(3) == {"a_only_orbits": 48, "b_touching_orbits": 8}
    assert connected_orbit_count(5) == 24808
    assert disconnected_census(5) == {"a_only_orbits": 336, "b_touching_orbits": 8}


def _class_mask(p, keep):
    return sum(1 << c for c, cls in enumerate(build_domain(p).classes) if keep(cls))


def _join_closure_maximal_subgroups(p):
    """The maximal subgroups of T as class masks, ascending, by brute force.

    A subgroup is closed under inverses, so without the identity it is a
    union of classes.  Every subgroup is a join of cyclic ones, so joining
    the cyclic subgroups <class c> onto what has been found until nothing
    new appears finds them all.  The maximal ones are the proper subgroups
    inside no other proper subgroup.
    """
    class_of = class_table(p).tolist()
    table = mul_table(p)

    def generated(mask):
        selected = [e for e, c in enumerate(class_of) if c >= 0 and mask >> c & 1]
        out = 0
        for v in oracle._reached(table, selected)[1:]:
            out |= 1 << class_of[v]
        return out

    cyclic = {generated(1 << c) for c in range(4 * p)}
    found = set(cyclic)
    new = cyclic
    while new:
        new = {generated(h | c) for h in new for c in cyclic if c & ~h} - found
        found |= new
    proper = found - {(1 << 4 * p) - 1}
    return sorted(h for h in proper if not any(h != k and (h & ~k) == 0 for k in proper))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_maximal_subgroups_are_the_index_2_subgroup_and_the_sylow_2_subgroups(p):
    """<a, b^2> (every class but the odd powers of b), and the p cyclic
    Sylow 2-subgroups <a^j b> = {e, a^j b, b^2, a^{-j} b^3, a^p, a^{p+j} b,
    a^p b^2, a^{p-j} b^3}: classes A2 label 0, Ap, B_j and B_{j+p}; the
    census's masks, written from the layout, equal the brute-force lattice's."""
    index_2 = _class_mask(p, lambda cls: cls.kind != KIND_B)
    sylow_classes = [{(KIND_A2, 0), (KIND_AP, p), (KIND_B, j), (KIND_B, j + p)} for j in range(p)]
    sylows = [_class_mask(p, lambda cls: (cls.kind, cls.label) in kept) for kept in sylow_classes]
    assert index_2 == (1 << 2 * p) - 1
    closure = _join_closure_maximal_subgroups(p)
    assert closure == sorted([index_2, *sylows])
    assert oracle._maximal_subgroups(p) == closure


def test_census_with_a_maximal_subgroup_dropped_disagrees_with_the_scalar_search(monkeypatch):
    p = 3
    maximal = oracle._maximal_subgroups(p)
    scalar = [is_connected(p, m) for m in range(4096)]
    for dropped in maximal:
        kept = [h for h in maximal if h != dropped]
        monkeypatch.setattr(oracle, "_maximal_subgroups", lambda p: kept)
        assert oracle._connected_flags(p, range(4096)).tolist() != scalar
    # a Sylow mask with its class B_{j+p} moved to its neighbour B_{j+p+1}
    for j in range(p):
        b_high, b_next = 3 * p + j, 2 * p + (j + p + 1) % (2 * p)
        moved = [h ^ (1 << b_high | 1 << b_next) if h >> b_high & 1 else h for h in maximal]
        monkeypatch.setattr(oracle, "_maximal_subgroups", lambda p: moved)
        assert oracle._connected_flags(p, range(4096)).tolist() != scalar


def test_census_partitions_the_orbits():
    for p in (3, 5):
        census = disconnected_census(p)
        assert (
            connected_orbit_count(p)
            + census["a_only_orbits"]
            + census["b_touching_orbits"]
            == orbit_partition_count(p)
        )


def test_census_matches_independent_model():
    assert im.census(3) == (568, 48, 8)


def test_census_departs_from_closed_forms():
    """The closed forms undercount: the genuine connected count exceeds
    n_connected and a_only exceeds n_circulant^2, at both small p."""
    for p in (3, 5):
        census = disconnected_census(p)
        assert connected_orbit_count(p) > n_connected(p)
        assert census["a_only_orbits"] > n_circulant(p) ** 2
        assert census["b_touching_orbits"] == 8


def test_every_a_only_mask_is_disconnected():
    # classes 0..2p-1 select only even powers of b: never the whole group
    for mask in range(1 << 6):
        assert not is_connected(3, mask)


def test_single_b_class_generates_an_octic_subgroup():
    # a^j b has order 8, so one b-class alone never connects; these small
    # subgroups are the source of the disconnected b-touching orbits
    for ci in range(6, 12):
        assert not is_connected(3, 1 << ci)
        g = build_cayley_graph(3, 1 << ci)
        reached = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        assert len(reached) == 8


def test_b_class_plus_a_class_connects():
    for ci in range(6, 12):
        for i in (0, 1):
            assert is_connected(3, (1 << ci) | (1 << i))


def test_empty_and_full_masks():
    g = build_cayley_graph(3, 0)
    assert all(row == () for row in g.neighbors)
    assert not is_connected(3, 0)
    full = (1 << 12) - 1
    g = build_cayley_graph(3, full)
    assert all(len(row) == 23 for row in g.neighbors)
    assert is_connected(3, full)


def test_central_involution_gives_perfect_matching():
    # the singleton class {a^p} sits at bit 2p-1
    g = build_cayley_graph(3, 1 << 5)
    assert all(len(row) == 1 for row in g.neighbors)
    for v, row in enumerate(g.neighbors):
        assert g.neighbors[row[0]] == (v,)
    assert not is_connected(3, 1 << 5)


def test_graphs_are_regular_and_symmetric():
    d = build_domain(3)
    for mask in (0b000001100101, 0b101010000011, (1 << 12) - 1):
        g = build_cayley_graph(3, mask)
        degree = len(mask_elements(d, mask))
        for v, row in enumerate(g.neighbors):
            assert len(row) == degree
            assert len(set(row)) == degree
            assert v not in row
            for w in row:
                assert v in g.neighbors[w]


def test_mask_elements_layout():
    d = build_domain(3)
    assert mask_elements(d, 0b1) == [
        element_index(GroupElement(3, 1, 0)),
        element_index(GroupElement(3, 5, 0)),
    ]
    assert mask_elements(d, 1 << 5) == [element_index(GroupElement(3, 3, 0))]
    assert len(mask_elements(d, (1 << 12) - 1)) == 23
    for mask in range(1 << 12):
        members = {g for c in range(12) if mask >> c & 1 for g in d.classes[c].members}
        assert mask_elements(d, mask) == sorted(map(element_index, members))


@settings(max_examples=150, deadline=None)
@given(
    mask=st.integers(min_value=0, max_value=(1 << 12) - 1),
    perm_idx=st.integers(min_value=0, max_value=23),
)
def test_connectivity_is_an_orbit_invariant(mask, perm_idx):
    perm = induced_permutations(3)[perm_idx]
    assert is_connected(3, mask) == is_connected(3, apply_perm_to_mask(mask, perm))


def test_circulant_oracle_frozen_values():
    genuine = {3: 8, 5: 20, 7: 48, 11: 416, 13: 1400, 17: 16460, 19: 58288, 23: 762608}
    for p, want in genuine.items():
        assert circulant_orbit_count(p) == want
        assert circulant_orbit_count(p) > n_circulant(p)


def test_circulant_oracle_refuses_a_p_beyond_half_of_the_memory_it_reads(monkeypatch):
    """The circulant count refuses the p that check_array_memory refuses, as
    every engine count does, and answers below it in milliseconds."""
    t0 = time.perf_counter()
    assert circulant_orbit_count(101) == _circulant_closed_form(101)
    assert time.perf_counter() - t0 < 1.0
    # 3 MiB of memory; p = 31 needs 2 * 3720 * 124 * 2 bytes, about 1.8 MiB
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 768}.get)
    assert circulant_orbit_count(23) == 762608
    with pytest.raises(ValueError, match="p=31 needs 1.8 MiB .* half of the 3.0 MiB"):
        circulant_orbit_count(31)


def test_circulant_burnside_equals_the_sweep_on_the_same_permutations():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        perms = np.array(im.circulant_class_permutations(p))
        assert circulant_orbit_count(p) == sweep_minimal_count(perms), p


def _circulant_closed_form(p: int) -> int:
    """(1/(p-1)) * sum over d | p-1 of phi(d) * 2^(1 + (p-1)/d'), with d' = d/2
    for even d and d' = d otherwise: the number-theory circulant count."""
    m = p - 1
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            total += phi << 1 + m // (d // 2 if d % 2 == 0 else d)
    assert total % m == 0
    return total // m


def test_circulant_oracle_equals_the_number_theory_count():
    for p in range(3, 409, 2):
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            assert circulant_orbit_count(p) == _circulant_closed_form(p), p


def test_mask_hex_round_trip():
    assert mask_to_hex(3, 0) == "000"
    assert mask_to_hex(3, (1 << 12) - 1) == "fff"
    assert mask_to_hex(5, 1) == "00001"
    for mask in (0, 1, 0x5A3, 0xFFF):
        assert hex_to_mask(3, mask_to_hex(3, mask)) == mask
    with pytest.raises(ValueError):
        mask_to_hex(3, 1 << 12)
    with pytest.raises(ValueError):
        mask_to_hex(3, -1)
    with pytest.raises(ValueError):
        hex_to_mask(3, "1000")


@pytest.mark.parametrize(
    "call",
    [
        lambda: mask_to_hex(4, 5),  # once rendered as '0005'
        lambda: hex_to_mask(9, "ff"),  # once read as 255
        lambda: mask_to_hex(True, 1),  # once a format-spec error
    ],
    ids=["mask_to_hex-even", "hex_to_mask-composite", "mask_to_hex-bool"],
)
def test_mask_helpers_refuse_a_p_that_is_not_an_odd_prime(call):
    with pytest.raises(ValueError, match="p must be an odd prime"):
        call()


def test_out_of_range_masks_are_refused():
    for mask in (-1, 1 << 12, 1 << 50):
        with pytest.raises(ValueError, match="out of range"):
            is_connected(3, mask)
        with pytest.raises(ValueError, match="out of range"):
            build_cayley_graph(3, mask)
    assert is_connected(3, (1 << 12) - 1)
    # only the text mask_to_hex writes is read: all but "" were once read as 31
    for text in ("0x1f", "1_f", " 1f ", "+1f", "1f\n", "\u0661f", ""):
        with pytest.raises(ValueError, match="not a string of hex digits"):
            hex_to_mask(3, text)
    with pytest.raises(ValueError, match="not a string of hex digits"):
        hex_to_mask(3, 31)
    assert hex_to_mask(3, "01F") == 31
    # a mask is an int and not a bool: mask_to_hex(3, True) was once "001"
    for mask in (True, False, 1.0, "1", np.int64(1)):
        for refuse in (mask_to_hex, is_connected, build_cayley_graph):
            with pytest.raises(ValueError, match="mask must be an int"):
                refuse(3, mask)


def test_to_dot_rendering():
    g = build_cayley_graph(3, 1 << 5)
    text = to_dot(g)
    assert text.startswith("graph cayley {")
    assert text.rstrip().endswith("}")
    assert 'v0 [label="a^0 b^0"];' in text
    assert 'label="a^3 b^0"' in text
    assert text.count(" -- ") == 12
    full_text = to_dot(build_cayley_graph(3, (1 << 12) - 1))
    assert full_text.count(" -- ") == 24 * 23 // 2
