"""Bit-table sweep kernel: correctness, row-order independence, chunk split."""

import random

import numpy as np
import pytest

from independent_model import apply_perm_to_mask, circulant_class_permutations
from cayley8p import kernels
from cayley8p.domain import induced_permutations
from cayley8p.kernels import bit_tables, sweep_minimal_count, sweep_minimal_masks

# C3 rotation on 3 bits: orbits are {000}, {111}, weight-1, weight-2
ROTATION3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_apply_perm_to_mask():
    assert apply_perm_to_mask(0b001, [2, 0, 1]) == 0b100
    assert apply_perm_to_mask(0b011, [2, 0, 1]) == 0b101
    assert apply_perm_to_mask(0, [1, 0]) == 0


def test_apply_perm_to_mask_on_int16_rows():
    """A row of the int16 permutation array maps masks as its tuple does:
    at p = 5 the target 19 would wrap in int16 arithmetic."""
    perms = induced_permutations(5)
    rng = random.Random(5)
    masks = [(1 << 20) - 1, 1 << 19] + [rng.randrange(1 << 20) for _ in range(20)]
    for row in perms[::7]:
        for m in masks:
            assert apply_perm_to_mask(m, row) == apply_perm_to_mask(m, tuple(row.tolist()))
    assert apply_perm_to_mask((1 << 20) - 1, perms[0]) == (1 << 20) - 1


@pytest.mark.parametrize(
    "perms",
    [
        induced_permutations(3),
        np.array(circulant_class_permutations(5)),
        np.array(circulant_class_permutations(7)),
        np.zeros((0, 6), int),
    ],
    ids=["induced-p3", "circulant-p5", "circulant-p7", "no-rows"],
)
def test_bit_tables_reproduce_every_image(perms):
    """Odd widths give a high half one bit longer than the low half."""
    tlo, thi, lo_bits, lo_mask = bit_tables(perms)
    n_perms, n_bits = perms.shape
    assert lo_bits == n_bits // 2 and lo_mask == (1 << lo_bits) - 1
    assert tlo.shape == (n_perms, 1 << lo_bits)
    assert thi.shape == (n_perms, 1 << (n_bits - lo_bits))
    rng = random.Random(20260815)
    masks = [0, 1, (1 << n_bits) - 1] + [rng.randrange(1 << n_bits) for _ in range(200)]
    for m in masks:
        for a, perm in enumerate(perms):
            img = int(tlo[a, m & lo_mask] | thi[a, m >> lo_bits])
            assert img == apply_perm_to_mask(m, perm)


def test_sweep_identity_only_keeps_everything():
    assert sweep_minimal_count([list(range(8))]) == 1 << 8


def test_sweep_over_zero_bits_keeps_the_empty_mask():
    """A zero-width row permutes no bits: its one orbit is the empty mask."""
    empty = np.zeros((1, 0), dtype=np.int16)
    assert sweep_minimal_count(empty) == 1
    assert sweep_minimal_masks(empty).tolist() == [0]


def test_sweep_rotation_orbits():
    assert sweep_minimal_count(ROTATION3) == 4
    masks = sweep_minimal_masks(ROTATION3)
    assert masks.tolist() == [0b000, 0b001, 0b011, 0b111]


def test_sweep_counts_induced_action_orbits():
    perms = induced_permutations(3)
    assert sweep_minimal_count(perms) == 624
    masks = sweep_minimal_masks(perms)
    assert len(masks) == 624
    assert np.all(np.diff(masks) > 0)
    # spot-check: each representative is the smallest mask in its expanded orbit
    rng = random.Random(7)
    for m in rng.sample(masks.tolist(), 25):
        orbit = {apply_perm_to_mask(m, perm) for perm in perms}
        assert min(orbit) == m


def test_sweep_keeps_exactly_the_orbit_minima():
    perms = induced_permutations(3)
    minima = [
        m for m in range(1 << 12) if min(apply_perm_to_mask(m, perm) for perm in perms) == m
    ]
    assert sweep_minimal_masks(perms).tolist() == minima


def test_sweep_ignores_the_permutation_order():
    perms = induced_permutations(3)
    assert np.array_equal(sweep_minimal_masks(perms[::-1]), sweep_minimal_masks(perms))


@pytest.mark.parametrize("arrange", ["reversed", "shuffled", "identity twice more"])
def test_sweep_does_not_depend_on_row_order(arrange):
    perms = np.asarray(induced_permutations(5))
    if arrange == "reversed":
        rows = perms[::-1]
    elif arrange == "shuffled":
        rows = perms[np.random.default_rng(20261018).permutation(len(perms))]
    else:
        rows = np.vstack([perms, perms[:1], perms[:1]])  # row 0 is the identity
    masks = sweep_minimal_masks(rows)
    assert len(masks) == 25152
    assert np.array_equal(masks, sweep_minimal_masks(perms))


def test_tables_are_built_only_for_distinct_moving_rows(monkeypatch):
    """Identity rows and repeats cannot reject a mask, so they get no table."""
    tabled = []
    original = kernels.bit_tables

    def spy(perms):
        tabled.append(np.asarray(perms).tolist())
        return original(perms)

    monkeypatch.setattr(kernels, "bit_tables", spy)
    perms = np.asarray(induced_permutations(3))
    rows = np.vstack([perms[5:], perms[::-1], perms[:5]])
    identity = list(range(12))
    want = []
    for row in rows.tolist():
        if row != identity and row not in want:
            want.append(row)
    assert sweep_minimal_masks(rows).tolist() == sweep_minimal_masks(perms).tolist()
    assert tabled[0] == want
    assert len(tabled) == 2  # one table build per sweep, whatever its chunk count


def test_minimal_masks_agree_with_count():
    for p in (3,):
        perms = induced_permutations(p)
        assert len(sweep_minimal_masks(perms)) == sweep_minimal_count(perms)


def test_chunk_split_is_bit_identical(monkeypatch):
    """With 2^5-mask chunks the p = 3 sweep is 128 chunks, whose hits concatenate
    in chunk order into the one-chunk result."""
    perms = induced_permutations(3)
    base = sweep_minimal_masks(perms)
    chunks = []
    original = kernels._minimal

    def minimal(start, stop, *tables):
        chunks.append((start, stop))
        return original(start, stop, *tables)

    monkeypatch.setattr(kernels, "_minimal", minimal)
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 5)
    split = sweep_minimal_masks(perms)
    assert chunks == [(lo, lo + 32) for lo in range(0, 1 << 12, 32)]
    assert split.dtype == base.dtype and split.tobytes() == base.tobytes()
    assert sweep_minimal_count(perms) == len(split) == 624


@pytest.mark.parametrize("workers", [2, 3, 4, 7])
def test_worker_split_is_bit_identical(workers, monkeypatch):
    """A worker count above 1 is accepted and changes nothing: the p = 3 sweep
    split into 128 chunks of 2^5 masks still keeps the same 624 minima."""
    perms = induced_permutations(3)
    base = sweep_minimal_masks(perms)
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 5)
    assert sweep_minimal_count(perms, workers=workers) == 624
    assert np.array_equal(sweep_minimal_masks(perms), base)


@pytest.mark.parametrize("workers", [0, -5])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="at least 1"):
        sweep_minimal_count(ROTATION3, workers=workers)
