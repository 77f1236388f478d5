"""Bit-table sweep kernel: correctness, row-order independence, worker parity."""

import random

import numpy as np
import pytest

from cayley8p import kernels
from cayley8p.domain import induced_permutations
from cayley8p.kernels import (
    apply_perm_to_mask,
    bit_tables,
    sweep_minimal_count,
    sweep_minimal_masks,
)

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


def test_bit_tables_reproduce_every_image():
    perms = induced_permutations(3)
    tlo, thi, lo_bits, lo_mask = bit_tables(perms)
    assert tlo.shape == (24, 1 << 6)
    rng = random.Random(20260815)
    masks = [0, 1, (1 << 12) - 1] + [rng.randrange(1 << 12) for _ in range(200)]
    for m in masks:
        for a, perm in enumerate(perms):
            img = int(tlo[a, m & lo_mask] | thi[a, m >> lo_bits])
            assert img == apply_perm_to_mask(m, perm)


def test_sweep_identity_only_keeps_everything():
    assert sweep_minimal_count([list(range(8))]) == 1 << 8


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


def test_rejection_order_prunes_early():
    """The first rows of the sweep's order leave far fewer survivors than the
    first rows of the enumeration order (a survivor count, not a timing)."""
    perms = np.asarray(induced_permutations(5), dtype=np.int64)
    order = kernels._rejection_order(perms)
    # every row but the identity (row 0), each once
    assert sorted(order.tolist()) == list(range(1, len(perms)))
    assert np.array_equal(kernels._rejection_order(perms), order)
    # the kept set under a set of rows does not depend on their order
    assert 2 * sweep_minimal_count(perms[order[:8]]) <= sweep_minimal_count(perms[:8])


def test_rejection_order_is_computed_once_per_sweep(monkeypatch):
    calls = []
    original = kernels._rejection_order

    def spy(perms):
        calls.append(perms.shape)
        return original(perms)

    monkeypatch.setattr(kernels, "_rejection_order", spy)
    perms = induced_permutations(3)
    assert sweep_minimal_count(perms, workers=7) == 624
    assert calls == [(24, 12)]


def test_minimal_masks_agree_with_count():
    for p in (3,):
        perms = induced_permutations(p)
        assert len(sweep_minimal_masks(perms)) == sweep_minimal_count(perms)


@pytest.mark.parametrize("workers", [2, 3, 4, 7])
def test_worker_split_is_bit_identical(workers):
    perms = induced_permutations(3)
    assert sweep_minimal_count(perms, workers=workers) == 624
    base = sweep_minimal_masks(perms, workers=1)
    assert np.array_equal(sweep_minimal_masks(perms, workers=workers), base)


@pytest.mark.parametrize("workers", [0, -5])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="at least 1"):
        sweep_minimal_count(ROTATION3, workers=workers)
    with pytest.raises(ValueError, match="at least 1"):
        sweep_minimal_masks(ROTATION3, workers=workers)


def test_threads_are_bounded_by_the_cpu_count(monkeypatch):
    pools = []

    class RecordingPool(kernels.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.max_workers, self.submitted = max_workers, 0
            pools.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    perms = induced_permutations(3)
    base = sweep_minimal_masks(perms)
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
    assert np.array_equal(sweep_minimal_masks(perms, workers=7), base)
    # seven ranges, as asked, but no more threads than CPUs
    assert [(pool.max_workers, pool.submitted) for pool in pools] == [(2, 7)]
    sweep_minimal_masks(perms, workers=1)
    assert len(pools) == 1  # one range runs on the calling thread

