"""Hot kernel for the exhaustive orbit sweep over connection-set bitmasks.

A permutation of n class indices becomes a permutation of n-bit masks;
the sweep visits every mask and keeps those that are minimal (as
integers) within their orbit, which counts orbits exactly once each.
Mask images are computed from two half-tables per permutation
(low/high bit halves), so one image costs two lookups and an OR.

One numpy kernel does the scan by chunked compaction: after each
permutation a chunk keeps only the masks whose image is not smaller, so
most masks leave after a few of the permutations.  Results are
identical for any worker count: the mask space splits into contiguous
ranges whose hits concatenate in range order.  One driver serves both
entry points; the count is the number of representatives.

A mask is minimal when no image is smaller, so the driver drops the rows
that cannot reject anything before it builds the tables: identity rows
(an identity image is never smaller) and repeats of an earlier row.
The kept rows stay in their given order.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .domain import distinct_rows

_CHUNK = 1 << 15

# Read by the benchmark harness (benchmarks/e2e/sample.py); ROADMAP item 4's
# benchmark PR removes them together with those reads.
ENV_FLAG = "CAYLEY8P_BACKEND"
HAS_NUMBA = False


def active_backend() -> str:
    return "numpy"


def bit_tables(perms) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Half-tables for mask images under each permutation.

    Returns (tlo, thi, lo_bits, lo_mask) with tlo/thi of shape
    (n_perms, 2^half): image(m) = tlo[a, m & lo_mask] | thi[a, m >> lo_bits].
    """
    perms = np.asarray(perms, dtype=np.int64)
    n_perms, n_bits = perms.shape
    lo_bits = n_bits // 2
    hi_bits = n_bits - lo_bits
    tlo = np.zeros((n_perms, 1 << lo_bits), dtype=np.int64)
    thi = np.zeros((n_perms, 1 << hi_bits), dtype=np.int64)
    for a in range(n_perms):
        bit_image = np.int64(1) << perms[a]
        for b in range(lo_bits):
            step = 1 << b
            tlo[a, step : 2 * step] = tlo[a, :step] | bit_image[b]
        for b in range(hi_bits):
            step = 1 << b
            thi[a, step : 2 * step] = thi[a, :step] | bit_image[lo_bits + b]
    return tlo, thi, lo_bits, (1 << lo_bits) - 1


def apply_perm_to_mask(mask: int, perm) -> int:
    """Reference image of one mask (used by tests and small-scale callers).

    Each target is cast to int, so a row of a fixed-width array shifts as a
    Python integer instead of wrapping.
    """
    img = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            img |= 1 << int(target)
    return img


def _minimal(start, stop, tlo, thi, lo_bits, lo_mask):
    """Minimal masks of [start, stop): a chunk sheds a mask at its first smaller image."""
    hits = []
    for lo_edge in range(start, stop, _CHUNK):
        masks = np.arange(lo_edge, min(lo_edge + _CHUNK, stop), dtype=np.int64)
        for a in range(tlo.shape[0]):
            masks = masks[(tlo[a][masks & lo_mask] | thi[a][masks >> lo_bits]) >= masks]
            if not masks.size:
                break
        hits.append(masks)
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


def _ranges(total: int, workers: int) -> list[tuple[int, int]]:
    width = (total + workers - 1) // workers
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _distinct_moves(perms: np.ndarray) -> np.ndarray:
    """The non-identity rows of perms, each once, in order of first occurrence."""
    distinct, _ = distinct_rows(perms)
    return distinct[(distinct != np.arange(perms.shape[1])).any(axis=1)]


def _sweep(perms, workers: int) -> np.ndarray:
    """The one sweep driver: orbit-minimal masks, ascending.

    The tables are built once, for the distinct non-identity rows; the
    mask space splits into `workers` contiguous ranges whose hits
    concatenate in range order; at most os.cpu_count() threads run them.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    perms = np.asarray(perms, dtype=np.int64)
    tlo, thi, lo_bits, lo_mask = bit_tables(_distinct_moves(perms))
    spans = _ranges(1 << perms.shape[1], workers)
    if len(spans) == 1:
        return _minimal(*spans[0], tlo, thi, lo_bits, lo_mask)
    with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_minimal, lo, hi, tlo, thi, lo_bits, lo_mask) for lo, hi in spans]
        return np.concatenate([f.result() for f in futures])


def sweep_minimal_count(perms, workers: int = 1) -> int:
    """Number of orbit-minimal masks under the given permutations."""
    return len(_sweep(perms, workers))


def sweep_minimal_masks(perms, workers: int = 1) -> np.ndarray:
    """The orbit-minimal masks themselves, ascending (one per orbit)."""
    return _sweep(perms, workers)

