"""Hot kernels for the exhaustive orbit sweep over connection-set bitmasks.

A permutation of n class indices becomes a permutation of n-bit masks;
the sweep visits every mask and keeps those that are minimal (as
integers) within their orbit, which counts orbits exactly once each.
Mask images are computed from two half-tables per permutation
(low/high bit halves), so one image costs two lookups and an OR.

Two interchangeable backends do the scan:

  * "numba": @njit compiled loops (fast path; optional dependency)
  * "numpy": chunked vectorized compaction: after each permutation a
    chunk keeps only the masks whose image is not smaller, so most masks
    leave after a few of the permutations

selected by the CAYLEY8P_BACKEND environment variable ("auto", "numba",
"numpy"; auto prefers numba when importable).  Results are identical
either way, and identical for any worker count: the mask space splits
into contiguous ranges whose hits concatenate in range order.  One
driver serves both entry points; the count is the number of
representatives.

A mask is minimal when no image is smaller.  That test does not depend
on the order of the permutations, but its cost does: a mask leaves at
the first permutation that maps it lower.  So before it splits the mask
space the driver drops identity rows (an identity image is never
smaller) and orders the rest greedily: each next row is the one that
rejects the most still-surviving masks of a fixed sample of 2^10 masks
(i * 2654435761 mod 2^n, spread over all bits), and rows that reject no
survivor follow in their given order.  Both backends and every range
read the bit tables in that one order.  Every non-identity permutation
is still tried on every mask that survives the ones before it, so the
kept masks are the same for any order and any sample.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


ENV_FLAG = "CAYLEY8P_BACKEND"
_CHUNK = 1 << 15
_SAMPLE = 1 << 10


def active_backend() -> str:
    """Resolve the backend name from the environment, validating the choice."""
    choice = os.environ.get(ENV_FLAG, "auto").lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"{ENV_FLAG} must be auto, numba or numpy, got {choice!r}")
    if choice == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    if choice == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    return choice


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


@njit(cache=True, nogil=True)
def _count_numba(start, stop, tlo, thi, lo_bits, lo_mask):  # pragma: no cover - jit
    n_perms = tlo.shape[0]
    count = 0
    for m in range(start, stop):
        minimal = True
        for a in range(n_perms):
            img = tlo[a, m & lo_mask] | thi[a, m >> lo_bits]
            if img < m:
                minimal = False
                break
        if minimal:
            count += 1
    return count


@njit(cache=True, nogil=True)
def _fill_numba(start, stop, tlo, thi, lo_bits, lo_mask, out):  # pragma: no cover
    n_perms = tlo.shape[0]
    written = 0
    for m in range(start, stop):
        minimal = True
        for a in range(n_perms):
            img = tlo[a, m & lo_mask] | thi[a, m >> lo_bits]
            if img < m:
                minimal = False
                break
        if minimal:
            out[written] = m
            written += 1
    return written


def _minimal_numba(start, stop, tlo, thi, lo_bits, lo_mask):  # pragma: no cover
    out = np.empty(_count_numba(start, stop, tlo, thi, lo_bits, lo_mask), dtype=np.int64)
    _fill_numba(start, stop, tlo, thi, lo_bits, lo_mask, out)
    return out


def _minimal_numpy(start, stop, tlo, thi, lo_bits, lo_mask):
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


def _rejection_order(perms: np.ndarray) -> np.ndarray:
    """Indices of the non-identity rows of perms, most-rejecting first.

    Greedy over a fixed sample of masks: each next row rejects the most
    sample masks that no earlier row rejected; ties and the rows that
    reject none left keep their given order.
    """
    n_bits = perms.shape[1]
    rows = np.flatnonzero((perms != np.arange(n_bits)).any(axis=1))
    sample = np.arange(_SAMPLE, dtype=np.int64) * 2654435761 & (1 << n_bits) - 1
    images = np.zeros((len(rows), _SAMPLE), dtype=np.int64)
    for b in range(n_bits):
        images |= (sample >> b & 1) << perms[rows, b, None]
    rejects = images < sample
    alive = np.ones(_SAMPLE, dtype=bool)
    order = []
    while len(order) < len(rows):
        gains = (rejects & alive).sum(axis=1)
        best = int(gains.argmax())
        if not gains[best]:
            break
        order.append(best)
        alive &= ~rejects[best]
    return np.concatenate([rows[order], np.delete(rows, order)])


def _sweep(perms, workers: int) -> np.ndarray:
    """The one sweep driver: orbit-minimal masks, ascending.

    The tables are built once, in rejection order; the mask space splits
    into `workers` contiguous ranges whose hits concatenate in range
    order; at most os.cpu_count() threads run them.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    perms = np.asarray(perms, dtype=np.int64)
    tlo, thi, lo_bits, lo_mask = bit_tables(perms[_rejection_order(perms)])
    kernel = _minimal_numba if active_backend() == "numba" else _minimal_numpy
    spans = _ranges(1 << perms.shape[1], workers)
    if len(spans) == 1:
        return kernel(*spans[0], tlo, thi, lo_bits, lo_mask)
    with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(kernel, lo, hi, tlo, thi, lo_bits, lo_mask) for lo, hi in spans]
        return np.concatenate([f.result() for f in futures])


def sweep_minimal_count(perms, workers: int = 1) -> int:
    """Number of orbit-minimal masks under the given permutations."""
    return len(_sweep(perms, workers))


def sweep_minimal_masks(perms, workers: int = 1) -> np.ndarray:
    """The orbit-minimal masks themselves, ascending (one per orbit)."""
    return _sweep(perms, workers)


def warmup() -> None:
    """Trigger JIT compilation on a toy input so timed runs measure the sweep only."""
    toy = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    sweep_minimal_count(toy)
    sweep_minimal_masks(toy)
