"""Hot kernel for the exhaustive orbit sweep over connection-set bitmasks.

A permutation of n class indices becomes a permutation of n-bit masks;
the sweep visits every mask and keeps those that are minimal (as
integers) within their orbit, which counts orbits exactly once each.
Mask images are computed from two half-tables per permutation
(low/high bit halves), so one image costs two lookups and an OR.

One numpy kernel does the scan by chunked compaction: after each
permutation a chunk keeps only the masks whose image is not smaller, so
most masks leave after a few of the permutations.  The mask space splits
into fixed chunks of `_CHUNK` masks, which bound the memory of one pass;
the chunks run one after another on the calling thread and their hits
concatenate in chunk order.  One driver serves both entry points; the
count is the number of representatives.

A mask is minimal when no image is smaller, so the driver drops the rows
that cannot reject anything before it builds the tables: identity rows
(an identity image is never smaller) and repeats of an earlier row.
The kept rows stay in their given order.
"""

import numpy as np

from .domain import distinct_rows

# One numpy pass.  2^15 > 2^14, the largest sweep a command runs (2p bits
# at p = 7), so every command sweep is one chunk.
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
    Each table doubles once per bit, for all permutations at once.
    """
    perms = np.asarray(perms, dtype=np.int64)
    lo_bits = perms.shape[1] // 2
    tables = []
    for bit_images in np.split(np.int64(1) << perms, [lo_bits], axis=1):
        n_perms, n_bits = bit_images.shape
        table = np.zeros((n_perms, 1 << n_bits), dtype=np.int64)
        for b in range(n_bits):
            step = 1 << b
            table[:, step : 2 * step] = table[:, :step] | bit_images[:, b, None]
        tables.append(table)
    return tables[0], tables[1], lo_bits, (1 << lo_bits) - 1


def _minimal(start, stop, tlo, thi, lo_bits, lo_mask):
    """Minimal masks of one chunk [start, stop): a mask leaves at its first smaller image."""
    masks = np.arange(start, stop, dtype=np.int64)
    for a in range(tlo.shape[0]):
        masks = masks[(tlo[a][masks & lo_mask] | thi[a][masks >> lo_bits]) >= masks]
        if not masks.size:
            break
    return masks


def _distinct_moves(perms: np.ndarray) -> np.ndarray:
    """The non-identity rows of perms, each once, in order of first occurrence."""
    distinct, _ = distinct_rows(perms)
    return distinct[(distinct != np.arange(perms.shape[1])).any(axis=1)]


def _sweep(perms) -> np.ndarray:
    """The one sweep driver: orbit-minimal masks, ascending.

    The tables are built once, for the distinct non-identity rows; the
    mask space splits into chunks of `_CHUNK` masks, swept in order on the
    calling thread, whose hits concatenate in chunk order.
    """
    perms = np.asarray(perms, dtype=np.int64)
    tables = bit_tables(_distinct_moves(perms))
    total = 1 << perms.shape[1]
    return np.concatenate(
        [_minimal(lo, min(lo + _CHUNK, total), *tables) for lo in range(0, total, _CHUNK)]
    )


def sweep_minimal_count(perms, workers: int = 1) -> int:
    """Number of orbit-minimal masks under the given permutations.

    `workers` is checked to be at least 1 and otherwise unused: every sweep
    runs on the calling thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return len(_sweep(perms))


def sweep_minimal_masks(perms) -> np.ndarray:
    """The orbit-minimal masks themselves, ascending (one per orbit)."""
    return _sweep(perms)
