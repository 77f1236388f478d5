"""The 4p-element domain of inverse-closed classes and the action on it.

Every non-identity element g is grouped with its inverse into a class
{g, g^{-1}}.  The classes come in four blocks with a fixed index layout:

    indices 0 .. p-2        pairs {a^i, a^{-i}},        labels i = 1 .. p-1
    indices p-1 .. 2p-2     pairs {a^l b^2, a^{p-l} b^2}, labels
                            l in {0..(p-1)/2} then {p+1..(3p-1)/2}, ascending
    index 2p-1              the singleton {a^p} (the unique involution in <a>)
    indices 2p .. 4p-1      pairs {a^j b, a^{p+j} b^3},  labels j = 0 .. 2p-1

class_members(p) writes this layout once, in element indices l*2p + k, and
class_table(p) inverts it: every counting path reads these two arrays.
Objects appear only in build_domain(p), their view for the API and tests.

Automorphisms permute these classes.  induced_halves(p) holds the action
of all 4p(p-1) maps as distinct A- and B-half-rows, and each map's row
among them: at p = 31 the 3720 maps have 30 distinct A-halves and 1860
distinct B-halves.  cycle_types(p) types the distinct half-rows with
cycle_counts and joins the two halves' types once per distinct pair of
them.  cycle_counts reads only its rows: rows whose difference sequences
pi(x) - x are rotations of each other are conjugate by a translation and
share a type, so it pointer-jumps one row per such class, in numpy (the
1860 B-halves at p = 31 fall into 120 classes).  Burnside, the
brute-force cycle index, the verify check and the orbit sweep read the
halves; induced_permutations(p) assembles whole rows for other callers.
cycle_type_of decomposes one permutation in Python and stays as the
scalar reference.

A cycle type is its cycle-index monomial x_1^e1 x_2^e2 ... (a Monomial,
canonical as monomial() makes it), and every producer of cycle types
returns (types, ids): monomials, not necessarily distinct, and each map's
index into them.  This module holds the genuine action only: the paper's
case analysis (polya.closed_form_cycle_types, in the same shape) is
compared with it, never assumed equal.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import _close_blas_window
from .autos import SIGMA, Automorphism, aut_blocks, apply
from .group import GroupElement, all_elements, element_index
from .modular import _INT16_MAX, _check_int16_classes, check_odd_prime
from .polya import Monomial, monomial

# Read here only by the benchmark harness (benchmarks/e2e/spans.py traces it
# as domain.closed_form_cycle_type) and tests/test_acceptance.py.
from .polya import closed_form_cycle_type

_close_blas_window()  # numpy is loaded: OpenBLAS has read its thread count

KIND_A1 = "A1"
KIND_A2 = "A2"
KIND_AP = "Ap"
KIND_B = "B"

_BLOCK_IMAGES = 1 << 16  # class member images per pass of _induced_blocks
_CYCLE_CHUNK = 1024  # rows per pass of _translation_keys and _count_cycles

@dataclass(frozen=True)
class PairClass:
    kind: str
    label: int
    rep: GroupElement
    members: frozenset[GroupElement]


@dataclass(frozen=True)
class Domain:
    p: int
    classes: tuple[PairClass, ...]
    # element index (see group.element_index) -> class index
    class_of_element: tuple[int, ...]

    def index_of(self, g: GroupElement) -> int:
        return self.class_of_element[element_index(g)]


def a2_labels(p: int) -> list[int]:
    """The p class labels for the b^2 block: one residue out of each pair {l, p-l}."""
    return list(range((p - 1) // 2 + 1)) + list(range(p + 1, (3 * p - 1) // 2 + 1))


@lru_cache(maxsize=None)
def class_members(p: int) -> np.ndarray:
    """The layout as a read-only (4p, 2) intp array: row c holds the element
    indices l*2p + k of class c's members, least first (members[c, 0] is its
    representative); the singleton {a^p} is listed twice."""
    check_odd_prime(p)
    n = 2 * p
    i, l, j = np.arange(1, p), np.array(a2_labels(p)), np.arange(n)
    first = np.concatenate([i, 2 * n + l, [p], n + j])
    second = np.concatenate([n - i, 2 * n + (p - l) % n, [p], 3 * n + (p + j) % n])
    members = np.column_stack([first, second])
    members.flags.writeable = False
    return members


@lru_cache(maxsize=None)
def class_table(p: int) -> np.ndarray:
    """The class of each element index, -1 for the identity: a read-only int16
    array of length 8p inverting class_members(p).  Raises ArithmeticError
    unless the classes cover exactly the non-identity elements, each once."""
    _check_int16_classes(p)
    members = class_members(p)
    counts = np.bincount(np.r_[members[:, 0], members[members[:, 1] != members[:, 0], 1]])
    if counts.max() > 1:
        e = int(counts.argmax())
        raise ArithmeticError(f"element a^{e % (2 * p)} b^{e // (2 * p)} appears in two classes")
    if counts.tolist() != [0] + [1] * (8 * p - 1):
        raise ArithmeticError("classes must cover exactly the non-identity elements")
    table = np.full(8 * p, -1, dtype=np.int16)
    table[members] = np.arange(4 * p, dtype=np.int16)[:, None]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def build_domain(p: int) -> Domain:
    """The object view of class_members(p) and class_table(p): each class
    has the kind of its block, and its representative's power of a as label."""
    check_odd_prime(p)
    kinds = [KIND_A1] * (p - 1) + [KIND_A2] * p + [KIND_AP] + [KIND_B] * 2 * p
    g = all_elements(p)
    classes = tuple(
        PairClass(kind, g[i].k, g[i], frozenset((g[i], g[j])))
        for kind, (i, j) in zip(kinds, class_members(p).tolist())
    )
    return Domain(p, classes, tuple(class_table(p).tolist()))


def induced_permutation(f: Automorphism, d: Domain) -> tuple[int, ...]:
    """Image class index for each class index under f.

    Both members of a class must land in one class (automorphisms commute
    with inversion); a straddle would mean the action is not well defined
    and is raised as a hard error.
    """
    if f.p != d.p:
        raise ValueError(f"mixed group orders: p={f.p} vs p={d.p}")
    images = []
    for cls in d.classes:
        targets = {d.index_of(apply(f, g)) for g in cls.members}
        if len(targets) != 1:
            raise ArithmeticError(f"{f} splits class {cls.rep} across two classes")
        images.append(targets.pop())
    perm = tuple(images)
    if len(set(perm)) != len(perm):
        raise ArithmeticError(f"{f} does not act bijectively on the classes")
    return perm


def _induced_blocks(members, class_of, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The induced permutations of family(alpha, beta), for each (family,
    alpha) of blocks and beta = 0 .. 2p-1, as two stacked int16 arrays: the
    A-halves, one row per block, and the B-halves, one row per map in block
    order, shifted down by 2p.

    The rules of apply are evaluated on both members of every class, a row of
    members, and the images looked up in class_of, the int16 class table.  The
    A classes (even powers of b), whose images do not read beta, are imaged
    for every block in one pass.  A B class member a^k b^l goes to a^(x +
    beta) b^l' with x = k alpha mod 2p, and its images for beta = 0 .. 2p-1
    are one window of row l' of the class table tiled twice, so the B classes
    of many blocks are imaged per pass with no remainder per image, up to
    _BLOCK_IMAGES member images or one block, and written straight into the
    B-halves.  A row is a bijection that keeps the blocks exactly when its
    A-half and its shifted B-half each permute 0 .. 2p-1; _refuse words the
    refusal of the first block, in blocks order, that has a map breaking this.
    """
    p, n = len(members) // 4, len(members) // 2
    # (2, 1, 4p) arrays of l and k, one row per member
    l, k = np.divmod(members.T[:, None], n)
    k_a, l_a, k_b, l_b = k[..., :n], l[..., :n], k[..., n:], l[..., n:]
    alpha = np.array([a for _, a in blocks])[:, None]
    tau = np.array([f != SIGMA for f, _ in blocks])[:, None]
    # both indexed (member, block, class)
    a_images = class_of[l_a * n + (k_a * alpha + (tau & (l_a == 2)) * p) % n]
    starts = np.where(tau, 4 - l_b, l_b) * 2 * n + k_b * alpha % n
    # window s lists the shifted B class of a^(x + beta) b^l' for s = 2n l' + x
    windows = sliding_window_view(np.tile(class_of.reshape(4, n) - np.int16(n), 2).ravel(), n)
    identity = np.arange(n, dtype=np.int16)
    a_halves = a_images[0]
    a_bad = (a_images[1] != a_halves).any(axis=1) | (np.sort(a_halves) != identity).any(axis=1)
    b_halves = np.empty((len(blocks), n, n), dtype=np.int16)
    step = max(1, _BLOCK_IMAGES // (2 * n * n))
    for lo in range(0, len(blocks), step):
        b_images = windows[starts[:, lo : lo + step]]  # (member, block, class, beta)
        out = b_halves[lo : lo + step]
        out[...] = b_images[0].transpose(0, 2, 1)
        bad = (
            a_bad[lo : lo + step]
            | (b_images[1] != b_images[0]).any(axis=(1, 2))
            | (np.sort(out) != identity).any(axis=(1, 2))
        )
        if bad.any():
            i = lo + int(bad.argmax())
            _refuse(members, *blocks[i], a_images[:, i], windows[starts[:, i]])
    return a_halves, b_halves.reshape(-1, n)


def _refuse(members, family: str, alpha: int, a_images, b_images) -> NoReturn:
    """Raise for one block that _induced_blocks found broken, given the
    images of both members of its A classes, (member, class), and of its B
    classes, (member, class, beta).  It checks for a straddled class, then
    for a class sent into the other block, then for a repeated image, and
    names the first beta that shows the first of these; the straddle and
    the repeat are worded as in induced_permutation."""
    n = len(members) // 2
    a_half, b_half = a_images[0], b_images[0].T
    a_split = a_images[1] != a_half
    b_split = (b_images[1] != b_images[0]).T
    if a_split.any() or b_split.any():
        # an A class splits under every beta, and the A classes come first
        b, c = (0, a_split.argmax()) if a_split.any() else np.argwhere(b_split)[0] + (0, n)
        e = members[c, 0]
        raise ArithmeticError(
            f"{family}({alpha},{b}) splits class a^{e % n} b^{e // n} across two classes"
        )
    a_crosses = (a_half >= n).any()
    b_crosses = (b_half < 0).any(axis=1)
    if a_crosses or b_crosses.any():
        # an A class crosses under every beta
        raise ArithmeticError(
            f"{family}({alpha},{0 if a_crosses else b_crosses.argmax()}) "
            "sends a class across the A and B blocks"
        )
    a_repeats = (np.sort(a_half) != np.arange(n)).any()
    b_repeats = (np.sort(b_half, axis=1) != np.arange(n)).any(axis=1)
    raise ArithmeticError(
        f"{family}({alpha},{0 if a_repeats else b_repeats.argmax()}) "
        "does not act bijectively on the classes"
    )


def check_array_memory(p: int) -> None:
    """Refuse a p that is no odd prime or has more classes than an int16
    index holds, then a p whose int16 permutation array, 4p(p-1) by 4p,
    would take more than a quarter of physical memory.  No genuine count
    builds that array: induced_halves and cycle_types peak at 1.29 times
    its size at p = 101 (tracemalloc), and induced_permutations, which
    assembles it from the halves, at 1.77 times, so both stay under half."""
    check_odd_prime(p)
    _check_int16_classes(p)
    need = 2 * (4 * p * (p - 1)) * (4 * p) * 2
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # read on every call
    if need > memory // 2:
        raise ValueError(
            f"p={p} needs {need / 2**20:,.1f} MiB for its int16 permutation and cycle "
            f"arrays, more than half of the {memory / 2**20:,.1f} MiB of physical memory"
        )


@lru_cache(maxsize=None)
def induced_halves(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct half-rows of the induced action, and each map's row among them.

    Every automorphism maps <a, b^2>, the only subgroup of index 2, onto
    itself, so it keeps the A block (classes 0 .. 2p-1, the even powers of
    b) and the B block (2p .. 4p-1, the odd powers): its induced permutation
    is an A-half beside a B-half, and its cycle type is the product of
    theirs as monomials.
    _induced_blocks refuses a map that crosses the blocks.  Returns (a_rows,
    a_ids, b_rows, b_ids): the distinct halves, B shifted down by 2p, in
    order of first occurrence, as read-only int16 arrays; and each map's
    row among them, in enumerate_aut order, as read-only intp arrays.
    """
    check_array_memory(p)
    a_halves, b_halves = _induced_blocks(class_members(p), class_table(p), aut_blocks(p))
    a_rows, block_ids = distinct_rows(a_halves)
    b_rows, b_ids = distinct_rows(b_halves)
    a_ids = np.repeat(block_ids, 2 * p)  # an A-half is shared by the 2p maps of its block
    for array in (a_rows, a_ids, b_rows, b_ids):
        array.flags.writeable = False
    return a_rows, a_ids, b_rows, b_ids


@lru_cache(maxsize=None)
def induced_permutations(p: int) -> np.ndarray:
    """Induced permutation for every enumerated automorphism, in enumeration order.

    A read-only int16 array of shape (4p(p-1), 4p) whose row i equals
    induced_permutation(f, build_domain(p)) for the i-th f of
    enumerate_aut(p), assembled from induced_halves(p).
    """
    a_rows, a_ids, b_rows, b_ids = induced_halves(p)
    perms = np.empty((len(a_ids), 4 * p), dtype=np.int16)
    perms[:, : 2 * p] = a_rows[a_ids]
    np.add(b_rows[b_ids], 2 * p, out=perms[:, 2 * p :])
    perms.flags.writeable = False
    return perms


def cycle_counts(perms) -> tuple[tuple[Monomial, ...], np.ndarray]:
    """Cycle types of the rows of a permutation array, one row per
    translation class decomposed by pointer jumping.

    Returns (types, ids): the distinct cycle types of the rows as
    monomials, in order of first occurrence, and a read-only intp array
    with types[ids[i]] the type of row i.  Rows with equal
    _translation_keys are conjugate, so they share a type: the rows are
    grouped by key, in order of first occurrence, and only the first row of
    each group is decomposed by _count_cycles.
    """
    perms = np.asarray(perms)
    rows, n = perms.shape
    if n > _INT16_MAX:
        raise ValueError(f"{n} points per row: a cycle count must fit in int16")
    keys, group = distinct_rows(_translation_keys(perms))
    # group g first occurs where the running maximum of the group ids reaches g
    first = np.searchsorted(np.maximum.accumulate(group), np.arange(len(keys)))
    distinct, group_types = distinct_rows(_count_cycles(perms[first]))
    ids = group_types[group]
    ids.flags.writeable = False
    types = tuple(tuple((k, c) for k, c in enumerate(row, 1) if c) for row in distinct.tolist())
    return types, ids


def _translation_keys(perms: np.ndarray) -> np.ndarray:
    """A conjugacy key per row of a permutation array on Z_n, as uint16.

    Row pi has the difference sequence d(x) = pi(x) - x mod n.  Its
    conjugate by the translation x -> x + g has the sequence d(x - g), a
    rotation of d, and a row whose d is a rotation of pi's is such a
    conjugate.  The key is d rotated left to start at its first minimum, so
    rows with equal keys are conjugate and have one cycle type.  A d with
    several minima may give a conjugate another key: that only splits a
    group.
    """
    rows, n = perms.shape
    keys = np.empty((rows, n), dtype=np.uint16)
    if not n:  # an empty row has no minimum; all such rows are equal
        return keys
    identity = np.arange(n, dtype=np.int16)
    for lo in range(0, rows, _CYCLE_CHUNK):
        chunk = perms[lo : lo + _CYCLE_CHUNK].astype(np.int16, copy=False)
        r = len(chunk)
        tiled = np.empty((r, 2, n), dtype=np.uint16)  # each row's d, twice
        delta = tiled[:, 0]
        # as uint16 a negative pi(x) - x = -k wraps to 2^16 - k, and adding n
        # wraps it to n - k, while a non-negative one only grows by n
        np.subtract(chunk, identity, out=delta.view(np.int16))
        np.minimum(delta, delta + n, out=delta)
        tiled[:, 1] = delta
        # window [i, s] is d of row i rotated left by s: it reads items s .. s+n-1
        # of that row's 2n, so it stays inside the row
        item = tiled.itemsize
        windows = as_strided(tiled, (r, n, n), (tiled.strides[0], item, item), writeable=False)
        keys[lo : lo + r] = windows[np.arange(r), delta.argmin(axis=1)]
    return keys


def _count_cycles(perms: np.ndarray) -> np.ndarray:
    """The cycle counts of each row of a permutation array, as an int16 array
    with [i, k - 1] the number of k-cycles of row i.

    Each point finds the least point of its cycle in (n-1).bit_length()
    rounds of M = min(M, M[J]); J = J[J]; the points that are their own
    least point lead one cycle each, and the cycle sizes are the numbers of
    points per leader.
    """
    rows, n = perms.shape
    counts = np.zeros((rows, n), dtype=np.int16)
    for lo in range(0, rows, _CYCLE_CHUNK):
        chunk = perms[lo : lo + _CYCLE_CHUNK]
        r = len(chunk)
        # row-local targets as flat indices into the chunk
        jump = (chunk + np.arange(r, dtype=np.intp)[:, None] * n).ravel()
        flat = np.arange(r * n, dtype=np.intp)
        least = flat.copy()
        for _ in range((n - 1).bit_length()):
            np.minimum(least, least[jump], out=least)
            jump = jump[jump]
        leaders = np.flatnonzero(least == flat)
        sizes = np.bincount(least, minlength=r * n)[leaders]
        counts[lo : lo + r] = np.bincount(
            leaders // n * n + sizes - 1, minlength=r * n
        ).reshape(r, n)
    return counts


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in order of first occurrence, and each
    row's index among them: distinct[ids] equals rows.

    A stable argsort of a 1-D view of whole rows as opaque bytes groups equal
    rows.  np.unique would do the same with a flattened copy of the keys on
    top of its sorted one, and with axis=0 it imports numpy.ma.
    """
    rows = np.asarray(rows)
    n_rows, width = rows.shape
    if not width:  # all rows equal, and a zero-size void dtype has no view
        return rows[:1], np.zeros(n_rows, dtype=np.intp)
    if rows.strides[1] != rows.itemsize:  # the view needs each row's items adjacent
        rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * width)))[:, 0]
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.ones(n_rows, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = order[starts]  # a stable sort starts each run of equal rows at its first occurrence
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(n_rows, dtype=np.intp)
    ids[order] = rank[np.cumsum(starts) - 1]
    return rows[np.sort(first)], ids


@lru_cache(maxsize=None)
def cycle_types(p: int) -> tuple[tuple[Monomial, ...], np.ndarray]:
    """cycle_counts of induced_permutations(p), but types need not be distinct.

    A map's type is the product of its halves' types (see induced_halves):
    each distinct half-row is counted once, and each distinct pair of an
    A-type and a B-type multiplied out once.
    """
    a_rows, a_ids, b_rows, b_ids = induced_halves(p)
    (a_types, a_tid), (b_types, b_tid) = cycle_counts(a_rows), cycle_counts(b_rows)
    n_b = len(b_types)
    pairs, ids = np.unique(a_tid[a_ids] * n_b + b_tid[b_ids], return_inverse=True)
    types = tuple(monomial(*a_types[k // n_b], *b_types[k % n_b]) for k in pairs.tolist())
    ids.flags.writeable = False
    return types, ids


def cycle_type_of(perm: tuple[int, ...]) -> dict[int, int]:
    """Multiplicity of each cycle length in the disjoint cycle decomposition."""
    seen = [False] * len(perm)
    counts: dict[int, int] = {}
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts
