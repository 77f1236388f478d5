"""The 4p-element domain of inverse-closed classes and the action on it.

Every non-identity element g is grouped with its inverse into a class
{g, g^{-1}}.  The classes come in four blocks with a fixed index layout:

    indices 0 .. p-2        pairs {a^i, a^{-i}},        labels i = 1 .. p-1
    indices p-1 .. 2p-2     pairs {a^l b^2, a^{p-l} b^2}, labels
                            l in {0..(p-1)/2} then {p+1..(3p-1)/2}, ascending
    index 2p-1              the singleton {a^p} (the unique involution in <a>)
    indices 2p .. 4p-1      pairs {a^j b, a^{p+j} b^3},  labels j = 0 .. 2p-1

Automorphisms permute these classes.  induced_permutations(p) holds the
induced permutations of all 4p(p-1) maps as the rows of one read-only
int16 array.  Every map keeps the A block (indices 0 .. 2p-1, the even
powers of b) and the B block (2p .. 4p-1, the odd powers), so a row's
cycle type is the sum of its two halves' types.  cycle_types(p) counts
the cycles of each distinct half-row once, in numpy, by pointer jumping
(cycle_counts), and adds the two halves map by map: at p = 31 the 3720
maps have 30 distinct A-halves and 1860 distinct B-halves.  Burnside, the
brute-force cycle index and the verify check all read that one result.
cycle_type_of decomposes a single permutation in Python and stays as the
scalar reference.

The closed-form side has the same layout, stored once per case:
closed_form_cycle_types(p) runs the scalar closed_form_cycle_type on each
of the 4p cases and keeps one int16 row per case and each map's case; the
verify check compares rows[case], and cycle-types renders each case once.

The decomposition is the ground truth; the closed-form case analysis
(closed_form_cycle_type) is compared with it, not assumed equal: it
tracks class labels modulo 2p and misses the orbit shortening caused by
the label identification i ~ -i on the a-power pairs, so it overstates
some cycle lengths.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .autos import SIGMA, Automorphism, aut_blocks, apply
from .group import GroupElement, element_index, inv
from .modular import check_odd_prime, discrete_log, primitive_root_2p

KIND_A1 = "A1"
KIND_A2 = "A2"
KIND_AP = "Ap"
KIND_B = "B"

_INT16_MAX = np.iinfo(np.int16).max


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


def _pair_class(kind: str, label: int, member: GroupElement) -> PairClass:
    other = inv(member)
    members = frozenset((member, other))
    rep = min(members, key=lambda g: (g.l, g.k))
    return PairClass(kind, label, rep, members)


def a2_labels(p: int) -> list[int]:
    """The p class labels for the b^2 block: one residue out of each pair {l, p-l}."""
    return list(range((p - 1) // 2 + 1)) + list(range(p + 1, (3 * p - 1) // 2 + 1))


@lru_cache(maxsize=None)
def build_domain(p: int) -> Domain:
    check_odd_prime(p)
    classes: list[PairClass] = []
    for i in range(1, p):
        classes.append(_pair_class(KIND_A1, i, GroupElement(p, i, 0)))
    for l in a2_labels(p):
        classes.append(_pair_class(KIND_A2, l, GroupElement(p, l, 2)))
    classes.append(_pair_class(KIND_AP, p, GroupElement(p, p, 0)))
    for j in range(2 * p):
        classes.append(_pair_class(KIND_B, j, GroupElement(p, j, 1)))

    lookup = [-1] * (8 * p)
    for ci, cls in enumerate(classes):
        for g in cls.members:
            ei = element_index(g)
            if lookup[ei] != -1:
                raise ArithmeticError(f"element {g} appears in two classes")
            lookup[ei] = ci
    if lookup.count(-1) != 1 or lookup[0] != -1:
        raise ArithmeticError("classes must cover exactly the non-identity elements")
    return Domain(p, tuple(classes), tuple(lookup))


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


def _induced_blocks(d: Domain, blocks):
    """Yield, for each (family, alpha) of blocks, the induced permutations of
    family(alpha, beta) for beta = 0 .. 2p-1 as two halves: the A-half, one
    row of the A block's images shared by every beta, and the B-half, one
    row per beta of the B block's images.

    The rules of apply are evaluated on both members of every class and the
    images looked up in the class table.  The A classes hold even powers of
    b, whose images do not read beta, so they are evaluated once per block;
    the B classes once per map, for a whole block in one numpy pass.  The
    rules keep the parity of the power of b, so a row is a bijection exactly
    when its A-half permutes the A block and its B-half the B block.  A
    straddled class or a repeated image raises exactly as in
    induced_permutation, for the first beta that shows it.
    """
    p, n = d.p, 2 * d.p
    members = [sorted((g.k, g.l) for g in c.members) for c in d.classes]
    # (4p, 2) arrays of k and l; the singleton {a^p} is listed twice
    k, l = np.array([(m * 2)[:2] for m in members]).transpose(2, 0, 1)
    k_a, l_a, k_b, l_b = k[:n], l[:n], k[n:], l[n:]
    class_of = np.array(d.class_of_element)
    beta = np.arange(n)[:, None, None]
    for family, alpha in blocks:
        if family == SIGMA:
            a_images = class_of[l_a * n + k_a * alpha % n]
            l_image = l_b
        else:
            a_images = class_of[l_a * n + (k_a * alpha + np.where(l_a == 2, p, 0)) % n]
            l_image = 4 - l_b
        b_images = class_of[l_image * n + (k_b * alpha + beta) % n]
        a_half, b_half = a_images[:, 0], b_images[..., 0]
        a_split = a_images[:, 1] != a_half
        b_split = b_images[..., 1] != b_half
        if a_split.any() or b_split.any():
            # an A class splits under every beta, and the A classes come first
            b, c = (0, a_split.argmax()) if a_split.any() else np.argwhere(b_split)[0] + (0, n)
            raise ArithmeticError(
                f"{family}({alpha},{b}) splits class {d.classes[c].rep} across two classes"
            )
        a_repeats = (np.sort(a_half) != np.arange(n)).any()
        b_repeats = (np.sort(b_half, axis=1) != np.arange(n, 2 * n)).any(axis=1)
        if a_repeats or b_repeats.any():
            raise ArithmeticError(
                f"{family}({alpha},{0 if a_repeats else b_repeats.argmax()}) "
                "does not act bijectively on the classes"
            )
        yield a_half, b_half


def _check_int16_classes(p: int) -> None:
    if 4 * p > _INT16_MAX:
        raise ValueError(
            f"p={p} has {4 * p} classes, more than an int16 index holds ({_INT16_MAX})"
        )


def check_array_memory(p: int) -> None:
    """Refuse a p whose int16 permutation array, 4p(p-1) by 4p, would take
    more than a quarter of physical memory.  What cycle_types builds from it
    (sorted half-row keys, distinct half-rows and their counts) peaks below
    the array's own size at large p (0.84 of it at p = 101), so the two
    together stay under half."""
    need = 2 * (4 * p * (p - 1)) * (4 * p) * 2
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory // 2:
        raise ValueError(
            f"p={p} needs {need / 2**20:,.1f} MiB for its int16 permutation and cycle "
            f"arrays, more than half of the {memory / 2**20:,.1f} MiB of physical memory"
        )


@lru_cache(maxsize=None)
def induced_permutations(p: int) -> np.ndarray:
    """Induced permutation for every enumerated automorphism, in enumeration order.

    A read-only int16 array of shape (4p(p-1), 4p) whose row i equals
    induced_permutation(f, build_domain(p)) for the i-th f of
    enumerate_aut(p).  It is filled one block of the 2p maps that share
    (family, alpha) at a time, its A-half broadcast over the block.
    """
    check_odd_prime(p)
    _check_int16_classes(p)
    check_array_memory(p)
    n = 2 * p
    blocks = aut_blocks(p)
    perms = np.empty((len(blocks) * n, 4 * p), dtype=np.int16)
    for i, (a_half, b_half) in enumerate(_induced_blocks(build_domain(p), blocks)):
        perms[i * n : (i + 1) * n, :n] = a_half
        perms[i * n : (i + 1) * n, n:] = b_half
    perms.flags.writeable = False
    return perms


_CYCLE_CHUNK = 256  # rows per pointer-jumping pass


def cycle_counts(perms) -> tuple[tuple[int, ...], np.ndarray]:
    """Cycle types of the rows of a permutation array, by pointer jumping.

    Returns (lengths, counts): the cycle lengths that occur in some row,
    ascending, and a read-only int16 array of shape (rows, len(lengths))
    with counts[i, j] cycles of length lengths[j] in row i.  Each point
    finds the least point of its cycle in (n-1).bit_length() rounds of
    M = min(M, M[J]); J = J[J]; the points that are their own least point
    lead one cycle each, and the cycle sizes are the numbers of points per
    leader.
    """
    perms = np.asarray(perms)
    rows, n = perms.shape
    if n > _INT16_MAX:
        raise ValueError(f"{n} points per row: a cycle count must fit in int16")
    counts = np.zeros((rows, n + 1), dtype=np.int16)
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
            leaders // n * (n + 1) + sizes, minlength=r * (n + 1)
        ).reshape(r, n + 1)
    occurring = np.flatnonzero(counts.any(axis=0))
    compact = counts[:, occurring]
    compact.flags.writeable = False
    return tuple(occurring.tolist()), compact


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in order of first occurrence, and each
    row's index among them: distinct[ids] equals rows.

    A stable argsort of a 1-D view of whole rows as opaque bytes groups equal
    rows.  np.unique would do the same with a flattened copy of the keys on
    top of its sorted one, and with axis=0 it imports numpy.ma.
    """
    rows = np.asarray(rows)
    n_rows, width = rows.shape
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


def align_lengths(lengths, own, counts: np.ndarray) -> np.ndarray:
    """Count rows over the cycle lengths own, spread onto the columns of
    lengths, a sorted superset of own; a length a row lacks counts 0."""
    aligned = np.zeros((len(counts), len(lengths)), dtype=np.int16)
    aligned[:, np.searchsorted(lengths, own)] = counts
    return aligned


@lru_cache(maxsize=None)
def cycle_types(p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """cycle_counts of induced_permutations(p): one row per map, enumeration order.

    Every map keeps the A block and the B block, so its cycle type is the
    sum of the cycle types of its two halves.  cycle_counts runs on the
    distinct rows of each half only; the counts go back to every map by its
    row id and the halves add up on the union of their lengths.  A row that
    sends a class across the blocks is refused before any counting.
    """
    perms = induced_permutations(p)
    half = 2 * p
    if (perms[:, :half] >= half).any() or (perms[:, half:] < half).any():
        raise ArithmeticError("an automorphism sends a class across the A and B blocks")
    halves = []
    for offset in (0, half):
        distinct, ids = distinct_rows(perms[:, offset : offset + half])
        own, counts = cycle_counts(distinct - offset)
        halves.append((own, counts[ids]))
    lengths = tuple(sorted({k for own, _ in halves for k in own}))
    (a_own, a_counts), (b_own, b_counts) = halves
    counts = align_lengths(lengths, a_own, a_counts) + align_lengths(lengths, b_own, b_counts)
    counts.flags.writeable = False
    return lengths, counts


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


def _add(counts: dict[int, int], length: int, mult: int) -> None:
    # branches of the case analysis may hit the same length; contributions add
    counts[length] = counts.get(length, 0) + mult


def closed_form_cycle_type(f: Automorphism) -> dict[int, int]:
    """Cycle type of the induced class permutation, by case analysis.

    Cases split on the unit parameter (1 vs not) and, for non-unit 1, on
    the parity of the shift parameter; orbit lengths on the b-block come
    from the order o of the unit in the cyclic unit group via its index
    at the smallest primitive root z: g = gcd(index, p-1), o = (p-1)/g.

    Known deviation from the genuine action: the case analysis assumes
    every a-power class orbit under multiplication by the unit has full
    length o, but the classes identify the labels i and -i, so whenever
    some power of the unit is -1 (mod 2p, or mod p on the even labels)
    the genuine orbit is half as long.  Example at p=3: the unit 5 is
    -1 mod 6 and fixes both paired a-power classes, while this formula
    books them as a 2-cycle.  cycle_type_of(induced_permutation(f, d))
    is the ground truth; callers compare and report, never patch.
    """
    p = f.p
    counts: dict[int, int] = {}
    if f.alpha == 1:
        if f.family == SIGMA:
            if f.beta == 0:
                _add(counts, 1, 4 * p)
            elif f.beta == p:
                _add(counts, 1, 2 * p)
                _add(counts, 2, p)
            elif f.beta % 2 == 0:
                _add(counts, 1, 2 * p)
                _add(counts, p, 2)
            else:
                _add(counts, 1, 2 * p)
                _add(counts, 2 * p, 1)
        else:
            _add(counts, 1, 3 * p + 1 if f.beta == p else p + 1)
            _add(counts, 2, (3 * p - 1) // 2 if f.beta == 0 else (p - 1) // 2)
            if f.beta % 2 == 1 and f.beta != p:
                _add(counts, p, 2)
            elif f.beta % 2 == 0 and f.beta != 0:
                _add(counts, 2 * p, 1)
        return counts

    z = primitive_root_2p(p)
    g = gcd(discrete_log(z, f.alpha, p), p - 1)
    o = (p - 1) // g
    even_shift = f.beta % 2 == 0
    if f.family == SIGMA:
        if even_shift:
            _add(counts, 1, 4)
            _add(counts, o, 4 * g)
        else:
            _add(counts, 1, 2)
            _add(counts, 2, 1)
            if o % 2 == 0:
                _add(counts, o, 4 * g)
            else:
                _add(counts, o, 2 * g)
                _add(counts, 2 * o, g)
    else:
        if even_shift:
            _add(counts, 1, 2)
            _add(counts, 2, 1)
            if o % 2 == 0:
                _add(counts, o, 4 * g)
            else:
                _add(counts, o, g)
                _add(counts, 2 * o, 3 * g // 2)
        else:
            _add(counts, 1, 4)
            if o % 2 == 0:
                _add(counts, o, 4 * g)
            else:
                _add(counts, o, 3 * g)
                _add(counts, 2 * o, g // 2)
    return counts


@lru_cache(maxsize=None)
def closed_form_cycle_types(p: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """closed_form_cycle_type of every enumerated map, one row per case.

    The case analysis reads beta only through which of {0, p, other even,
    other odd} it is, and for alpha != 1 only through its parity, so the
    4p(p-1) maps fall into 4p cases and it runs once per case on a
    representative map.  Returns (lengths, rows, case): the cycle lengths
    that occur, ascending; a read-only int16 array with one row per case,
    laid out as cycle_types(p); and a read-only int16 array giving each
    map's row, in enumerate_aut order.  rows[case] is the per-map array.
    """
    check_odd_prime(p)
    _check_int16_classes(p)  # case numbers are below 4p
    beta = np.arange(2 * p, dtype=np.int16)
    parity = beta % 2
    # alpha = 1: representatives (other even, other odd, 0, p), indexed by
    # parity, plus 2 for the two special shifts
    special = np.where((beta == 0) | (beta == p), parity + 2, parity)
    types, picks = [], []
    for family, alpha in aut_blocks(p):
        reps, pick = ((2, 1, 0, p), special) if alpha == 1 else ((0, 1), parity)
        picks.append(pick + len(types))
        types += [closed_form_cycle_type(Automorphism(p, family, alpha, b)) for b in reps]
    lengths = tuple(sorted({k for t in types for k in t}))
    rows = np.array([[t.get(k, 0) for k in lengths] for t in types], dtype=np.int16)
    case = np.concatenate(picks)
    rows.flags.writeable = case.flags.writeable = False
    return lengths, rows, case


def render_cycle_type(counts: dict[int, int]) -> str:
    """Compact multiplicative notation, e.g. "1^2 2^5"."""
    return " ".join(f"{k}^{counts[k]}" for k in sorted(counts))
