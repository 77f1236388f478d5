"""Self-contained reference model of the order-8p group, built only from
the presentation.  Deliberately imports nothing from the package so the
tests that use it are genuinely independent:

  * elements are plain (k, l) tuples multiplied by the rewrite rules;
  * automorphisms are found by brute search over generator images,
    filtered by a full bijectivity-plus-homomorphism check;
  * inverse-closed classes, induced permutations, orbit counts and the
    connectivity census are derived from those raw maps.

Everything is desk scale (p = 3 mostly) and cached per p.
"""

from collections import deque
from functools import lru_cache
from math import gcd


def norm(p, k, l):
    q, r = divmod(l, 4)
    return ((k + p * q) % (2 * p), r)


def mul(p, x, y):
    k, l = x
    m, n = y
    return norm(p, k + (-1 if l % 2 else 1) * m, l + n)


def elements(p):
    return [(k, l) for l in range(4) for k in range(2 * p)]


def order(p, x):
    acc = x
    n = 1
    while acc != (0, 0):
        acc = mul(p, acc, x)
        n += 1
    return n


def inverse(p, x):
    acc = x
    while mul(p, acc, x) != (0, 0):
        acc = mul(p, acc, x)
    return acc


@lru_cache(maxsize=None)
def automorphism_maps(p):
    """Every automorphism as a dict element -> image, by exhaustive search.

    Candidate images: a must go to an element of order 2p, b to one of
    order 8; each candidate map is built by words a^k b^l and kept only
    if bijective and multiplicative on all pairs.
    """
    elems = elements(p)
    maps = []
    a_images = [x for x in elems if order(p, x) == 2 * p]
    b_images = [x for x in elems if order(p, x) == 8]
    for ia in a_images:
        for ib in b_images:
            img = {}
            for (k, l) in elems:
                v = (0, 0)
                for _ in range(k):
                    v = mul(p, v, ia)
                for _ in range(l):
                    v = mul(p, v, ib)
                img[(k, l)] = v
            if len(set(img.values())) != len(elems):
                continue
            if all(
                img[mul(p, x, y)] == mul(p, img[x], img[y])
                for x in elems
                for y in elems
            ):
                maps.append(img)
    return maps


@lru_cache(maxsize=None)
def inverse_closed_classes(p):
    """Classes {g, g^{-1}} of the non-identity elements, as frozensets."""
    seen = set()
    classes = []
    for x in elements(p):
        if x == (0, 0) or x in seen:
            continue
        c = frozenset((x, inverse(p, x)))
        seen |= c
        classes.append(c)
    return classes


def induced_class_permutations(p):
    """Index permutation of the classes for every automorphism map."""
    classes = inverse_closed_classes(p)
    cidx = {x: i for i, c in enumerate(classes) for x in c}
    perms = []
    for img in automorphism_maps(p):
        perm = tuple(cidx[img[next(iter(c))]] for c in classes)
        assert len(set(perm)) == len(perm)
        perms.append(perm)
    return perms


def circulant_class_permutations(p):
    """The unit permutations of the p inverse-closed classes of Z_2p \\ {0}:
    classes 0 .. p-2 are the pairs {i, 2p-i}, class p-1 the singleton {p}."""
    n = 2 * p

    def class_idx(m):
        m %= n
        return p - 1 if m == p else min(m, n - m) - 1

    reps = list(range(1, p)) + [p]
    return [tuple(class_idx(u * r) for r in reps) for u in range(1, n) if gcd(u, n) == 1]


def burnside_count(p):
    """Orbit count as the average of 2^(number of cycles) over the induced
    class permutations: a permutation with c cycles fixes 2^c masks."""
    perms = induced_class_permutations(p)
    total = 0
    for perm in perms:
        seen = set()
        cycles = 0
        for start in range(len(perm)):
            if start in seen:
                continue
            cycles += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = perm[v]
        total += 2**cycles
    assert total % len(perms) == 0
    return total // len(perms)


def apply_perm_to_mask(mask: int, perm) -> int:
    """Scalar reference image of one mask, which the tests compare the tables against.

    Each target is cast to int, so a row of a fixed-width array shifts as a
    Python integer instead of wrapping.
    """
    img = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            img |= 1 << int(target)
    return img


@lru_cache(maxsize=None)
def orbit_data(p):
    """(orbit count, representatives) via union-find over all masks."""
    perms = induced_class_permutations(p)
    n = len(inverse_closed_classes(p))
    parent = list(range(1 << n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in range(1 << n):
        for perm in perms:
            ra, rb = find(mask), find(apply_perm_to_mask(mask, perm))
            if ra != rb:
                parent[ra] = rb
    reps = {}
    for mask in range(1 << n):
        root = find(mask)
        if root not in reps or mask < reps[root]:
            reps[root] = mask
    return len(reps), sorted(reps.values())


def census(p):
    """(connected, a_only, b_touching) orbit counts by BFS over elements."""
    classes = inverse_closed_classes(p)
    elems = elements(p)
    b_classes = {
        i for i, c in enumerate(classes) if any(l % 2 for (_, l) in c)
    }
    _, reps = orbit_data(p)
    connected = a_only = b_touching = 0
    for mask in reps:
        gens = [x for i in range(len(classes)) if mask >> i & 1 for x in classes[i]]
        seen = {(0, 0)}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for s in gens:
                w = mul(p, s, v)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(elems):
            connected += 1
        elif any(mask >> i & 1 for i in b_classes):
            b_touching += 1
        else:
            a_only += 1
    return connected, a_only, b_touching
