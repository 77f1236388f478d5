"""Arithmetic in the order-8p group <a, b | a^{2p} = b^8 = e, a^p = b^4, b a b^{-1} = a^{-1}>.

Every element has the unique normal form a^k b^l with 0 <= k < 2p and
0 <= l < 4 (powers b^4 and beyond are rewritten through b^4 = a^p).
Also provides the order-8p presentation <x, b | x^p = 1, b^8 = 1,
b^{-1} x b = x^{-1}> and the explicit isomorphism between the two, used
as a structural cross-check.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .modular import check_odd_prime


def _check_params(p: int, **ints) -> int:
    """check_odd_prime(p), then refuse, as it refuses such a p, any of the
    other values that is not an int or that is a bool; returns p."""
    check_odd_prime(p)
    for name, value in ints.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    return p


@dataclass(frozen=True, order=True)
class GroupElement:
    """Normal form a^k b^l; p is carried so cross-p arithmetic is rejected."""

    p: int
    k: int
    l: int

    def __post_init__(self):
        _check_params(self.p, k=self.k, l=self.l)
        if not (0 <= self.k < 2 * self.p and 0 <= self.l < 4):
            raise ValueError(f"not in normal form: k={self.k}, l={self.l}, p={self.p}")

    def __str__(self) -> str:
        return f"a^{self.k} b^{self.l}"


def identity(p: int) -> GroupElement:
    return GroupElement(p, 0, 0)


def _same_p(x: GroupElement, y: GroupElement) -> int:
    if x.p != y.p:
        raise ValueError(f"mixed group orders: p={x.p} vs p={y.p}")
    return x.p


def mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """(a^k b^l)(a^m b^n): the middle b^l a^m commutes to a^{(-1)^l m} b^l."""
    p = _same_p(x, y)
    sign = -1 if x.l % 2 else 1
    k = x.k + sign * y.k
    l = x.l + y.l
    if l < 4:
        return GroupElement(p, k % (2 * p), l)
    return GroupElement(p, (k + p) % (2 * p), l - 4)


def inv(x: GroupElement) -> GroupElement:
    """Closed-form inverses per power of b."""
    p, k, l = x.p, x.k, x.l
    n = 2 * p
    if l == 0:
        return GroupElement(p, -k % n, 0)
    if l == 1:
        return GroupElement(p, (k + p) % n, 3)
    if l == 2:
        return GroupElement(p, (p - k) % n, 2)
    return GroupElement(p, (k + p) % n, 1)


def element_order(x: GroupElement) -> int:
    """Order of x, by closed form cross-checked against iterated multiplication.

    Closed forms: o(a^i) = 2p/gcd(i,2p); o(a^i b^2) = lcm(2p/gcd(i,2p), 4);
    odd powers of b always have order 8.
    """
    p = x.p
    if x.l == 0:
        closed = (2 * p) // gcd(x.k, 2 * p)
    elif x.l == 2:
        closed = lcm((2 * p) // gcd(x.k, 2 * p), 4)
    else:
        closed = 8
    e = identity(p)
    acc = x
    iterated = 1
    while acc != e:
        acc = mul(acc, x)
        iterated += 1
        if iterated > 8 * p:
            raise ArithmeticError(f"order of {x} did not terminate")
    if closed != iterated:
        raise ArithmeticError(
            f"order mismatch for {x}: closed form {closed}, iterated {iterated}"
        )
    return closed


def all_elements(p: int) -> list[GroupElement]:
    """All 8p elements in index order (see element_index)."""
    check_odd_prime(p)
    return [GroupElement(p, k, l) for l in range(4) for k in range(2 * p)]


def element_index(x: GroupElement) -> int:
    """Position of x in all_elements(p): l*2p + k."""
    return x.l * 2 * x.p + x.k


@lru_cache(maxsize=None)
def mul_table(p: int) -> tuple[tuple[int, ...], ...]:
    """8p x 8p table of element indices l*2p + k: table[i][j] = index of
    elem_i * elem_j by mul's rule, as tuples of ints for fast scalar lookups."""
    check_odd_prime(p)
    n = 2 * p
    table = []
    for x in range(4 * n):
        l, k = divmod(x, n)
        sign = -1 if l % 2 else 1
        row: list[int] = []
        for m in range(4):
            wrap = l + m >= 4  # b^4 = a^p
            start, k_shift = (l + m - 4 * wrap) * n, k + p * wrap
            row += [start + (k_shift + sign * j) % n for j in range(n)]
        table.append(tuple(row))
    return tuple(table)


# ---------- the order-8p presentation on <x, b> and the isomorphism ----------


@dataclass(frozen=True, order=True)
class GElement:
    """Normal form x^i b^j with 0 <= i < p, 0 <= j < 8."""

    p: int
    i: int
    j: int

    def __post_init__(self):
        _check_params(self.p, i=self.i, j=self.j)
        if not (0 <= self.i < self.p and 0 <= self.j < 8):
            raise ValueError(f"not in normal form: i={self.i}, j={self.j}, p={self.p}")

    def __str__(self) -> str:
        return f"x^{self.i} b^{self.j}"


def g_mul(x: GElement, y: GElement) -> GElement:
    """(x^i b^j)(x^m b^n) = x^{i + (-1)^j m} b^{j+n}."""
    if x.p != y.p:
        raise ValueError(f"mixed group orders: p={x.p} vs p={y.p}")
    sign = -1 if x.j % 2 else 1
    return GElement(x.p, (x.i + sign * y.i) % x.p, (x.j + y.j) % 8)


def iso_f(x: GroupElement) -> GElement:
    """The bijective homomorphism a^k b^l -> x^i b^j.

    Even k maps to x^{k/2} b^l; odd k maps to x^{(k-p)/2 mod p} b^{l+4}
    (k - p is even because p is odd).
    """
    p = x.p
    if x.k % 2 == 0:
        return GElement(p, (x.k // 2) % p, x.l)
    return GElement(p, ((x.k - p) // 2) % p, x.l + 4)
