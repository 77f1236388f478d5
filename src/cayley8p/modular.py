"""Exact modular arithmetic helpers for the unit group mod 2p.

Everything here is plain integer arithmetic: totients, divisor lists,
multiplicative orders, the smallest primitive root of Z_{2p}^*, discrete
logarithms with respect to it, and the unique-unit solver for
x - alpha*x = t (mod 2p).  p is always validated as an odd prime by
trial division; these routines are meant for desk-scale p.  euler_phi
and divisors are cached, because each closed-form count asks for the
same divisors of p - 1 and their totients; divisors returns a tuple, so
no caller can change a cached result.
"""

from functools import lru_cache
from math import gcd


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> int:
    """Validate p and return it; every public entry point funnels through here."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")
    return p


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Count the units mod n."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def units_mod(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def mult_order(u: int, modulus: int) -> int:
    """Least m >= 1 with u^m = 1 (mod modulus)."""
    if gcd(u, modulus) != 1:
        raise ValueError(f"{u} is not a unit mod {modulus}")
    m = 1
    acc = u % modulus
    while acc != 1:
        acc = acc * u % modulus
        m += 1
    return m


@lru_cache(maxsize=None)
def primitive_root_2p(p: int) -> int:
    """Smallest generator of the cyclic unit group mod 2p (order p-1)."""
    check_odd_prime(p)
    n = 2 * p
    target = p - 1
    for z in range(2, n):
        if gcd(z, n) == 1 and mult_order(z, n) == target:
            return z
    raise ArithmeticError(f"no primitive root mod {n}")  # unreachable for odd prime p


def discrete_log(z: int, u: int, p: int) -> int:
    """Least i >= 0 with z^i = u (mod 2p); z must generate the units."""
    n = 2 * p
    if gcd(u, n) != 1:
        raise ValueError(f"{u} is not a unit mod {n}")
    acc = 1
    for i in range(p - 1):
        if acc == u % n:
            return i
        acc = acc * z % n
    raise ValueError(f"{z} does not generate the units mod {n}")


def unique_x(alpha: int, t: int, p: int) -> int:
    """The unique unit x mod 2p with x - alpha*x = t (mod 2p).

    alpha must be a unit other than 1 and t a nonzero even residue;
    found by exhaustive scan over the p-1 units, asserting exactly one hit.
    """
    check_odd_prime(p)
    n = 2 * p
    if alpha % n == 1 or gcd(alpha, n) != 1:
        raise ValueError(f"alpha must be a unit != 1 mod {n}, got {alpha}")
    if t % 2 != 0 or t % n == 0:
        raise ValueError(f"t must be a nonzero even residue mod {n}, got {t}")
    hits = [x for x in units_mod(n) if (x - alpha * x) % n == t % n]
    if len(hits) != 1:
        raise ArithmeticError(
            f"expected exactly one unit solving x - {alpha}x = {t} mod {n}, got {hits}"
        )
    return hits[0]
