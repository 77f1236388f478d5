"""The automorphism group of the order-8p group, as two parametric families.

Every automorphism is sigma(alpha, beta) or tau(gamma, delta) with the
first parameter a unit mod 2p and the second any residue mod 2p, giving
4p(p-1) maps in total, in the order aut_blocks fixes; every per-map array
of the package follows it.  Maps are stored as parameters.
"""

from dataclasses import dataclass
from math import gcd

from .group import GroupElement, _check_params, all_elements
from .modular import check_odd_prime, units_mod

SIGMA = "sigma"
TAU = "tau"


@dataclass(frozen=True, order=True)
class Automorphism:
    """family is "sigma" or "tau"; alpha is the unit parameter, beta the shift."""

    p: int
    family: str
    alpha: int
    beta: int

    def __post_init__(self):
        n = 2 * _check_params(self.p, alpha=self.alpha, beta=self.beta)
        if self.family not in (SIGMA, TAU):
            raise ValueError(f"unknown family {self.family!r}")
        if not (0 < self.alpha < n and gcd(self.alpha, n) == 1):
            raise ValueError(f"alpha must be a unit mod {n}, got {self.alpha}")
        if not (0 <= self.beta < n):
            raise ValueError(f"beta must be a residue mod {n}, got {self.beta}")

    def __str__(self) -> str:
        return f"{self.family}({self.alpha},{self.beta})"


def aut_blocks(p: int) -> list[tuple[str, int]]:
    """The (family, alpha) of each run of 2p maps, beta = 0 .. 2p-1 within a run:
    the one definition of the map order, sigma then tau, alpha ascending."""
    check_odd_prime(p)
    return [(family, alpha) for family in (SIGMA, TAU) for alpha in units_mod(2 * p)]


def enumerate_aut(p: int) -> list[Automorphism]:
    """All 4p(p-1) automorphisms in aut_blocks order, beta ascending within a run."""
    return [Automorphism(p, f, alpha, beta) for f, alpha in aut_blocks(p) for beta in range(2 * p)]


def apply(f: Automorphism, g: GroupElement) -> GroupElement:
    """Image of a^k b^l under f, by the per-power-of-b closed forms.

    sigma(alpha,beta): a^i -> a^{i alpha}; a^i b -> a^{i alpha + beta} b;
                       a^i b^2 -> a^{i alpha} b^2; a^i b^3 -> a^{i alpha + beta} b^3.
    tau(gamma,delta):  a^i -> a^{i gamma}; a^i b -> a^{i gamma + delta} b^3;
                       a^i b^2 -> a^{i gamma + p} b^2; a^i b^3 -> a^{i gamma + delta} b.
    """
    if f.p != g.p:
        raise ValueError(f"mixed group orders: p={f.p} vs p={g.p}")
    p = f.p
    n = 2 * p
    k, l = g.k, g.l
    if f.family == SIGMA:
        shift = f.beta if l % 2 else 0
        return GroupElement(p, (k * f.alpha + shift) % n, l)
    if l == 0:
        return GroupElement(p, k * f.alpha % n, 0)
    if l == 2:
        return GroupElement(p, (k * f.alpha + p) % n, 2)
    return GroupElement(p, (k * f.alpha + f.beta) % n, 4 - l)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """The enumerated automorphism equal to x -> f(g(x)).

    The candidate parameters follow from chasing the generator images;
    the result is then verified pointwise on all 8p elements, so a wrong
    candidate surfaces as a hard error rather than a silent corruption.
    """
    if f.p != g.p:
        raise ValueError(f"mixed group orders: p={f.p} vs p={g.p}")
    n = 2 * f.p
    family = SIGMA if f.family == g.family else TAU
    candidate = Automorphism(
        f.p, family, f.alpha * g.alpha % n, (f.alpha * g.beta + f.beta) % n
    )
    for x in all_elements(f.p):
        if apply(candidate, x) != apply(f, apply(g, x)):
            raise ArithmeticError(
                f"composition {f} . {g} does not match any enumerated map"
            )
    return candidate
