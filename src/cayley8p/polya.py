"""Cycle-index polynomials and the closed-form graph counts.

The cycle index of the automorphism action on the 4p classes is built
two independent ways: by averaging brute-force cycle types over all
4p(p-1) maps, and from the closed-form expression (one 1/(4p) block of
eight signed monomials plus four divisor sums weighted 1/(4(p-1))).
Both are exact-rational term maps; the verification layer compares them
term by term and reports any disagreement instead of hiding it.  The
closed form adds integer weights in units of 1/|Aut| and makes one
Fraction per monomial; evaluate sums integers over the common denominator
of the coefficients and divides once.

Counts:  n_total evaluates the closed-form count formula (and must match
the cycle index at 2), n_circulant counts circulant graphs of order 2p,
and n_connected subtracts the disconnected bookkeeping n_circulant^2 + 8.
All arithmetic is exact; results are unbounded integers.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .domain import cycle_types
from .modular import check_odd_prime, divisors, euler_phi

# a monomial is a tuple of (variable index, exponent) pairs, ascending by index
Monomial = tuple[tuple[int, int], ...]


def monomial(*pairs: tuple[int, int]) -> Monomial:
    """Canonicalize (index, exponent) pairs: merge repeats, drop zeros, sort."""
    merged: dict[int, int] = {}
    for k, e in pairs:
        if e:
            merged[k] = merged.get(k, 0) + e
    return tuple(sorted(merged.items()))


def monomial_from_cycle_type(counts: dict[int, int]) -> Monomial:
    return monomial(*counts.items())


def weighted_degree(m: Monomial) -> int:
    return sum(k * e for k, e in m)


@dataclass(frozen=True, eq=True)
class CycleIndexPoly:
    """Exact-rational polynomial as a term map; equality is structural."""

    p: int
    terms: dict[Monomial, Fraction]

    def evaluate(self, m: int):
        """Substitute every variable by m; the result must be an integer.

        The sum runs in integers over the common denominator D of the
        coefficients: each term adds numerator * (D / denominator) * m^e,
        e its number of cycles, and one division by D ends it.
        """
        common = lcm(*(c.denominator for c in self.terms.values()))
        total = sum(
            c.numerator * (common // c.denominator) * m ** sum(e for _, e in mono)
            for mono, c in self.terms.items()
        )
        value, rest = divmod(total, common)
        if rest:
            raise ArithmeticError(
                f"cycle index at {m} is not an integer: {Fraction(total, common)} "
                "(corrupted polynomial)"
            )
        return value


def _validate(p: int, terms: dict[Monomial, Fraction]) -> CycleIndexPoly:
    cleaned = {m: c for m, c in terms.items() if c != 0}
    for m, c in cleaned.items():
        if c <= 0:
            raise ArithmeticError(f"non-positive coefficient {c} on {m}")
        if weighted_degree(m) != 4 * p:
            raise ArithmeticError(f"monomial {m} has weighted degree != {4 * p}")
    poly = CycleIndexPoly(p, cleaned)
    if poly.evaluate(1) != 1:
        raise ArithmeticError("cycle index does not evaluate to 1 at all-ones")
    return poly


@lru_cache(maxsize=None)
def cycle_index_bruteforce(p: int) -> CycleIndexPoly:
    """Average the monomials of the decomposed induced permutations.

    Maps with the same cycle type share one monomial; each distinct type
    adds (its number of maps) / |Aut| once.
    """
    check_odd_prime(p)
    aut_order = 4 * p * (p - 1)
    lengths, counts = cycle_types(p)
    terms = {
        tuple((k, e) for k, e in zip(lengths, row) if e): Fraction(maps, aut_order)
        for row, maps in Counter(map(tuple, counts.tolist())).items()
    }
    return _validate(p, terms)


@lru_cache(maxsize=None)
def cycle_index_closed_form(p: int) -> CycleIndexPoly:
    """Assemble the closed-form expression term by term.

    The 1/(4p) block carries negative monomials; they cancel against the
    d=1 terms of the divisor sums once merged, so positivity is asserted
    only on the final term map.
    """
    check_odd_prime(p)
    aut_order = 4 * p * (p - 1)
    # integer weights in units of 1/|Aut|; one Fraction per monomial at the end
    weights: dict[Monomial, int] = {}

    def add(weight: int, mono: Monomial) -> None:
        weights[mono] = weights.get(mono, 0) + weight

    quarter_p = p - 1  # 1/(4p) = (p-1)/|Aut|
    half = (p - 1) // 2
    for sign, mono in (
        (-1, monomial((1, 4 * p))),
        (-1, monomial((1, 2 * p), (2, p))),
        (+1, monomial((1, 2 * p), (p, 2))),
        (+1, monomial((1, 2 * p), (2 * p, 1))),
        (-1, monomial((1, p + 1), (2, (3 * p - 1) // 2))),
        (-1, monomial((1, 3 * p + 1), (2, half))),
        (+1, monomial((1, p + 1), (2, half), (p, 2))),
        (+1, monomial((1, p + 1), (2, half), (2 * p, 1))),
    ):
        add(sign * quarter_p, mono)

    base = p  # 1/(4(p-1)) = p/|Aut|
    for d in divisors(p - 1):
        w = base * euler_phi(d)
        q = (p - 1) // d
        add(w, monomial((1, 4), (d, 4 * q)))
        if d % 2 == 0:
            add(2 * w, monomial((1, 2), (2, 1), (d, 4 * q)))
            add(w, monomial((1, 4), (d, 4 * q)))
        else:
            add(w, monomial((1, 2), (2, 1), (d, 2 * q), (2 * d, q)))
            add(w, monomial((1, 2), (2, 1), (d, q), (2 * d, 3 * q // 2)))
            add(w, monomial((1, 4), (d, 3 * q), (2 * d, q // 2)))
    return _validate(p, {mono: Fraction(w, aut_order) for mono, w in weights.items()})


@lru_cache(maxsize=None)
def n_total(p: int) -> int:
    """Closed-form count of all graphs, kept in the grouped shape of its source.

    Evaluated with exact rationals and asserted integral; count_report
    checks it against the closed-form cycle index at 2.
    """
    check_odd_prime(p)
    block = Fraction(
        -(2 ** (4 * p))
        + 2 ** (2 * p) * (-(2**p) + 6)
        - 2 ** ((5 * p + 1) // 2)
        + 2 ** ((p - 1) // 2) * (-(2 ** (3 * p + 1)) + 2 ** (p + 3) + 2 ** (p + 2)),
        4 * p,
    )
    ds = divisors(p - 1)
    all_d = Fraction(4, p - 1) * sum(
        euler_phi(d) * 2 ** (4 * (p - 1) // d) for d in ds
    )
    even_d = Fraction(8, p - 1) * sum(
        euler_phi(d) * 2 ** (4 * (p - 1) // d) for d in ds if d % 2 == 0
    )
    odd_d = Fraction(2, p - 1) * sum(
        euler_phi(d) * (2 ** (3 * (p - 1) // d) + 2 ** (5 * (p - 1) // (2 * d)))
        for d in ds
        if d % 2 == 1
    )
    odd_d2 = Fraction(4, p - 1) * sum(
        euler_phi(d) * 2 ** (7 * (p - 1) // (2 * d)) for d in ds if d % 2 == 1
    )
    total = block + all_d + even_d + odd_d + odd_d2
    if total.denominator != 1:
        raise ArithmeticError(f"count formula gave non-integer {total} at p={p}")
    return total.numerator


@lru_cache(maxsize=None)
def n_circulant(p: int) -> int:
    """Closed-form count of circulant graphs of order 2p."""
    check_odd_prime(p)
    total = Fraction(2, p - 1) * sum(
        euler_phi(d) * 2 ** ((p - 1) // d) for d in divisors(p - 1)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"circulant formula gave non-integer {total} at p={p}")
    return total.numerator


def n_connected(p: int) -> int:
    """Connected count by the subtraction identity: total - circulant^2 - 8."""
    return n_total(p) - n_circulant(p) ** 2 - 8


@dataclass
class CountReport:
    """The claimed counts for one p; methods holds the two claimed routes to
    n_total, closed_form and cycle_index_eval (the closed-form cycle index at 2)."""

    p: int
    aut_order: int
    n_total: int
    n_circulant: int
    n_connected: int
    methods: dict[str, int]


def count_report(p: int) -> CountReport:
    """The claimed counts; two claimed routes to n_total that differ raise."""
    check_odd_prime(p)
    total = n_total(p)
    at_two = cycle_index_closed_form(p).evaluate(2)
    if total != at_two:
        raise ArithmeticError(
            f"claimed routes to n_total differ at p={p}: "
            f"closed_form {total} vs cycle_index_eval {at_two}"
        )
    return CountReport(
        p=p,
        aut_order=4 * p * (p - 1),
        n_total=total,
        n_circulant=n_circulant(p),
        n_connected=n_connected(p),
        methods={"closed_form": total, "cycle_index_eval": at_two},
    )


# ---------- rendering ----------


def render_monomial(m: Monomial) -> str:
    return "".join(f"x{k}^{e}" for k, e in m)


def _term_sort_key(item: tuple[Monomial, Fraction]):
    mono, _ = item
    exp1 = dict(mono).get(1, 0)
    return (-exp1, mono)


def render_poly(poly: CycleIndexPoly) -> str:
    """Readable sum, highest power of x1 first, e.g. "1/24·x1^12 + ...”."""
    parts = []
    for mono, coeff in sorted(poly.terms.items(), key=_term_sort_key):
        frac = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
        parts.append(f"{frac}·{render_monomial(mono)}")
    return " + ".join(parts)


def poly_records(poly: CycleIndexPoly) -> list[dict]:
    """Structured term list for machine-readable output."""
    return [
        {
            "coeff_num": coeff.numerator,
            "coeff_den": coeff.denominator,
            "monomial": [[k, e] for k, e in mono],
        }
        for mono, coeff in sorted(poly.terms.items(), key=_term_sort_key)
    ]
