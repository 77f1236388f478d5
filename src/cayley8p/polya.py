"""Cycle-index polynomials and the closed-form graph counts.

The cycle index of the automorphism action on the 4p classes is built
two independent ways: by averaging brute-force cycle types over all
4p(p-1) maps, and from the closed-form expression (one 1/(4p) block of
eight signed monomials plus four divisor sums weighted 1/(4(p-1))).
Both count in units of 1/|Aut|: a polynomial is an integer weight per
monomial over the order |Aut|, and `terms` shows the same polynomial as
exact fractions.  The verification layer compares the two term by term
and reports any disagreement instead of hiding it.  evaluate sums
integers, shifting instead of raising to a power when m is a power of
two, and divides once by |Aut|.

Counts:  n_total evaluates the closed-form count formula (and must match
the cycle index at 2), n_circulant counts circulant graphs of order 2p,
and n_connected subtracts the disconnected bookkeeping n_circulant^2 + 8.
Both formulas sum one integer numerator over their common denominator
and divide once.  All arithmetic is exact; results are unbounded integers.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    """Polynomial as integer weights over a common order; equality is structural."""

    p: int
    order: int
    weights: dict[Monomial, int]

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The same polynomial with exact-rational coefficients."""
        return {mono: Fraction(w, self.order) for mono, w in self.weights.items()}

    def evaluate(self, m: int) -> int:
        """Substitute every variable by m; the result must be an integer.

        Each term adds weight * m^e, e its number of cycles, and one
        division by the order ends the sum.  For m = 2^k the power is a
        shift by k*e bits.
        """
        k = m.bit_length() - 1
        if m > 0 and m == 1 << k:
            total = sum(w << k * sum(e for _, e in mono) for mono, w in self.weights.items())
        else:
            total = sum(w * m ** sum(e for _, e in mono) for mono, w in self.weights.items())
        value, rest = divmod(total, self.order)
        if rest:
            raise ArithmeticError(
                f"cycle index at {m} is not an integer: {Fraction(total, self.order)} "
                "(corrupted polynomial)"
            )
        return value


def _validate(p: int, weights: dict[Monomial, int]) -> CycleIndexPoly:
    """Weights in units of 1/|Aut|: positive, of weighted degree 4p, summing to |Aut|."""
    aut_order = 4 * p * (p - 1)
    cleaned = {m: w for m, w in weights.items() if w}
    for m, w in cleaned.items():
        if w < 0:
            raise ArithmeticError(f"non-positive coefficient {Fraction(w, aut_order)} on {m}")
        if weighted_degree(m) != 4 * p:
            raise ArithmeticError(f"monomial {m} has weighted degree != {4 * p}")
    if sum(cleaned.values()) != aut_order:
        raise ArithmeticError("cycle index does not evaluate to 1 at all-ones")
    return CycleIndexPoly(p, aut_order, cleaned)


@lru_cache(maxsize=None)
def cycle_index_bruteforce(p: int) -> CycleIndexPoly:
    """Average the monomials of the decomposed induced permutations.

    Maps with the same cycle type share one monomial; each distinct type
    adds its number of maps, in units of 1/|Aut|, once.
    """
    check_odd_prime(p)
    lengths, counts = cycle_types(p)
    weights = {
        tuple((k, e) for k, e in zip(lengths, row) if e): maps
        for row, maps in Counter(map(tuple, counts.tolist())).items()
    }
    return _validate(p, weights)


@lru_cache(maxsize=None)
def cycle_index_closed_form(p: int) -> CycleIndexPoly:
    """Assemble the closed-form expression term by term.

    The 1/(4p) block carries negative monomials; they cancel against the
    d=1 terms of the divisor sums once merged, so positivity is asserted
    only on the final term map.
    """
    check_odd_prime(p)
    # integer weights in units of 1/|Aut|
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
    return _validate(p, weights)


@lru_cache(maxsize=None)
def n_total(p: int) -> int:
    """Closed-form count of all graphs, kept in the grouped shape of its source.

    The 1/(4p) block and the four 1/(p-1) divisor sums add into one
    numerator over |Aut| = 4p(p-1), asserted divisible; count_report
    checks the result against the closed-form cycle index at 2.
    """
    check_odd_prime(p)
    aut_order = 4 * p * (p - 1)
    block = (  # over 4p
        -(1 << (4 * p))
        + (1 << (2 * p)) * (-(1 << p) + 6)
        - (1 << ((5 * p + 1) // 2))
        + (1 << ((p - 1) // 2)) * (-(1 << (3 * p + 1)) + (1 << (p + 3)) + (1 << (p + 2)))
    )
    # the divisor sums, each over p - 1
    ds = divisors(p - 1)
    all_d = 4 * sum(euler_phi(d) << (4 * (p - 1) // d) for d in ds)
    even_d = 8 * sum(euler_phi(d) << (4 * (p - 1) // d) for d in ds if d % 2 == 0)
    odd_d = 2 * sum(
        euler_phi(d) * ((1 << (3 * (p - 1) // d)) + (1 << (5 * (p - 1) // (2 * d))))
        for d in ds
        if d % 2 == 1
    )
    odd_d2 = 4 * sum(euler_phi(d) << (7 * (p - 1) // (2 * d)) for d in ds if d % 2 == 1)
    numerator = (p - 1) * block + 4 * p * (all_d + even_d + odd_d + odd_d2)
    total, rest = divmod(numerator, aut_order)
    if rest:
        raise ArithmeticError(
            f"count formula gave non-integer {Fraction(numerator, aut_order)} at p={p}"
        )
    return total


@lru_cache(maxsize=None)
def n_circulant(p: int) -> int:
    """Closed-form count of circulant graphs of order 2p."""
    check_odd_prime(p)
    numerator = 2 * sum(euler_phi(d) << ((p - 1) // d) for d in divisors(p - 1))
    total, rest = divmod(numerator, p - 1)
    if rest:
        raise ArithmeticError(
            f"circulant formula gave non-integer {Fraction(numerator, p - 1)} at p={p}"
        )
    return total


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
