"""The paper's claims: cycle-index polynomials, graph counts and cycle types.

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

The closed form writes its monomials as literal tuples that are already
canonical (ascending variable index, every exponent positive); only the
divisor terms with d <= 2, where x_d or x_2d is x_1 or x_2, go through
monomial() to merge.  Equal monomials add up in the weight map.

Counts:  n_total evaluates the closed-form count formula (and must match
the cycle index at 2), n_circulant counts circulant graphs of order 2p,
and n_connected subtracts the disconnected bookkeeping n_circulant^2 + 8.
Both formulas sum one integer numerator over their common denominator
and divide once.  All arithmetic is exact; results are unbounded integers.

Cycle types:  closed_form_cycle_type is the case analysis for one map;
closed_form_cycle_types runs it once per case and gives each map's case,
as domain.cycle_types gives the genuine types that verify compares them with.

Everything here but cycle_index_bruteforce is stdlib only, so count, table,
cycle-index --eval and cycle-types run without numpy; the brute-force cycle
index imports domain (and numpy with it) when first called.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .modular import _check_int16_classes, check_odd_prime, divisors, euler_phi, mult_order
from .autos import SIGMA, Automorphism, aut_blocks

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


@dataclass(frozen=True, eq=True)
class CycleIndexPoly:
    """Polynomial as integer weights over a common order; equality is structural."""

    p: int
    order: int
    weights: Mapping[Monomial, int]

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
        shift = m > 0 and m == 1 << k
        total = 0
        # the closed form lists its largest terms first; adding the small ones
        # first keeps the running sum short until the end
        for mono, w in reversed(self.weights.items()):
            cycles = 0
            for _, e in mono:
                cycles += e
            total += w << k * cycles if shift else w * m**cycles
        value, rest = divmod(total, self.order)
        if rest:
            raise ArithmeticError(
                f"cycle index at {m} is not an integer: {Fraction(total, self.order)} "
                "(corrupted polynomial)"
            )
        return value


def _validate(p: int, weights: dict[Monomial, int]) -> CycleIndexPoly:
    """Weights in units of 1/|Aut|: positive, of weighted degree 4p, summing to |Aut|.

    The weights are stored read-only: both builders are cached, so a
    caller's write would otherwise change every later count at that p.
    """
    aut_order = 4 * p * (p - 1)
    cleaned = {}
    total = 0
    for m, w in weights.items():
        if not w:
            continue
        if w < 0:
            raise ArithmeticError(f"non-positive coefficient {Fraction(w, aut_order)} on {m}")
        degree = 0
        for k, e in m:
            degree += k * e
        if degree != 4 * p:
            raise ArithmeticError(f"monomial {m} has weighted degree != {4 * p}")
        cleaned[m] = w
        total += w
    if total != aut_order:
        raise ArithmeticError("cycle index does not evaluate to 1 at all-ones")
    return CycleIndexPoly(p, aut_order, MappingProxyType(cleaned))


@lru_cache(maxsize=None)
def cycle_index_bruteforce(p: int) -> CycleIndexPoly:
    """Average the monomials of the decomposed induced permutations.

    A cycle type is its monomial (see domain.cycle_types): each type adds
    its number of maps, in units of 1/|Aut|, once.  The decomposition is
    engine work, so numpy and domain load here, on the first call.
    """
    import numpy as np

    from .domain import cycle_types

    check_odd_prime(p)
    types, ids = cycle_types(p)
    weights: dict[Monomial, int] = {}
    for mono, maps in zip(types, np.bincount(ids).tolist()):
        weights[mono] = weights.get(mono, 0) + maps
    return _validate(p, weights)


@lru_cache(maxsize=None)
def cycle_index_closed_form(p: int) -> CycleIndexPoly:
    """Assemble the closed-form expression term by term.

    The 1/(4p) block carries negative monomials; they cancel against the
    d=1 terms of the divisor sums once merged, so positivity is asserted
    only on the final term map.  Monomials are written already canonical:
    1 < 2 < p < 2p, and 2 < d < 2d for d >= 3, with every exponent >= 1.
    Only d <= 2 lets x_d or x_2d fall on x_1 or x_2, so only there does
    monomial() merge.
    """
    check_odd_prime(p)
    # integer weights in units of 1/|Aut|
    weights: dict[Monomial, int] = {}

    def add(weight: int, mono: Monomial) -> None:
        weights[mono] = weights.get(mono, 0) + weight

    quarter_p = p - 1  # 1/(4p) = (p-1)/|Aut|
    half = (p - 1) // 2
    for sign, mono in (
        (-1, ((1, 4 * p),)),
        (-1, ((1, 2 * p), (2, p))),
        (+1, ((1, 2 * p), (p, 2))),
        (+1, ((1, 2 * p), (2 * p, 1))),
        (-1, ((1, p + 1), (2, (3 * p - 1) // 2))),
        (-1, ((1, 3 * p + 1), (2, half))),
        (+1, ((1, p + 1), (2, half), (p, 2))),
        (+1, ((1, p + 1), (2, half), (2 * p, 1))),
    ):
        add(sign * quarter_p, mono)

    base = p  # 1/(4(p-1)) = p/|Aut|
    for d in divisors(p - 1):
        w = base * euler_phi(d)
        q = (p - 1) // d
        terms = [(w, ((1, 4), (d, 4 * q)))]
        if d % 2 == 0:
            terms.append((2 * w, ((1, 2), (2, 1), (d, 4 * q))))
            terms.append((w, ((1, 4), (d, 4 * q))))
        else:
            terms.append((w, ((1, 2), (2, 1), (d, 2 * q), (2 * d, q))))
            terms.append((w, ((1, 2), (2, 1), (d, q), (2 * d, 3 * q // 2))))
            terms.append((w, ((1, 4), (d, 3 * q), (2 * d, q // 2))))
        for weight, mono in terms:
            add(weight, mono if d > 2 else monomial(*mono))
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
    # the four divisor sums over p - 1, in one pass: all d (coefficient 4),
    # even d (8) and the two odd-d groups (2 and 4); q is even when d is odd.
    # Descending d adds the smallest terms, 2^(4q) with q = (p-1)/d, first.
    all_d = even_d = odd_d = odd_d2 = 0
    for d in reversed(divisors(p - 1)):
        phi = euler_phi(d)
        q = (p - 1) // d
        term = phi << 4 * q
        all_d += term
        if d % 2 == 0:
            even_d += term
        else:
            odd_d += phi * ((1 << 3 * q) + (1 << 5 * q // 2))
            odd_d2 += phi << 7 * q // 2
    numerator = (p - 1) * block + 4 * p * (4 * all_d + 8 * even_d + 2 * odd_d + 4 * odd_d2)
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


def _add(counts: dict[int, int], length: int, mult: int) -> None:
    # branches of the case analysis may hit the same length; contributions add
    counts[length] = counts.get(length, 0) + mult


def closed_form_cycle_type(f: Automorphism) -> dict[int, int]:
    """Cycle type of the induced class permutation, by case analysis.

    Cases split on the unit parameter (1 vs not) and, for non-unit 1, on
    the parity of the shift parameter; orbit lengths on the b-block come
    from the order o of the unit in the cyclic unit group of order p-1,
    and g = (p-1)/o.

    Known deviation from the genuine action: the case analysis assumes
    every a-power class orbit under multiplication by the unit has full
    length o, but the classes identify the labels i and -i, so whenever
    some power of the unit is -1 (mod 2p, or mod p on the even labels)
    the genuine orbit is half as long.  Example at p=3: the unit 5 is
    -1 mod 6 and fixes both paired a-power classes, while this formula
    books them as a 2-cycle.  The decomposition in domain is the ground
    truth; callers compare and report, never patch.
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

    o = mult_order(f.alpha, 2 * p)
    g = (p - 1) // o
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
def closed_form_cycle_types(p: int) -> tuple[tuple[Monomial, ...], tuple[int, ...]]:
    """closed_form_cycle_type of every enumerated map, one monomial per case.

    The case analysis reads beta only through which of {0, p, other even,
    other odd} it is, and for alpha != 1 only through its parity, so the
    4p(p-1) maps fall into 4p cases and it runs once per case on a
    representative map.  Returns (types, case) laid out as
    domain.cycle_types(p): one monomial per case, and each map's case, in
    enumerate_aut order.  A p whose classes outgrow int16 is refused, as in domain.
    """
    check_odd_prime(p)
    _check_int16_classes(p)
    # alpha = 1: representatives (other even, other odd, 0, p), picked by the
    # parity of beta, or 2 and 3 for the two special shifts
    special = [b % 2 for b in range(2 * p)]
    special[0], special[p] = 2, 3
    types: list[Monomial] = []
    case: list[int] = []
    for family, alpha in aut_blocks(p):
        base = len(types)
        case += [base + c for c in special] if alpha == 1 else (base, base + 1) * p
        for beta in (2, 1, 0, p) if alpha == 1 else (0, 1):
            f = Automorphism(p, family, alpha, beta)
            types.append(monomial_from_cycle_type(closed_form_cycle_type(f)))
    return tuple(types), tuple(case)


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


def render_cycle_type(counts: dict[int, int]) -> str:
    """Compact multiplicative notation, e.g. "1^2 2^5"."""
    return " ".join(f"{k}^{counts[k]}" for k in sorted(counts))
