"""Cycle-index polynomials, closed-form counts, and the count report."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from cayley8p import cli, polya
from cayley8p.autos import enumerate_aut
from cayley8p.domain import build_domain, cycle_type_of, induced_permutation
from cayley8p.modular import divisors, euler_phi, is_odd_prime
from cayley8p.polya import (
    CycleIndexPoly,
    count_report,
    cycle_index_bruteforce,
    cycle_index_closed_form,
    monomial,
    monomial_from_cycle_type,
    n_circulant,
    n_connected,
    n_total,
    poly_records,
    render_monomial,
    render_poly,
)

PRIMES = (3, 5, 7, 11, 13)

# counts produced by the closed forms
TOTALS = {3: 432, 5: 18144, 7: 1824384, 11: 41253667584, 13: 7330997009984}
CIRCULANTS = {3: 6, 5: 12, 7: 28, 11: 216, 13: 704}
CONNECTED = {3: 388, 5: 17992, 7: 1823592, 11: 41253620920, 13: 7330996514360}

# the brute-force cycle index at 2 equals the Burnside average of the
# genuine action, which is strictly larger for every p
BRUTE_AT_TWO = {3: 624, 5: 25152, 7: 2111232, 11: 41916787200, 13: 7365876904064}


def test_monomial_canonicalization():
    assert monomial((2, 1), (1, 3)) == ((1, 3), (2, 1))
    assert monomial((1, 2), (1, 3)) == ((1, 5),)
    assert monomial((1, 0), (2, 4)) == ((2, 4),)
    assert monomial() == ()
    assert monomial_from_cycle_type({2: 5, 1: 2}) == ((1, 2), (2, 5))


def test_polynomials_are_valid():
    for p in PRIMES:
        for poly in (cycle_index_bruteforce(p), cycle_index_closed_form(p)):
            assert poly.evaluate(1) == 1
            assert sum(poly.terms.values()) == 1
            for mono, coeff in poly.terms.items():
                assert coeff > 0
                assert sum(k * e for k, e in mono) == 4 * p
                assert (4 * p * (p - 1)) % coeff.denominator == 0


def test_identity_term_coefficient():
    for p in PRIMES:
        mono = monomial((1, 4 * p))
        want = Fraction(1, 4 * p * (p - 1))
        assert cycle_index_bruteforce(p).terms[mono] == want
        assert cycle_index_closed_form(p).terms[mono] == want


def test_closed_form_count_values():
    for p in PRIMES:
        assert n_total(p) == TOTALS[p]
        assert n_circulant(p) == CIRCULANTS[p]
        assert n_connected(p) == CONNECTED[p]
        assert n_connected(p) == n_total(p) - n_circulant(p) ** 2 - 8


def test_closed_form_poly_matches_count_formula():
    for p in PRIMES:
        assert cycle_index_closed_form(p).evaluate(2) == n_total(p)


def test_bruteforce_poly_at_two():
    for p in PRIMES:
        assert cycle_index_bruteforce(p).evaluate(2) == BRUTE_AT_TWO[p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bruteforce_weights_are_a_per_map_monomial_tally(p):
    """Each map adds one to the weight of its own monomial, from the scalar decomposition."""
    d = build_domain(p)
    tally = Counter(
        monomial_from_cycle_type(cycle_type_of(induced_permutation(f, d)))
        for f in enumerate_aut(p)
    )
    assert cycle_index_bruteforce(p).weights == dict(tally)


def test_the_two_polynomials_disagree():
    """The paths differ on a frozen number of terms (the folded a-power
    orbits), while agreeing on the term count and summing to 1 each."""
    differing = {3: 4, 5: 10, 7: 12, 11: 12, 13: 20}
    term_count = {3: 9, 5: 12, 7: 16, 11: 16, 13: 20}
    for p in PRIMES:
        b = cycle_index_bruteforce(p)
        c = cycle_index_closed_form(p)
        assert len(b.terms) == len(c.terms) == term_count[p]
        diff = {
            m
            for m in set(b.terms) | set(c.terms)
            if b.terms.get(m) != c.terms.get(m)
        }
        assert len(diff) == differing[p]
        assert b.terms != c.terms


def _fraction_sum(poly: CycleIndexPoly, m: int) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = 1
        for _, e in mono:
            value *= m**e
        total += coeff * value
    return total


def test_evaluate_matches_a_fraction_sum():
    for p in PRIMES:
        for poly in (cycle_index_bruteforce(p), cycle_index_closed_form(p)):
            for m in (-2, -1, 0, 1, 2, 3, 4):
                want = _fraction_sum(poly, m)
                assert want.denominator == 1
                assert poly.evaluate(m) == want.numerator


def test_evaluate_rejects_non_integer():
    poly = CycleIndexPoly(3, 6, {monomial((1, 1)): 1})  # x1/6, worth 1/3 at 2
    with pytest.raises(ArithmeticError, match="cycle index at 2 is not an integer: 1/3"):
        poly.evaluate(2)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda w: w | {monomial((1, 12)): -1}, "non-positive coefficient -1/24"),
        (lambda w: w | {monomial((1, 11)): 1}, "weighted degree != 12"),
        (lambda w: w | {monomial((1, 12)): 2}, "does not evaluate to 1 at all-ones"),
    ],
)
def test_validate_refuses_a_corrupted_polynomial(change, message):
    weights = cycle_index_closed_form(3).weights
    assert polya._validate(3, dict(weights)).weights == weights
    with pytest.raises(ArithmeticError, match=message):
        polya._validate(3, change(weights))


def test_cached_polynomials_are_read_only():
    for poly in (cycle_index_closed_form(3), cycle_index_bruteforce(3)):
        mono = next(iter(poly.weights))
        with pytest.raises(TypeError):
            poly.weights[mono] += 24
        with pytest.raises(AttributeError):
            poly.weights.clear()
    assert cli.main(["count", "--p", "3"]) == 0
    assert cli.main(["verify", "--p", "3"]) == 0


def test_count_formulas_refuse_a_non_integer_result(monkeypatch):
    """With phi(1) = 2, both numerators at p = 11 miss a multiple of their denominator."""
    monkeypatch.setattr(polya, "euler_phi", lambda d: 2 if d == 1 else euler_phi(d))
    try:
        n_total.cache_clear()
        n_circulant.cache_clear()
        with pytest.raises(ArithmeticError, match="non-integer 2475118366464/5 at p=11"):
            n_total(11)
        with pytest.raises(ArithmeticError, match="non-integer 2104/5 at p=11"):
            n_circulant(11)
    finally:
        n_total.cache_clear()
        n_circulant.cache_clear()


def _fraction_n_total(p: int) -> int:
    """Reference: the count formula summed as exact rationals, group by group."""
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
    assert total.denominator == 1
    return total.numerator


def _fraction_n_circulant(p: int) -> int:
    total = Fraction(2, p - 1) * sum(
        euler_phi(d) * 2 ** ((p - 1) // d) for d in divisors(p - 1)
    )
    assert total.denominator == 1
    return total.numerator


ODD_PRIMES_BELOW_3571 = [p for p in range(3, 3571) if is_odd_prime(p)]


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_3571[::10] + [3571])
def test_integer_counts_match_the_fraction_reference(p):
    total, circulant = _fraction_n_total(p), _fraction_n_circulant(p)
    assert (n_total(p), n_circulant(p)) == (total, circulant)
    r = count_report(p)
    assert (r.n_total, r.n_circulant, r.n_connected) == (total, circulant, total - circulant**2 - 8)
    assert r.methods == {"closed_form": total, "cycle_index_eval": total}


def test_closed_form_keys_are_canonical():
    """The closed form writes its monomials as literal tuples; a key that
    monomial() would rewrite would split one term into two."""
    for p in ODD_PRIMES_BELOW_3571:
        for key in cycle_index_closed_form(p).weights:
            assert key == monomial(*key), (p, key)


def test_closed_form_terms_are_pinned():
    """Every term at every odd prime below 3571, as the canonicalizing build gave them."""
    terms = [(p, sorted(cycle_index_closed_form(p).weights.items())) for p in ODD_PRIMES_BELOW_3571]
    assert sum(len(t) for _, t in terms) == 20145
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == (
        "a7374dd9e9e5cbc3e0801583029d19685e02974204b73168a0c3df17239335ee"
    )


def test_table_csv_is_pinned(capsys):
    """The whole table over the odd primes below 3571, as the canonicalizing build printed it."""
    p_list = ",".join(map(str, ODD_PRIMES_BELOW_3571))
    assert cli.main(["table", "--p-list", p_list, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 2221032
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47e1f5eae90477362925b785e190e93e92caa8a2dd858cd49e4f1c9cbc484352"
    )


def test_count_report_defaults():
    r = count_report(3)
    assert (r.p, r.aut_order) == (3, 24)
    assert (r.n_total, r.n_circulant, r.n_connected) == (432, 6, 388)
    assert r.methods == {"closed_form": 432, "cycle_index_eval": 432}


def test_count_report_refuses_disagreeing_claimed_routes(monkeypatch):
    """closed_form and cycle_index_eval are two claimed routes to one number."""
    monkeypatch.setattr(polya, "n_total", lambda p: 433)
    with pytest.raises(ArithmeticError, match="closed_form 433 vs cycle_index_eval 432"):
        count_report(3)


def test_render_monomial():
    assert render_monomial(((1, 12),)) == "x1^12"
    assert render_monomial(((1, 2), (2, 5))) == "x1^2x2^5"


def test_render_poly_order_and_format():
    text = render_poly(cycle_index_bruteforce(3))
    assert text.startswith("1/24·x1^12 + ")
    assert " + " in text


def test_poly_records_round_trip():
    poly = cycle_index_closed_form(3)
    recs = poly_records(poly)
    assert len(recs) == len(poly.terms)
    assert recs[0] == {"coeff_num": 1, "coeff_den": 24, "monomial": [[1, 12]]}
    rebuilt = {
        monomial(*((k, e) for k, e in r["monomial"])): Fraction(
            r["coeff_num"], r["coeff_den"]
        )
        for r in recs
    }
    assert rebuilt == poly.terms
