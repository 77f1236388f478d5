"""Acceptance suite: nine numbered criteria, one PASS/FAIL line each.

The paper's closed forms are claims, pinned verbatim by criteria 1 and 6
(432 at p = 3, 18144 at p = 5).  They are not the genuine orbit counts:
the inverse-closed classes identify the a-power labels i and -i, so an
orbit folds in half whenever some power of the acting unit is -1, and
every brute-force path (Burnside, exhaustive sweep, cycle decomposition)
lands on the larger folded counts (624 and 25152).  Criteria 2, 3, 4
and 5 compare each claimed route with its genuine route and assert
exactly how the two relate, printing both values:

  2  the closed form is the Burnside average over the closed-form cycle
     types, Burnside over the genuine types exceeds it at every prime;
  3  the exhaustive sweep gives the genuine counts of the independent
     model (tests/independent_model.py);
  4  closed-form and genuine cycle types differ exactly on the units of
     even order, 4p(p-1-m) maps per p with m the odd part of p-1;
  5  the two cycle indices differ by exactly those maps' monomials.

Expected values come from the independent model or from number theory,
never from the package itself.  See README.md for the full account.
"""

import random
import time
from fractions import Fraction

import numpy as np

import independent_model as im

from cayley8p import oracle
from cayley8p.autos import compose, enumerate_aut
from cayley8p.cli import main as cli_main
from cayley8p.domain import (
    build_domain,
    closed_form_cycle_type,
    cycle_type_of,
    cycle_types,
    induced_permutations,
)
from cayley8p.group import (
    GroupElement,
    all_elements,
    element_order,
    g_mul,
    identity,
    inv,
    iso_f,
    mul,
)
from cayley8p.modular import divisors, euler_phi, units_mod, unique_x
from cayley8p.oracle import (
    build_cayley_graph,
    burnside_count,
    connected_orbit_count,
    disconnected_census,
    mask_elements,
    orbit_partition_count,
    orbit_representatives,
)
from cayley8p.polya import (
    cycle_index_bruteforce,
    cycle_index_closed_form,
    monomial_from_cycle_type,
    n_circulant,
    n_connected,
    n_total,
)
from cayley8p.verify import build_verification_report

TABLE_TOTALS = {3: 432, 5: 18144, 7: 1824384, 11: 41253667584, 13: 7330997009984}
TABLE_CIRCULANT = {3: 6, 5: 12, 7: 28, 11: 216, 13: 704}
TABLE_CONNECTED = {
    3: 388,
    5: 17992,
    7: 1823592,
    11: 41253620920,
    13: 7330996514360,
}


def _criterion(n: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_totals_by_both_closed_paths():
    for cached in (n_total, cycle_index_closed_form, divisors, euler_phi):
        cached.cache_clear()
    t0 = time.perf_counter()
    formula = {p: n_total(p) for p in TABLE_TOTALS}
    at_two = {p: cycle_index_closed_form(p).evaluate(2) for p in TABLE_TOTALS}
    elapsed = time.perf_counter() - t0
    ok = formula == TABLE_TOTALS and at_two == TABLE_TOTALS and elapsed < 1.0
    _criterion(
        1,
        ok,
        f"count formula match {formula == TABLE_TOTALS}, cycle index at 2 match "
        f"{at_two == TABLE_TOTALS}, {elapsed:.3f}s from cold caches (< 1 s required)",
    )


def _claimed_burnside(p: int) -> Fraction:
    """Burnside average of 2^c, with c the cycle count of each closed-form type."""
    autos = enumerate_aut(p)
    return Fraction(
        sum(2 ** sum(closed_form_cycle_type(f).values()) for f in autos), len(autos)
    )


def _order_mod(alpha: int, n: int) -> int:
    """Multiplicative order of the unit alpha mod n, by repeated multiplication."""
    order, power = 1, alpha % n
    while power != 1:
        power = power * alpha % n
        order += 1
    return order


def _odd_part(m: int) -> int:
    while m % 2 == 0:
        m //= 2
    return m


def test_criterion_2_burnside_equals_closed_form():
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    for cached in (build_domain, induced_permutations, cycle_types, n_total):
        cached.cache_clear()
    t0 = time.perf_counter()
    pairs = {p: (burnside_count(p), n_total(p)) for p in primes}
    elapsed = time.perf_counter() - t0
    # the two routes share the Burnside averaging and differ in cycle types only
    claimed_route = [p for p in primes if n_total(p) != _claimed_burnside(p)]
    genuine_route = [
        p for p in primes if pairs[p][0] != cycle_index_bruteforce(p).evaluate(2)
    ]
    not_above = [p for p, (genuine, claimed) in pairs.items() if genuine <= claimed]
    independent = {3: im.burnside_count(3), 5: im.burnside_count(5)}
    model_ok = all(pairs[p][0] == want for p, want in independent.items())
    ok = (
        not claimed_route
        and not genuine_route
        and not not_above
        and model_ok
        and elapsed < 1.0
    )
    _criterion(
        2,
        ok,
        f"closed form == Burnside over closed-form cycle types at "
        f"{len(primes) - len(claimed_route)} of {len(primes)} primes, burnside == "
        f"brute cycle index at 2 at {len(primes) - len(genuine_route)}, burnside > "
        f"closed form at {len(primes) - len(not_above)}; (burnside, claimed) "
        f"p=3: {pairs[3]}, p=5: {pairs[5]}, independent model {independent}; "
        f"{elapsed:.2f}s from cold caches (< 1 s required)",
    )


def test_criterion_3_exhaustive_orbit_partition(monkeypatch):
    t0 = time.perf_counter()
    count3 = orbit_partition_count(3)
    t3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    count5 = orbit_partition_count(5)
    t5 = time.perf_counter() - t0
    counts, reps = [], []
    for _ in range(3):
        # re-sweep every time: a cached array would only equal itself
        monkeypatch.delitem(oracle._reps_cache, 5, raising=False)
        counts.append(orbit_partition_count(5))
        reps.append(orbit_representatives(5))
    identical = len(set(counts)) == 1 and all(np.array_equal(r, reps[0]) for r in reps[1:])
    want3 = im.orbit_data(3)[0]
    want5 = im.burnside_count(5)
    ok = (
        count3 == want3
        and t3 < 1.0
        and count5 == want5
        and t5 < 60.0
        and identical
    )
    _criterion(
        3,
        ok,
        f"sweep p=3 gives {count3} (independent model {want3}, claimed "
        f"{n_total(3)}) in {t3:.2f}s, p=5 gives {count5} (independent model "
        f"{want5}, claimed {n_total(5)}) in {t5:.2f}s, bit-identical across "
        f"three sweeps: {identical}",
    )


def test_criterion_4_cycle_type_equivalence():
    """The closed form books every a-power orbit at full length; it is exact
    for the units of odd order and undercounts cycles for the others, where
    some power of the unit is -1 and folds the class {a^i, a^-i} onto itself."""
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    mismatches = {}
    wrong = {}
    for p in primes:
        bad = 0
        for f, perm in zip(enumerate_aut(p), induced_permutations(p)):
            claimed = closed_form_cycle_type(f)
            genuine = cycle_type_of(perm)
            even_order = _order_mod(f.alpha, 2 * p) % 2 == 0
            bad += claimed != genuine
            if even_order != (claimed != genuine) or (
                even_order and sum(genuine.values()) <= sum(claimed.values())
            ):
                wrong.setdefault(p, str(f))
        mismatches[p] = bad
    expected = {p: 4 * p * (p - 1 - _odd_part(p - 1)) for p in primes}
    ok = not wrong and mismatches == expected
    _criterion(
        4,
        ok,
        f"{sum(mismatches.values())} closed-form vs decomposition mismatches over "
        f"p <= 31, per p {mismatches} (4p(p-1-m), m the odd part of p-1: "
        f"{expected}); none on units of odd order, more genuine cycles on every "
        f"unit of even order; first map breaking that per p: {wrong}",
    )


def test_criterion_5_cycle_index_equivalence():
    """Both cycle indices are averages of monomials over Aut: the closed form
    averages the closed-form cycle types, the brute-force one the genuine
    types, which differ exactly on the units of even order (criterion 4)."""
    differing = {}
    at_one_ok = True
    for p in (3, 5, 7, 11, 13):
        closed = cycle_index_closed_form(p)
        brute = cycle_index_bruteforce(p)
        at_one_ok &= closed.evaluate(1) == 1 and brute.evaluate(1) == 1
        share = Fraction(1, 4 * p * (p - 1))
        claimed_avg: dict = {}
        correction: dict = {}
        for f, perm in zip(enumerate_aut(p), induced_permutations(p)):
            claimed = monomial_from_cycle_type(closed_form_cycle_type(f))
            claimed_avg[claimed] = claimed_avg.get(claimed, 0) + share
            if _order_mod(f.alpha, 2 * p) % 2 == 0:
                genuine = monomial_from_cycle_type(cycle_type_of(perm))
                correction[genuine] = correction.get(genuine, 0) + share
                correction[claimed] = correction.get(claimed, 0) - share
        genuine_avg = dict(claimed_avg)
        for mono, coeff in correction.items():
            genuine_avg[mono] = genuine_avg.get(mono, 0) + coeff
        genuine_avg = {m: c for m, c in genuine_avg.items() if c}
        differing[p] = (closed.terms != claimed_avg, brute.terms != genuine_avg)
    ok = not any(any(pair) for pair in differing.values()) and at_one_ok
    _criterion(
        5,
        ok,
        f"closed-form index == average of closed-form monomials, brute-force "
        f"index == that average plus the even-order corrections; (closed differs, "
        f"brute differs) per p: {differing}; evaluation at 1 equals 1 for all "
        f"tested p: {at_one_ok}",
    )


def test_criterion_6_circulant_and_connected_formulas():
    circulant = {p: n_circulant(p) for p in TABLE_CIRCULANT}
    connected = {p: n_connected(p) for p in TABLE_CONNECTED}
    ok = circulant == TABLE_CIRCULANT and connected == TABLE_CONNECTED
    _criterion(
        6,
        ok,
        f"circulant formula match {circulant == TABLE_CIRCULANT}, connected "
        f"formula match {connected == TABLE_CONNECTED} (exact integers)",
    )


def test_criterion_7_oracle_comparison_machinery():
    parts = []
    for p in (3, 5):
        report = build_verification_report(p, "full")
        methods = {c.genuine_route for c in report.comparisons}
        oracles_ran = all(
            name in methods
            for name in ("orbit_partition", "oracle_circulant", "oracle_connected")
        )
        side_by_side = {c.genuine_route: c for c in report.comparisons if c.status != "pass"}
        records_exist = (
            side_by_side["oracle_circulant"].claimed == n_circulant(p)
            and side_by_side["oracle_connected"].claimed == n_connected(p)
        )
        census = disconnected_census(p)
        disconnected = census["a_only_orbits"] + census["b_touching_orbits"]
        identities = (
            connected_orbit_count(p) + disconnected == orbit_partition_count(p)
        )
        flagged_not_fatal = (
            any(c.status == "flagged" for c in report.checks) and not report.failed
        )
        exit_zero = cli_main(["verify", "--p", str(p), "--level", "full"]) == 0
        parts.append(
            oracles_ran
            and records_exist
            and identities
            and flagged_not_fatal
            and exit_zero
        )
    ok = all(parts)
    _criterion(
        7,
        ok,
        f"full verify at p=3,5: oracles ran, side-by-side records present, "
        f"partition identities hold, disagreements flagged, exit status 0 "
        f"({parts})",
    )


def test_criterion_8_group_and_isomorphism_suite():
    t0 = time.perf_counter()
    elems3 = all_elements(3)
    associative = all(
        mul(mul(x, y), z) == mul(x, mul(y, z))
        for x in elems3
        for y in elems3
        for z in elems3
    )
    inverse_law = True
    orders_consistent = True
    for p in (3, 5, 7, 11, 13):
        e = identity(p)
        for x in all_elements(p):
            inverse_law &= mul(x, inv(x)) == e and mul(inv(x), x) == e
            order = element_order(x)  # raises if closed form != iteration
            orders_consistent &= (8 * p) % order == 0
            if x.l % 2:
                orders_consistent &= order == 8
    iso_ok = True
    for p in (3, 5, 7):
        elems = all_elements(p)
        images = [iso_f(x) for x in elems]
        iso_ok &= len(set(images)) == 8 * p
        image_of = dict(zip(elems, images))
        iso_ok &= all(
            image_of[mul(x, y)] == g_mul(image_of[x], image_of[y])
            for x in elems
            for y in elems
        )
    elapsed = time.perf_counter() - t0
    ok = associative and inverse_law and orders_consistent and iso_ok and elapsed < 30.0
    _criterion(
        8,
        ok,
        f"associativity {associative}, inverse law {inverse_law}, order closed "
        f"forms {orders_consistent}, isomorphism {iso_ok}, {elapsed:.2f}s "
        f"(< 30 s required)",
    )


def test_criterion_9_structural_properties():
    degrees_ok = True
    for p in (3, 5, 7, 11, 13):
        for f, perm in zip(enumerate_aut(p), induced_permutations(p)):
            for counts in (cycle_type_of(perm), closed_form_cycle_type(f)):
                degrees_ok &= sum(k * v for k, v in counts.items()) == 4 * p
    for p in (17, 19, 23, 29, 31):
        for f in enumerate_aut(p):
            counts = closed_form_cycle_type(f)
            degrees_ok &= sum(k * v for k, v in counts.items()) == 4 * p

    def regular_and_symmetric(p: int, mask: int) -> bool:
        g = build_cayley_graph(p, mask)
        degree = len(mask_elements(build_domain(p), mask))
        edges = {(v, w) for v, row in enumerate(g.neighbors) for w in row}
        return all(len(row) == degree for row in g.neighbors) and all(
            (w, v) in edges for v, w in edges
        )

    graphs_ok = all(regular_and_symmetric(3, mask) for mask in range(1 << 12))
    rng = random.Random(20260815)
    sample = rng.sample([int(m) for m in orbit_representatives(5)], 150)
    graphs_ok &= all(regular_and_symmetric(5, mask) for mask in sample)

    unique_ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for alpha in units_mod(2 * p):
            if alpha == 1:
                continue
            for t in range(2, 2 * p, 2):
                unique_x(alpha, t, p)  # raises unless exactly one solution

    closure_ok = True
    for p in (3, 5):
        autos = enumerate_aut(p)
        closure_ok &= len(autos) == 4 * p * (p - 1)
        members = set(autos)
        closure_ok &= all(compose(f, g) in members for f in autos for g in autos)

    ok = degrees_ok and graphs_ok and unique_ok and closure_ok
    _criterion(
        9,
        ok,
        f"cycle-type degrees {degrees_ok}, graphs regular+symmetric "
        f"{graphs_ok} (all 4096 at p=3, 150 orbit reps at p=5), unique-unit "
        f"solvability to p=31 {unique_ok}, automorphism count and composition "
        f"closure {closure_ok}",
    )
