"""Unit tests for the modular arithmetic helpers."""

from math import gcd

import pytest

from cayley8p.modular import (
    check_odd_prime,
    discrete_log,
    divisors,
    euler_phi,
    is_odd_prime,
    mult_order,
    primitive_root_2p,
    unique_x,
    units_mod,
)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_is_odd_prime_table():
    expected = set(PRIMES) | {37, 41, 43, 47}
    assert [n for n in range(50) if is_odd_prime(n)] == sorted(
        n for n in expected if n < 50
    )
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)
    assert not is_odd_prime(-3)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 0, -7])
def test_check_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_odd_prime(bad)


def test_check_odd_prime_rejects_bool_and_nonint():
    with pytest.raises(ValueError):
        check_odd_prime(True)
    with pytest.raises(ValueError):
        check_odd_prime(3.0)


def test_check_odd_prime_returns_value():
    assert check_odd_prime(13) == 13


def test_euler_phi_matches_gcd_count():
    for n in range(1, 80):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(30) == (1, 2, 3, 5, 6, 10, 15, 30)
    with pytest.raises(ValueError):
        divisors(0)


def test_units_mod():
    assert units_mod(10) == [1, 3, 7, 9]
    assert units_mod(6) == [1, 5]
    # the unit group mod 2p has order p-1
    for p in PRIMES:
        assert len(units_mod(2 * p)) == p - 1


def test_mult_order_naive_cross_check():
    for p in (3, 5, 7, 11):
        n = 2 * p
        for u in units_mod(n):
            acc, m = u % n, 1
            while acc != 1:
                acc = acc * u % n
                m += 1
            assert mult_order(u, n) == m
    with pytest.raises(ValueError):
        mult_order(2, 10)


@pytest.mark.parametrize("modulus", [1, 0, -5])
def test_mult_order_refuses_a_modulus_below_two(modulus):
    """u % 1 is 0, so the search for u^m = 1 would never end; 0 would divide by zero."""
    with pytest.raises(ValueError, match=f"modulus >= 2, got {modulus}"):
        mult_order(3, modulus)


def test_primitive_root_is_smallest_generator():
    assert {p: primitive_root_2p(p) for p in (3, 5, 7, 11, 13)} == {
        3: 5,
        5: 3,
        7: 3,
        11: 7,
        13: 7,
    }
    for p in PRIMES:
        z = primitive_root_2p(p)
        n = 2 * p
        assert mult_order(z, n) == p - 1
        # nothing smaller generates
        for w in range(2, z):
            assert gcd(w, n) != 1 or mult_order(w, n) != p - 1


def test_discrete_log_roundtrip():
    for p in PRIMES:
        n = 2 * p
        z = primitive_root_2p(p)
        seen = set()
        for u in units_mod(n):
            i = discrete_log(z, u, p)
            assert 0 <= i < p - 1
            assert pow(z, i, n) == u
            seen.add(i)
        assert len(seen) == p - 1
    with pytest.raises(ValueError):
        discrete_log(primitive_root_2p(5), 5, 5)  # 5 is not a unit mod 10


def test_unique_x_frozen_examples():
    # p=3, alpha=5: x - 5x = -4x = 2x (mod 6); 2*1=2, 2*5=10=4
    assert unique_x(5, 2, 3) == 1
    assert unique_x(5, 4, 3) == 5


def test_unique_x_exhaustive_uniqueness():
    for p in (3, 5, 7, 11, 13):
        n = 2 * p
        for alpha in units_mod(n):
            if alpha == 1:
                continue
            for t in range(2, n, 2):
                x = unique_x(alpha, t, p)
                assert (x - alpha * x) % n == t
                assert gcd(x, n) == 1


def test_unique_x_rejects_bad_arguments():
    with pytest.raises(ValueError):
        unique_x(1, 2, 3)  # alpha must differ from 1
    with pytest.raises(ValueError):
        unique_x(5, 3, 3)  # odd t
    with pytest.raises(ValueError):
        unique_x(5, 0, 3)  # zero t
    with pytest.raises(ValueError):
        unique_x(3, 2, 3)  # 3 is not a unit mod 6
