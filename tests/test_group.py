"""Group arithmetic: normal forms, group laws, orders, the isomorphism."""

import pytest

from cayley8p.group import (
    GElement,
    GroupElement,
    all_elements,
    element_index,
    element_order,
    g_mul,
    identity,
    inv,
    iso_f,
    mul,
    mul_table,
)

E3 = identity(3)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        GroupElement(3, 6, 0)
    with pytest.raises(ValueError):
        GroupElement(3, 0, 4)
    with pytest.raises(ValueError):
        GroupElement(3, -1, 0)
    # p must be an odd prime: a^3 in a "group" with p = 9 once had order 6
    for p in (9, 1, 4, True, 3.0):
        with pytest.raises(ValueError, match="odd prime"):
            GroupElement(p, 0, 0)
        with pytest.raises(ValueError, match="odd prime"):
            GElement(p, 0, 0)
    # exponents are ints, never bools or floats (a^1.0 b^0 was once printed)
    for k, l in ((1.0, 0), (0, 1.0), (True, 0), (0, False), ("1", 0)):
        with pytest.raises(ValueError, match="must be an int"):
            GroupElement(3, k, l)
        with pytest.raises(ValueError, match="must be an int"):
            GElement(3, k, l)


def test_identity_and_str():
    assert str(E3) == "a^0 b^0"
    assert str(GroupElement(3, 2, 3)) == "a^2 b^3"
    for g in all_elements(3):
        assert mul(E3, g) == g
        assert mul(g, E3) == g


def test_mixed_p_rejected():
    with pytest.raises(ValueError):
        mul(identity(3), identity(5))


def test_group_laws_exhaustive_p3():
    elems = all_elements(3)
    assert len(elems) == 24
    assert len(set(elems)) == 24
    for x in elems:
        assert mul(x, inv(x)) == E3
        assert mul(inv(x), x) == E3
    for x in elems:
        for y in elems:
            for z in elems:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_presentation_relations():
    for p in (3, 5, 7):
        a = GroupElement(p, 1, 0)
        b = GroupElement(p, 0, 1)
        e = identity(p)
        acc = e
        for _ in range(2 * p):
            acc = mul(acc, a)
        assert acc == e  # a^{2p} = e
        acc = e
        for _ in range(8):
            acc = mul(acc, b)
        assert acc == e  # b^8 = e
        b4 = mul(mul(b, b), mul(b, b))
        assert b4 == GroupElement(p, p, 0)  # b^4 = a^p
        assert mul(mul(inv(b), a), b) == inv(a)  # b^{-1} a b = a^{-1}


def test_element_order_spectrum_p3():
    from collections import Counter

    spectrum = Counter(element_order(g) for g in all_elements(3))
    assert dict(sorted(spectrum.items())) == {
        1: 1,
        2: 1,
        3: 2,
        4: 2,
        6: 2,
        8: 12,
        12: 4,
    }


def test_element_order_closed_forms():
    # element_order itself raises if the closed form and iteration differ,
    # so evaluating it everywhere is the cross-check
    for p in (3, 5, 7, 11, 13):
        for g in all_elements(p):
            o = element_order(g)
            if g.l % 2 == 1:
                assert o == 8
            assert 8 * p % o == 0


def test_element_index_roundtrip():
    for p in (3, 5, 7):
        elems = all_elements(p)
        assert [element_index(g) for g in elems] == list(range(8 * p))


def test_mul_table_matches_mul():
    for p in (3, 5, 31):
        elems = all_elements(p)
        table = mul_table(p)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert table[i][j] == element_index(mul(x, y))


def test_iso_f_is_bijective_homomorphism_p3():
    elems = all_elements(3)
    images = [iso_f(g) for g in elems]
    assert len(set(images)) == len(elems)
    for x in elems:
        for y in elems:
            assert iso_f(mul(x, y)) == g_mul(iso_f(x), iso_f(y))


def test_iso_f_generator_images():
    # even a-powers keep their b-exponent, odd ones pick up b^4
    assert iso_f(GroupElement(3, 2, 0)) == GElement(3, 1, 0)
    assert iso_f(GroupElement(3, 1, 0)) == GElement(3, 2, 4)  # (1-3)/2 = -1 = 2 mod 3
    assert iso_f(GroupElement(3, 3, 0)) == GElement(3, 0, 4)  # a^p -> b^4
    assert iso_f(identity(3)) == GElement(3, 0, 0)


def test_g_element_validation():
    with pytest.raises(ValueError):
        GElement(3, 3, 0)
    with pytest.raises(ValueError):
        GElement(3, 0, 8)
    assert str(GElement(3, 2, 5)) == "x^2 b^5"
