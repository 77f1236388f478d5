"""Automorphism family: enumeration, definition checks, composition."""

import pytest

import independent_model as im
from cayley8p.autos import (
    SIGMA,
    TAU,
    Automorphism,
    apply,
    aut_blocks,
    compose,
    enumerate_aut,
)
from cayley8p.group import GroupElement, all_elements, mul

PRIMES = (3, 5, 7, 11, 13)


def verify_automorphism(f: Automorphism) -> bool:
    """Definition check: bijective on all 8p elements and multiplicative on all pairs."""
    elems = all_elements(f.p)
    images = [apply(f, g) for g in elems]
    if len(set(images)) != len(elems):
        return False
    image_of = dict(zip(elems, images))
    return all(
        image_of[mul(x, y)] == mul(image_of[x], image_of[y])
        for x in elems
        for y in elems
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        Automorphism(3, "rho", 1, 0)
    with pytest.raises(ValueError):
        Automorphism(3, SIGMA, 3, 0)  # 3 is not a unit mod 6
    with pytest.raises(ValueError):
        Automorphism(3, SIGMA, 1, 6)  # shift out of range
    with pytest.raises(ValueError):
        Automorphism(3, SIGMA, 0, 0)
    # p must be an odd prime, before the case analysis can type such a map
    with pytest.raises(ValueError, match="odd prime"):
        Automorphism(9, SIGMA, 5, 2)
    with pytest.raises(ValueError, match="odd prime"):
        Automorphism(1, TAU, 1, 1)
    # parameters are ints, never bools or floats: tau(1,2.0) and sigma(True,0)
    # were once built, and a float unit once raised TypeError
    for alpha, beta in ((1, 2.0), (True, 0), (5.0, 0), (1, False), (1.0, 0)):
        with pytest.raises(ValueError, match="must be an int"):
            Automorphism(3, TAU, alpha, beta)
        with pytest.raises(ValueError, match="must be an int"):
            Automorphism(3, SIGMA, alpha, beta)


def test_str_format():
    assert str(Automorphism(3, SIGMA, 5, 1)) == "sigma(5,1)"
    assert str(Automorphism(3, TAU, 1, 0)) == "tau(1,0)"


def test_enumeration_count_and_order():
    for p in (3, 5, 7, 11):
        autos = enumerate_aut(p)
        assert len(autos) == 4 * p * (p - 1)
        assert len(set(autos)) == len(autos)
    autos3 = enumerate_aut(3)
    assert autos3[0] == Automorphism(3, SIGMA, 1, 0)
    assert [f.family for f in autos3] == [SIGMA] * 12 + [TAU] * 12


def test_aut_blocks_name_every_run_of_2p_maps():
    for p in PRIMES:
        firsts = enumerate_aut(p)[:: 2 * p]
        assert aut_blocks(p) == [(f.family, f.alpha) for f in firsts]


def test_identity_automorphism_fixes_everything():
    for p in (3, 5):
        f = Automorphism(p, SIGMA, 1, 0)
        for g in all_elements(p):
            assert apply(f, g) == g


def test_every_enumerated_map_is_an_automorphism():
    for p in (3, 5):
        for f in enumerate_aut(p):
            assert verify_automorphism(f), str(f)


def test_generator_images():
    a = GroupElement(3, 1, 0)
    b = GroupElement(3, 0, 1)
    s = Automorphism(3, SIGMA, 5, 1)
    assert apply(s, a) == GroupElement(3, 5, 0)
    assert apply(s, b) == GroupElement(3, 1, 1)
    t = Automorphism(3, TAU, 1, 2)
    assert apply(t, a) == GroupElement(3, 1, 0)
    assert apply(t, b) == GroupElement(3, 2, 3)
    # the b^2 line of tau picks up the central shift a^p
    assert apply(t, GroupElement(3, 0, 2)) == GroupElement(3, 3, 2)


def test_apply_matches_word_built_images():
    """Each parametric map must equal the map built from its generator
    images by multiplying out the word a^k b^l."""
    p = 3
    a = GroupElement(p, 1, 0)
    b = GroupElement(p, 0, 1)
    e = GroupElement(p, 0, 0)
    for f in enumerate_aut(p):
        ia, ib = apply(f, a), apply(f, b)
        for g in all_elements(p):
            v = e
            for _ in range(g.k):
                v = mul(v, ia)
            for _ in range(g.l):
                v = mul(v, ib)
            assert apply(f, g) == v, f"{f} at {g}"


def test_no_automorphisms_beyond_the_two_families():
    """Independent exhaustive search over generator images finds exactly
    the 4p(p-1) enumerated maps: the families are complete."""
    p = 3
    raw_maps = im.automorphism_maps(p)
    assert len(raw_maps) == 4 * p * (p - 1)
    as_tuple_maps = {
        tuple(sorted(((g.k, g.l), (h.k, h.l)) for g, h in ((x, apply(f, x)) for x in all_elements(p))))
        for f in enumerate_aut(p)
    }
    raw_tuple_maps = {tuple(sorted(m.items())) for m in raw_maps}
    assert as_tuple_maps == raw_tuple_maps


def test_compose_closure_exhaustive_p3():
    autos = enumerate_aut(3)
    members = set(autos)
    for f in autos:
        for g in autos:
            h = compose(f, g)  # raises internally if the candidate is wrong
            assert h in members
            for x in all_elements(3):
                assert apply(h, x) == apply(f, apply(g, x))


def test_compose_family_rules():
    s = Automorphism(5, SIGMA, 3, 2)
    t = Automorphism(5, TAU, 7, 1)
    assert compose(s, s).family == SIGMA
    assert compose(s, t).family == TAU
    assert compose(t, s).family == TAU
    assert compose(t, t).family == SIGMA


def test_compose_rejects_mixed_p():
    with pytest.raises(ValueError):
        compose(Automorphism(3, SIGMA, 1, 0), Automorphism(5, SIGMA, 1, 0))
