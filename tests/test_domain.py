"""Inverse-closed classes, induced permutations, and the two cycle-type paths.

The decomposition path (cycle_type_of on the induced permutation) is the
ground truth.  The closed-form case analysis books full-length orbits on
the a-power classes and misses the i ~ -i label folding, so the two paths
genuinely disagree for some units; those disagreements are frozen here as
facts, not patched.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import independent_model as im
from cayley8p.autos import SIGMA, TAU, Automorphism, aut_blocks, enumerate_aut
from cayley8p.domain import (
    KIND_A1,
    KIND_A2,
    KIND_AP,
    KIND_B,
    _BLOCK_IMAGES,
    _count_cycles,
    _induced_blocks,
    a2_labels,
    build_domain,
    class_members,
    class_table,
    cycle_counts,
    cycle_type_of,
    cycle_types,
    distinct_rows,
    induced_halves,
    induced_permutation,
    induced_permutations,
    monomial,
)
from cayley8p.group import GroupElement, all_elements, element_index, inv
from cayley8p.polya import closed_form_cycle_type, closed_form_cycle_types, render_cycle_type

PRIMES = (3, 5, 7, 11, 13)


def test_block_layout():
    for p in PRIMES:
        d = build_domain(p)
        assert len(d.classes) == 4 * p
        kinds = [c.kind for c in d.classes]
        assert kinds == (
            [KIND_A1] * (p - 1) + [KIND_A2] * p + [KIND_AP] + [KIND_B] * 2 * p
        )
        assert [c.label for c in d.classes[: p - 1]] == list(range(1, p))
        assert [c.label for c in d.classes[p - 1 : 2 * p - 1]] == a2_labels(p)
        assert d.classes[2 * p - 1].label == p
        assert [c.label for c in d.classes[2 * p :]] == list(range(2 * p))


def test_classes_partition_the_nonidentity_elements():
    for p in (3, 5, 7):
        d = build_domain(p)
        seen = set()
        for c in d.classes:
            assert c.members == {inv(g) for g in c.members}
            assert not (c.members & seen)
            seen |= c.members
        assert seen == set(all_elements(p)) - {GroupElement(p, 0, 0)}


def test_reps_and_index_of():
    d = build_domain(3)
    for ci, c in enumerate(d.classes):
        assert c.rep == min(c.members, key=lambda g: (g.l, g.k))
        for g in c.members:
            assert d.index_of(g) == ci
    # the singleton class really is the central involution
    assert d.classes[5].members == {GroupElement(3, 3, 0)}


def test_a2_labels_pick_one_residue_per_pair():
    for p in PRIMES:
        labels = set(a2_labels(p))
        assert len(labels) == p
        for m in range(2 * p):
            assert len({m, (p - m) % (2 * p)} & labels) == 1


def test_a2_labels_frozen():
    assert a2_labels(3) == [0, 1, 4]
    assert a2_labels(5) == [0, 1, 2, 6, 7]


def _element(p, e):
    return GroupElement(p, e % (2 * p), e // (2 * p))


@pytest.mark.parametrize("p", PRIMES + (17, 31, 37, 3571))
def test_class_arrays_pair_each_element_with_its_inverse(p):
    members, table = class_members(p), class_table(p)
    assert members.shape == (4 * p, 2) and table.shape == (8 * p,)
    assert table.dtype == np.int16
    for first, second in members.tolist():
        assert first <= second
        assert _element(p, second) == inv(_element(p, first))
    assert np.array_equal(table[members], np.repeat(np.arange(4 * p)[:, None], 2, axis=1))
    assert table[0] == -1
    assert np.count_nonzero(table == -1) == 1
    for array in (members, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_class_table_refuses_a_broken_layout(monkeypatch):
    """An element in two classes, and a layout that lists the identity."""
    twice = class_members(3).copy()
    twice[1, 0] = twice[0, 0]  # a^1 in classes 0 and 1
    monkeypatch.setattr("cayley8p.domain.class_members", lambda p: twice)
    with pytest.raises(ArithmeticError, match=r"^element a\^1 b\^0 appears in two classes"):
        class_table.__wrapped__(3)
    with_identity = class_members(3).copy()
    with_identity[0, 0] = 0
    monkeypatch.setattr("cayley8p.domain.class_members", lambda p: with_identity)
    with pytest.raises(ArithmeticError, match="cover exactly the non-identity elements"):
        class_table.__wrapped__(3)


def test_induced_permutations_are_bijections():
    for p in PRIMES:
        perms = induced_permutations(p)
        assert len(perms) == 4 * p * (p - 1)
        for perm in perms:
            assert sorted(perm) == list(range(4 * p))


def test_induced_permutations_match_the_reference_path():
    """The block-at-a-time numpy path equals induced_permutation map by map."""
    for p in PRIMES:
        d = build_domain(p)
        assert induced_permutations(p).tolist() == [
            list(induced_permutation(f, d)) for f in enumerate_aut(p)
        ]


def test_induced_halves_match_the_reference_path():
    """The distinct half-rows and each map's ids give back induced_permutation
    map by map, split at 2p with the B-half shifted down by 2p."""
    for p in PRIMES:
        d = build_domain(p)
        reference = np.array([induced_permutation(f, d) for f in enumerate_aut(p)])
        a_rows, a_ids, b_rows, b_ids = induced_halves(p)
        a_want, b_want = reference[:, : 2 * p], reference[:, 2 * p :] - 2 * p
        for rows, ids, want in ((a_rows, a_ids, a_want), (b_rows, b_ids, b_want)):
            assert np.array_equal(rows[ids], want)
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert rows.dtype == np.int16 and ids.dtype == np.intp
        for array in (a_rows, a_ids, b_rows, b_ids):
            assert not array.flags.writeable


def _layout(p):
    return class_members(p), class_table(p)


def test_induced_blocks_reject_broken_maps():
    """alpha = 2 is no unit mod 6: it splits the classes {a^l b^2, a^{p-l} b^2};
    alpha = 3 keeps every class whole but sends {a, a^5} and {a^3} to {a^3}."""
    for family in (SIGMA, TAU):
        with pytest.raises(ArithmeticError, match="splits class"):
            _induced_blocks(*_layout(3), [(family, 2)])
        with pytest.raises(ArithmeticError, match="does not act bijectively"):
            _induced_blocks(*_layout(3), [(family, 3)])


def test_induced_blocks_refuse_a_class_sent_across_the_blocks():
    """With a^p, the singleton A class 2p-1, relabelled into the B class 2p,
    every map sends an A class into the B block."""
    for p in (3, 5):
        crossed = class_table(p).copy()
        crossed[crossed == 2 * p - 1] = 2 * p
        for family in (SIGMA, TAU):
            with pytest.raises(
                ArithmeticError, match=rf"{family}\(1,0\) sends a class across the A and B blocks"
            ):
                _induced_blocks(class_members(p), crossed, [(family, 1)])


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_pass_boundaries_change_nothing(budget, monkeypatch):
    """Every p of PRIMES fits in one imaging pass at the default budget: one
    block per pass, or all blocks in one, gives the same arrays."""
    want = {p: _induced_blocks(*_layout(p), aut_blocks(p)) for p in PRIMES}
    monkeypatch.setattr("cayley8p.domain._BLOCK_IMAGES", budget)
    for p in PRIMES:
        for got, expected in zip(_induced_blocks(*_layout(p), aut_blocks(p)), want[p]):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected)


def test_induced_blocks_match_the_reference_path_across_passes():
    """At p = 17 the default budget images the 32 blocks in more than one pass."""
    p, n = 17, 34
    blocks = aut_blocks(p)
    assert len(blocks) * 2 * n * n > _BLOCK_IMAGES
    a_halves, b_halves = _induced_blocks(*_layout(p), blocks)
    d = build_domain(p)
    reference = np.array([induced_permutation(f, d) for f in enumerate_aut(p)])
    assert np.array_equal(np.repeat(a_halves, n, axis=0), reference[:, :n])
    assert np.array_equal(b_halves, reference[:, n:] - n)


_CLASS_6 = (GroupElement(3, 0, 1), GroupElement(3, 3, 3))


@pytest.mark.parametrize(
    "moved, into, refusal",
    [
        ((GroupElement(3, 3, 3),), 7, r"splits class a\^0 b\^1 across two classes"),
        (_CLASS_6, 0, "sends a class across the A and B blocks"),
        (_CLASS_6, 7, "does not act bijectively"),
    ],
)
def test_induced_blocks_refuse_broken_b_classes(moved, into, refusal):
    """The B class 6 = {a^0 b, a^3 b^3} at p = 3, with one member relabelled
    into the B class 7, or both into the A class 0, or both into class 7."""
    broken = class_table(3).copy()
    for g in moved:
        broken[element_index(g)] = into
    with pytest.raises(ArithmeticError, match=rf"^sigma\(1,0\) {refusal}"):
        _induced_blocks(class_members(3), broken, [(SIGMA, 1)])


def test_a_split_b_class_is_refused_while_every_row_permutes():
    """Class 6 listed as {a^0 b, a^4 b^3}: its second member goes to class 7
    under sigma(1,0), while the first members' images, the B-halves, still
    permute the B classes under every beta."""
    broken = class_members(3).copy()
    broken[6] = [element_index(GroupElement(3, 0, 1)), element_index(GroupElement(3, 4, 3))]
    with pytest.raises(ArithmeticError, match=r"^sigma\(1,0\) splits class a\^0 b\^1"):
        _induced_blocks(broken, class_table(3), [(SIGMA, 1)])


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_the_first_broken_block_is_refused(budget, monkeypatch):
    """sigma(3, .) repeats an image and sigma(2, .) splits a class: the block
    listed first is refused, whether or not the two share a pass."""
    monkeypatch.setattr("cayley8p.domain._BLOCK_IMAGES", budget)
    blocks = [(SIGMA, 1), (SIGMA, 3), (SIGMA, 2)]
    with pytest.raises(ArithmeticError, match=r"^sigma\(3,0\) does not act bijectively"):
        _induced_blocks(*_layout(3), blocks)


def test_induced_action_examples():
    d = build_domain(3)
    # tau(1,0) sends a^0 b^2 to a^3 b^2, landing back in the label-0 class
    perm = induced_permutation(Automorphism(3, TAU, 1, 0), d)
    assert perm[2] == 2
    # sigma(1,1) translates the b-block labels by one and fixes the rest
    perm = induced_permutation(Automorphism(3, SIGMA, 1, 1), d)
    assert perm[:6] == (0, 1, 2, 3, 4, 5)
    assert perm[6:] == (7, 8, 9, 10, 11, 6)


def test_induced_permutation_rejects_mixed_p():
    with pytest.raises(ValueError):
        induced_permutation(Automorphism(5, SIGMA, 1, 0), build_domain(3))


def test_matches_independent_model():
    """The whole pipeline (classes + action) agrees with the from-scratch
    model, compared through class membership rather than index layout."""
    p = 3
    d = build_domain(p)
    pkg_members = [frozenset((g.k, g.l) for g in c.members) for c in d.classes]
    im_classes = im.inverse_closed_classes(p)
    pkg_of = [pkg_members.index(c) for c in im_classes]
    assert sorted(pkg_of) == list(range(4 * p))

    relabeled = set()
    for perm in im.induced_class_permutations(p):
        out = [0] * (4 * p)
        for i, target in enumerate(perm):
            out[pkg_of[i]] = pkg_of[target]
        relabeled.add(tuple(out))
    ours = set(map(tuple, induced_permutations(p).tolist()))
    assert len(ours) == 4 * p * (p - 1)
    assert ours == relabeled


def test_permutation_array_and_cycle_rows_are_read_only_int16():
    for p in PRIMES:
        perms = induced_permutations(p)
        assert perms.shape == (4 * p * (p - 1), 4 * p)
        genuine, ids = cycle_types(p)
        claimed, case = closed_form_cycle_types(p)
        assert len(claimed) == 4 * p  # one type per case
        assert ids.shape == (len(case),) == (4 * p * (p - 1),)
        for types, index in ((genuine, ids), (claimed, case)):
            assert np.unique(index).tolist() == list(range(len(types)))  # only types that occur
            for t in types:
                assert t == monomial(*t)  # ascending lengths, positive counts
                assert sum(k * e for k, e in t) == 4 * p
        assert perms.dtype == np.int16
        assert ids.dtype == np.intp
        for array in (perms, ids):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        # the claimed side is the standard library's: an immutable tuple of ints
        assert type(case) is tuple and {type(c) for c in case} == {int}
        with pytest.raises(TypeError):
            case[0] = 0


def test_int16_limits_are_refused_before_any_work(monkeypatch):
    def refuse(f):
        raise AssertionError("closed_form_cycle_type called before the size check")

    monkeypatch.setattr("cayley8p.polya.closed_form_cycle_type", refuse)
    # 8209 is the first prime with more than 32767 classes
    for build in (induced_permutations, closed_form_cycle_types):
        with pytest.raises(ValueError, match=r"p=8209 has 32836 classes.*int16.*32767"):
            build(8209)
    with pytest.raises(ValueError, match="int16"):
        cycle_counts(np.zeros((0, 1 << 15), dtype=np.int32))


def _as_dicts(types, ids) -> list[dict[int, int]]:
    return [dict(types[i]) for i in ids]


def test_array_cycle_types_match_cycle_type_of():
    """Pointer jumping over the whole array equals the scalar decomposition, map by map."""
    for p in PRIMES:
        perms = induced_permutations(p)
        assert _as_dicts(*cycle_types(p)) == [
            cycle_type_of(tuple(row)) for row in perms.tolist()
        ]


@pytest.mark.parametrize("p", PRIMES + (31, 37))
def test_half_row_cycle_types_equal_whole_row_counts(p):
    """Counting each distinct A- and B-half once and multiplying the halves'
    types gives exactly the pointer-jumping types of the whole rows, map by map."""
    types, ids = cycle_types(p)
    whole_types, whole_ids = cycle_counts(induced_permutations(p))
    assert [types[i] for i in ids.tolist()] == [whole_types[i] for i in whole_ids.tolist()]
    assert len(set(whole_types)) == len(whole_types)
    assert ids.dtype == whole_ids.dtype == np.intp
    assert not ids.flags.writeable


def test_a_map_across_the_blocks_is_refused_before_any_counting(monkeypatch):
    crossed = class_table(3).copy()
    crossed[crossed == 5] = 6  # a^3, the singleton A class, relabelled into B
    counted = []

    def spy(rows):
        counted.append(len(rows))
        return cycle_counts(rows)

    monkeypatch.setattr("cayley8p.domain.class_table", lambda p: crossed)
    monkeypatch.setattr("cayley8p.domain.induced_halves", induced_halves.__wrapped__)
    monkeypatch.setattr("cayley8p.domain.cycle_counts", spy)
    with pytest.raises(ArithmeticError, match="across the A and B blocks"):
        cycle_types.__wrapped__(3)
    assert counted == []


@st.composite
def int_rows(draw):
    """A 2-D integer array of up to 40 rows and 0 to 4 columns over few
    values, so that rows repeat; sometimes in column order, so that the
    items of a row are not adjacent."""
    width = draw(st.integers(min_value=0, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=2), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=40))
    dtype = draw(st.sampled_from((np.int16, np.int64)))
    array = np.array(rows, dtype=dtype).reshape(len(rows), width)
    return np.asfortranarray(array) if draw(st.booleans()) else array


@settings(max_examples=200, deadline=None)
@given(int_rows())
def test_distinct_rows_are_the_first_occurrences(rows):
    distinct, ids = distinct_rows(rows)
    assert np.array_equal(distinct[ids], rows)
    assert distinct.dtype == rows.dtype
    as_tuples = list(map(tuple, distinct.tolist()))
    assert len(set(as_tuples)) == len(as_tuples)
    assert as_tuples == list(dict.fromkeys(map(tuple, rows.tolist())))


def test_closed_form_array_matches_the_scalar_case_analysis():
    """One scalar call per case, spread over its maps, equals one call per map."""
    for p in PRIMES:
        assert _as_dicts(*closed_form_cycle_types(p)) == [
            closed_form_cycle_type(f) for f in enumerate_aut(p)
        ]
    # p = 3, in aut_blocks order: the alpha = 1 blocks by shift pattern
    # (beta 0, odd, even, p, even, odd), the others by parity
    sigma_1, tau_1 = (2, 1, 0, 3, 0, 1), (8, 7, 6, 9, 6, 7)
    assert closed_form_cycle_types(3)[1] == sigma_1 + (4, 5) * 3 + tau_1 + (10, 11) * 3


@st.composite
def permutation_rows(draw):
    """(n, rows): up to six permutations of range(n), n from 0 to 40."""
    n = draw(st.integers(min_value=0, max_value=40))
    return n, draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(permutation_rows())
def test_cycle_counts_match_cycle_type_of_on_drawn_permutations(drawn):
    n, perms = drawn
    identity = list(range(n))
    full_cycle = identity[1:] + identity[:1]
    rows = perms + [identity, full_cycle]
    array = np.array(rows, dtype=np.int16).reshape(len(rows), n)
    types, ids = cycle_counts(array)
    assert _as_dicts(types, ids) == [cycle_type_of(tuple(r)) for r in rows]
    # distinct, in order of first occurrence, canonical, of weighted degree n
    assert types == tuple(dict.fromkeys(types[i] for i in ids.tolist()))
    for t in types:
        assert t == monomial(*t)
        assert sum(k * e for k, e in t) == n
    assert ids.dtype == np.intp
    assert not ids.flags.writeable


@st.composite
def conjugated_rows(draw):
    """Drawn permutations of range(n), n from 1 to 40, and affine rows x ->
    u x + c mod n, then conjugates t pi t^-1 of drawn rows pi by drawn
    translations t(x) = x + g mod n, then a copy of one row with two images
    swapped.  At a prime n every affine row with u != 1 has a difference
    sequence that lists 0 .. n-1 once, while units of other orders give other
    cycle types: a key that forgets the order of the differences fails."""
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    for u in draw(st.lists(st.sampled_from(units), max_size=4)):
        c = draw(st.integers(min_value=0, max_value=n - 1))
        rows.append([(u * x + c) % n for x in range(n)])
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        pi = draw(st.sampled_from(rows))
        g = draw(st.integers(min_value=0, max_value=n - 1))
        rows.append([(pi[(x - g) % n] + g) % n for x in range(n)])
    swapped = list(draw(st.sampled_from(rows)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return rows + [swapped]


@settings(max_examples=300, deadline=None)
@given(conjugated_rows())
def test_translation_conjugates_share_a_type_and_nothing_else_does(rows):
    """Rows merged by their translation keys still get each its own type."""
    types, ids = cycle_counts(np.array(rows, dtype=np.int16))
    assert _as_dicts(types, ids) == [cycle_type_of(tuple(r)) for r in rows]
    # distinct, in order of first occurrence
    assert types == tuple(dict.fromkeys(types[i] for i in ids.tolist()))
    assert ids.dtype == np.intp
    assert not ids.flags.writeable


def _spy_on_pointer_jumping(monkeypatch) -> list[int]:
    """Record the number of rows each _count_cycles call decomposes."""
    jumped = []

    def spy(perms):
        jumped.append(len(perms))
        return _count_cycles(perms)

    monkeypatch.setattr("cayley8p.domain._count_cycles", spy)
    return jumped


def test_conjugates_whose_keys_differ_are_decomposed_apart(monkeypatch):
    """The rows 0 1 3 2 and 0 2 1 3 on Z_4, the second the first conjugated
    by x -> x + 3, have the difference sequences 0 0 1 3 and 0 1 3 0: two
    minima one step apart, in sequences of period 4.  Their keys differ, so
    both rows are decomposed, and both get the right type."""
    rows = np.array([[0, 1, 3, 2], [0, 2, 1, 3]], dtype=np.int16)
    jumped = _spy_on_pointer_jumping(monkeypatch)
    types, ids = cycle_counts(rows)
    assert jumped == [2]
    assert types == (((1, 2), (2, 1)),)
    assert ids.tolist() == [0, 0]


@pytest.mark.parametrize("p, groups", [(31, 120), (37, 144)])
def test_b_halves_are_decomposed_once_per_translation_class(p, groups, monkeypatch):
    """A B-half j -> alpha j + c mod 2p has a difference sequence of period
    p, so its translation conjugates share one key: the distinct B-halves
    fall into 4p - 4 groups, and only one row of each is pointer-jumped."""
    b_rows = induced_halves(p)[2]
    assert len(b_rows) == 2 * p * (p - 1)
    jumped = _spy_on_pointer_jumping(monkeypatch)
    cycle_counts(b_rows)
    assert jumped == [groups] == [4 * p - 4]


@pytest.mark.parametrize("p", PRIMES + (31, 37, 53))
def test_every_distinct_half_matches_cycle_type_of(p):
    """The merged decomposition equals the scalar one on every distinct
    half-row: half-row against whole-row counting runs the merge on both
    sides, and this check does not."""
    a_rows, _, b_rows, _ = induced_halves(p)
    for rows in (a_rows, b_rows):
        assert _as_dicts(*cycle_counts(rows)) == [cycle_type_of(tuple(r)) for r in rows.tolist()]


def test_cycle_type_of_basics():
    assert cycle_type_of((0, 1, 2)) == {1: 3}
    assert cycle_type_of((1, 2, 0, 3)) == {3: 1, 1: 1}
    assert cycle_type_of((1, 0, 3, 2)) == {2: 2}
    assert cycle_type_of(()) == {}


def test_cycle_types_sum_to_domain_size():
    for p in PRIMES:
        for f, perm in zip(enumerate_aut(p), induced_permutations(p)):
            for counts in (cycle_type_of(perm), closed_form_cycle_type(f)):
                assert sum(k * v for k, v in counts.items()) == 4 * p, str(f)


def test_closed_form_unit_alpha_branches():
    for p in (3, 5, 7):
        cf = lambda fam, b: closed_form_cycle_type(Automorphism(p, fam, 1, b))
        assert cf(SIGMA, 0) == {1: 4 * p}
        assert cf(SIGMA, p) == {1: 2 * p, 2: p}
        assert cf(SIGMA, 2) == {1: 2 * p, p: 2}
        assert cf(SIGMA, 1) == {1: 2 * p, 2 * p: 1}
        assert cf(TAU, 0) == {1: p + 1, 2: (3 * p - 1) // 2}
        assert cf(TAU, p) == {1: 3 * p + 1, 2: (p - 1) // 2}
        assert cf(TAU, 2) == {1: p + 1, 2: (p - 1) // 2, 2 * p: 1}
        assert cf(TAU, 1) == {1: p + 1, 2: (p - 1) // 2, p: 2}


def test_unit_alpha_never_disagrees():
    """With alpha = 1 there is no label multiplication, hence no folding:
    the case analysis is exact there for every shift."""
    for p in PRIMES:
        d = build_domain(p)
        for f in enumerate_aut(p):
            if f.alpha != 1:
                continue
            assert closed_form_cycle_type(f) == cycle_type_of(
                induced_permutation(f, d)
            ), str(f)


def test_frozen_disagreement_counts():
    """Number of automorphisms whose closed-form type differs from the
    decomposition, all of them with alpha != 1."""
    expected = {3: 12, 5: 60, 7: 84, 11: 220, 13: 468}
    for p, want in expected.items():
        d = build_domain(p)
        bad = [
            f
            for f in enumerate_aut(p)
            if closed_form_cycle_type(f) != cycle_type_of(induced_permutation(f, d))
        ]
        assert len(bad) == want
        assert all(f.alpha != 1 for f in bad)


def test_frozen_p3_unit5_types():
    """At p = 3 the unit 5 is -1 mod 6: every a-power class is fixed by
    label negation, which the closed form books as 2-cycles instead."""
    d = build_domain(3)
    cases = [
        (SIGMA, 0, {1: 6, 2: 3}, {1: 4, 2: 4}),
        (SIGMA, 1, {1: 4, 2: 4}, {1: 2, 2: 5}),
        (TAU, 0, {1: 6, 2: 3}, {1: 2, 2: 5}),
        (TAU, 1, {1: 8, 2: 2}, {1: 4, 2: 4}),
    ]
    for family, beta, genuine, claimed in cases:
        f = Automorphism(3, family, 5, beta)
        assert cycle_type_of(induced_permutation(f, d)) == genuine, str(f)
        assert closed_form_cycle_type(f) == claimed, str(f)


def test_genuine_types_reduce_to_few_keys():
    """The decomposition type depends only on (family, alpha, parity of
    the shift) when alpha != 1, and on (family, which of the four shift
    patterns) when alpha = 1."""
    for p in (3, 5, 7):
        d = build_domain(p)
        by_key = {}
        for f in enumerate_aut(p):
            if f.alpha == 1:
                pat = (
                    "zero"
                    if f.beta == 0
                    else "central"
                    if f.beta == p
                    else "even"
                    if f.beta % 2 == 0
                    else "odd"
                )
                key = (f.family, 1, pat)
            else:
                key = (f.family, f.alpha, f.beta % 2)
            t = cycle_type_of(induced_permutation(f, d))
            assert by_key.setdefault(key, t) == t, str(f)


def test_render_cycle_type():
    assert render_cycle_type({2: 5, 1: 2}) == "1^2 2^5"
    assert render_cycle_type({12: 1}) == "12^1"
    assert render_cycle_type({}) == ""
