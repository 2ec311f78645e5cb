import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plabic import (
    BadLabel,
    BoundedAffinePermutation,
    DecoratedPermutation,
    GrassmannNecklace,
    MalformedPermutation,
    MalformedWindow,
    NotANecklace,
    PlabicError,
    SizeMismatch,
    affinize,
    count_dab,
    cyclic_rotation,
    deaffinize,
    length,
    necklace_from_perm,
    perm_from_necklace,
    positroid,
    weakly_separated,
)
from plabic import BadWord, InvalidGraph, lollipop_graph, parse_word
from plabic.perms import format_subset, gale_leq, is_ws_collection, parse_subset


def all_decorated_permutations(b):
    for vals in itertools.permutations(range(1, b + 1)):
        fixed = [i for i in range(1, b + 1) if vals[i - 1] == i]
        for marks in itertools.product(["over", "under"], repeat=len(fixed)):
            yield DecoratedPermutation(vals, dict(zip(fixed, marks)))


@st.composite
def decorated_permutations(draw, max_b=8):
    b = draw(st.integers(min_value=1, max_value=max_b))
    vals = draw(st.permutations(list(range(1, b + 1))))
    fixed = [i for i in range(1, b + 1) if vals[i - 1] == i]
    marks = draw(st.lists(st.sampled_from(["over", "under"]),
                          min_size=len(fixed), max_size=len(fixed)))
    return DecoratedPermutation(vals, dict(zip(fixed, marks)))


def test_parse_and_print():
    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    assert p.values == (3, 4, 5, 1, 2, 6)
    assert p.decorations == {6: "over"}
    assert str(p) == "3 4 5 1 2 6^"
    with pytest.raises(MalformedPermutation):
        DecoratedPermutation.parse("1 2")  # undecorated fixed points
    with pytest.raises(MalformedPermutation):
        DecoratedPermutation.parse("2^ 1")  # decorated non-fixed point


def test_anti_excedances_example():
    p = DecoratedPermutation.parse("5 2_ 3^ 6 4 1")
    assert p.anti_excedances() == 3


def test_affinize_example():
    p = DecoratedPermutation.parse("5 2_ 3^ 6 4 1")
    f = affinize(p)
    assert f.window == (5, 2, 9, 6, 10, 7)
    assert f.a == 3
    assert deaffinize(f) == p


def test_affinize_identity_under():
    assert affinize(cyclic_rotation(0, 3)).window == (1, 2, 3)


def test_seven_windows_roundtrip_with_lengths():
    rows = [
        ("1^ 2_ 3_", (4, 2, 3), 2),
        ("1_ 2^ 3_", (1, 5, 3), 2),
        ("1_ 2_ 3^", (1, 2, 6), 2),
        ("2 1 3_", (2, 4, 3), 1),
        ("1_ 3 2", (1, 3, 5), 1),
        ("3 2_ 1", (3, 2, 4), 1),
        ("2 3 1", (2, 3, 4), 0),
    ]
    for text, window, ell in rows:
        p = DecoratedPermutation.parse(text)
        f = affinize(p)
        assert f.window == window
        assert length(f) == ell
        assert deaffinize(f) == p


def test_malformed_windows():
    with pytest.raises(MalformedWindow):
        BoundedAffinePermutation((5, 2, 3))  # f(1) > 1 + 3
    with pytest.raises(MalformedWindow):
        BoundedAffinePermutation((1, 1, 6))  # not a bijection mod 3
    with pytest.raises(MalformedWindow):
        BoundedAffinePermutation(())


@pytest.mark.parametrize(
    "make, error, message",
    [(lambda: DecoratedPermutation([1], {1: "sideways"}), MalformedPermutation,
      r"^decorations must be 'over' or 'under'$"),
     (lambda: BoundedAffinePermutation([2, 2]), MalformedWindow,  # in bounds
      r"^window \(2, 2\) not a bijection mod 2$"),
     (lambda: GrassmannNecklace([{0}]), NotANecklace, r"^subset \[0\] not within 1\.\.1$"),
     (lambda: gale_leq(1, 3, {1}, {1, 2}), SizeMismatch, r"^\|\[1\]\| != \|\[1, 2\]\|$")],
    ids=["decoration-sideways", "window-not-bijective", "necklace-label-0", "gale-sizes"],
)
def test_each_input_check_raises_its_error(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_length_brute_force_window():
    assert length(BoundedAffinePermutation((4, 2, 3))) == 2
    assert length(BoundedAffinePermutation((2, 3, 4))) == 0
    assert length(BoundedAffinePermutation((4, 6, 5, 7, 8, 9))) == 1


def test_length_zero_iff_rotation():
    for b in range(1, 7):
        for a in range(b + 1):
            f = affinize(cyclic_rotation(a, b))
            assert length(f) == 0
            assert deaffinize(f) == cyclic_rotation(a, b)


def test_identity_mod_b_has_maximal_length():
    f = affinize(DecoratedPermutation.parse("1^ 2^ 3_ 4_"))
    assert length(f) == 2 * 2


@settings(max_examples=150)
@given(decorated_permutations())
def test_affinization_bijection_property(p):
    f = affinize(p)
    assert deaffinize(f) == p
    assert f.a == p.anti_excedances()
    assert affinize(deaffinize(f)).window == f.window


def test_count_dab_small_values():
    assert count_dab(1, 3) == 7
    assert count_dab(0, 5) == 1
    assert sum(count_dab(a, 3) for a in range(4)) == 16
    assert sum(count_dab(a, 4) for a in range(5)) == 65


def test_count_dab_matches_enumeration():
    for b in range(0, 7):
        buckets = {}
        if b == 0:
            continue
        for p in all_decorated_permutations(b):
            buckets[p.anti_excedances()] = buckets.get(p.anti_excedances(), 0) + 1
        for a in range(b + 1):
            assert count_dab(a, b) == buckets.get(a, 0), (a, b)
        total = math.factorial(b) * sum(
            1 / math.factorial(k) for k in range(b + 1)
        )
        assert sum(buckets.values()) == round(total)


def test_necklace_example():
    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    nk = necklace_from_perm(p)
    assert [sorted(s) for s in nk.sets] == [
        [1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6], [1, 2, 6],
    ]
    assert perm_from_necklace(nk) == p


def test_necklace_of_rotations():
    for a, b in [(2, 5), (3, 6)]:
        nk = necklace_from_perm(cyclic_rotation(a, b))
        expected = [
            frozenset((ell + k) % b + 1 for k in range(a)) for ell in range(b)
        ]
        assert list(nk.sets) == expected


def test_necklace_all_over_identity():
    nk = necklace_from_perm(cyclic_rotation(2, 2))
    assert list(nk.sets) == [frozenset({1, 2}), frozenset({1, 2})]


def test_necklace_roundtrip_enumeration():
    for b in range(1, 7):
        for p in all_decorated_permutations(b):
            assert perm_from_necklace(necklace_from_perm(p)) == p


def test_not_a_necklace():
    with pytest.raises(NotANecklace):
        GrassmannNecklace([{1, 2}, {3, 4}, {1, 3}, {1, 2}])
    with pytest.raises(NotANecklace):
        GrassmannNecklace([{1}, {1, 2}])
    with pytest.raises(NotANecklace, match=r"needs b >= 1 sets"):
        GrassmannNecklace([])


def test_positroid_of_rotation_is_everything():
    for a, b in [(2, 4), (2, 5), (3, 6)]:
        nk = necklace_from_perm(cyclic_rotation(a, b))
        assert len(positroid(nk)) == math.comb(b, a)


def test_positroid_single_set():
    nk = necklace_from_perm(cyclic_rotation(3, 3))
    assert positroid(nk) == {frozenset({1, 2, 3})}


def test_positroid_membership_brute_force():
    nk = GrassmannNecklace(
        [{1, 2, 6}, {2, 3, 6}, {3, 4, 6}, {4, 5, 6}, {1, 5, 6}, {1, 2, 6}]
    )
    m = positroid(nk)
    assert frozenset({1, 2, 3}) not in m  # fails the Gale test at shift 4

    recount = sum(
        1
        for J in itertools.combinations(range(1, 7), 3)
        if all(gale_leq(ell, 6, nk[ell - 1], J) for ell in range(1, 7))
    )
    assert recount == len(m)
    assert all(6 in J for J in m)


@pytest.mark.parametrize("I, J", [({1, 5}, {2, 6}), ({0, 1}, {1, 2}), ({1, 2}, {2, 5}),
                                  ({-1, 2}, {2, 3})])
def test_weak_separation_rejects_labels_outside_1_to_b(I, J):
    with pytest.raises(BadLabel):
        weakly_separated(I, J, 4)
    with pytest.raises(BadLabel):
        weakly_separated(J, I, 4)


@pytest.mark.parametrize("I, J", [({0}, {4}), ({4}, {0}), ({5}, {1}), ({1, 2}, {2, 7})])
def test_gale_leq_rejects_labels_outside_1_to_b(I, J):
    with pytest.raises(BadLabel):
        gale_leq(1, 4, I, J)


def test_weak_separation_basics():
    assert not weakly_separated({1, 3}, {2, 4}, 4)
    assert weakly_separated({1, 3}, {1, 3}, 4)
    assert weakly_separated({1, 2}, {3, 4}, 4)
    with pytest.raises(SizeMismatch):
        weakly_separated({1}, {1, 2}, 3)


def test_known_maximal_collection_is_ws():
    coll = [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}, {1, 4}]
    assert is_ws_collection(coll, 5)


@settings(max_examples=120)
@given(st.integers(1, 8), st.data())
def test_weak_separation_symmetry_and_shift(b, data):
    a = data.draw(st.integers(1, b))
    universe = list(range(1, b + 1))
    I = frozenset(data.draw(st.permutations(universe))[:a])
    J = frozenset(data.draw(st.permutations(universe))[:a])
    assert weakly_separated(I, J, b) == weakly_separated(J, I, b)
    shift = lambda S: frozenset(x % b + 1 for x in S)
    assert weakly_separated(I, J, b) == weakly_separated(shift(I), shift(J), b)


def test_subset_formatting():
    assert format_subset({3, 1, 2}, 6) == "123"
    assert format_subset({10, 2}, 12) == "2,10"
    assert parse_subset("123") == frozenset({1, 2, 3})
    assert parse_subset("2,10") == frozenset({2, 10})


@pytest.mark.parametrize(
    "make, error",
    [(lambda: DecoratedPermutation([2.0, 1.0]), MalformedPermutation),
     (lambda: DecoratedPermutation([True], {1: "over"}), MalformedPermutation),
     (lambda: BoundedAffinePermutation([1.0]), MalformedWindow),
     (lambda: GrassmannNecklace(["ab"]), NotANecklace),
     (lambda: weakly_separated("12", "34", 4), BadLabel),
     (lambda: count_dab(-1, 3), MalformedPermutation),
     (lambda: count_dab(1.5, 3), MalformedPermutation),
     (lambda: GrassmannNecklace(5), NotANecklace),
     (lambda: DecoratedPermutation([1], [1]), MalformedPermutation),
     (lambda: DecoratedPermutation([1], "over"), MalformedPermutation),
     (lambda: gale_leq(1, 4, [1, "a"], [1]), BadLabel),
     (lambda: gale_leq("a", 4, [1], [1]), BadLabel)],
    ids=["perm-floats", "perm-bool", "window-float", "necklace-str", "ws-str", "dab-negative",
         "dab-float", "necklace-int", "decorations-list", "decorations-str",
         "gale-mixed-unequal", "gale-str-start"],
)
def test_entry_points_take_only_integers(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    "make, error",
    [(lambda: DecoratedPermutation.parse(5), MalformedPermutation),
     (lambda: parse_word(5), BadWord),
     (lambda: parse_subset(12), BadLabel),
     (lambda: parse_subset("ab"), BadLabel),
     (lambda: lollipop_graph(5), InvalidGraph)],
    ids=["perm-parse-int", "word-int", "subset-int", "subset-letters", "lollipops-int"],
)
def test_text_entry_points_take_only_text(make, error):
    with pytest.raises(error):
        make()


# where an entry point expects ints: floats, bools, strings, ints past
# Python's digit limit, and lists nesting any of them.  A size b stays
# small, since the work and the masks grow with b.
HUGE = st.integers(min_value=10**4300, max_value=10**4400)
SCALARS = st.one_of(st.integers(-3, 12), HUGE, HUGE.map(lambda n: -n), st.floats(),
                    st.booleans(), st.text(max_size=3))
JUNK = st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)),
                                    max_size=3))
SIZES = st.one_of(st.integers(-3, 12), st.floats(), st.booleans(), st.text(max_size=3))
ENTRY_POINTS = {
    "DecoratedPermutation": (
        DecoratedPermutation,
        st.tuples(st.lists(JUNK, max_size=6),
                  st.one_of(st.dictionaries(SCALARS, st.sampled_from(["over", "under", 1]),
                                            max_size=3), JUNK))),
    "BoundedAffinePermutation": (BoundedAffinePermutation, st.tuples(st.lists(JUNK, max_size=6))),
    "GrassmannNecklace": (GrassmannNecklace, st.tuples(st.one_of(SCALARS,
                                                                 st.lists(JUNK, max_size=5)))),
    "gale_leq": (gale_leq, st.tuples(SCALARS, SIZES, st.lists(JUNK, max_size=4),
                                     st.lists(JUNK, max_size=4))),
    "weakly_separated": (weakly_separated, st.tuples(st.lists(JUNK, max_size=4),
                                                     st.lists(JUNK, max_size=4), SIZES)),
    "cyclic_rotation": (cyclic_rotation, st.tuples(SCALARS, SIZES)),
    "count_dab": (count_dab, st.tuples(SCALARS, SIZES)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_return_or_raise_a_plabic_error(name):
    call, arguments = ENTRY_POINTS[name]

    @settings(max_examples=200)
    @given(arguments)
    def inner(args):
        try:
            call(*args)
        except PlabicError:
            pass

    inner()
