import pytest

import plabic

from plabic import (
    BadLabel,
    BadWord,
    FrozenVertex,
    NotATriangulation,
    Quiver,
    apply_move,
    bridge_graph,
    from_triangulation,
    from_wiring,
    is_reduced,
    legal_moves,
    lollipop_graph,
    parse_word,
    quiver_of,
    quiver_of_triangulation,
    triangulation_label_key,
    trip_permutation,
)
from plabic import fixtures as F
from plabic.quiver import check_triangulation
from conftest import random_decorated_permutation, trivalentize


def test_fan_quiver_arrows_exactly():
    g = F.square_fan_b5()
    q = quiver_of(g, keys="ids")
    faces = g.faces()
    arc = {f.rim_arcs[0]: i for i, f in enumerate(faces) if f.kind == "boundary"}
    internal = [i for i, f in enumerate(faces) if f.kind == "internal"]
    # the square face borders boundary arcs 1 and 5; the fan face the rest
    square = next(
        i for i in internal if len(faces[i].darts) == 4
    )
    fan = next(i for i in internal if i != square)
    expected = {
        (arc[5], square): 1,
        (arc[2], square): 1,
        (square, arc[1]): 1,
        (square, fan): 1,
        (fan, arc[5]): 1,
        (fan, arc[3]): 1,
        (arc[4], fan): 1,
    }
    assert q.arrows == expected
    frozen = {k for k, fr in q.vertices if fr}
    assert frozen == set(arc.values())


def test_lollipop_quiver_isolated_frozen():
    q = quiver_of(lollipop_graph("bwb"))
    assert q.arrows == {}
    assert all(fr for _, fr in q.vertices)


def test_quiver_of_rejects_an_unknown_key_mode():
    with pytest.raises(ValueError, match="'auto', 'labels' or 'ids'"):
        quiver_of(F.square_fan_b5(), keys="labelz")


def test_quiver_with_face_index_keys_writes_dot():
    q = quiver_of(F.grid_fragment_b4(), keys="ids")
    assert q.arrows and all(type(k) is int for k in q.keys())
    dot = q.to_dot()
    for idx, (k, fr) in enumerate(q.vertices):
        shape = "box" if fr else "ellipse"
        assert f'  n{idx} [shape={shape}, label="{k}"];' in dot
    assert dot.count(" -> ") == sum(q.arrows.values())


def test_mutation_involutive_and_antisymmetric():
    g = F.grid_fragment_b4()
    q = quiver_of(g, keys="ids")
    k = next(key for key, fr in q.vertices if not fr)
    m = q.mutate(k)
    assert m.mutate(k).is_isomorphic(q)
    for u in m.keys():
        for v in m.keys():
            if u != v:
                assert m.m(u, v) == -m.m(v, u)


def test_frozen_vertex_mutation_rejected():
    q = quiver_of(F.square_fan_b5())
    frozen_key = next(k for k, fr in q.vertices if fr)
    with pytest.raises(FrozenVertex):
        q.mutate(frozen_key)


def test_module_level_mutate_rejects_a_frozen_vertex():
    q = quiver_of(F.square_fan_b5())
    frozen_key = next(k for k, fr in q.vertices if fr)
    with pytest.raises(FrozenVertex):
        plabic.mutate(q, frozen_key)


@pytest.mark.parametrize("mutate", [plabic.Quiver.mutate, plabic.mutate], ids=["method", "module"])
def test_mutation_at_a_key_the_quiver_lacks_is_a_bad_label(mutate):
    q = quiver_of(F.square_fan_b5())
    with pytest.raises(BadLabel):
        mutate(q, "zz")


def test_square_move_is_mutation_on_grid():
    g1 = F.grid_fragment_b4()
    for m in legal_moves(g1):
        if m.kind != "SquareM1":
            continue
        assert m.condition_ok
        g2 = apply_move(g1, m)
        q1 = quiver_of(g1, keys="ids")
        q2 = quiver_of(g2, keys="ids")
        assert q1.mutate(m.face).is_isomorphic(q2)


def test_square_move_mutation_on_random_reduced(rng):
    checked = 0
    for _ in range(60):
        g = bridge_graph(random_decorated_permutation(rng.randint(3, 6), rng))
        g = trivalentize(g)
        for m in legal_moves(g):
            if m.kind != "SquareM1" or not m.condition_ok:
                continue
            h = apply_move(g, m)
            assert quiver_of(g, keys="ids").mutate(m.face).is_isomorphic(
                quiver_of(h, keys="ids")
            )
            checked += 1
    assert checked >= 10



def test_quiver_invariant_under_m2_m3(rng):
    from plabic import MoveSpec

    g = F.square_fan_b5()
    q = quiver_of(g)  # label keys: stable across M2/M3
    h = apply_move(g, MoveSpec("InsertBivalentM2", edge=5, color="black"))
    h = apply_move(h, MoveSpec("ContractM3", edge=10))
    assert quiver_of(h).is_isomorphic(q)


def test_triangulation_checks():
    with pytest.raises(NotATriangulation):
        from_triangulation(5, [(1, 2, 3)])
    with pytest.raises(NotATriangulation):
        from_triangulation(4, [(1, 2, 3), (1, 2, 4)])


def test_triangulation_checks_count_each_diagonal_and_all_of_them():
    with pytest.raises(NotATriangulation, match=r"^diagonal \[1, 3\] used 3 times$"):
        from_triangulation(5, [(1, 2, 3), (1, 3, 4), (1, 3, 5)])
    with pytest.raises(NotATriangulation, match="^wrong number of diagonals$"):
        check_triangulation(6, [(1, 3, 5), (1, 3, 5), (2, 4, 6), (2, 4, 6)])


def test_octagon_quiver_matches_direct_construction():
    m, tris = F.octagon_triangulation()
    gt = from_triangulation(m, tris)
    assert is_reduced(gt).reduced
    assert trip_permutation(gt) == [3, 4, 5, 6, 7, 8, 1, 2]
    q_graph = quiver_of(gt, keys="labels")
    q_tri = quiver_of_triangulation(m, tris)
    renamed = Quiver(
        [(triangulation_label_key(k, m), fr) for k, fr in q_tri.vertices],
        {
            (triangulation_label_key(u, m), triangulation_label_key(v, m)): c
            for (u, v), c in q_tri.arrows.items()
        },
    )
    assert renamed.is_isomorphic(q_graph)


def random_triangulation(m, rng):
    tris = []

    def rec(vs):
        if len(vs) < 3:
            return
        if len(vs) == 3:
            tris.append(tuple(vs))
            return
        k = rng.randrange(1, len(vs) - 1)
        tris.append((vs[0], vs[k], vs[-1]))
        rec(vs[: k + 1])
        rec(vs[k:])

    rec(list(range(1, m + 1)))
    return tris


def test_random_triangulations_quiver_agreement(rng):
    for _ in range(30):
        m = rng.randint(4, 10)
        tris = random_triangulation(m, rng)
        gt = from_triangulation(m, tris)
        q_graph = quiver_of(gt, keys="labels")
        q_tri = quiver_of_triangulation(m, tris)
        renamed = Quiver(
            [(triangulation_label_key(k, m), fr) for k, fr in q_tri.vertices],
            {
                (triangulation_label_key(u, m), triangulation_label_key(v, m)): c
                for (u, v), c in q_tri.arrows.items()
            },
        )
        assert renamed.is_isomorphic(q_graph)


def test_wiring_graph_reduced():
    g = from_wiring(parse_word("s2 s3 s2 s1 s2 s3"), 4)
    assert g.b == 8
    assert is_reduced(g).reduced
    assert trip_permutation(g) == [5, 6, 7, 8, 4, 3, 2, 1]


def test_wiring_left_trips_follow_strands():
    # wires: left label i exits at the right end of the wire starting at
    # height i; right-side trips run straight back left
    g = from_wiring(parse_word("s1"), 2)
    assert trip_permutation(g) == [3, 4, 2, 1]


def test_nonreduced_word():
    g = from_wiring(parse_word("s1 s1"), 2)
    assert not is_reduced(g).reduced


def test_appending_repeated_letter_breaks_reducedness():
    w = parse_word("s2 s1")
    assert is_reduced(from_wiring(w, 3)).reduced
    w2 = parse_word("s2 s1 s1")
    assert not is_reduced(from_wiring(w2, 3)).reduced


def test_double_wiring_colors():
    g = from_wiring(parse_word("s1 S1"), 2, kind="double")
    # thin crossing: white on top; thick: black on top
    cols = [g.color(v) for v in g.internal_vertices()]
    assert cols == ["black", "white", "white", "black"]


def test_from_wiring_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="'single' or 'double'"):
        from_wiring(parse_word("s1 S1"), 2, kind="triple")


def test_bad_word():
    with pytest.raises(BadWord):
        parse_word("x3")
    with pytest.raises(BadWord):
        from_wiring(parse_word("s5"), 3)


@pytest.mark.parametrize(
    "word, n",
    [([], 2.0), ([], "3"), ([1.5], 3), ([(1,)], 3), (None, 3), ([], True), ([True], 3),
     ([(1.0, True)], 3)],
    ids=["n-float", "n-str", "letter-float", "letter-short-tuple", "word-none", "n-bool",
         "letter-bool", "letter-float-in-pair"],
)
def test_from_wiring_takes_only_integer_letters_and_wires(word, n):
    with pytest.raises(BadWord):
        from_wiring(word, n)


@pytest.mark.parametrize("text", ["s\N{SUPERSCRIPT TWO}", "s" + "9" * 5000],
                         ids=["unicode-digit", "past-the-digit-limit"])
def test_parse_word_rejects_digits_int_cannot_read(text):
    with pytest.raises(BadWord):
        parse_word(text)


def test_double_shuffle_wiring_valid():
    g = from_wiring(parse_word("s2 S1 s2 S1 s1"), 3, kind="double")
    from plabic import validate

    assert validate(g).ok
    assert g.b == 6
