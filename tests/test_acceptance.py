"""Acceptance suite: every criterion is exact (no tolerances) and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import functools
import itertools
import math
import random

from plabic import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    PlabicGraph,
    TripleView,
    affinize,
    apply_move,
    bad_features,
    bcfw_factorize,
    bridge_graph,
    classify,
    count_dab,
    cyclic_rotation,
    deaffinize,
    decorated_trip_permutation,
    enumerate_ws,
    face_labels,
    from_triangulation,
    is_reduced,
    label_collection,
    legal_moves,
    length,
    necklace_from_perm,
    normalize,
    positroid,
    quiver_of,
    resonance,
    trip_permutation,
)
from plabic import fixtures as F
from plabic.perms import is_ws_collection

from conftest import (
    insert_loop,
    insert_parallel_digon,
    random_decorated_permutation,
    trivalentize,
)


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} [{text}]: FAIL")
                raise
            print(f"ACCEPTANCE {num:2d} [{text}]: PASS")

        return wrapper

    return deco


@criterion(1, "fixture trip permutations")
def test_criterion_1_fixture_permutations():
    assert trip_permutation(F.square_fan_b5()) == [3, 4, 5, 1, 2]
    assert str(decorated_trip_permutation(F.square_fan_b5_lollipop())) == "3 4 5 1 2 6^"
    assert str(decorated_trip_permutation(F.square_path_b6())) == "3 4 5 1 2 6^"
    assert str(decorated_trip_permutation(F.two_trees_b6())) == "5 2_ 3^ 6 4 1"


@criterion(2, "six reduced normal graphs on b=3 realize S3")
def test_criterion_2_six_normal_graphs():
    W, B = "white", "black"

    def graph(colors, rotation):
        return PlabicGraph.from_rotation(3, colors, rotation)

    gs = [
        # three black lollipops: the identity
        graph({0: B, 1: B, 2: B}, {0: [0], 1: [1], 2: [2],
                                   -1: [0], -2: [1], -3: [2]}),
        # a black join of 2,3 plus a lollipop at 1
        graph({0: B, 1: B}, {0: [0], 1: [1, 2], -1: [0], -2: [1], -3: [2]}),
        # a black join of 1,3 plus a lollipop at 2
        graph({0: B, 1: B}, {0: [0, 2], 1: [1], -1: [0], -2: [1], -3: [2]}),
        # a black join of 1,2 plus a lollipop at 3
        graph({0: B, 1: B}, {0: [0, 1], 1: [2], -1: [0], -2: [1], -3: [2]}),
        # one black vertex joined to all three boundary vertices
        graph({0: B}, {0: [0, 1, 2], -1: [0], -2: [1], -3: [2]}),
        # a white center on three black stems
        graph(
            {0: W, 1: B, 2: B, 3: B},
            {0: [3, 4, 5], 1: [0, 3], 2: [1, 4], 3: [2, 5],
             -1: [0], -2: [1], -3: [2]},
        ),
    ]
    perms = set()
    for g in gs:
        assert classify(g)["normal"]
        assert is_reduced(g).reduced
        perms.add(tuple(trip_permutation(g)))
    assert perms == set(itertools.permutations((1, 2, 3)))


@criterion(3, "D_{a,b} formula vs brute force, 0<=a<=b<=6")
def test_criterion_3_dab():
    for b in range(1, 7):
        buckets = {}
        count = 0
        for vals in itertools.permutations(range(1, b + 1)):
            fixed = [i for i in range(1, b + 1) if vals[i - 1] == i]
            for marks in itertools.product(["over", "under"], repeat=len(fixed)):
                p = DecoratedPermutation(vals, dict(zip(fixed, marks)))
                a = p.anti_excedances()
                buckets[a] = buckets.get(a, 0) + 1
                count += 1
        for a in range(b + 1):
            assert count_dab(a, b) == buckets.get(a, 0), (a, b)
        expected_total = round(
            math.factorial(b) * sum(1 / math.factorial(k) for k in range(b + 1))
        )
        assert count == expected_total
    assert sum(count_dab(a, 3) for a in range(4)) == 16
    assert sum(count_dab(a, 4) for a in range(5)) == 65


@criterion(4, "affinization bijection on the seven a=1, b=3 rows")
def test_criterion_4_affinization_rows():
    rows = [
        ("1^ 2_ 3_", (4, 2, 3), 2),
        ("1_ 2^ 3_", (1, 5, 3), 2),
        ("1_ 2_ 3^", (1, 2, 6), 2),
        ("2 1 3_", (2, 4, 3), 1),
        ("1_ 3 2", (1, 3, 5), 1),
        ("3 2_ 1", (3, 2, 4), 1),
        ("2 3 1", (2, 3, 4), 0),
    ]
    assert len(rows) == count_dab(1, 3)
    for text, window, ell in rows:
        p = DecoratedPermutation.parse(text)
        f = affinize(p)
        assert f.window == window
        assert deaffinize(f) == p
        assert length(f) == ell


@criterion(5, "BCFW factorization and bridge graph of (4,6,5,1,2,3)")
def test_criterion_5_bcfw():
    f = BoundedAffinePermutation((4, 6, 5, 7, 8, 9))
    seq = bcfw_factorize(f)
    assert len(seq.transpositions) == 8
    out = []
    for x in range(1, 7):
        y = x
        for i, j in seq.transpositions:  # right-to-left product
            y = j if y == i else i if y == j else y
        out.append(y)
    assert out == [4, 6, 5, 1, 2, 3]
    p = DecoratedPermutation.parse("4 6 5 1 2 3")
    g = bridge_graph(p)
    assert is_reduced(g).reduced
    assert decorated_trip_permutation(g) == p
    assert len(g.nonouter_faces()) == 9


@criterion(6, "face-count law on 500 random permutations per b in 4..7")
def test_criterion_6_face_count_law():
    rng = random.Random(6)
    for b in (4, 5, 6, 7):
        for _ in range(500):
            p = random_decorated_permutation(b, rng)
            g = bridge_graph(p)
            a = p.anti_excedances()
            ell = length(affinize(p))
            assert len(g.nonouter_faces()) == a * (b - a) - ell + 1


@criterion(7, "1000 move walks preserve permutation/faces/labels/reducedness")
def test_criterion_7_move_walks():
    rng = random.Random(7)
    starts = [
        F.square_fan_b5,
        F.square_fan_b5_lollipop,
        F.two_trees_b6,
        F.normal_b5,
        F.square_path_b6,
    ]
    for walk in range(1000):
        if walk % 3 == 0:
            g = starts[walk // 3 % len(starts)]()
        else:
            g = bridge_graph(random_decorated_permutation(rng.randint(3, 6), rng))
        p = decorated_trip_permutation(g)
        nfaces = len(g.nonouter_faces())
        labels = label_collection(g, "target", check=False)
        steps = rng.randint(1, 200)
        primitive = ("SquareM1", "InsertBivalentM2", "RemoveBivalentM2",
                     "ContractM3", "SplitM3", "FlipM4")
        for _ in range(steps):
            mv = rng.choice([m for m in legal_moves(g) if m.kind in primitive])
            h = apply_move(g, mv)
            assert decorated_trip_permutation(h) == p
            assert len(h.nonouter_faces()) == nfaces
            new_labels = label_collection(h, "target", check=False)
            if mv.kind == "SquareM1":
                assert len(labels ^ new_labels) == 2
                _check_square_label_rule(g, h, mv.face)
            else:
                assert new_labels == labels
            labels = new_labels
            g = h
        assert is_reduced(g).reduced


def _check_square_label_rule(before, after, face_idx):
    """The square face's label flips ikS <-> jlS, neighbors carrying the
    four side labels ijS, jkS, klS, ilS; everything else fixed."""
    lb = face_labels(before, "target", check=False)
    la = face_labels(after, "target", check=False)
    changed = [idx for idx in lb if lb[idx] != la[idx]]
    assert changed == [face_idx]
    old, new = lb[face_idx], la[face_idx]
    S = old & new
    ik, jl = old - S, new - S
    assert len(ik) == 2 and len(jl) == 2 and not (ik & jl)
    face = before.faces()[face_idx]
    fmap = before.face_of_dart()
    side_labels = {lb[fmap[before.twin(d)]] for d in face.darts}
    i, k = sorted(ik)
    j, l = sorted(jl)
    expected = {frozenset(S | set(pair)) for pair in ((i, j), (j, k), (k, l), (i, l))}
    assert side_labels == expected


@criterion(8, "reducedness criteria agree on 1000 random graphs per b<=6")
def test_criterion_8_criteria_agreement():
    rng = random.Random(8)
    for b in (2, 3, 4, 5, 6):
        for trial in range(1000):
            p = random_decorated_permutation(b, rng)
            g = bridge_graph(p)
            style = trial % 5
            if style == 1:
                g = insert_parallel_digon(g, rng)
            elif style == 2:
                g = insert_loop(g, rng)
            elif style == 3:
                for _ in range(rng.randint(1, 4)):
                    g = apply_move(g, rng.choice(legal_moves(g)))
            elif style == 4:
                g = insert_parallel_digon(g, rng)
                for _ in range(rng.randint(1, 3)):
                    g = apply_move(g, rng.choice(legal_moves(g)))
            red = is_reduced(g).reduced
            res = normalize(g)
            via_features = res.ok and (
                res.normal.b == 0 or not bad_features(res.normal)
            )
            assert red == via_features
            info = classify(g)
            if all(v in info["lollipops"] for v in info["internal_leaves"]):
                assert resonance(g) == red
            if res.ok and res.normal.b:
                assert TripleView(res.normal).minimality().minimal == red


@criterion(9, "face labels of the figure fixtures")
def test_criterion_9_labels():
    g = F.two_trees_b6()
    expect_source = {
        (1,): {1, 3, 5}, (2,): {1, 3, 5}, (3,): {1, 3, 5},
        (4,): {1, 3, 4}, (5,): {3, 4, 5}, (6,): {3, 5, 6},
    }
    expect_target = {
        (1,): {3, 4, 5}, (2,): {3, 4, 5}, (3,): {3, 4, 5},
        (4,): {3, 5, 6}, (5,): {3, 4, 6}, (6,): {1, 3, 4},
    }
    for mode, expect in (("source", expect_source), ("target", expect_target)):
        labeling = face_labels(g, mode)
        for idx, f in enumerate(g.faces()):
            if f.kind != "boundary":
                continue
            for arc in f.rim_arcs:
                assert set(labeling[idx]) == expect[(arc,)]
        assert all(len(s) == 3 for s in labeling.values())
    fan = F.square_fan_b5()
    coll = label_collection(fan, "target")
    assert coll == {
        frozenset(s)
        for s in ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}, {1, 4})
    }
    assert all(len(s) == 2 for s in coll)
    assert is_ws_collection(coll, 5)


@criterion(10, "necklaces and positroids")
def test_criterion_10_necklaces():
    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    nk = necklace_from_perm(p)
    assert [sorted(s) for s in nk.sets] == [
        [1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6], [1, 2, 6],
    ]
    from plabic import perm_from_necklace

    assert perm_from_necklace(nk) == p
    for a, b in ((2, 4), (2, 5), (3, 6)):
        full = positroid(necklace_from_perm(cyclic_rotation(a, b)))
        assert len(full) == math.comb(b, a)


@criterion(11, "weakly separated collection counts 5/14/42 and 34")
def test_criterion_11_ws_counts():
    for b, want in ((5, 5), (6, 14), (7, 42)):
        p = cyclic_rotation(2, b)
        colls = enumerate_ws(p)
        assert len(colls) == want
        _check_sandwich(p, colls)
    p36 = cyclic_rotation(3, 6)
    colls = enumerate_ws(p36)
    assert len(colls) == 34
    _check_sandwich(p36, colls)


def _check_sandwich(p, colls):
    a, b = p.anti_excedances(), p.b
    nk = necklace_from_perm(p)
    posd = positroid(nk)
    size = a * (b - a) - length(affinize(p)) + 1
    for coll in colls:
        assert len(coll) == size
        assert set(nk.sets) <= coll <= posd
        assert is_ws_collection(coll, b)


@criterion(12, "triangulation quivers and square-move/mutation commutation")
def test_criterion_12_quivers():
    from plabic import Quiver, quiver_of_triangulation, triangulation_label_key

    rng = random.Random(12)

    def random_triangulation(m):
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

    for _ in range(100):
        m = rng.randint(4, 10)
        tris = random_triangulation(m)
        q_graph = quiver_of(from_triangulation(m, tris), keys="labels")
        q_tri = quiver_of_triangulation(m, tris)
        renamed = Quiver(
            [(triangulation_label_key(k, m), fr) for k, fr in q_tri.vertices],
            {
                (triangulation_label_key(u, m), triangulation_label_key(v, m)): c
                for (u, v), c in q_tri.arrows.items()
            },
        )
        assert renamed.is_isomorphic(q_graph)

    checked = 0
    for graphs in range(200):
        b = rng.randint(4, 7)
        if graphs % 2:
            p = random_decorated_permutation(b, rng)
        else:
            p = cyclic_rotation(rng.randint(1, b - 1), b)
        g = trivalentize(bridge_graph(p))
        for _ in range(10):  # scramble with flips to expose more squares
            moves = [
                m for m in legal_moves(g) if m.kind in ("SquareM1", "FlipM4")
            ]
            if not moves:
                break
            g = apply_move(g, rng.choice(moves))
        for mv in legal_moves(g):
            if mv.kind != "SquareM1" or not mv.condition_ok:
                continue
            h = apply_move(g, mv)
            assert quiver_of(g, keys="ids").mutate(mv.face).is_isomorphic(
                quiver_of(h, keys="ids")
            )
            checked += 1
    assert checked >= 60

