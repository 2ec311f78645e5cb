import json

import pytest

from plabic import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    MalformedPermutation,
    MalformedWindow,
    affinize,
    bcfw_factorize,
    bridge_graph,
    cyclic_rotation,
    decorated_trip_permutation,
    is_reduced,
    length,
    necklace_from_perm,
    trip_permutation,
)
from plabic.graph import lollipop_graph
from conftest import random_decorated_permutation


def compose_right_to_left(transpositions, b):
    """pi(x) = t_last(... t_first(x) ...)."""
    out = []
    for x in range(1, b + 1):
        y = x
        for i, j in transpositions:
            y = j if y == i else i if y == j else y
        out.append(y)
    return out


def test_factorization_of_worked_window():
    f = BoundedAffinePermutation((4, 6, 5, 7, 8, 9))
    seq = bcfw_factorize(f)
    assert len(seq.transpositions) == 8
    assert compose_right_to_left(seq.transpositions, 6) == [4, 6, 5, 1, 2, 3]
    assert seq.replay().window == f.window


def test_bridge_sequence_json_of_worked_window():
    obj = bcfw_factorize(BoundedAffinePermutation((4, 6, 5, 7, 8, 9))).to_json_obj()
    assert obj == {
        "b": 6,
        "transpositions": [[1, 2], [2, 3], [3, 4], [2, 3], [1, 2], [3, 5], [2, 3], [3, 6]],
        "base_decorations": {"1": "over", "2": "over", "3": "over",
                             "4": "under", "5": "under", "6": "under"},
    }
    assert json.loads(json.dumps(obj)) == obj


def test_factorization_identity_empty():
    f = affinize(cyclic_rotation(0, 4))
    assert bcfw_factorize(f).transpositions == []
    f2 = affinize(cyclic_rotation(4, 4))
    assert bcfw_factorize(f2).transpositions == []


def test_factorization_rotation_count():
    f = affinize(cyclic_rotation(2, 5))
    seq = bcfw_factorize(f)
    assert length(f) == 0
    assert len(seq.transpositions) == 2 * 3
    assert compose_right_to_left(seq.transpositions, 5) == [3, 4, 5, 1, 2]


def test_each_swap_increases_length(rng):
    for _ in range(30):
        p = random_decorated_permutation(rng.randint(2, 7), rng)
        f = affinize(p)
        seq = bcfw_factorize(f)
        cur = f
        ell = length(cur)
        for t in seq.transpositions:
            cur = cur.swap(*t)
            assert length(cur) == ell + 1
            ell += 1
        a, b = f.a, f.b
        assert len(seq.transpositions) == a * (b - a) - length(f)


def test_bridge_graph_worked_example():
    g = bridge_graph(DecoratedPermutation.parse("4 6 5 1 2 3"))
    assert trip_permutation(g) == [4, 6, 5, 1, 2, 3]
    assert len(g.nonouter_faces()) == 9
    assert is_reduced(g).reduced


def test_bridge_graph_lollipops_only():
    g = bridge_graph(cyclic_rotation(0, 4))
    assert len(g.internal_vertices()) == 4
    faces = g.faces()
    assert sum(1 for f in faces if f.kind == "boundary") == 1
    assert sum(1 for f in faces if f.kind == "internal") == 0


def test_bridge_graph_of_the_empty_permutation():
    p = DecoratedPermutation([])
    g = bridge_graph(p)
    assert g.to_json() == lollipop_graph("").to_json()
    assert decorated_trip_permutation(g) == p
    assert is_reduced(g).reduced


def test_bridge_graph_rotation_max_faces():
    g = bridge_graph(cyclic_rotation(2, 5))
    assert is_reduced(g).reduced
    assert len(g.nonouter_faces()) == 2 * 3 + 1


def test_bridge_graph_random_properties(rng):
    for _ in range(120):
        b = rng.randint(1, 7)
        p = random_decorated_permutation(b, rng)
        g = bridge_graph(p)
        assert is_reduced(g).reduced
        assert decorated_trip_permutation(g) == p
        a = p.anti_excedances()
        ell = length(affinize(p))
        assert len(g.nonouter_faces()) == a * (b - a) - ell + 1


NOT_A_PERMUTATION = {"string": "3 1 2", "none": None, "list": [3, 1, 2],
                     "window": BoundedAffinePermutation((2, 3, 4))}


@pytest.mark.parametrize("arg", list(NOT_A_PERMUTATION.values()), ids=list(NOT_A_PERMUTATION))
@pytest.mark.parametrize("entry", [bridge_graph, affinize, necklace_from_perm],
                         ids=["bridge_graph", "affinize", "necklace_from_perm"])
def test_permutation_entry_points_refuse_other_values(entry, arg):
    with pytest.raises(MalformedPermutation, match=r"^expected a DecoratedPermutation, got "):
        entry(arg)


@pytest.mark.parametrize("arg", ["2 3 4", None, [2, 3, 4], (2, 3, 4),
                                 DecoratedPermutation.parse("2 3 1")],
                         ids=["string", "none", "list", "tuple", "permutation"])
def test_factorization_refuses_what_is_no_window(arg):
    with pytest.raises(MalformedWindow, match=r"^expected a BoundedAffinePermutation, got "):
        bcfw_factorize(arg)
