import tracemalloc

import pytest

from plabic import (
    BadBudget,
    NotReducedError,
    TooLarge,
    apply_move,
    bridge_graph,
    cyclic_rotation,
    enumerate_ws,
    face_labels,
    label_collection,
    legal_moves,
    lollipop_graph,
    necklace_from_perm,
    positroid,
    strongly_equivalent,
)
from plabic import DecoratedPermutation
from plabic import fixtures as F
from plabic import labels as labels_module
from plabic.perms import is_ws_collection
from conftest import random_decorated_permutation


def _by_arc(g, labeling):
    arcs = {}
    internal = []
    for idx, f in enumerate(g.faces()):
        if f.kind == "boundary":
            for i in f.rim_arcs:
                arcs[i] = set(labeling[idx])
        elif f.kind == "internal":
            internal.append(set(labeling[idx]))
    return arcs, internal


def test_two_trees_source_and_target_labels():
    g = F.two_trees_b6()
    arcs_s, _ = _by_arc(g, face_labels(g, "source"))
    assert arcs_s == {
        1: {1, 3, 5}, 2: {1, 3, 5}, 3: {1, 3, 5},
        4: {1, 3, 4}, 5: {3, 4, 5}, 6: {3, 5, 6},
    }
    arcs_t, _ = _by_arc(g, face_labels(g, "target"))
    assert arcs_t == {
        1: {3, 4, 5}, 2: {3, 4, 5}, 3: {3, 4, 5},
        4: {3, 5, 6}, 5: {3, 4, 6}, 6: {1, 3, 4},
    }


def test_fan_target_collection():
    g = F.square_fan_b5()
    coll = {frozenset(s) for s in label_collection(g, "target")}
    expected = {
        frozenset(s)
        for s in ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}, {1, 4})
    }
    assert coll == expected
    arcs, internal = _by_arc(g, face_labels(g, "target"))
    assert arcs == {1: {2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {1, 5}, 5: {1, 2}}
    assert sorted(internal, key=sorted) == [{1, 4}, {2, 4}]


def test_pendant_tree_keeps_the_collapsed_labels():
    """A trip running out and back through a pendant tree does not put the
    tree's face on its left: labels equal those of the collapsed graph."""
    g, gbar = F.collapsible_tree_b3(), F.collapsed_tree_b3()
    for mode in ("source", "target"):
        assert _by_arc(g, face_labels(g, mode)) == _by_arc(gbar, face_labels(gbar, mode))
        assert all(len(s) == 2 for s in face_labels(g, mode).values())


def test_white_lollipop_only_face():
    g = lollipop_graph("w")
    for mode in ("source", "target"):
        labeling = face_labels(g, mode)
        assert list(labeling.values()) == [frozenset({1})]


def test_labels_require_reduced():
    with pytest.raises(NotReducedError):
        face_labels(F.fork_b1())


def test_face_labels_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^mode must be 'source' or 'target', got 'sideways'$"):
        face_labels(F.square_fan_b5(), "sideways")


def test_label_cardinality_and_ws(rng):
    from plabic import weakly_separated

    for _ in range(40):
        b = rng.randint(1, 7)
        p = random_decorated_permutation(b, rng)
        g = bridge_graph(p)
        labeling = face_labels(g, "target")
        a = p.anti_excedances()
        assert all(len(s) == a for s in labeling.values())
        labels = list(labeling.values())
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert weakly_separated(labels[i], labels[j], b)


def test_boundary_faces_carry_the_necklace(rng):
    for _ in range(25):
        b = rng.randint(2, 7)
        p = random_decorated_permutation(b, rng)
        g = bridge_graph(p)
        nk = necklace_from_perm(p)
        arcs, _ = _by_arc(g, face_labels(g, "target"))
        for i, label in arcs.items():
            assert label == set(nk[i % b]), (str(p), i)


def test_strong_equivalence_m2_invariant():
    from plabic import MoveSpec

    g = F.square_fan_b5()
    h = apply_move(g, MoveSpec("InsertBivalentM2", edge=7, color="white"))
    assert strongly_equivalent(g, h)


def test_square_move_breaks_strong_equivalence():
    g = F.square_fan_b5()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "SquareM1"]
    h = apply_move(g, m)
    assert not strongly_equivalent(g, h)
    diff = label_collection(g, "target") ^ label_collection(h, "target")
    assert len(diff) == 2  # exactly one label flips


def test_different_permutations_not_strongly_equivalent():
    g1 = bridge_graph(DecoratedPermutation.parse("2 1 3_"))
    g2 = bridge_graph(DecoratedPermutation.parse("1_ 3 2"))
    assert not strongly_equivalent(g1, g2)


def test_full_identity_single_collection():
    colls = enumerate_ws(cyclic_rotation(3, 3))
    assert colls == {frozenset({frozenset({1, 2, 3})})}


def test_catalan_counts():
    for b, want in [(4, 2), (5, 5), (6, 14)]:
        assert len(enumerate_ws(cyclic_rotation(2, b))) == want


def test_gr37_count():
    # maximal weakly separated collections of 3-subsets of 1..7
    assert len(enumerate_ws(cyclic_rotation(3, 7))) == 259


def test_collections_satisfy_sandwich():
    p = cyclic_rotation(2, 5)
    nk = necklace_from_perm(p)
    posd = positroid(nk)
    for coll in enumerate_ws(p):
        assert len(coll) == 2 * 3 + 1
        assert set(nk.sets) <= coll <= posd
        assert is_ws_collection(coll, 5)


def test_enumerate_respects_limit():
    with pytest.raises(TooLarge):
        enumerate_ws(cyclic_rotation(2, 6), limit=3)


def test_enumerate_limit_counts_the_seed():
    p = DecoratedPermutation.parse("2 1")
    with pytest.raises(TooLarge):
        enumerate_ws(p, limit=0)
    assert len(enumerate_ws(p, limit=1)) == 1


def test_enumerate_limit_on_a_large_positroid():
    """Gr(8,16) has 12,870 positroid members; a small limit stops the search
    after a few collections.  Members are numbered as the search meets
    them, and move rows and label sets are built only for the members those
    collections hold."""
    with pytest.raises(TooLarge, match="more than 50 collections"):
        enumerate_ws(cyclic_rotation(8, 16), limit=50)


def test_enumerate_limit_pays_only_for_what_it_visits():
    """Gr(10,20) has 184,756 positroid members.  Stopping after the seed
    numbers only the members its square moves reach, so the search stays
    far below the memory of numbering them all (over 200 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="more than 1 collections"):
            enumerate_ws(cyclic_rotation(10, 20), limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_enumerate_checks_the_seed_for_weak_separation(monkeypatch):
    """Only the seed is tested for weak separation, so a seed of the right
    size, holding the necklace and inside the positroid, with one pair that
    is not weakly separated, is refused, and the message names that pair."""
    p = cyclic_rotation(2, 5)
    nk = necklace_from_perm(p)
    bad = frozenset(nk.sets) | {frozenset({1, 3}), frozenset({2, 4})}
    assert len(bad) == 7 and bad <= positroid(nk) and not is_ws_collection(bad, 5)
    monkeypatch.setattr(labels_module, "label_collection", lambda g, mode: bad)
    with pytest.raises(AssertionError, match="not weakly separated") as exc:
        enumerate_ws(p)
    assert "[1, 3]" in str(exc.value) and "[2, 4]" in str(exc.value)


def test_enumerate_rejects_a_negative_limit():
    """And a limit that is not an int, as ``move_equivalent`` does a budget."""
    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    for limit in (-1, 1.5, True, "3"):
        with pytest.raises(BadBudget):
            enumerate_ws(p, limit=limit)


def test_enumerate_is_deterministic():
    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    first, second = enumerate_ws(p), enumerate_ws(p)
    assert first == second
    assert list(first) == list(second)


def test_enumerate_nontrivial_decorated():
    from plabic import affinize, length

    p = DecoratedPermutation.parse("3 4 5 1 2 6^")
    colls = enumerate_ws(p)
    nk = necklace_from_perm(p)
    posd = positroid(nk)
    for coll in colls:
        assert set(nk.sets) <= coll <= posd
    # all collections share the bridge-graph size
    a, b = p.anti_excedances(), p.b
    sizes = {len(c) for c in colls}
    assert sizes == {a * (b - a) - length(affinize(p)) + 1}


def test_adjacent_face_labels_swap_along_edge_label(rng):
    """Neighboring face labels differ by the pair of trips traversing the
    shared edge: their sources in source mode (the edge label), their
    targets in target mode.  An independent consistency check between the
    trip machinery and the left-of-trip flood fill."""
    from plabic import all_trips, edge_labels

    graphs = [F.square_fan_b5(), F.two_trees_b6(), F.normal_b5()]
    for _ in range(20):
        graphs.append(bridge_graph(random_decorated_permutation(rng.randint(2, 7), rng)))
    for g in graphs:
        sources = edge_labels(g)
        targets = {e: set() for e in g.edge_ids}
        for t in all_trips(g):
            if t.kind == "oneway":
                for d in t.darts:
                    targets[g.edge_id(d)].add(t.target)
        for mode, swap in (("source", sources), ("target", targets)):
            labeling = face_labels(g, mode)
            fmap = g.face_of_dart()
            for e in g.edge_ids:
                d0, d1 = g.darts_of_edge(e)
                f0, f1 = fmap[d0], fmap[d1]
                if f0 == f1:
                    continue
                diff = labeling[f0] ^ labeling[f1]
                assert diff == frozenset(swap[e]) or not diff, (mode, e)


def test_face_labels_returns_a_new_dict_each_call():
    g = F.square_fan_b5()
    want = face_labels(g)
    collection = label_collection(g)
    face_labels(g).clear()
    assert face_labels(g) == want and len(want) == 7
    assert label_collection(g) == collection
