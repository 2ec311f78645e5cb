import random

from plabic import (
    BLACK,
    WHITE,
    PlabicGraph,
    bridge_graph,
    classify,
    is_reduced,
    lollipop_graph,
    normalize,
    trip_permutation,
)
from plabic import fixtures as F
from plabic.graph import Builder
from plabic.normalize import Witness
from conftest import insert_loop, insert_parallel_digon, random_decorated_permutation
from test_golden import _bridge_graphs


def test_normalize_ladder_matches_expected():
    res = normalize(F.presplit_b5())
    assert res.ok
    assert res.normal == F.normalized_b5()
    assert res.lollipops_removed == []
    assert res.label_map == {i: i for i in range(1, 6)}


def test_normalize_idempotent_on_normal():
    g = F.normalized_b5()
    res = normalize(g)
    assert res.ok and res.normal == g
    g2 = F.normal_b5()
    res2 = normalize(g2)
    assert res2.ok and res2.normal == g2


def test_normalize_rejects_internal_leaf():
    res = normalize(F.bad_leaf_b2())
    assert not res.ok
    assert res.witness.kind == "internal_leaf"


def test_normalize_removes_lollipops_and_relabels():
    g = F.square_fan_b5_lollipop()
    res = normalize(g)
    assert res.ok
    assert res.lollipops_removed == [(6, "white")]
    assert res.normal.b == 5
    assert res.label_map == {i: i for i in range(1, 6)}
    assert classify(res.normal)["normal"]
    assert trip_permutation(res.normal) == [3, 4, 5, 1, 2]


def test_normalize_relabeling_of_interior_lollipop():
    g = lollipop_graph("bwb")
    res = normalize(g)
    assert res.ok
    assert res.normal.b == 0
    assert sorted(res.lollipops_removed) == [(1, "black"), (2, "white"), (3, "black")]


def test_normalize_rejects_loops():
    import json

    from plabic import PlabicGraph

    raw = {
        "b": 1,
        "vertices": [{"id": 0, "color": "black"}],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"0": [0, 1, 1], "-1": [0]},
    }
    g = PlabicGraph.from_json(json.dumps(raw))
    res = normalize(g)
    assert not res.ok and res.witness.kind == "loop"


def test_normalize_rejects_loop_left_by_bivalent_removal():
    # a bubble: black 0 joined to bivalent white 1 by two parallel edges
    g = PlabicGraph.from_rotation(
        1, {0: "black", 1: "white"}, {-1: [0], 0: [0, 1, 2], 1: [2, 1]}
    )
    assert normalize(g).witness == Witness("loop", edges=(1,))
    assert is_reduced(g).reduced is False


def test_normalize_numbers_darts_once_per_normal_form(monkeypatch, rng):
    """Darts get their numbers when the normal form is built: normalize
    numbers them once for a normal form, and not at all when it finds a
    witness.  The normal form is kept on the graph, so ``is_reduced`` and
    any later ``normalize`` of the same graph number nothing more."""
    with_normal_form = [F.square_fan_b5_lollipop(), F.two_trees_b6(), F.collapsible_tree_b3()]
    with_witness = [F.bad_leaf_b2(), F.fork_b1(), insert_loop(F.two_trees_b6(), rng)]
    decided_first = [[F.square_fan_b5_lollipop(), F.two_trees_b6(), F.normal_b5()],
                     [F.bad_leaf_b2(), insert_loop(F.two_trees_b6(), rng)]]
    real = Builder._number_afresh
    calls = []

    def counted(bld, *args):
        calls.append(1)
        return real(bld, *args)

    monkeypatch.setattr(Builder, "_number_afresh", counted)
    for graphs, ok in ((with_normal_form, True), (with_witness, False)):
        for g in graphs:
            calls.clear()
            assert normalize(g).ok is ok
            assert len(calls) == (1 if ok else 0)
    for graphs, ok in zip(decided_first, (True, False)):
        for g in graphs:
            calls.clear()
            assert is_reduced(g).reduced is ok
            normal = normalize(g).normal
            assert normalize(g).normal is normal and (normal is not None) is ok
            assert len(calls) == (1 if ok else 0)


def test_a_normal_form_is_numbered_as_its_json_round_trip():
    """A normal form is numbered afresh, so its darts are those of the graph
    read back from its JSON; on the corpus of the pinned normal forms."""
    rng = random.Random(7)
    graphs = [F.ALL_NAMED[name]() for name in sorted(F.ALL_NAMED)] + _bridge_graphs()
    graphs += [insert_parallel_digon(g, rng) for g in graphs]
    normals = [n for n in (normalize(g).normal for g in graphs) if n is not None]
    assert len(normals) == 105
    for n in normals:
        h = PlabicGraph.from_json(n.to_json())
        assert (n._rot, n._dart_vertex, n._edge_ids) == (h._rot, h._dart_vertex, h._edge_ids)


def test_normalize_returns_new_bookkeeping_each_call():
    g = F.two_trees_b6()
    first = normalize(g)
    want = (first.normal, list(first.lollipops_removed), dict(first.label_map))
    assert want[1] == [(2, "black"), (3, "white")]
    first.lollipops_removed.clear()
    first.label_map[99] = 1
    first.normal = None
    again = normalize(g)
    assert (again.normal, again.lollipops_removed, again.label_map) == want
    assert again.normal is want[0] and is_reduced(g).reduced


def test_normalize_black_black_contraction_loop():
    # black-black digon: contracting one side makes the other a loop
    g = F.ALL_NAMED["black_digon_b2"]()
    res = normalize(g)
    assert not res.ok and res.witness.kind == "loop"


def test_normalize_output_is_normal(rng):
    for _ in range(40):
        g = bridge_graph(random_decorated_permutation(rng.randint(1, 7), rng))
        res = normalize(g)
        assert res.ok
        if res.normal.b:
            assert classify(res.normal)["normal"]


def test_normalize_trip_restriction(rng):
    for _ in range(40):
        g = bridge_graph(random_decorated_permutation(rng.randint(2, 7), rng))
        res = normalize(g)
        if not res.ok or not res.normal.b:
            continue
        pi = trip_permutation(g)
        inv = {old: new for old, new in res.label_map.items()}
        new_pi = trip_permutation(res.normal)
        for old, new in inv.items():
            target = pi[old - 1]
            assert target in inv  # surviving targets survive
            assert new_pi[new - 1] == inv[target]
        removed = {lab for lab, _ in res.lollipops_removed}
        assert all(pi[i - 1] == i for i in removed)


def test_is_reduced_fixture_verdicts():
    assert is_reduced(F.square_fan_b5()).reduced
    assert is_reduced(F.normal_b5()).reduced
    assert is_reduced(F.square_path_b6()).reduced
    assert not is_reduced(F.fork_b1()).reduced
    assert not is_reduced(F.bad_leaf_b2()).reduced
    for name in ("white_digon_b2", "mixed_digon_b2", "black_digon_b2"):
        assert not is_reduced(F.ALL_NAMED[name]()).reduced


def test_is_reduced_all_lollipops():
    assert is_reduced(lollipop_graph("wbwb")).reduced


def test_is_reduced_invariant_under_moves(rng):
    from plabic import apply_move, legal_moves

    g = F.ALL_NAMED["mixed_digon_b2"]()
    for _ in range(15):
        mv = rng.choice(legal_moves(g))
        g = apply_move(g, mv)
        assert not is_reduced(g).reduced


def test_a_floating_digon_of_bivalent_vertices_is_a_loop():
    """A raw graph: two bivalent vertices joined by two edges, beside
    ``fork_b1``.  Removing the first leaves a loop on the second."""
    bld = Builder(F.fork_b1())
    u, v = bld.add_vertex(WHITE), bld.add_vertex(BLACK)
    a0, a1 = bld._new_dart_pair(bld.fresh_edge_id())
    c0, c1 = bld._new_dart_pair(bld.fresh_edge_id())
    bld._edit(u)[:] = [a0, c0]
    bld._edit(v)[:] = [c1, a1]
    bld.dv.update({a0: u, c0: u, a1: v, c1: v})
    res = normalize(bld.freeze())
    assert not res.ok and res.witness == Witness("loop", vertices=(v,))


def test_is_reduced_returns_a_new_result_each_call():
    g = F.square_fan_b5()
    spoiled = is_reduced(g)
    spoiled.reduced, spoiled.witness = False, Witness("loop")
    assert is_reduced(g) == is_reduced(g) and is_reduced(g).reduced
    h = F.bad_leaf_b2()
    want = is_reduced(h)
    spoiled = is_reduced(h)
    spoiled.reduced = True
    again = is_reduced(h)
    assert not again.reduced and again.witness == want.witness
