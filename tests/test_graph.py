import json
import random

import pytest

from plabic import (
    InvalidGraph,
    PlabicGraph,
    apply_move,
    bad_features,
    classify,
    collapse_trees,
    face_labels,
    legal_moves,
    normalize,
    lollipop_graph,
    trip_permutation,
    validate,
)
from plabic import fixtures as F
from plabic import graph as graph_module
from plabic.cli import main
from plabic.graph import Builder


def test_single_lollipop_is_valid():
    g = lollipop_graph("b")
    assert validate(g).ok
    faces = g.faces()
    kinds = sorted(f.kind for f in faces)
    assert kinds == ["boundary", "outer"]


def test_self_twin_dart_is_reported():
    raw = {
        "b": 1,
        "vertices": [{"id": 0, "color": "black"}],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"0": [0, 1], "-1": [0]},
    }
    rep = validate(raw)
    assert not rep.ok
    assert any("twin involution" in p for p in rep.problems)
    with pytest.raises(InvalidGraph):
        PlabicGraph.from_json(json.dumps(raw))


def test_declared_but_unused_edge_is_reported():
    obj = lollipop_graph("w").to_json_obj()
    obj["edges"].append({"id": 99})
    rep = validate(obj)
    assert rep.problems == ["declared edges never used in rotation: [99]"]
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_json(obj)
    assert err.value.problems == rep.problems


def test_a_huge_b_costs_work_bounded_by_the_input(tmp_path, capsys):
    """A graph object of a few bytes with b = 10**9 names its first 20
    missing boundary vertices and counts the rest, in ``validate``,
    ``from_json`` and ``plabic info``, without a pass over all b labels."""
    b = 10**9
    cases = [
        ({"b": b}, -b),
        ({"b": b, "rotation": {str(-b): []}}, -b + 1),  # label b is present
    ]
    for obj, first in cases:
        want = [f"vertex {v} has no rotation entry" for v in range(first, first + 20)]
        want.append(f"{-first - 20} more boundary vertices have no rotation entry")
        if "rotation" in obj:
            want.append(f"boundary vertex {b} has degree 0 (expected 1)")
        assert validate(obj).problems == want
        with pytest.raises(InvalidGraph) as err:
            PlabicGraph.from_json(json.dumps(obj))
        assert err.value.problems == want
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        assert main(["info", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "InvalidGraph"


def test_square_fan_is_valid_with_seven_nonouter_faces():
    g = F.square_fan_b5()
    assert validate(g).ok
    faces = g.faces()
    assert sum(1 for f in faces if f.kind != "outer") == 7
    assert sum(1 for f in faces if f.kind == "boundary") == g.b
    assert sum(1 for f in faces if f.kind == "outer") == 1
    assert g.euler_ok()


def test_disconnected_internal_vertex_invalid():
    raw = {
        "b": 1,
        "vertices": [{"id": 0, "color": "black"}, {"id": 1, "color": "white"},
                     {"id": 2, "color": "white"}],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"0": [0], "-1": [0], "1": [1], "2": [1]},
    }
    rep = validate(raw)
    assert any("no path to the boundary" in p for p in rep.problems)


def test_boundary_degree_enforced():
    raw = {
        "b": 1,
        "vertices": [{"id": 0, "color": "black"}],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"0": [0, 1], "-1": [0, 1]},
    }
    rep = validate(raw)
    assert any("degree" in p for p in rep.problems)


def test_loop_accepted_by_model():
    # loop at an internal vertex attached to the boundary
    raw = {
        "b": 1,
        "vertices": [{"id": 0, "color": "black"}],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"0": [0, 1, 1], "-1": [0]},
    }
    rep = validate(raw)
    assert rep.ok
    g = PlabicGraph.from_json(json.dumps(raw))
    assert g.is_loop(1)


def test_json_roundtrip_preserves_ids():
    g = F.two_trees_b6()
    text = g.to_json()
    h = PlabicGraph.from_json(text)
    assert h.to_json() == text
    assert sorted(h.edge_ids) == sorted(g.edge_ids)


def test_collapse_tree_onto_internal_root():
    g = F.collapsible_tree_b3()
    assert collapse_trees(g) == F.collapsed_tree_b3()
    assert collapse_trees(collapse_trees(g)) == collapse_trees(g)


def test_collapse_no_trees_unchanged():
    g = F.square_fan_b5()
    assert collapse_trees(g) == g


def test_collapse_path_to_black_lollipop():
    colors = {0: "black", 1: "white", 2: "black"}
    rot = {0: [0, 1], 1: [1, 2], 2: [2], -1: [0]}
    g = PlabicGraph.from_rotation(1, colors, rot)
    c = collapse_trees(g)
    vs = c.internal_vertices()
    assert len(vs) == 1
    assert c.color(vs[0]) == "black"
    assert c.degree(vs[0]) == 1


def test_collapse_preserves_trip_permutation(rng):
    from conftest import random_decorated_permutation

    from plabic import bridge_graph

    for _ in range(25):
        g = bridge_graph(random_decorated_permutation(rng.randint(1, 6), rng))
        assert trip_permutation(collapse_trees(g)) == trip_permutation(g)


def test_classify_normal_fixture():
    info = classify(F.normal_b5())
    assert info["normal"]
    assert info["bipartite"]
    assert not info["trivalent"]  # it contains bivalent black vertices


def test_classify_fan_not_normal():
    # boundary vertices 1 and 3 attach to white vertices
    info = classify(F.square_fan_b5())
    assert not info["normal"]


def test_classify_white_lollipop():
    g = lollipop_graph("w")
    info = classify(g)
    assert info["lollipops"] == [0]
    assert info["internal_leaves"] == [0]
    assert not info["normal"]


def test_canonical_key_ignores_internal_relabeling():
    g = F.square_fan_b5()
    obj = g.to_json_obj()
    mapping = {0: 10, 1: 21, 2: 32, 3: 43, 4: 54, 5: 65, 6: 76}
    obj["vertices"] = [
        {"id": mapping[v["id"]], "color": v["color"]} for v in obj["vertices"]
    ]
    obj["rotation"] = {
        str(mapping.get(int(k), int(k))): v for k, v in obj["rotation"].items()
    }
    h = PlabicGraph.from_json(json.dumps(obj))
    assert h == g
    assert hash(h) == hash(g)


def test_canonical_key_distinguishes_colors():
    g = lollipop_graph("b")
    h = lollipop_graph("w")
    assert g != h


def test_exporters_run():
    g = F.square_fan_b5()
    assert "graph plabic" in g.to_dot()
    assert "tikzpicture" in g.to_tikz()


def test_nonplanar_rotation_rejected():
    raw = {
        "b": 4,
        "vertices": [],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"-1": [0], "-3": [0], "-2": [1], "-4": [1]},
    }
    rep = validate(raw)
    assert not rep.ok
    assert any("Euler" in p for p in rep.problems)


def test_noncrossing_chords_accepted():
    raw = {
        "b": 4,
        "vertices": [],
        "edges": [{"id": 0}, {"id": 1}],
        "rotation": {"-1": [0], "-2": [0], "-3": [1], "-4": [1]},
    }
    assert validate(raw).ok


def test_roundtrip_and_canonicalization_on_random_graphs():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from plabic import bridge_graph
    from test_perms import decorated_permutations

    @settings(max_examples=60, deadline=None)
    @given(decorated_permutations(max_b=6), st.randoms(use_true_random=False))
    def inner(p, rnd):
        g = bridge_graph(p)
        assert PlabicGraph.from_json(g.to_json()) == g
        # shuffle internal ids; canonical form must not notice
        obj = g.to_json_obj()
        ids = [v["id"] for v in obj["vertices"]]
        shuffled = ids[:]
        rnd.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        obj["vertices"] = [
            {"id": mapping[v["id"]], "color": v["color"]} for v in obj["vertices"]
        ]
        obj["rotation"] = {
            str(mapping.get(int(k), int(k))): v for k, v in obj["rotation"].items()
        }
        assert PlabicGraph.from_json(json.dumps(obj)) == g

    inner()


def test_connected_graphs_have_b_boundary_faces():
    from plabic import from_wiring, parse_word

    for g in (
        F.square_fan_b5(),
        F.normal_b5(),
        F.grid_fragment_b4(),
        from_wiring(parse_word("s2 s1 s2 s3"), 4),
    ):
        faces = g.faces()
        assert sum(1 for f in faces if f.kind == "boundary") == g.b


def test_rotation_start_does_not_matter():
    g = F.square_fan_b5()
    obj = g.to_json_obj()
    rot = obj["rotation"]
    rot["3"] = rot["3"][1:] + rot["3"][:1]  # same cyclic order
    h = PlabicGraph.from_json(json.dumps(obj))
    assert h == g


@pytest.mark.parametrize(
    "raw",
    [
        {"b": 1, "vertices": [{"color": "white"}], "rotation": {"-1": [0], "0": [0]}},
        {"b": 1, "vertices": [{"id": True, "color": "white"}], "rotation": {"-1": [0], "1": [0]}},
        {"b": True, "vertices": [{"id": 0, "color": "white"}], "rotation": {"-1": [0], "0": [0]}},
        {"b": 2, "vertices": [], "rotation": {"-1": ["0"], "-2": ["0"]}},
    ],
    ids=["vertex-without-id", "vertex-id-bool", "b-bool", "edge-id-str"],
)
def test_malformed_json_objects_are_reported_not_raised(raw):
    assert not validate(raw).ok
    with pytest.raises(InvalidGraph):
        PlabicGraph.from_json(raw)


def test_a_move_keeps_untouched_darts_and_rotations():
    g = F.square_fan_b5()
    g.faces()
    (mv,) = [m for m in legal_moves(g) if m.kind == "InsertBivalentM2"][:1]
    h = apply_move(g, mv)
    d0, d1 = g.darts_of_edge(mv.edge)
    far = g.dart_vertex(d1)  # its slot takes the new edge's dart
    assert [v for v in g._rot if h._rot[v] is not g._rot[v]] == [far]
    assert h._edge_ids[: len(g._edge_ids)] == g._edge_ids
    assert h.darts_of_edge(mv.edge) == (d0, d1)


def test_freeze_numbers_darts_afresh_once_holes_pass_half(monkeypatch):
    """Moves leave holes in the dart numbers; a freeze that would leave more
    holes than edges numbers the darts afresh."""
    real = graph_module._number_darts
    calls = []
    monkeypatch.setattr(graph_module, "_number_darts",
                        lambda *args: calls.append(1) or real(*args))
    rng = random.Random(3)
    primitive = ("SquareM1", "InsertBivalentM2", "RemoveBivalentM2",
                 "ContractM3", "SplitM3", "FlipM4")
    g = F.square_path_b6()
    calls.clear()
    holes = 0
    for _ in range(600):
        if calls:
            break
        g = apply_move(g, rng.choice([m for m in legal_moves(g) if m.kind in primitive]))
        live, bound = g.num_darts(), g._dart_bound()
        assert bound - live <= live  # at most half the index space
        holes = max(holes, bound - live)
    assert calls and live == bound and holes > 50
    assert PlabicGraph.from_json(g.to_json())._rot == g._rot


def test_remove_bivalent_moves_the_survivor_to_its_ids_index():
    # vertex 0 lists edge 5 first, so edge 5's dart survives with id 2
    g = PlabicGraph.from_rotation(2, {0: "white"}, {-1: [5], -2: [2], 0: [5, 2]})
    bld = Builder(g)
    assert bld.fresh_edge_id() == 6 and bld.fresh_vertex() == 1
    bld.remove_bivalent(0)  # frees the largest id and the largest vertex
    assert bld.fresh_edge_id() == 3 and bld.fresh_vertex() == 0
    h = bld.freeze()
    assert h._edge_ids == (2,) and h.to_json_obj()["rotation"] == {"-2": [2], "-1": [2]}
    assert validate(h).ok


def test_validate_checks_in_full_the_graphs_it_did_not_build():
    # raw constructor: crossing chords 1-3 (edge 0) and 2-4 (edge 1)
    g = PlabicGraph(4, {}, {-1: (0,), -3: (1,), -2: (2,), -4: (3,)}, (0, 1))
    assert any("Euler" in p for p in validate(g).problems)
    bld = Builder(lollipop_graph("w"))
    bld.add_vertex("white")  # joined to nothing
    h = bld.freeze()
    assert validate(h).problems == ["internal vertex 1 has no path to the boundary"]


def test_classify_and_validate_return_new_values_each_call():
    g = F.two_trees_b6()
    want = classify(g)
    info = classify(g)
    info["normal"] = True
    info["lollipops"].append(99)
    info["internal_leaves"].clear()
    assert classify(g) == want and want["lollipops"] == [2, 3]
    validate(g).add("spoiled")
    assert validate(g).problems == []


def test_a_move_child_inherits_only_face_tables():
    """The facts cached on a graph hold for it alone; a move's result may
    start only from its parent's face tables and move sites."""
    inheritable = {"faces", "face_of_dart", "face_next", "base", "site_base"}
    kinds = set()
    for g in (F.square_fan_b5(), F.normal_b5(), F.urban_left_b7()):
        validate(g)
        classify(g)
        g.canonical_key()
        g.darts_of_edge(g.edge_ids[0])
        face_labels(g, "target")
        normalize(g)
        if classify(g)["normal"]:
            bad_features(g)
        assert {"valid", "classify", "ckey", "edge_index", "trips", "decorated",
                "normalize", "is_reduced"} <= set(g._cache)
        for m in legal_moves(g):
            h = apply_move(g, m)
            kinds.add(m.kind)
            assert set(h._cache) <= inheritable, (m, set(h._cache))
    assert {"SquareM1", "UrbanRenewal", "NormalFlip"} <= kinds, kinds
