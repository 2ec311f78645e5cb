import json
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plabic import (
    DecoratedPermutation,
    IllegalMove,
    InvalidGraph,
    MoveSpec,
    PlabicError,
    PlabicGraph,
    apply_move,
    bad_features,
    bridge_graph,
    classify,
    collapse_trees,
    face_labels,
    from_triangulation,
    from_wiring,
    legal_moves,
    normalize,
    lollipop_graph,
    parse_word,
    quiver_of,
    quiver_of_triangulation,
    trip_permutation,
    validate,
)
from plabic import fixtures as F
from plabic import graph as graph_module
from plabic.cli import main
from plabic.graph import Builder
from plabic.moves import KINDS
from conftest import random_decorated_permutation, trivalentize


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


def test_from_json_keeps_no_reference_to_the_rotation_lists():
    """The caller's rotation lists are read, not kept: changing them after
    ``from_json`` changes neither the graph nor its JSON.  A tuple is read
    like a list, and a string as a list of its characters."""
    text = F.two_trees_b6().to_json()
    obj = json.loads(text)
    g = PlabicGraph.from_json(obj)
    rotation = g.rotation(0)
    for es in obj["rotation"].values():
        es.reverse()
        es.append(99)
    obj["rotation"]["0"].clear()
    assert g.rotation(0) == rotation and g.to_json() == text
    obj = json.loads(text)
    obj["rotation"] = {v: tuple(es) for v, es in obj["rotation"].items()}
    assert PlabicGraph.from_json(obj).to_json() == text
    obj["rotation"]["-1"] = "0"
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_json(obj)
    assert err.value.problems == ["vertex -1 lists edge id '0', which is not an integer",
                                  "edge 0 has only one dart (twin involution violated)"]


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


def _children_with_holes():
    """``(parent, move, child)`` for every legal move of every fixture whose
    result keeps None at an edge index the move emptied."""
    out = []
    for name in sorted(F.ALL_NAMED):
        g = F.ALL_NAMED[name]()
        for m in legal_moves(g):
            h = apply_move(g, m)
            if None in h._edge_ids:
                out.append((g, m, h))
    return out


def _endpoints_from_json(g):
    """Each edge id's two endpoints read off ``to_json_obj()``: the first
    and second vertex whose rotation lists hold the id, in (vertex id,
    position) order."""
    ends = {}
    rotation = g.to_json_obj()["rotation"]
    for v in sorted(rotation, key=int):
        for e in rotation[v]:
            ends.setdefault(e, []).append(int(v))
    return [(e, *ends[e]) for e in sorted(ends)]


def test_exporters_draw_each_edge_between_its_endpoints():
    """``to_dot`` and ``to_tikz`` draw the edges in id order, each from its
    first endpoint to its second, on the fixtures and on move results with
    holes; the tikz coordinates of each vertex are read off its own node
    line."""
    def name(v):
        return f"b{-v}" if v < 0 else f"v{v}"

    graphs = [F.ALL_NAMED[fixture]() for fixture in sorted(F.ALL_NAMED)]
    children = [h for _, _, h in _children_with_holes()]
    assert len(children) >= 30
    for g in graphs + children:
        edges = _endpoints_from_json(g)
        assert len(edges) == len(g.edge_ids)
        dot = [line for line in g.to_dot().splitlines() if " -- " in line]
        assert dot == [f"  {name(u)} -- {name(v)} [label={e}];" for e, u, v in edges]
        tikz = g.to_tikz()
        at = {-int(i): xy for i, xy in re.findall(r"\\node\[label=(\d+)\] \S+ at (\S+)", tikz)}
        internal = re.findall(r"\\(?:fill|draw) (\S+) circle \(2\.5pt\)", tikz)
        at.update(zip(g.internal_vertices(), internal, strict=True))
        assert len(at) == g.b + len(g.internal_vertices())
        drawn = re.findall(r"\\draw (\S+) -- (\S+);", tikz)
        assert drawn == [(at[u], at[v]) for _, u, v in edges]


def test_darts_of_edge_refuses_ids_a_child_with_holes_lacks():
    """A move's result keeps None at the edge indices the move emptied, so
    a scan of its edge ids meets None.  ``darts_of_edge`` refuses None, an
    id the move removed and an unhashable id with ValueError, and an
    edge-id move on None or on a removed id is an IllegalMove."""
    children = _children_with_holes()
    assert len(children) >= 30
    removals = 0
    for g, m, h in children:
        removed = set(g.edge_ids) - set(h.edge_ids)  # a flip keeps its edge's id
        removals += bool(removed)
        for bad in [None, [1], *sorted(removed)]:
            with pytest.raises(ValueError, match="no edge with id"):
                h.darts_of_edge(bad)
            if bad != [1]:
                for spec in (MoveSpec("InsertBivalentM2", edge=bad, color="white"),
                             MoveSpec("ContractM3", edge=bad), MoveSpec("FlipM4", edge=bad)):
                    with pytest.raises(IllegalMove, match="no edge with id"):
                        apply_move(h, spec)
    assert removals >= 30, removals  # 38 of 39


def test_is_boundary_and_repr_count_live_parts():
    """Boundary vertices have negative ids; ``repr`` counts internal
    vertices and live edges, so a move's holes are not edges."""
    g = F.square_fan_b5()
    assert g.is_boundary(-1) and not g.is_boundary(0)
    children = [h for _, _, h in _children_with_holes()]
    assert len(children[0].edge_ids) < len(children[0]._edge_ids)
    for h in [g] + children:
        assert repr(h) == (f"PlabicGraph(b={h.b}, vertices={len(h.internal_vertices())}, "
                           f"edges={len(h.edge_ids)})")


def test_a_graph_leaves_comparison_with_a_non_graph_to_the_other_side():
    g = F.square_fan_b5()
    assert g.__eq__(g.to_json_obj()) is NotImplemented
    assert g != g.to_json_obj()


def test_every_fact_name_read_is_registered():
    """Each literal ``_fact("...")`` name in the package, and the two
    label facts read as ``mode + "_labels"``, is a key of ``_FACTS`` once
    ``plabic`` is imported; every patched fact is a fact."""
    import plabic

    names = {"source_labels", "target_labels"}
    for path in Path(plabic.__file__).parent.glob("*.py"):
        names.update(re.findall(r'_fact\("([^"]+)"\)', path.read_text()))
    assert {"faces", "trips", "is_reduced", "sites"} <= names
    assert names <= set(graph_module._FACTS), names - set(graph_module._FACTS)
    assert set(graph_module._PATCHES) <= set(graph_module._FACTS)


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

    @settings(max_examples=60)
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
        {"b": 1, "vertices": [{"id": 0, "color": "white"}, {"id": 0, "color": "black"}],
         "rotation": {"-1": [0], "0": [0]}},
        {"b": 1, "vertices": [{"id": 0, "color": "white"}],
         "rotation": {"-1": [0], "0": [1], "00": [0]}},
        {"b": 1, "vertices": [{"id": 0, "color": "white"}],
         "rotation": {"-1": [0], " 0": [1], "0": [0]}},
        {"b": 1, "vertices": [{"id": 0, "color": "white"}],
         "rotation": {"-1": [0], 0.0: [1], "0": [0]}},
        {"b": 1, "vertices": [{"id": 1, "color": "white"}], "rotation": {"-1": [0], True: [0]}},
        {"b": 1, "vertices": [{"id": 0, "color": "white"}], "rotation": {"-1": [0], 0.7: [0]}},
        {"b": 1, "vertices": [{"id": 0, "color": "white"}], "rotation": {"-1": [0], 0.0: [0]}},
    ],
    ids=["vertex-without-id", "vertex-id-bool", "b-bool", "edge-id-str", "vertex-id-twice",
         "rotation-key-zero-padded", "rotation-key-spaced", "rotation-key-float",
         "rotation-key-bool-alone", "rotation-key-fraction-alone", "rotation-key-float-alone"],
)
def test_malformed_json_objects_are_reported_not_raised(raw):
    assert not validate(raw).ok
    with pytest.raises(InvalidGraph):
        PlabicGraph.from_json(raw)


@pytest.mark.parametrize(
    "colors, rotation",
    [({"a": "white"}, {-1: [0], "a": [0]}), ({0: "white"}, {-1: [0], 0: 5}), (None, {-1: [0]})],
    ids=["vertex-id-str", "rotation-not-a-list", "colors-none"],
)
def test_malformed_rotation_systems_are_invalid_graphs(colors, rotation):
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_rotation(1, colors, rotation)
    (problem,) = err.value.problems
    assert problem.startswith("malformed graph object: ")


HUGE = 10**5000  # past Python's integer digit limit: repr() raises ValueError
TOO_LONG = "<int too long to print>"


@pytest.mark.parametrize(
    "colors, rotation, problems",
    [({-HUGE: "white"}, {-1: [0], -HUGE: [0]},
      [f"internal vertex id {TOO_LONG} must be nonnegative",
       f"vertex id {TOO_LONG} is past Python's integer digit limit"]),
     ({0: "white"}, {-1: [HUGE], 0: [HUGE]},
      [f"edge id {TOO_LONG} is past Python's integer digit limit"]),
     ({HUGE: "white"}, {-1: [0], HUGE: [0]},
      [f"vertex id {TOO_LONG} is past Python's integer digit limit"]),
     ({0: "white"}, {-1: [0], 0: [0, HUGE]},
      [f"edge {TOO_LONG} has only one dart (twin involution violated)",
       f"edge id {TOO_LONG} is past Python's integer digit limit"]),
     ({0: "white", HUGE: "black"}, {-1: [0], 0: [0]},
      [f"vertex {TOO_LONG} has no rotation entry"]),
     ({0: "white"}, {-1: [0], 0: [0], -HUGE: [1, 1]},
      [f"rotation entry for undeclared vertex {TOO_LONG}",
       f"vertex id {TOO_LONG} is past Python's integer digit limit"])],
    ids=["negative-vertex", "edge", "vertex", "edge-one-dart", "vertex-no-entry",
         "undeclared-vertex"],
)
def test_ids_past_the_digit_limit_are_named_and_refused(colors, rotation, problems):
    """Such ids reach the graph check only from Python (JSON text cannot
    carry them): each problem text names them, and a graph with one is
    refused, since its JSON could not be written."""
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_rotation(1, colors, rotation)
    assert err.value.problems == problems
    obj = {"b": 1, "vertices": [{"id": v, "color": c} for v, c in colors.items()],
           "edges": [{"id": e} for e in {e for es in rotation.values() for e in es}],
           "rotation": rotation}
    assert validate(obj).problems == problems


def test_declared_edge_ids_past_the_digit_limit_are_named():
    obj = {"b": 1, "vertices": [{"id": 0, "color": "white"}],
           "edges": [{"id": 0}, {"id": HUGE}, {"id": 7}], "rotation": {"-1": [0], "0": [0]}}
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_json(obj)
    assert err.value.problems == [f"declared edges never used in rotation: [7, {TOO_LONG}]"]


@pytest.mark.parametrize("text", ["{", "", "not json", '{"b": 1,}'])
def test_text_that_is_not_json_is_an_invalid_graph(text):
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_json(text)
    (problem,) = err.value.problems
    assert problem.startswith("malformed graph JSON: ")


@pytest.mark.parametrize("text", ["[" * 100_000, '{"b": ' + "9" * 5000 + "}"],
                         ids=["nested-past-the-recursion-limit", "int-past-the-digit-limit"])
def test_json_python_cannot_parse_is_an_invalid_graph(text):
    with pytest.raises(InvalidGraph) as err:
        PlabicGraph.from_json(text)
    (problem,) = err.value.problems
    assert problem.startswith("malformed graph JSON: ")


# where the graph-side entry points expect ints or text: small ints,
# floats, bools and short strings, alone or in short lists.  Sizes (b, n,
# m) stay small: ``from_wiring`` and the boundary checks grow with them.
# Vertex and edge ids may also be ints past Python's digit limit.
SCALARS = st.one_of(st.integers(-3, 12), st.floats(), st.booleans(), st.text(max_size=3))
IDS = st.one_of(SCALARS, st.sampled_from([1, -1]).map(lambda sign: sign * HUGE))  # no repr
JUNK = st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                    max_size=3))
COLORS = st.one_of(st.sampled_from(["white", "black"]), SCALARS)
ROTATIONS = st.dictionaries(IDS, st.one_of(st.lists(IDS, max_size=4), SCALARS), max_size=5)
ENTRIES = st.lists(st.dictionaries(st.sampled_from(["id", "color"]), COLORS), max_size=3)
JUNK_OBJECTS = st.dictionaries(st.sampled_from(["b", "vertices", "edges", "rotation"]),
                               st.one_of(JUNK, ROTATIONS, ENTRIES))
BASES = [g.to_json_obj() for g in (F.square_fan_b5(), lollipop_graph("wb"),
                                   from_wiring([1, 2, 1], 3))]


@st.composite
def graph_objects(draw):
    """A graph JSON object: junk, or a valid one with up to three parts
    replaced, reordered, renamed or dropped."""
    if draw(st.booleans()):
        return draw(st.one_of(JUNK, JUNK_OBJECTS))
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    small = st.one_of(st.integers(-6, 8), SCALARS)  # ints in range about half the time
    ids = st.one_of(small, IDS)
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(["b", "vertices", "edges", "rotation"]))
        where = obj[part]
        if part == "b" or not where:
            obj[part] = draw(st.one_of(small, JUNK))
        elif part == "rotation":
            key = draw(st.sampled_from(list(where)))
            value = where.pop(key)
            if draw(st.booleans()):  # else the entry is dropped
                where[draw(st.one_of(st.just(key), ids))] = draw(st.one_of(
                    st.permutations(value), st.lists(ids, max_size=4), JUNK))
        else:
            entry = draw(st.sampled_from(where))
            field = draw(st.sampled_from(["id", "color"] if part == "vertices" else ["id"]))
            if draw(st.booleans()):
                entry[field] = draw(COLORS if field == "color" else ids)
            else:
                entry.pop(field, None)
    return obj


GRAPH_ENTRY_POINTS = {
    "from_rotation": (PlabicGraph.from_rotation, st.tuples(
        SCALARS, st.one_of(st.dictionaries(IDS, COLORS, max_size=4), JUNK),
        st.one_of(ROTATIONS, JUNK))),
    "from_json": (PlabicGraph.from_json, st.tuples(graph_objects())),
    "validate": (validate, st.tuples(graph_objects())),
    "from_wiring": (from_wiring, st.tuples(
        st.one_of(JUNK, st.lists(st.one_of(SCALARS, st.tuples(SCALARS, SCALARS)), max_size=4)),
        SCALARS, st.sampled_from(["single", "double"]))),
    "from_triangulation": (from_triangulation, st.tuples(
        SCALARS, st.one_of(JUNK, st.lists(st.lists(SCALARS, max_size=4), max_size=4)))),
    "quiver_of_triangulation": (quiver_of_triangulation, st.tuples(
        SCALARS, st.one_of(JUNK, st.lists(st.lists(SCALARS, max_size=4), max_size=4)))),
    "lollipop_graph": (lollipop_graph, st.tuples(st.one_of(st.text("wbx", max_size=6), JUNK))),
    "parse_word": (parse_word, st.tuples(st.one_of(st.text("sS12 \N{SUPERSCRIPT TWO}",
                                                           max_size=8), JUNK))),
    "DecoratedPermutation.parse": (DecoratedPermutation.parse, st.tuples(
        st.one_of(st.text("1234^_ ", max_size=10), JUNK))),
}


@pytest.mark.parametrize("name", sorted(GRAPH_ENTRY_POINTS))
def test_graph_entry_points_return_or_raise_a_plabic_error(name):
    call, arguments = GRAPH_ENTRY_POINTS[name]

    @settings(max_examples=200)
    @given(arguments)
    def inner(args):
        try:
            call(*args)
        except PlabicError:
            pass

    inner()


@settings(max_examples=300)
@given(graph_objects())
def test_validate_reports_exactly_what_from_json_raises(obj):
    try:
        PlabicGraph.from_json(obj)
        problems = []
    except InvalidGraph as exc:
        problems = exc.problems
        assert problems
    assert validate(obj).problems == problems


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


def test_maxima_are_exact_on_raw_graphs_whose_ids_do_not_ascend():
    """The raw constructor takes edge ids in any order: with ids (5, 3, 2)
    the last index holds 2, and reading the largest id there would hand
    out the existing id 3.  The fact "maxima", scanned or handed to a
    move's result by its builder, gives the largest vertex and edge ids
    exactly.  With ids (5, 3) the id a removal keeps goes home to an index
    past the last edge."""
    path = PlabicGraph.from_rotation(2, {0: "white", 1: "black"},
                                     {-1: [0], 0: [0, 1], 1: [1, 2], -2: [2]})
    g = PlabicGraph(2, path._colors, path._rot, (5, 3, 2))
    assert g._fact("maxima") == (1, 5)
    bld = Builder(g)
    assert bld.fresh_edge_id() == 6 and bld.fresh_vertex() == 2
    inserted = apply_move(g, MoveSpec("InsertBivalentM2", edge=3, color="white"))
    assert inserted._cache["maxima"] == (2, 6)  # handed down by the builder
    assert inserted._edge_ids.index(6) == 3  # the new edge takes index 3
    assert Builder(inserted).fresh_edge_id() == 7
    removed = apply_move(g, MoveSpec("RemoveBivalentM2", vertex=0))  # frees id 5
    assert "maxima" not in removed._cache  # the builder forgot the largest edge
    assert removed._edge_ids == (None, 3, 2) and removed._fact("maxima") == (1, 3)
    assert Builder(removed).fresh_edge_id() == 4
    pair = PlabicGraph.from_rotation(2, {0: "white"}, {-1: [0], 0: [0, 1], -2: [1]})
    pair = PlabicGraph(2, pair._colors, pair._rot, (5, 3))
    merged = apply_move(pair, MoveSpec("RemoveBivalentM2", vertex=0))
    assert merged._edge_ids == (None, 3) and validate(merged).ok
    assert merged.to_json_obj()["rotation"] == {"-2": [3], "-1": [3]}
    for h in (g, inserted, removed, merged):
        for k, e in enumerate(h._edge_ids):
            if e is not None:
                assert h.darts_of_edge(e) == (2 * k, 2 * k + 1)


def _recolored_builder():
    bld = Builder(F.square_fan_b5())
    bld.recolor(0, "black" if bld.colors[0] == "white" else "white")
    return bld


def _leaves_deleted_builder():
    bld = Builder(lollipop_graph("wwwwww"))
    for v in range(5):  # five holes against one edge: darts are numbered afresh
        bld.delete_leaf_edge(v)
    return bld


@pytest.mark.parametrize("make", [_recolored_builder, _leaves_deleted_builder],
                         ids=["darts-kept", "darts-afresh"])
def test_an_edit_after_freeze_fails_and_leaves_the_graph(make):
    """``freeze`` hands the builder's dicts to the graph, so the builder
    refuses every later edit instead of changing the frozen graph."""
    bld = make()
    h = bld.freeze()
    text = h.to_json()
    v = max(h.internal_vertices())
    for edit in (lambda: bld.recolor(v, "black"), lambda: bld.add_vertex("white"),
                 lambda: bld.insert_bivalent(h._rot[v][0], "black"),
                 lambda: bld.delete_leaf_edge(v), lambda: bld.freeze()):
        with pytest.raises(TypeError):
            edit()
        assert h.to_json() == text


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


def test_face_readers_return_new_lists_each_call():
    """Editing what ``faces()`` and ``face_of_dart()`` return changes no
    later answer, on the graph or on a graph made from it by a move."""
    g, untouched = F.square_fan_b5(), F.square_fan_b5()
    g.faces().reverse()
    fmap = g.face_of_dart()
    fmap[:] = [0] * len(fmap)
    assert g.faces() == untouched.faces()
    assert g.face_of_dart() == untouched.face_of_dart()
    assert legal_moves(g) == legal_moves(untouched)
    assert face_labels(g) == face_labels(untouched)
    assert quiver_of(g) == quiver_of(untouched)
    assert g.nonouter_faces() == untouched.nonouter_faces()
    for m in legal_moves(untouched):
        assert apply_move(g, m).faces() == apply_move(untouched, m).faces(), m


def _face_shapes(g):
    """The faces as (kind, edge ids of the walk, rim arcs)."""
    return [(f.kind, tuple([g.edge_id(d) for d in f.darts]), f.rim_arcs) for f in g.faces()]


def test_face_order_does_not_depend_on_how_a_graph_was_built():
    """A graph made by moves keeps its parent's dart numbers; its JSON
    round trip numbers darts densely.  On every step of kind-balanced
    walks over all eight kinds both list the same legal moves and the same
    faces in the same order, so every ``MoveSpec.face`` means the same."""
    rng = random.Random(19)
    counts = Counter()

    def walk(g, steps, kinds):
        for _ in range(steps):
            d = PlabicGraph.from_json(g.to_json())
            moves = legal_moves(g)
            assert moves == legal_moves(d), g.to_json()
            assert _face_shapes(g) == _face_shapes(d), g.to_json()
            sites = {}
            for m in moves:
                if m.kind in kinds:
                    sites.setdefault(m.kind, []).append(m)
            if not sites:
                return
            m = rng.choice(sites[rng.choice(sorted(sites))])
            g = apply_move(g, m)
            counts[m.kind] += 1

    for g in (PlabicGraph.from_json({"b": 0}), from_wiring([], 2), from_wiring([], 3),
              lollipop_graph("w"), lollipop_graph("bwb")):
        walk(g, 40, KINDS)
    for _ in range(40):
        p = random_decorated_permutation(rng.randint(3, 7), rng)
        walk(trivalentize(bridge_graph(p)), 60, KINDS)
    for _ in range(20):
        p = random_decorated_permutation(rng.randint(4, 7), rng)
        walk(normalize(bridge_graph(p)).normal, 20, ("UrbanRenewal", "NormalFlip", "SquareM1"))
    assert all(counts[kind] >= 20 for kind in KINDS), counts
    assert sum(counts.values()) >= 2500, counts


def test_a_move_child_inherits_only_face_tables():
    """The facts cached on a graph hold for it alone.  A move's result
    starts only with its hand-down record, which holds its parent's values
    of the facts that have a patch, the face tables and the move sites,
    and with the id maxima its builder kept, unless the move removed the
    largest vertex or edge id.  The record holds no rotations of the
    parent, only sets of edge indices and vertices; once the patched facts
    are read the record is gone, and nothing keeps the parent alive.  UrbanRenewal reads its result's faces to find the
    inverse move, so that result has its faces too, patched from the
    record."""
    patched = set(graph_module._PATCHES)
    assert patched == {"faces", "sites"}
    hand_down = graph_module._HAND_DOWN
    kinds = set()
    for make in (F.square_fan_b5, F.normal_b5, F.urban_left_b7):
        for m in legal_moves(make()):
            g = make()
            validate(g)
            classify(g)
            g.canonical_key()
            face_labels(g, "target")
            normalize(g)
            if classify(g)["normal"]:
                bad_features(g)
            legal_moves(g)
            assert {"valid", "classify", "ckey", "trips", "decorated",
                    "normalize", "is_reduced", "faces", "sites"} <= set(g._cache)
            if classify(g)["normal"]:
                assert {"trip_walks", "bad_features"} <= set(g._cache)
            h = apply_move(g, m)
            kinds.add(m.kind)
            own = {"faces"} if m.kind == "UrbanRenewal" else set()
            assert set(h._cache) - {"maxima"} == {hand_down} | own, (m, set(h._cache))
            handed, *sets = h._cache[hand_down]
            assert set(handed) == patched - own, m
            assert [type(part) for part in sets] == [set, set, set], m
            parent = weakref.ref(g)
            del g
            h.faces()
            legal_moves(h)
            h.darts_of_edge(h.edge_ids[0])  # reads no fact
            assert set(h._cache) - {"maxima"} == patched, (m, set(h._cache))
            Builder(h).fresh_vertex()
            assert set(h._cache) == patched | {"maxima"}, (m, set(h._cache))
            assert parent() is None, m
    assert {"SquareM1", "UrbanRenewal", "NormalFlip"} <= kinds, kinds


def test_only_the_graph_module_names_the_cache():
    """Every derived fact is read through ``PlabicGraph._fact``: no other
    module keeps its own stanza on ``_cache``."""
    src = Path(graph_module.__file__).parent
    named = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "graph.py" and re.search(r"\b_cache\b", p.read_text())]
    assert named == []
