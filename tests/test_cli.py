import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plabic import MoveSpec, apply_move, fixtures
from plabic.cli import main
from plabic.moves import KINDS


@pytest.fixture
def fixture_path(tmp_path):
    """Write a named fixture's JSON to a file; returns its path."""

    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(fixtures.ALL_NAMED[name]().to_json())
        return str(path)

    return write


def run(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_perm_dab(capsys, monkeypatch):
    code, out, _ = run(["perm", "dab", "1", "3"], capsys=capsys)
    assert code == 0 and out.strip() == "7"


def test_perm_affinize(capsys, monkeypatch):
    code, out, _ = run(["perm", "affinize", "5 2_ 3^ 6 4 1"], capsys=capsys)
    assert code == 0 and out.strip() == "5 2 9 6 10 7"


def test_perm_length(capsys, monkeypatch):
    code, out, _ = run(["perm", "length", "4 2 3"], capsys=capsys)
    assert code == 0 and out.strip() == "2"


def test_perm_necklace(capsys, monkeypatch):
    code, out, _ = run(["perm", "necklace", "3 4 5 1 2 6^"], capsys=capsys)
    assert code == 0 and out.strip() == "126 236 346 456 156 126"


def test_gen_bridge_info_pipeline(capsys, monkeypatch):
    code, out, _ = run(["gen", "bridge", "4 6 5 1 2 3"], capsys=capsys)
    assert code == 0
    code, out2, _ = run(["info", "-"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    info = json.loads(out2)
    assert info["reduced"] is True
    assert info["faces"]["nonouter"] == 9
    assert info["trip_permutation"] == [4, 6, 5, 1, 2, 3]
    assert info["decorated_trip_permutation"] == "4 6 5 1 2 3"


def test_gen_bridge_of_the_empty_permutation(capsys):
    code, out, _ = run(["gen", "bridge", ""], capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"b": 0, "edges": [], "rotation": {}, "vertices": []}


def test_gen_lollipops_info(capsys, monkeypatch):
    code, out, _ = run(["gen", "lollipops", "wb"], capsys=capsys)
    code, out2, _ = run(["info", "-"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    info = json.loads(out2)
    assert info["decorated_trip_permutation"] == "1^ 2_"


def test_gen_word_and_trips(capsys, monkeypatch):
    code, out, _ = run(["gen", "word", "s2 s3 s2 s1 s2 s3", "--wires", "4"], capsys=capsys)
    assert code == 0
    code, out2, _ = run(["trips", "-"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    data = json.loads(out2)
    assert data["trip_permutation"] == [5, 6, 7, 8, 4, 3, 2, 1]


def test_gen_dword(capsys, monkeypatch):
    code, out, _ = run(["gen", "dword", "s2 S1 s2", "--wires", "3"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["b"] == 6


def test_gen_triangulation(capsys, monkeypatch):
    tris = json.dumps([[1, 2, 3], [1, 3, 4]])
    code, out, _ = run(["gen", "triangulation", tris], capsys=capsys)
    assert code == 0
    g = json.loads(out)
    assert g["b"] == 4


@pytest.mark.parametrize(
    "argv, error",
    [
        (["gen", "triangulation", '{"x":1}'], "NotATriangulation"),
        (["gen", "triangulation", "5"], "NotATriangulation"),
        (["gen", "triangulation", '[[1,2,"a"]]'], "NotATriangulation"),
        (["gen", "triangulation", '{"m":"8","triangles":[]}'], "NotATriangulation"),
        (["gen", "lollipops", "wxb"], "InvalidGraph"),
        (["gen", "word", "s1", "--wires", "0"], "BadWord"),
        (["gen", "dword", "", "--wires", "0"], "BadWord"),
        (["gen", "word", ""], "BadWord"),
        (["gen", "dword", ""], "BadWord"),
    ],
    ids=["tri-no-keys", "tri-number", "tri-str-corner", "tri-str-m", "lollipop-x",
         "wires-0", "empty-word-wires-0", "empty-word", "empty-dword"],
)
def test_gen_bad_arguments_exit_1(argv, error, capsys, monkeypatch):
    code, out, err = run(argv, capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_labels_subcommand(capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    code, out, _ = run(["labels", path, "--mode", "target"], capsys=capsys)
    data = json.loads(out)
    labels = {row["label"] for row in data["labels"]}
    assert labels == {"12", "23", "34", "45", "15", "24", "14"}


def test_move_subcommand(capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    spec = json.dumps({"kind": "InsertBivalentM2", "edge": 5, "color": "black"})
    code, out, _ = run(["move", path, "--spec", spec], capsys=capsys)
    assert code == 0
    assert json.loads(out)["b"] == 5


def test_move_error_exit_code(capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    spec = json.dumps({"kind": "SquareM1", "face": 0})
    code, out, err = run(["move", path, "--spec", spec], capsys=capsys)
    assert code == 1
    assert json.loads(err)["error"] == "IllegalMove"


def test_move_urban_renewal_off_site_exits_1(capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    spec = json.dumps({"kind": "UrbanRenewal", "face": 5})
    code, out, err = run(["move", path, "--spec", spec], capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "IllegalMove",
        "message": "face 5 is not an urban renewal site",
    }


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "RemoveBivalentM2", "vertex": "x"},
        {"kind": "SplitM3", "vertex": 0, "start": "a", "length": 2},
        {"kind": "SquareM1", "face": True},
        {"kind": "InsertBivalentM2", "edge": 5, "color": 1},
        {"kind": "SquareM1", "face": 1, "condition_ok": "yes"},
        ["SquareM1"],
    ],
    ids=["vertex-str", "start-str", "face-bool", "color-int", "condition-str", "not-object"],
)
def test_move_spec_type_errors_exit_1(spec, capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    code, out, err = run(["move", path, "--spec", json.dumps(spec)], capsys=capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "IllegalMove" and "must be" in payload["message"]


@pytest.mark.parametrize(
    "spec",
    [{"kind": "NormalFlip"}, {"kind": "NormalFlip", "vertex": 999}],
    ids=["no-vertex", "unknown-vertex"],
)
def test_normal_flip_without_a_known_vertex_exits_1(spec, capsys, monkeypatch, fixture_path):
    path = fixture_path("normal_b5")
    code, out, err = run(["move", path, "--spec", json.dumps(spec)], capsys=capsys)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "IllegalMove" and "normal-flip" in payload["message"]


@pytest.mark.parametrize(
    "graph",
    [
        {"b": 1, "vertices": [{"id": 0, "color": "white"}], "rotation": {"-1": [0], "0": ["0", 0]}},
        {"b": True, "vertices": [{"id": 0, "color": "white"}], "rotation": {"-1": [0], "0": [0]}},
        {"b": 1, "vertices": [], "edges": [{"x": 0}], "rotation": {"-1": [0]}},
    ],
    ids=["edge-id-str", "b-bool", "edge-without-id"],
)
def test_info_graph_type_errors_exit_1(graph, capsys, monkeypatch):
    code, out, err = run(
        ["info", "-"], stdin_text=json.dumps(graph), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidGraph"


def test_info_on_text_that_is_not_json_exits_1(capsys, monkeypatch):
    code, out, err = run(["info", "-"], stdin_text="{", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidGraph"
    assert "malformed graph JSON: " in payload["message"]


@pytest.mark.parametrize(
    "text", ["{", "[" * 100_000, "9" * 5000],
    ids=["unclosed", "nested-past-the-recursion-limit", "int-past-the-digit-limit"],
)
@pytest.mark.parametrize(
    "command, error",
    [("info", "InvalidGraph"), ("move", "IllegalMove"), ("triangulation", "NotATriangulation")],
)
def test_json_python_cannot_parse_is_a_typed_error(command, error, text, tmp_path, capsys,
                                                     fixture_path):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {"info": ["info", str(bad)],
            "move": ["move", fixture_path("square_fan_b5"), "--spec", text],
            "triangulation": ["gen", "triangulation", str(bad)]}[command]
    code, out, err = run(argv, capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_perm_dab_missing_argument_exit_1(capsys, monkeypatch):
    code, out, err = run(["perm", "dab", "3"], capsys=capsys)
    assert code == 1 and out == ""
    assert set(json.loads(err)) == {"error", "message"}
    assert json.loads(err)["error"] == "MalformedPermutation"


@pytest.mark.parametrize(
    "argv, error",
    [(["perm", "dab", "-1", "3"], "MalformedPermutation"),
     (["perm", "dab", "9" * 5000, "3"], "MalformedPermutation"),
     (["perm", "dab", "x", "3"], "MalformedPermutation"),
     (["perm", "dab", "2", "20000"], "TooLarge"),
     (["perm", "length", "x y"], "MalformedWindow")],
    ids=["dab-negative", "dab-past-the-digit-limit", "dab-not-an-int",
         "dab-count-past-the-digit-limit", "length-not-ints"],
)
def test_perm_integer_arguments_are_typed_errors(argv, error, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [["perm", "dab", "1", "3"],
                                  ["ws", "enumerate", "5 6 7 8 1 2 3 4"]],
                         ids=["fits-the-buffer", "past-the-buffer"])
def test_a_closed_output_pipe_is_no_error(argv, capsys, monkeypatch):
    """A reader that stops reading closes the pipe: main reports nothing and
    exits 0, whether the error shows at the final flush or in a write."""
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_equiv_subcommand(capsys, monkeypatch, fixture_path):
    g1 = fixture_path("square_fan_b5_lollipop")
    g2 = fixture_path("square_path_b6")
    code, out, _ = run(["equiv", g1, g2], capsys=capsys)
    assert json.loads(out)["verdict"] == "equivalent"


def test_equiv_search_output_is_pinned(capsys, tmp_path, fixture_path):
    # a non-reduced pair three insertions apart, decided by search
    g1 = fixture_path("white_digon_b2")
    g = fixtures.ALL_NAMED["white_digon_b2"]()
    for edge, color in ((1, "black"), (2, "black"), (0, "white")):
        g = apply_move(g, MoveSpec("InsertBivalentM2", edge=edge, color=color))
    g2 = tmp_path / "g2.json"
    g2.write_text(g.to_json())
    code, out, _ = run(["equiv", g1, str(g2), "--budget", "3"], capsys=capsys)
    assert code == 0
    assert out == (
        '{"certificate": [{"color": "white", "edge": 0, "kind": "InsertBivalentM2"}, '
        '{"color": "black", "edge": 1, "kind": "InsertBivalentM2"}, '
        '{"color": "black", "edge": 2, "kind": "InsertBivalentM2"}], '
        '"reason": "found by search", "verdict": "equivalent"}\n'
    )


@pytest.mark.parametrize("argv", [
    ["equiv", "G", "G", "--budget", "-3"],
    ["ws", "enumerate", "3 4 5 1 2 6^", "--limit", "-1"],
])
def test_negative_budget_or_limit_exits_1(argv, capsys, fixture_path):
    argv = [fixture_path("square_fan_b5") if a == "G" else a for a in argv]
    code, out, err = run(argv, capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BadBudget"


def test_quiver_subcommand(capsys, monkeypatch, fixture_path):
    path = fixture_path("square_fan_b5")
    code, out, _ = run(["quiver", path], capsys=capsys)
    data = json.loads(out)
    assert len(data["vertices"]) == 7
    assert len(data["arrows"]) == 7
    code, out, _ = run(["quiver", path, "--dot"], capsys=capsys)
    assert "digraph" in out


def test_ws_enumerate(capsys, monkeypatch):
    code, out, _ = run(["ws", "enumerate", "3 4 5 1 2"], capsys=capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("argv, lines, digest", [
    (["ws", "enumerate", "4 5 6 7 1 2 3"], 259,
     "88862d352bb5051e75e8f787422c0d3c7cbb130269fa13c009f1c0c96d0231eb"),
    (["perm", "positroid", "3 4 5 1 2 6^"], 10,
     "03611a86bf97bd82df5a711c6906bb24fba3b6898e4f6d01b1045444c9357c67"),
])
def test_ws_and_positroid_output_is_pinned(argv, lines, digest, capsys):
    code, out, _ = run(argv, capsys=capsys)
    assert code == 0 and len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["perm", "necklace", ""], ["perm", "positroid", ""], ["ws", "enumerate", ""],
])
def test_empty_permutation_has_no_necklace(argv, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "NotANecklace",
        "message": "a Grassmann necklace needs b >= 1 sets, got none",
    }


def test_ws_enumerate_limit_counts_the_seed(capsys, monkeypatch):
    code, out, err = run(["ws", "enumerate", "2 1", "--limit", "0"], capsys=capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "TooLarge"


def test_export(capsys, monkeypatch, fixture_path):
    path = fixture_path("two_trees_b6")
    code, out, _ = run(["export", "dot", path], capsys=capsys)
    assert "graph plabic" in out
    code, out, _ = run(["export", "tikz", path], capsys=capsys)
    assert "tikzpicture" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["gen"])
    assert e.value.code == 2


def test_fixture_prints_every_named_graph(capsys):
    for name, make in sorted(fixtures.ALL_NAMED.items()):
        code, out, err = run(["fixture", name], capsys=capsys)
        assert code == 0 and err == "", name
        assert json.loads(out) == json.loads(make().to_json()), name


def test_fixture_with_an_unknown_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["fixture", "no_such_fixture"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: plabic fixture") and "invalid choice: 'no_such_fixture'" in err


@pytest.mark.parametrize("name", sorted(fixtures.ALL_NAMED))
def test_every_fixture_roundtrips_through_info(name, capsys, fixture_path):
    code, out, _ = run(["info", fixture_path(name)], capsys=capsys)
    assert code == 0
    info = json.loads(out)
    assert info["valid"] is True


def test_trips_of_a_graph_without_decorations(capsys, fixture_path):
    """``fork_b1`` is not reduced and its fixed point has no decoration,
    so ``trips`` leaves that key out and still exits 0."""
    code, out, _ = run(["trips", fixture_path("fork_b1")], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["trip_permutation"] == [1]
    assert "decorated_trip_permutation" not in data


def test_cli_entry_point_subprocess():
    # the child imports the same plabic as this test, installed or not
    src = os.path.dirname(os.path.dirname(fixtures.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "plabic.cli", "perm", "dab", "2", "5"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0
    assert res.stdout.strip() == str(__import__("plabic").count_dab(2, 5))


# ----------------------------------------------------------------------
# fuzz: whatever the arguments, main() exits 0, exits 1 with a JSON error
# object on stderr, or exits 2 through argparse; it never raises


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.text("ab-1", max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)
FIXTURE_TEXTS = [make().to_json() for make in fixtures.ALL_NAMED.values()]
SMALL = st.integers(-2, 7).map(str)
PERM = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3", "4", "5", "6", "0", "7", "-1", "1^", "2_", "3^", "x"]),
             max_size=6).map(" ".join),
    st.integers(1, 6).flatmap(lambda b: st.permutations(range(1, b + 1))).map(
        lambda p: " ".join(f"{v}^" if v == i else str(v) for i, v in enumerate(p, 1))),
)
WORD = st.lists(st.sampled_from(["s1", "s2", "S1", "S2", "s3", "s0", "x"]), max_size=5).map(" ".join)


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    for k, v in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, k
        if isinstance(v, (dict, list)):
            yield from _slots(v)


@st.composite
def graph_texts(draw):
    """A fixture's JSON with up to two entries deleted or replaced."""
    obj = json.loads(draw(st.sampled_from(FIXTURE_TEXTS)))
    for _ in range(draw(st.integers(0, 2))):
        node, k = draw(st.sampled_from(list(_slots(obj))))
        if draw(st.booleans()):
            del node[k]
        else:
            node[k] = draw(JSON)
    return json.dumps(obj)


SPECS = st.one_of(
    JSON,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS + ("Nope",))},
        optional={k: st.one_of(st.integers(-2, 30), JSON)
                  for k in MoveSpec._fields if k != "kind"},
    ),
).map(json.dumps)


# "@name" stands for the path of fixture ``name``; stdin holds a graph
GRAPH_ARGV = st.one_of(
    st.sampled_from([["info"], ["trips"], ["quiver"], ["quiver", "--dot"],
                     ["labels", "--mode", "source"], ["export", "tikz"]]).map(lambda a: a + ["-"]),
    SPECS.map(lambda s: ["move", "-", "--spec", s]),
    st.tuples(st.sampled_from(sorted(fixtures.ALL_NAMED)), st.integers(-1, 3))
    .map(lambda t: ["equiv", "-", "@" + t[0], "--budget", str(t[1])]),
)


ARGV = st.one_of(
    GRAPH_ARGV,
    st.tuples(st.sampled_from(["bridge", "lollipops", "triangulation", "word", "dword"]),
              st.one_of(PERM, WORD, st.text("wbx", max_size=5), JSON.map(json.dumps)),
              st.one_of(st.just([]), SMALL.map(lambda n: ["--wires", n])))
    .map(lambda t: ["gen", t[0], t[1]] + t[2]),
    st.tuples(st.sampled_from(["affinize", "length", "necklace", "positroid", "dab"]),
              st.one_of(PERM, SMALL), st.one_of(st.just([]), SMALL.map(lambda n: [n])))
    .map(lambda t: ["perm", t[0], t[1]] + t[2]),
    st.tuples(PERM, st.one_of(st.just([]), SMALL.map(lambda n: ["--limit", n])))
    .map(lambda t: ["ws", "enumerate", t[0]] + t[1]),
    st.lists(st.sampled_from(["info", "gen", "move", "fixture", "fork_b1", "-", "--spec", "--budget", "x"]),
             max_size=4),
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    for name, make in fixtures.ALL_NAMED.items():
        (root / f"{name}.json").write_text(make().to_json())
    return root


@settings(max_examples=300)
@given(graph_text=graph_texts(), argv=ARGV)
def test_main_never_raises(fixture_dir, graph_text, argv):
    argv = [str(fixture_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    # one call runs many cases, so capsys and monkeypatch cannot reset per case
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(graph_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return
    finally:
        sys.stdin = stdin
    if code == 1:
        payload = json.loads(err.getvalue())
        assert set(payload) == {"error", "message"}, (argv, err.getvalue())
    else:
        assert code == 0, (argv, code)
