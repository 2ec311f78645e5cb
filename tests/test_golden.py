"""Golden digests that pin exact ids in move results and CLI output.

Most tests compare graphs by ``canonical_key``, which forgets vertex and
edge ids.  These digests do not: they hash the JSON of every legal move's
result and of its inverse spec, the normal forms ``normalize`` returns,
the witnesses of ``is_reduced`` and the ``plabic info`` output, so any
change in how moves or normalization number vertices and edges shows up.
One more digest pins the same normal forms up to a renaming of their ids.
"""

import hashlib
import json
import random

from plabic import apply_move, bridge_graph, is_reduced, legal_moves, normalize
from plabic import fixtures as F
from plabic.cli import main
from plabic.errors import IllegalMove
from plabic.moves import _apply
from conftest import insert_parallel_digon, random_decorated_permutation

FIXTURE_MOVES = "2136c9eff7ee6b57eefea91fed36cd95126bc46f9dfd41b232b7b1d865ed5e45"
BRIDGE_MOVES = "4871efb5edf7e886d7f6961e91b5d6ef21e6c40f9056c64ace211fa9db0cf273"
FIXTURE_INFO = "8775d6f80f6bc54873b555cabe294ba8fc4315524b3f95632a2c3e93f70bde25"
NORMAL_FORMS = "c3ae9bea9f511eecec178ccba9401ab81304afc83edbe592bb9bb6b315d888d0"
NORMAL_FORM_SHAPES = "cf7b62680d418c9343a50902acbc8bb6f4d699c050c7e7a189a9c830b5f4d174"


def _bridge_graphs():
    """20 bridge graphs, each followed by a graph a few seeded moves on, so
    that contracted, split and bivalent vertices appear too."""
    rng = random.Random(2026)
    out = []
    for _ in range(20):
        g = bridge_graph(random_decorated_permutation(rng.randint(3, 7), rng))
        out.append(g)
        for _ in range(4):
            g = apply_move(g, rng.choice(legal_moves(g)))
        out.append(g)
    return out


def _moves_digest(graphs):
    h = hashlib.sha256()
    count = 0
    for g in graphs:
        h.update(g.to_json().encode())
        for m in legal_moves(g):
            spec = json.dumps(m.to_json_obj(), sort_keys=True)
            try:
                out, inv = _apply(g, m)
                line = f"{spec}\t{out.to_json()}\t{json.dumps(inv.to_json_obj(), sort_keys=True)}"
            except IllegalMove as exc:
                line = f"{spec}\tIllegalMove\t{exc}"
            h.update(line.encode() + b"\n")
            count += 1
    assert count > 0
    return h.hexdigest()


def test_fixture_move_results_are_pinned():
    graphs = [F.ALL_NAMED[name]() for name in sorted(F.ALL_NAMED)]
    assert _moves_digest(graphs) == FIXTURE_MOVES


def test_bridge_move_results_are_pinned():
    assert _moves_digest(_bridge_graphs()) == BRIDGE_MOVES


def test_fixture_info_output_is_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for name in sorted(F.ALL_NAMED):
        path = tmp_path / f"{name}.json"
        path.write_text(F.ALL_NAMED[name]().to_json())
        assert main(["info", str(path)]) == 0
        out, _ = capsys.readouterr()
        h.update(f"{name}\t{out}".encode())
    assert h.hexdigest() == FIXTURE_INFO


def _normal_form_corpus():
    """The fixtures, the bridge graphs and a copy of each with a parallel
    digon, which normalization must contract."""
    rng = random.Random(7)
    graphs = [F.ALL_NAMED[name]() for name in sorted(F.ALL_NAMED)] + _bridge_graphs()
    return graphs + [insert_parallel_digon(g, rng) for g in graphs]


def test_normal_forms_and_witnesses_are_pinned():
    """The ids in ``normalize``'s normal forms and in ``is_reduced``'s
    witnesses."""
    h = hashlib.sha256()
    for g in _normal_form_corpus():
        normal = normalize(g).normal
        witness = is_reduced(g).witness
        line = [g.to_json(), normal and normal.to_json(), witness and witness.to_json_obj()]
        h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == NORMAL_FORMS


def _bfs_edge_numbers(g):
    """Edge id -> its number in ``canonical_key``'s breadth-first search."""
    number, seen = {}, set()
    queue = [g.rotation(-i)[0] for i in range(1, g.b + 1)]
    for d in queue:
        number.setdefault(g.edge_id(d), len(number))
    for d in queue:  # grows while it is read
        w = g.dart_vertex(d ^ 1)
        if w < 0 or w in seen:
            continue
        seen.add(w)
        ds = g.rotation(w)
        i = ds.index(d ^ 1)
        for dd in ds[i + 1:] + ds[:i]:
            number.setdefault(g.edge_id(dd), len(number))
            queue.append(dd)
    return number


def test_normal_forms_and_witnesses_are_pinned_up_to_ids():
    """The normal forms by ``canonical_key``, and the ``is_reduced``
    witnesses with each edge given by its number in the normal form's
    canonical search, so that a renaming of normal-form ids leaves the
    digest as it is."""
    h = hashlib.sha256()
    for g in _normal_form_corpus():
        res = normalize(g)
        witness = is_reduced(g).witness
        if witness is not None:
            edges = witness.edges
            if res.normal is not None:
                number = _bfs_edge_numbers(res.normal)
                edges = [number[e] for e in edges]
            witness = [witness.kind, list(witness.vertices), list(edges)]
        line = [g.to_json(), res.normal and res.normal.canonical_key(),
                res.witness and res.witness.to_json_obj(), res.lollipops_removed,
                sorted(res.label_map.items()), witness]
        h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == NORMAL_FORM_SHAPES
