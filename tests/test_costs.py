"""Cost pins: exact work counts of three small seeded workloads.

Every derived fact of a graph is computed by an entry of ``graph._FACTS``
or patched from the parent's value by an entry of ``graph._PATCHES``; the
faces and trips are orbits of ``PlabicGraph._fill_successors``, and every
canonical key, of a graph or of an unfrozen builder, is built by
``graph._canonical_key``.  Wrapping those counts the work a workload does,
with no change to the library.  The counts are exact, like the golden
digests: a change that moves one is a change in work done, and must
update the pin and say why.
"""

import json
import random
from collections import Counter

import pytest

from plabic import (apply_move, bridge_graph, classify, cyclic_rotation,
                    decorated_trip_permutation, face_labels, is_reduced, label_collection,
                    legal_moves, move_equivalent, normalize, quiver_of, resonance,
                    trip_permutation)
from plabic import fixtures as F
from plabic import graph
from plabic.graph import PlabicGraph
from conftest import insert_parallel_digon, random_decorated_permutation


@pytest.fixture
def costs(monkeypatch):
    """A Counter of ``compute <fact>``, ``patch <fact>``, ``fill faces``
    (``black=1``), ``fill trips`` (``black=-1``) and ``keys``."""
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(graph._FACTS.items()):
        monkeypatch.setitem(graph._FACTS, name, counted("compute " + name, fn))
    for name, fn in list(graph._PATCHES.items()):
        monkeypatch.setitem(graph._PATCHES, name, counted("patch " + name, fn))
    fill = PlabicGraph._fill_successors

    def fill_successors(g, nxt, vertices, black=1):
        counts["fill faces" if black == 1 else "fill trips"] += 1
        return fill(g, nxt, vertices, black)

    monkeypatch.setattr(PlabicGraph, "_fill_successors", fill_successors)
    monkeypatch.setattr(graph, "_canonical_key", counted("keys", graph._canonical_key))
    return counts


def _sorted_moves(g):
    return sorted(legal_moves(g), key=lambda m: json.dumps(m.to_json_obj(), sort_keys=True))


def _walk():
    """Walks of 100 steps with the checks of criterion 7: over every move
    kind from bridge graphs at b = 3..6 and two fixtures, and over the two
    moves that keep a graph normal from the normal forms of two
    rotations."""
    rng = random.Random(71)
    starts = [(bridge_graph(random_decorated_permutation(b, rng)), None) for b in (3, 4, 5, 6)]
    starts += [(F.square_fan_b5(), None), (F.normal_b5(), None)]
    starts += [(normalize(bridge_graph(cyclic_rotation(a, b))).normal,
                ("UrbanRenewal", "NormalFlip")) for a, b in ((3, 6), (4, 8))]
    kinds = Counter()
    for g, only in starts:
        g = PlabicGraph.from_json(g.to_json())
        perm = decorated_trip_permutation(g)
        nfaces = len(g.nonouter_faces())
        labels = label_collection(g, "target", check=False)
        for _ in range(100):
            moves = [m for m in _sorted_moves(g) if only is None or m.kind in only]
            if not moves:
                break
            mv = rng.choice(moves)
            kinds[mv.kind] += 1
            g = apply_move(g, mv)
            assert decorated_trip_permutation(g) == perm
            assert len(g.nonouter_faces()) == nfaces
            new = label_collection(g, "target", check=False)
            assert len(new ^ labels) == (2 if mv.kind in ("SquareM1", "UrbanRenewal") else 0)
            labels = new
        assert is_reduced(g).reduced
    assert kinds["UrbanRenewal"] and kinds["NormalFlip"], kinds


def _decide():
    """48 graphs given as JSON, reduced or made non-reduced by a digon,
    decided and cross-checked as the bench's decide workload does."""
    rng = random.Random(72)
    texts = [bridge_graph(cyclic_rotation(3, 8)).to_json()]
    for k in range(47):
        g = bridge_graph(random_decorated_permutation(rng.randint(4, 9), rng))
        if k % 3 == 1:
            g = insert_parallel_digon(g, rng)
        elif k % 3 == 2:
            for _ in range(3):
                g = apply_move(g, rng.choice(_sorted_moves(g)))
        texts.append(g.to_json())
    reduced = 0
    for text in texts:
        g = PlabicGraph.from_json(text)
        red = is_reduced(g).reduced
        trip_permutation(g)
        if red:
            reduced += 1
            decorated_trip_permutation(g)
            face_labels(g, "target")
            quiver_of(g)
        normalize(g)
        info = classify(g)
        if all(v in info["lollipops"] for v in info["internal_leaves"]):
            assert resonance(g) == red
    assert 0 < reduced < len(texts)


def _equiv():
    """20 searches with certificates between a bridge graph and a graph one
    or two growing moves away, plus the fixture pair of depth 4."""
    rng = random.Random(73)
    pairs = [(F.square_fan_b5_lollipop(), F.square_path_b6(), 4)]
    for k in range(20):
        g = bridge_graph(random_decorated_permutation(3 + k % 3, rng))
        h = g
        for _ in range(1 + k % 2):
            h = apply_move(h, rng.choice([m for m in _sorted_moves(h) if m.kind in
                                          ("InsertBivalentM2", "SplitM3")]))
        pairs.append((g, h, 2))
    for g, h, budget in pairs:
        g, h = PlabicGraph.from_json(g.to_json()), PlabicGraph.from_json(h.to_json())
        res = move_equivalent(g, h, budget, want_certificate=True)
        assert res.equivalent
        x = g
        for mv in res.certificate:
            x = apply_move(x, mv)
        assert x == h


PINS = {
    "walk": {"compute bad_features": 1, "compute classify": 1, "compute decorated": 808,
             "compute faces": 20, "compute is_reduced": 8, "compute maxima": 33,
             "compute normalize": 3, "compute resonance": 8, "compute sites": 20,
             "compute target_labels": 808, "compute trip_walks": 1, "compute trips": 809,
             "fill faces": 832, "fill trips": 809, "patch faces": 788, "patch sites": 780},
    "decide": {"compute bad_features": 19, "compute classify": 67, "compute decorated": 33,
               "compute faces": 48, "compute is_reduced": 48, "compute maxima": 80,
               "compute normalize": 48, "compute resonance": 48, "compute sites": 15,
               "compute target_labels": 33, "compute trip_walks": 19, "compute trips": 67,
               "fill faces": 126, "fill trips": 67, "patch faces": 30, "patch sites": 30},
    "equiv": {"compute bad_features": 7, "compute ckey": 63, "compute classify": 7,
              "compute decorated": 42, "compute faces": 54, "compute is_reduced": 42,
              "compute maxima": 56, "compute normalize": 7, "compute resonance": 42,
              "compute sites": 53, "compute trip_walks": 7, "compute trips": 49,
              "fill faces": 151, "fill trips": 49, "keys": 1537, "patch faces": 52,
              "patch sites": 52},
}


@pytest.mark.parametrize("workload", sorted(PINS))
def test_work_counts_are_pinned(workload, costs):
    {"walk": _walk, "decide": _decide, "equiv": _equiv}[workload]()
    assert dict(sorted(costs.items())) == PINS[workload]
