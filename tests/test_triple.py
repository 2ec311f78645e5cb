import pytest

from plabic import (IllegalMove, MoveSpec, NotNormal, TripleView, is_reduced, legal_moves, normalize,
                    trip_permutation)
from plabic import fixtures as F
from plabic import graph as graph_module
from conftest import random_decorated_permutation


def test_view_requires_normal():
    with pytest.raises(NotNormal):
        TripleView(F.square_fan_b5())


def test_strands_and_triple_points():
    g = F.normal_b5()
    tv = TripleView(g)
    assert tv.strand_permutation() == trip_permutation(g) == [3, 4, 5, 1, 2]
    whites = [v for v in g.internal_vertices() if g.color(v) == "white"]
    assert tv.triple_points == whites
    assert len([t for t in tv.strands if t.kind == "oneway"]) == g.b


def test_minimal_on_reduced_view():
    assert TripleView(F.normal_b5()).minimality().minimal
    assert TripleView(F.normalized_b5()).minimality().minimal


def test_monogon_on_digon_view():
    res = normalize(F.ALL_NAMED["mixed_digon_b2"]())
    assert res.ok
    mn = TripleView(res.normal).minimality()
    assert not mn.minimal
    assert mn.badgon in ("monogon", "closed_strand")


def test_swivel_preserves_strand_data():
    g = F.normal_b5()
    tv = TripleView(g)
    for m in legal_moves(g):
        if m.kind not in ("UrbanRenewal", "NormalFlip"):
            continue
        tv2 = tv.swivel(m)
        assert tv2.strand_permutation() == tv.strand_permutation()
        assert len(tv2.triple_points) == len(tv.triple_points)


def test_swivel_twice_roundtrips():
    g = F.normal_b5()
    tv = TripleView(g)
    sites = [m for m in legal_moves(g) if m.kind == "NormalFlip"]
    tv2 = tv.swivel(sites[0])
    back = [m for m in legal_moves(tv2.base) if m.kind == "NormalFlip"]
    assert any(tv2.swivel(m).base == g for m in back)


def test_bridge_views_minimal(rng):
    from plabic import bridge_graph

    for _ in range(25):
        p = random_decorated_permutation(rng.randint(2, 6), rng)
        res = normalize(bridge_graph(p))
        assert res.ok
        if res.normal.b:
            assert TripleView(res.normal).minimality().minimal


def test_tikz_overlay():
    text = TripleView(F.normal_b5()).to_tikz()
    assert "strand" in text and "tikzpicture" in text


def test_digon_view_draws_its_closed_strand_and_swivels_no_square():
    tv = TripleView(normalize(F.ALL_NAMED["white_digon_b2"]()).normal)
    closed = [t for t in tv.strands if t.kind != "oneway"]
    assert closed
    lines = tv.to_tikz().splitlines()
    assert len([ln for ln in lines if ln.startswith("% closed strand: edges ")]) == len(closed)
    with pytest.raises(IllegalMove, match="^SquareM1 is not a swivel site$"):
        tv.swivel(MoveSpec("SquareM1", face=0))


def test_minimality_after_is_reduced_scans_no_more(monkeypatch):
    """``is_reduced`` decides a resonant graph on its own one-way trips
    (the fact "trips"): it neither normalizes, nor walks the trips in full,
    nor scans for bad features, and the minimality of the normal form then
    walks that form's trips (the fact "trip_walks", which starts from that
    form's "trips") and scans them once.  Any other graph is normalized and
    its normal form scanned once, and the minimality of that normal form
    reads the same scan.  Every read of a
    fact is recorded, cache hits too, and so is every derivation of the
    normal form, either trip fact and the scan."""
    real_fact = graph_module.PlabicGraph._fact
    read, derived = [], []

    def fact(g, name):
        read.append((name, g))
        return real_fact(g, name)

    monkeypatch.setattr(graph_module.PlabicGraph, "_fact", fact)
    for name in ("normalize", "trips", "trip_walks", "bad_features"):
        real = graph_module._FACTS[name]
        monkeypatch.setitem(graph_module._FACTS, name,
                            lambda g, real=real, name=name: derived.append((name, g)) or real(g))
    resonant = ("square_fan_b5", "two_trees_b6", "presplit_b5")
    names = resonant + ("adjacent_squares_b3", "white_digon_b2", "mixed_digon_b2",
                        "grid_fragment_b4")
    for name in names:
        g = F.ALL_NAMED[name]()
        derived.clear()
        reduced = is_reduced(g).reduced
        if name in resonant:
            assert reduced and derived == [("trips", g)], (name, derived)
        normal = normalize(g).normal
        if name not in resonant:
            on_normal = [fact for fact, h in read if h is normal]
            assert on_normal.count("trip_walks") == 1 and on_normal.count("trips") == 2
            assert [fact for fact, h in derived if h is normal] == [
                "bad_features", "trip_walks", "trips"]
        read.clear()
        derived.clear()
        assert TripleView(normal).minimality().minimal is reduced
        facts = [fact for fact, _ in read]
        if name in resonant:
            assert derived == [("bad_features", normal), ("trip_walks", normal),
                               ("trips", normal)], (name, derived)
        else:
            assert facts.count("bad_features") == 1, facts
            assert "trips" not in facts and "trip_walks" not in facts, facts
            assert derived == []
