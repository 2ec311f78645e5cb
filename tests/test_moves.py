import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plabic import (
    BLACK,
    WHITE,
    IllegalMove,
    MoveSpec,
    PlabicGraph,
    apply_move,
    bridge_graph,
    classify,
    decorated_trip_permutation,
    is_reduced,
    label_collection,
    legal_moves,
    lollipop_graph,
    move_equivalent,
    normalize,
    quiver_of,
    trip_permutation,
    validate,
)
from plabic import DecoratedPermutation
from plabic import fixtures as F
from plabic.errors import BadBudget, PlabicError
from plabic import moves as moves_module
from plabic.graph import Builder
from plabic.moves import KINDS, _apply, _search_moves
from conftest import random_decorated_permutation, trivalentize
from test_acceptance import _check_square_label_rule


FIELDS = ("kind", "face", "vertex", "edge", "color", "start", "length", "condition_ok")


def test_move_spec_value_contract():
    m = MoveSpec("SplitM3", vertex=3, start=1, length=2)
    assert repr(m) == (
        "MoveSpec(kind='SplitM3', face=None, vertex=3, edge=None, color=None, "
        "start=1, length=2, condition_ok=None)"
    )
    same = MoveSpec("SplitM3", vertex=3, start=1, length=2)
    assert m == same and hash(m) == hash(same) and m is not same
    assert m != MoveSpec("SplitM3", vertex=3, start=1, length=3)
    assert len({m, same, MoveSpec("SquareM1", face=0)}) == 2
    with pytest.raises(AttributeError):
        m.vertex = 4


def test_move_spec_json_key_order_and_roundtrip():
    kinds = set()
    for make in F.ALL_NAMED.values():
        for m in legal_moves(make()):
            obj = m.to_json_obj()
            assert list(obj) == [k for k in FIELDS if getattr(m, k) is not None]
            assert MoveSpec.from_json_obj(json.loads(json.dumps(obj))) == m
            kinds.add(m.kind)
    assert kinds == set(KINDS)


def test_square_sites_and_condition_flags():
    sites = [m for m in legal_moves(F.adjacent_squares_b3()) if m.kind == "SquareM1"]
    flags = sorted(m.condition_ok for m in sites)
    assert len(sites) == 2 and flags == [False, True]


def test_braid_middle_single_square_site():
    sites = [m for m in legal_moves(F.braid_middle_b6()) if m.kind == "SquareM1"]
    assert len(sites) == 1


def test_lollipop_only_insertions():
    moves = legal_moves(lollipop_graph("b"))
    assert moves and all(m.kind == "InsertBivalentM2" for m in moves)


def test_square_move_flips_colors_and_is_involutive():
    g = F.square_fan_b5()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "SquareM1"]
    h = apply_move(g, m)
    face = g.faces()[m.face]
    for d in face.darts:
        v = g.dart_vertex(d)
        assert h.color(v) != g.color(v)
    assert apply_move(h, m) == g
    assert trip_permutation(h) == trip_permutation(g)
    assert len(h.nonouter_faces()) == len(g.nonouter_faces())


def test_square_move_rejects_bad_site():
    g = F.square_fan_b5()
    with pytest.raises(IllegalMove):
        apply_move(g, MoveSpec("SquareM1", face=0))  # a boundary face


@pytest.mark.parametrize(
    "spec",
    [
        MoveSpec("SplitM3", vertex=1, start="a", length=2),
        MoveSpec("SplitM3", vertex=1, start=0, length="2"),
        MoveSpec("SplitM3", vertex=1, start=1.5, length=2),
        MoveSpec("SquareM1", face="5"),
        MoveSpec("SquareM1", face=5.0),
        MoveSpec("RemoveBivalentM2", vertex=[1]),
        MoveSpec("RemoveBivalentM2", vertex={1: 1}),
        MoveSpec("ContractM3", edge=[10]),
        MoveSpec("InsertBivalentM2", edge={}, color=BLACK),
        MoveSpec("SplitM3", vertex=True, start=0, length=2),
    ],
    ids=["start-str", "length-str", "start-float", "face-str", "face-float",
         "vertex-list", "vertex-dict", "edge-list", "edge-dict", "vertex-bool"],
)
def test_apply_move_rejects_ill_typed_specs(spec):
    """A spec built in code is checked as a parsed one is: IllegalMove with
    the same message, never a TypeError or a field taken as another type."""
    with pytest.raises(IllegalMove, match="^move field ") as applied:
        apply_move(F.square_fan_b5(), spec)
    with pytest.raises(IllegalMove) as parsed:
        MoveSpec.from_json_obj({k: v for k, v in spec._asdict().items() if v is not None})
    assert str(applied.value) == str(parsed.value)


def test_insert_remove_inverse_pair():
    g = F.square_fan_b5()
    h, inv = _apply(g, MoveSpec("InsertBivalentM2", edge=5, color="black"))
    assert inv.kind == "RemoveBivalentM2"
    assert apply_move(h, inv) == g


def test_contract_split_inverse_pair():
    g = F.square_fan_b5()
    h, inv = _apply(g, MoveSpec("ContractM3", edge=10))
    assert inv.kind == "SplitM3"
    h2, _ = _apply(h, inv)
    assert h2 == g
    assert trip_permutation(h) == trip_permutation(g)


def test_contract_rejects_bicolored_edge():
    g = F.square_fan_b5()
    with pytest.raises(IllegalMove):
        apply_move(g, MoveSpec("ContractM3", edge=5))


def test_split_creating_leaf_is_legal_by_explicit_spec():
    g = F.square_fan_b5()
    h = apply_move(g, MoveSpec("SplitM3", vertex=3, start=0, length=0))
    assert len(h.internal_vertices()) == len(g.internal_vertices()) + 1
    assert trip_permutation(h) == trip_permutation(g)


def test_flip_inverse_and_trip_invariance():
    for name in ("square_fan_b5", "grid_fragment_b4", "braid_middle_b6"):
        g = F.ALL_NAMED[name]()
        flips = [m for m in legal_moves(g) if m.kind == "FlipM4"]
        for m in flips:
            h, inv = _apply(g, m)
            assert trip_permutation(h) == trip_permutation(g)
            h2, _ = _apply(h, inv)
            assert h2 == g


def test_flip_equals_contract_then_split():
    g = F.square_fan_b5()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "FlipM4" and mv.edge == 10]
    h = apply_move(g, m)
    via = apply_move(g, MoveSpec("ContractM3", edge=10))
    u = min(g.edge_endpoints(10))
    j = [via.edge_id(d) for d in via.rotation(u)]
    # the flip is the rotated two-arc split of the merged vertex
    start = None
    for s in range(4):
        cand = apply_move(via, MoveSpec("SplitM3", vertex=u, start=s, length=2))
        if cand == h:
            start = s
            break
    assert start is not None


def test_urban_renewal_matches_expected():
    g = F.urban_left_b7()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "UrbanRenewal"]
    assert apply_move(g, m) == F.urban_right_b7()


def test_urban_renewal_bivalent_case():
    g = F.urban_left_b7(bivalent=True)
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "UrbanRenewal"]
    assert apply_move(g, m) == F.urban_right_b7(bivalent=True)


def test_urban_renewal_preserves_trips_and_faces():
    g = F.urban_left_b7()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "UrbanRenewal"]
    h = apply_move(g, m)
    assert trip_permutation(h) == trip_permutation(g)
    assert len(h.nonouter_faces()) == len(g.nonouter_faces())


def test_urban_renewal_inverse_gives_back_the_input():
    """The inverse face is read off the new square's side dart at a former
    white corner; at every site it is a listed site of the result, and
    applying it gives back the input."""
    rng = random.Random(36)
    graphs = [make() for make in F.ALL_NAMED.values()]
    graphs += [normalize(bridge_graph(random_decorated_permutation(b, rng))).normal
               for b in range(4, 9) for _ in range(10)]
    sites = 0
    for g in graphs:
        for m in legal_moves(g):
            if m.kind == "UrbanRenewal":
                h, inv = _apply(g, m)
                assert inv in legal_moves(h), (g.to_json(), m)
                assert apply_move(h, inv) == g, (g.to_json(), m)
                sites += 1
    assert sites >= 20, sites


@pytest.mark.parametrize("m", [{"kind": "SquareM1", "face": 5}, None, ("SquareM1", 5),
                               "SquareM1"], ids=["dict", "none", "tuple", "str"])
def test_apply_move_refuses_what_is_no_move_spec(m):
    with pytest.raises(IllegalMove, match="^a move must be a MoveSpec, got "):
        apply_move(F.square_fan_b5(), m)


@pytest.mark.parametrize("face", [5, 0], ids=["square", "boundary"])
def test_urban_renewal_rejects_a_face_that_is_not_a_site(face):
    # face 5 of the fan is its SquareM1 square, face 0 a boundary face
    with pytest.raises(IllegalMove, match=f"^face {face} is not an urban renewal site$"):
        apply_move(F.square_fan_b5(), MoveSpec("UrbanRenewal", face=face))


def test_a_four_dart_face_with_a_repeated_corner_is_no_square_site():
    """A digon with a leaf inside: its internal face walks four darts
    through three corners, so it is no SquareM1 or UrbanRenewal site."""
    g = PlabicGraph.from_rotation(
        2, {0: WHITE, 1: BLACK, 2: BLACK},
        {-1: [0], -2: [1], 0: [0, 2, 4, 3], 1: [1, 3, 2], 2: [4]})
    faces = g.faces()
    (idx,) = [i for i, f in enumerate(faces) if f.kind == "internal" and len(f.darts) == 4]
    assert len({g.dart_vertex(d) for d in faces[idx].darts}) == 3
    assert not [m for m in legal_moves(g) if m.kind in ("SquareM1", "UrbanRenewal")]
    for kind in ("SquareM1", "UrbanRenewal"):
        with pytest.raises(IllegalMove, match=f"^face {idx} is not a"):
            apply_move(g, MoveSpec(kind, face=idx))


def test_a_bivalent_vertex_carrying_only_a_loop_is_no_removal_site():
    """A raw graph: a black vertex whose two darts are one loop's, floating
    beside ``fork_b1``."""
    bld = Builder(F.fork_b1())
    w = bld.add_vertex(BLACK)
    e0, e1 = bld._new_dart_pair(bld.fresh_edge_id())
    bld._edit(w)[:] = [e0, e1]
    bld.dv[e0] = bld.dv[e1] = w
    g = bld.freeze()
    assert g.degree(w) == 2
    assert not [m for m in legal_moves(g) if m.kind == "RemoveBivalentM2"]
    with pytest.raises(IllegalMove, match=f"^vertex {w} carries only a loop$"):
        apply_move(g, MoveSpec("RemoveBivalentM2", vertex=w))


def test_normal_flip_keeps_normal():
    from plabic import classify

    g = F.normal_b5()
    (m,) = [mv for mv in legal_moves(g) if mv.kind == "NormalFlip"]
    h, inv = _apply(g, m)
    assert classify(h)["normal"]
    assert trip_permutation(h) == trip_permutation(g)
    h2, _ = _apply(h, inv)
    assert h2 == g


def test_validate_after_every_move(rng):
    from plabic import validate

    g = bridge_graph(random_decorated_permutation(5, rng))
    for _ in range(60):
        mv = rng.choice(legal_moves(g))
        g = apply_move(g, mv)
        assert validate(g).ok
    assert is_reduced(g).reduced


def test_equivalence_of_reduced_pair():
    res = move_equivalent(F.square_fan_b5_lollipop(), F.square_path_b6())
    assert res.equivalent
    assert res.certificate is None


def test_equivalence_one_step_certificate():
    g = F.square_fan_b5()
    h, _ = _apply(g, MoveSpec("InsertBivalentM2", edge=5, color="white"))
    res = move_equivalent(g, h, budget=2, want_certificate=True)
    assert res.equivalent and len(res.certificate) == 1
    cur = g
    for mv in res.certificate:
        cur = apply_move(cur, mv)
    assert cur == h


def test_equivalence_search_skips_revisited_states():
    # two insertions away: each side grows one layer, and the two meet at a
    # graph one insertion from g
    g = F.square_fan_b5()
    h1, _ = _apply(g, MoveSpec("InsertBivalentM2", edge=5, color="white"))
    h, _ = _apply(h1, MoveSpec("InsertBivalentM2", edge=8, color="black"))
    res = move_equivalent(g, h, budget=2, want_certificate=True)
    assert res.verdict == "equivalent" and res.reason == "found by search"
    assert len(res.certificate) == 2 and res.depth == (1, 1)
    cur = g
    for mv in res.certificate:
        cur = apply_move(cur, mv)
    assert cur == h


def test_equivalence_search_records_each_state_once():
    # g has a white bivalent vertex between a white and a black vertex:
    # removing it and contracting it into its white neighbour give the same
    # graph, and so do white insertions on either of its edges
    g, _ = _apply(F.square_fan_b5(), MoveSpec("InsertBivalentM2", edge=5, color="white"))
    h1, _ = _apply(g, MoveSpec("InsertBivalentM2", edge=8, color="black"))
    h, _ = _apply(h1, MoveSpec("InsertBivalentM2", edge=9, color="white"))
    res = move_equivalent(g, h, budget=2, want_certificate=True)
    assert res.verdict == "equivalent" and res.depth == (1, 1)
    # the root and one state per distinct graph of g's first layer
    assert res.states[0] == 1 + len(_search_moves(g)) - 2


def test_equivalence_of_isomorphic_graphs_needs_no_search():
    res = move_equivalent(F.fork_b1(), F.fork_b1())
    assert (res.verdict, res.certificate, res.reason) == ("equivalent", [], "isomorphic")


def test_not_equivalent_when_exactly_one_side_is_reduced():
    res = move_equivalent(lollipop_graph("w"), F.fork_b1())
    assert res.verdict == "not_equivalent"
    assert res.reason == "exactly one side is reduced"


def test_not_equivalent_different_permutations(rng):
    g1 = bridge_graph(DecoratedPermutation.parse("2 1 3_"))
    g2 = bridge_graph(DecoratedPermutation.parse("1_ 3 2"))
    res = move_equivalent(g1, g2)
    assert res.verdict == "not_equivalent"
    assert "differ" in res.reason


def test_not_equivalent_different_decorations():
    g1 = lollipop_graph("w")
    g2 = lollipop_graph("b")
    res = move_equivalent(g1, g2)
    assert res.verdict == "not_equivalent"


def test_unknown_for_nonreduced_beyond_budget():
    g1 = F.ALL_NAMED["white_digon_b2"]()
    # a thoroughly different non-reduced graph with the same trip permutation
    g2 = F.ALL_NAMED["black_digon_b2"]()
    res = move_equivalent(g1, g2, budget=1)
    assert res.verdict in ("equivalent", "unknown")


def test_unknown_names_the_budget():
    g1 = F.ALL_NAMED["white_digon_b2"]()
    g2 = F.ALL_NAMED["black_digon_b2"]()
    res = move_equivalent(g1, g2, budget=3)
    assert res.verdict == "unknown"
    assert res.reason == "no certificate within budget 3"


def test_unknown_says_how_far_the_search_got():
    res = move_equivalent(F.urban_left_b7(), F.urban_right_b7(), budget=3, want_certificate=True)
    assert (res.verdict, res.reason) == ("unknown", "no certificate within budget 3")
    # g1's side grows two layers and g2's side one; states count the roots
    assert res.depth == (2, 1)
    assert res.states == (601, 30)


def test_unknown_at_the_state_cap(monkeypatch):
    # the search stops on the state that passes the cap, mid-layer
    monkeypatch.setattr(moves_module, "_STATE_CAP", 100)
    res = move_equivalent(F.urban_left_b7(), F.urban_right_b7(), budget=3, want_certificate=True)
    assert (res.verdict, res.reason) == ("unknown", "state budget exhausted")
    assert res.states == (71, 30)  # 101 states, one past the cap
    assert res.depth == (2, 1)


@pytest.mark.parametrize("g1, g2, budget, states, depth", [
    (F.square_fan_b5_lollipop(), F.square_path_b6(), 4, (507, 46), (2, 2)),
    (F.urban_left_b7(), F.urban_right_b7(), 3, (601, 30), (2, 1)),
])
def test_search_freezes_only_the_states_it_expands(g1, g2, budget, states, depth, monkeypatch):
    """Children are keyed on the builders that made them, and a child is
    frozen only when its layer is expanded: the graphs the search freezes
    are, in order, the non-root states whose moves it lists, less those a
    square move made (a square move makes a graph, not a builder).  The
    children on each side's last layer and the repeats are never frozen."""
    for g in (g1, g2):  # the pre-checks freeze the normal forms; not counted
        is_reduced(g)
    frozen, listed, squares = [], [], []
    real_freeze, real_listing = Builder.freeze, moves_module._search_moves
    real_square, real_certificate = moves_module._BUILD["SquareM1"], moves_module._certificate
    searching = [True]

    def freeze(bld):
        h = real_freeze(bld)
        if searching:
            frozen.append(h)
        return h

    def listing(g):
        if searching:
            listed.append(g)
        return real_listing(g)

    def square(g, m):
        h, inv = real_square(g, m)
        squares.append(h)
        return h, inv

    def certificate(*args):
        searching.clear()
        return real_certificate(*args)

    monkeypatch.setattr(Builder, "freeze", freeze)
    monkeypatch.setattr(moves_module, "_search_moves", listing)
    monkeypatch.setitem(moves_module._BUILD, "SquareM1", square)
    monkeypatch.setattr(moves_module, "_certificate", certificate)
    res = move_equivalent(g1, g2, budget, want_certificate=True)
    assert (res.states, res.depth) == (states, depth)
    made_by_square = {id(h) for h in squares}
    expanded = [g for g in listed if g is not g1 and g is not g2]
    assert [id(h) for h in frozen] == [id(g) for g in expanded if id(g) not in made_by_square]
    assert 0 < len(frozen) and 10 * len(frozen) < sum(res.states)
    if res.certificate is not None:
        x = g1
        for mv in res.certificate:
            x = apply_move(x, mv)
        assert x == g2
        assert len(res.certificate) == budget


def test_results_decided_without_search_carry_no_search_counts():
    res = move_equivalent(F.square_fan_b5_lollipop(), F.square_path_b6())
    assert (res.states, res.depth) == (None, None)
    res = move_equivalent(F.fork_b1(), F.fork_b1())
    assert (res.states, res.depth) == (None, None)


@pytest.mark.parametrize("budget", [-3, -1, 2.5, True, "3", None])
def test_bad_budget_raises(budget):
    g = F.square_fan_b5()
    with pytest.raises(BadBudget):
        move_equivalent(g, g, budget=budget)


def test_trivalent_connectivity_via_square_and_flip(rng):
    """Trivalent reduced graphs with equal decorated trips are joined by
    square moves and flips alone."""
    p = DecoratedPermutation.parse("2 3 1")
    g1 = trivalentize(bridge_graph(p))
    # random flip image
    g2 = g1
    for _ in range(3):
        flips = [m for m in legal_moves(g2) if m.kind in ("FlipM4", "SquareM1")]
        if not flips:
            break
        g2 = apply_move(g2, rng.choice(flips))
    found = _bfs_m1_m4(g1, g2, depth=4)
    assert found



def _bfs_m1_m4(g1, g2, depth):
    target = g2.canonical_key()
    seen = {g1.canonical_key()}
    frontier = [g1]
    if g1.canonical_key() == target:
        return True
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for mv in legal_moves(g):
                if mv.kind not in ("SquareM1", "FlipM4"):
                    continue
                h = apply_move(g, mv)
                k = h.canonical_key()
                if k == target:
                    return True
                if k not in seen:
                    seen.add(k)
                    nxt.append(h)
        frontier = nxt
    return False


def test_braid_move_chain():
    """A braid transformation factors as M3 moves, one square move, and M3
    moves: both wiring graphs are move-equivalent to the middle stage."""
    from plabic import from_wiring, parse_word

    g1 = from_wiring(parse_word("s1 s2 s1"), 3)
    mid = F.braid_middle_b6()
    assert move_equivalent(g1, mid).equivalent
    (m1,) = [m for m in legal_moves(mid) if m.kind == "SquareM1"]
    g2 = from_wiring(parse_word("s2 s1 s2"), 3)
    assert move_equivalent(apply_move(mid, m1), g2).equivalent


def test_trivalent_connectivity_b4():
    p = DecoratedPermutation.parse("2 3 4 1")
    g1 = trivalentize(bridge_graph(p))
    g2 = g1
    moved = 0
    for _ in range(2):
        flips = [m for m in legal_moves(g2) if m.kind in ("FlipM4", "SquareM1")]
        if not flips:
            break
        g2 = apply_move(g2, flips[-1])
        moved += 1
    assert moved and _bfs_m1_m4(g1, g2, depth=3)


def _kind_balanced_walk(g, steps, rng, counts, kinds=KINDS, normal=False):
    """Walk ``steps`` moves, each of a kind drawn uniformly from the kinds
    in ``kinds`` that have a site, then at a site of that kind.  Checks the
    criterion-7 invariants at every step, quiver mutation at every
    ``condition_ok`` square, and, when ``normal``, that every graph is
    normal."""
    assert classify(g)["normal"] or not normal
    perm = decorated_trip_permutation(g)
    nfaces = len(g.nonouter_faces())
    labels = label_collection(g, "target", check=False)
    for _ in range(steps):
        sites = {}
        for m in legal_moves(g):
            if m.kind in kinds:
                sites.setdefault(m.kind, []).append(m)
        if not sites:
            break
        kind = rng.choice(sorted(sites))
        mv = rng.choice(sites[kind])
        h = apply_move(g, mv)
        counts[kind] += 1
        assert decorated_trip_permutation(h) == perm, (g.to_json(), mv)
        assert len(h.nonouter_faces()) == nfaces
        new_labels = label_collection(h, "target", check=False)
        if kind == "SquareM1":
            _check_square_label_rule(g, h, mv.face)
            if mv.condition_ok:
                q = quiver_of(g, keys="ids").mutate(mv.face)
                assert q.is_isomorphic(quiver_of(h, keys="ids")), (g.to_json(), mv)
        elif kind == "UrbanRenewal":  # the square move of a bipartite graph
            assert len(labels ^ new_labels) == 2
        else:
            assert new_labels == labels
        if normal:
            assert classify(h)["normal"], (g.to_json(), mv)
        labels, g = new_labels, h
    assert is_reduced(g).reduced


def test_kind_balanced_walks_keep_the_invariants():
    """Criterion 7 draws among sites, so bivalent insertions crowd out the
    rarer kinds; here every kind with a site is equally likely."""
    rng = random.Random(11)
    counts = Counter()
    for _ in range(200):
        p = random_decorated_permutation(rng.randint(4, 7), rng)
        _kind_balanced_walk(trivalentize(bridge_graph(p)), 40, rng, counts)
    # UrbanRenewal and NormalFlip keep a graph normal; no other kind does
    for _ in range(80):
        g = normalize(bridge_graph(random_decorated_permutation(rng.randint(4, 7), rng))).normal
        _kind_balanced_walk(g, 20, rng, counts, ("UrbanRenewal", "NormalFlip"), normal=True)
    starts = [F.square_fan_b5, F.square_fan_b5_lollipop, F.two_trees_b6,
              F.normal_b5, F.square_path_b6]
    for make in starts * 2:
        _kind_balanced_walk(make(), 40, rng, counts)
    # about half of what seed 11 applies of each kind
    least = {"SquareM1": 100, "InsertBivalentM2": 1800, "RemoveBivalentM2": 1000,
             "ContractM3": 700, "SplitM3": 150, "FlipM4": 250,
             "UrbanRenewal": 130, "NormalFlip": 140}
    assert {k: counts[k] for k in KINDS if counts[k] < least[k]} == {}


GRAPHS = [make() for make in F.ALL_NAMED.values()]
INTS = st.one_of(st.none(), st.integers(-3, 40), st.integers(-(2**40), 2**40))
VALUES = {
    "kind": st.sampled_from(KINDS),
    "face": INTS,
    "vertex": INTS,
    "edge": INTS,
    "color": st.sampled_from([None, BLACK, WHITE, "red"]),
    "start": INTS,
    "length": INTS,
    "condition_ok": st.sampled_from([None, True, False]),
}


@st.composite
def graph_and_spec_object(draw):
    """A fixture and a spec object: either any kind with random fields, or a
    legal spec of that fixture, of a kind drawn first, with at most one
    field redrawn."""
    g = draw(st.sampled_from(GRAPHS))
    if draw(st.booleans()):
        legal = legal_moves(g)
        kind = draw(st.sampled_from(sorted({m.kind for m in legal})))
        obj = draw(st.sampled_from([m for m in legal if m.kind == kind])).to_json_obj()
        field = draw(st.sampled_from((None,) + FIELDS))
        if field is not None:
            obj[field] = draw(VALUES[field])
    else:
        optional = {k: v for k, v in VALUES.items() if k != "kind"}
        obj = draw(st.fixed_dictionaries({"kind": VALUES["kind"]}, optional=optional))
    return g, obj


@settings(max_examples=800)
@given(graph_and_spec_object())
def test_any_spec_gives_a_valid_graph_or_a_plabic_error(case):
    g, obj = case
    try:
        h = apply_move(g, MoveSpec.from_json_obj(obj))
    except PlabicError:
        return
    assert validate(h).ok, (g.to_json(), obj)
