import json

import pytest

from plabic import (
    WHITE,
    BadLabel,
    PlabicError,
    PlabicGraph,
    TripDoesNotTerminate,
    HasInternalLeaf,
    NotNormal,
    UndecoratableFixedPoint,
    all_trips,
    bad_features,
    bridge_graph,
    decorated_trip_permutation,
    edge_labels,
    lollipop_graph,
    normalize,
    resonance,
    trip_from,
    trip_permutation,
)
from plabic import DecoratedPermutation
from plabic import fixtures as F
from conftest import random_decorated_permutation


def test_black_lollipop_trip_returns_home():
    g = lollipop_graph("b")
    t = trip_from(g, 1)
    assert (t.source, t.target) == (1, 1)
    assert len(t.darts) == 2  # out and back along the single edge


def test_bad_label():
    with pytest.raises(BadLabel):
        trip_from(lollipop_graph("b"), 2)


@pytest.mark.parametrize("label", ["1", 1.0, True, None], ids=["str", "float", "bool", "none"])
def test_a_label_that_is_not_an_int_is_a_bad_label(label):
    with pytest.raises(BadLabel):
        trip_from(lollipop_graph("bw"), label)


def test_corrupt_rotation_stops_the_trip_tracer():
    # dart 2 listed twice at white vertex 0: the trip from label 1 is
    # sent into a cycle that never returns to the boundary; and boundary
    # dart 0 listed at vertex 0 too: the trip goes round and round it.
    # The one-way walk of trip_permutation and the full trace of all_trips
    # both stop
    for rot in ({-1: (0,), 0: (1, 2, 3, 2)}, {-1: (0,), 0: (1, 0)}):
        for read in (trip_permutation, all_trips):
            g = PlabicGraph(1, {0: WHITE}, rot, (0, 1))
            with pytest.raises(TripDoesNotTerminate) as err:
                read(g)
            assert isinstance(err.value, PlabicError), (rot, read)


@pytest.mark.parametrize("read", ["faces", "face_of_dart"])
def test_corrupt_rotation_stops_the_face_tracer(read):
    # the face orbit from dart 0 enters the cycle through darts 2 and 3
    g = PlabicGraph(1, {0: WHITE}, {-1: (0,), 0: (1, 2, 3, 2)}, (0, 1))
    with pytest.raises(TripDoesNotTerminate, match="orbit from dart 0 runs past 4 darts"):
        getattr(g, read)()


def test_decorated_permutation_is_a_fresh_object():
    g = lollipop_graph("wb")
    p = decorated_trip_permutation(g)
    p.decorations[1] = "under"
    assert decorated_trip_permutation(g).decorations == {1: "over", 2: "under"}


def test_square_fan_trips():
    assert trip_permutation(F.square_fan_b5()) == [3, 4, 5, 1, 2]
    t = trip_from(F.square_fan_b5(), 1)
    assert (t.source, t.target) == (1, 3)


def test_two_trees_trips():
    g = F.two_trees_b6()
    assert trip_permutation(g) == [5, 2, 3, 6, 4, 1]
    assert str(decorated_trip_permutation(g)) == "5 2_ 3^ 6 4 1"
    assert trip_from(g, 1).target == 5


def test_decorations_of_lollipop_rows():
    g = lollipop_graph("wbw")
    p = decorated_trip_permutation(g)
    assert p.values == (1, 2, 3)
    assert p.decorations == {1: "over", 2: "under", 3: "over"}


def test_fork_fixed_point_not_decoratable():
    with pytest.raises(UndecoratableFixedPoint):
        decorated_trip_permutation(F.fork_b1())


def test_trips_partition_darts():
    for name in ("square_fan_b5", "two_trees_b6", "normal_b5", "white_digon_b2"):
        g = F.ALL_NAMED[name]()
        seen = []
        for t in all_trips(g):
            seen.extend(t.darts)
        assert sorted(seen) == sorted(d for v in g._rot for d in g.rotation(v))


def test_trip_targets_distinct(rng):
    for _ in range(30):
        g = bridge_graph(random_decorated_permutation(rng.randint(2, 7), rng))
        pi = trip_permutation(g)
        assert sorted(pi) == list(range(1, g.b + 1))


def test_edge_labels_match_known_labeling():
    labels = edge_labels(F.square_fan_b5_lollipop())
    expected = {
        0: {1, 4}, 5: {1, 2}, 1: {2, 5}, 13: {6}, 8: {2, 4}, 6: {1, 5},
        7: {4, 5}, 9: {2, 5}, 10: {1, 4}, 2: {1, 3}, 12: {3, 4},
        11: {2, 3}, 4: {3, 5}, 3: {2, 4},
    }
    assert labels == expected


def test_edge_labels_of_digon():
    # stubs get both trips, the digon sides one each
    g = F.ALL_NAMED["white_digon_b2"]()
    labels = edge_labels(g)
    assert labels[0] == {1, 2} and labels[3] == {1, 2}
    assert sorted(map(sorted, (labels[1], labels[2]))) == [[1], [2]]


def test_lollipop_edge_label_singleton():
    labels = edge_labels(F.square_fan_b5_lollipop())
    assert labels[13] == {6}


def test_resonance_on_fixtures():
    assert resonance(F.square_fan_b5_lollipop())
    assert resonance(F.square_fan_b5())
    assert resonance(F.normal_b5())
    for name in ("white_digon_b2", "mixed_digon_b2", "black_digon_b2"):
        assert not resonance(F.ALL_NAMED[name]())


def test_resonance_needs_leafless():
    from plabic import is_reduced

    g = F.bad_leaf_b2()
    for _ in range(2):  # the second time after is_reduced has read the fact
        with pytest.raises(HasInternalLeaf):
            resonance(g)
        assert not is_reduced(g).reduced


def test_resonance_on_bridge_graphs(rng):
    from plabic import is_reduced

    for _ in range(40):
        g = bridge_graph(random_decorated_permutation(rng.randint(1, 6), rng))
        assert resonance(g) == is_reduced(g).reduced is True


def test_bad_features_requires_normal():
    with pytest.raises(NotNormal):
        bad_features(F.square_fan_b5())


def test_bad_features_empty_on_reduced_normal():
    assert bad_features(F.normal_b5()) == []


def test_bad_features_roundtrip_on_digon():
    res = normalize(F.ALL_NAMED["white_digon_b2"]())
    feats = bad_features(res.normal)
    assert any(f.kind == "roundtrip" for f in feats)


def test_bad_features_self_intersection():
    res = normalize(F.ALL_NAMED["mixed_digon_b2"]())
    kinds = {f.kind for f in bad_features(res.normal)}
    assert kinds & {"essential_self_intersection", "roundtrip"}


def test_bad_features_write_plain_json():
    """Each bad feature of a non-reduced normal graph is its kind and its
    edge ids as a JSON object."""
    feats = bad_features(normalize(F.ALL_NAMED["mixed_digon_b2"]()).normal)
    assert feats
    for f in feats:
        obj = f.to_json_obj()
        assert obj == {"kind": f.kind, "edges": list(f.edges)}
        assert json.loads(json.dumps(obj)) == obj


def test_black_lollipop_not_a_bad_feature():
    g = lollipop_graph("bb")
    assert bad_features(g) == []


def test_bridge_of_463_is_clean():
    g = bridge_graph(DecoratedPermutation.parse("4 6 5 1 2 3"))
    res = normalize(g)
    assert res.ok
    assert bad_features(res.normal) == []


def test_bad_features_returns_a_new_list_each_call():
    normal = normalize(F.ALL_NAMED["mixed_digon_b2"]()).normal
    want = bad_features(normal)
    bad_features(normal).clear()
    assert len(want) == 4 and bad_features(normal) == want


def test_all_trips_returns_a_new_list_each_call():
    g = F.square_fan_b5()
    want = trip_permutation(g)
    trips = all_trips(g)
    count = len(trips)
    trips.clear()
    assert len(all_trips(g)) == count and trip_permutation(g) == want == [3, 4, 5, 1, 2]
