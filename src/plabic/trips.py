"""Trips: directed walks obeying the rules of the road.

A trip turns as sharply as possible: rightward at black vertices and
leftward at white ones.  With clockwise rotation lists this reads as

* black vertex: leave along the clockwise *predecessor* of the in-dart,
* white vertex: leave along the clockwise *successor* of the in-dart,

where the in-dart is the dart based at the vertex pointing back where the
trip came from.  Bivalent vertices pass trips straight through (both rules
agree), and a leaf produces a U-turn.  Trips are thus orbits of the same
successor fill as faces (``PlabicGraph._fill_successors``), which turns
the other way at black vertices only.

Two facts hold the trips.  "trips" walks only the one-way trips and keeps
their targets and the source of the trip on each dart: the trip
permutation, its decorations, edge labels, resonance and face labels read
nothing else.  It also keeps the trip-successor table, from which
"trip_walks" builds the ``Trip`` objects, roundtrips included, and each
dart's place on its trip, for ``all_trips``, ``trip_from`` and the
bad-feature scan; so a graph fills that table once whatever it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadLabel, HasInternalLeaf, NotNormal, TripDoesNotTerminate,
                     UndecoratableFixedPoint, _ints, _show)
from .graph import _FACTS, WHITE, PlabicGraph, _orbit
from .perms import DecoratedPermutation


@dataclass(frozen=True)
class Trip:
    """A one-way trip (source/target boundary labels) or a roundtrip."""

    kind: str  # "oneway" | "roundtrip"
    source: int | None
    target: int | None
    darts: tuple

    def to_json_obj(self, g: PlabicGraph):
        return {
            "kind": self.kind,
            "source": self.source,
            "target": self.target,
            "edges": [g.edge_id(d) for d in self.darts],
        }


def trip_from(g: PlabicGraph, i: int) -> Trip:
    """The trip entering the disk at boundary label i."""
    message = f"boundary label {{}} not in 1..{g.b}"
    if not 1 <= _ints((i,), BadLabel, message)[0] <= g.b:
        raise BadLabel(message.format(_show(i)))
    return g._fact("trip_walks")[0][i - 1]


def all_trips(g: PlabicGraph):
    """Every trip: the b one-way trips followed by all roundtrips.

    All of them are traced from the trip-successor table of the fact
    "trips", in O(darts), once per graph and only when asked for (the fact
    "trip_walks"); every call returns a new list.
    """
    return list(g._fact("trip_walks")[0])


def _trace_trips(g: PlabicGraph):
    """The fact "trips": ``(targets, source, nxt)``, the target of each
    one-way trip in order of source, by dart the source of its one-way
    trip (0 on roundtrips and at the holes), and the trip-successor table:
    the successor fill over the internal vertices with ``black=-1``, where
    a dart into the boundary keeps -1 and a trip ends.  One walk per
    boundary label writes only the sources: no ``Trip``, no places and no
    search for roundtrips.  A walk longer than the darts means a corrupt
    rotation."""
    limit, rot, dv = g._dart_bound(), g._rot, g._dart_vertex
    nxt = [-1] * limit
    g._fill_successors(nxt, g._colors, -1)
    source, targets = [0] * limit, []
    for i in range(1, g.b + 1):
        d = rot[-i][0]
        for _ in range(limit):
            source[d] = i
            e = nxt[d]
            if e < 0:
                break
            d = e
        else:
            raise TripDoesNotTerminate(f"trip from label {i} runs past {limit} darts")
        targets.append(-dv[d ^ 1])
    return tuple(targets), source, nxt


def _walk_trips(g: PlabicGraph):
    """The fact "trip_walks": ``(trips, place)``, the tuple ``all_trips``
    lists and by dart its place on its one-way trip (0 elsewhere): the
    orbits of the successor table of the fact "trips", roundtrips by least
    dart, which are the darts that fact left at source 0.  That fact's
    walks ended within the dart bound, so the one-way walks here need no
    guard."""
    _, source, nxt = g._fact("trips")
    limit, rot, dv = len(nxt), g._rot, g._dart_vertex
    place, trips, traced = [0] * limit, [], 0
    for i in range(1, g.b + 1):
        d, darts = rot[-i][0], []
        while d >= 0:
            place[d] = len(darts)
            darts.append(d)
            d = nxt[d]
        traced += len(darts)
        trips.append(Trip("oneway", i, -dv[darts[-1] ^ 1], tuple(darts)))
    if traced < len(dv):  # one-way trips are disjoint: some darts are left
        nxt = nxt[:]  # a traced roundtrip leaves -1 here, not in the fact "trips"
        for d0 in range(limit):  # roundtrips by least dart
            if not source[d0] and nxt[d0] >= 0:
                cyc = _orbit(nxt, d0, limit)
                for d in cyc:
                    nxt[d] = -1
                trips.append(Trip("roundtrip", None, None, tuple(cyc)))
    return tuple(trips), place


def trip_permutation(g: PlabicGraph):
    """The boundary connectivity of one-way trips, as a list of targets."""
    return list(g._fact("trips")[0])


def decorated_trip_permutation(g: PlabicGraph) -> DecoratedPermutation:
    """Trip permutation with each fixed point decorated by the colour of
    the lollipop its pendant tree collapses to: "over" for white, "under"
    for black.

    The tree at fixed point i hangs from boundary i alone
    (``_hanging_tree``) and folds bottom up: a vertex keeps its own colour
    when no child subtree folded to the other colour, takes the other
    colour when exactly one did, and is stuck when two or more did or a
    child is stuck.  A stuck root, or a root that is not pendant, raises
    UndecoratableFixedPoint (which signals a non-reduced graph); fixed
    points are checked in increasing order.  The values and decorations
    are computed once per graph; every call returns a new permutation
    object with its own ``decorations`` dict.
    """
    return DecoratedPermutation._trusted(*g._fact("decorated"))


def _decorate(g: PlabicGraph):
    """The fact "decorated": the values and the fixed-point decorations."""
    values = g._fact("trips")[0]
    decorations = {}
    for i in range(1, g.b + 1):
        if values[i - 1] != i:
            continue
        tree = _hanging_tree(g, g.boundary_dart(i) ^ 1)
        color = None if tree is None else _fold_tree(g, *tree)
        if color is None:
            raise UndecoratableFixedPoint(i)
        decorations[i] = "over" if color == WHITE else "under"
    return values, decorations


def _hanging_tree(g: PlabicGraph, entry: int):
    """The tree that hangs from a boundary vertex alone, below the vertex
    ``entry`` is based at, where ``entry`` is the dart to the boundary:
    ``(order, kids)``, its vertices breadth first and each one's children.
    None when that root is not pendant: the search from it, leaving out
    ``entry``, meets the boundary or reaches a vertex twice (a loop, a
    digon or any other cycle)."""
    rot, dv = g._rot, g._dart_vertex
    root = dv[entry]
    order, kids, back = [root], {root: []}, {root: entry}
    for v in order:
        up = back[v]  # the dart toward the boundary
        for d in rot[v]:
            if d == up:
                continue
            u = dv[d ^ 1]
            if u < 0 or u in kids:
                return None
            kids[v].append(u)
            kids[u] = []
            back[u] = d ^ 1
            order.append(u)
    return order, kids


def _fold_tree(g: PlabicGraph, order, kids):
    """The colour the tree ``_hanging_tree`` found collapses to, or None
    when it is stuck."""
    colors = g._colors
    fold = {}
    for v in reversed(order):
        own = colors[v]
        other = [fold[u] for u in kids[v] if fold[u] != own]
        fold[v] = own if not other else other[0] if len(other) == 1 else None
    return fold[order[0]]


# ----------------------------------------------------------------------
# edge labels and resonance


def edge_labels(g: PlabicGraph) -> dict:
    """Map each edge id to the set of boundary labels whose trip uses it:
    the nonzero trip sources of its two darts.  Every call returns new sets."""
    source, ids = g._fact("trips")[1], g._edge_ids
    labels = {e: set() for e in g.edge_ids}
    for d, s in enumerate(source):
        if s:
            labels[ids[d >> 1]].add(s)
    return labels


def resonance(g: PlabicGraph) -> bool:
    """Whether clockwise edge labels around every internal non-lollipop
    vertex form a chain {i1,i2},{i2,i3},...,{i(m-1),im},{i1,im} with
    i1 < ... < im; HasInternalLeaf when a leaf is not a lollipop.  By
    Kodama–Williams (arXiv:1106.0023) this is equivalent to reducedness
    for graphs whose only leaves are lollipops.  Decided once per graph
    and kept, on the trip sources of the fact "trips" alone (no ``Trip``
    is built), and ``is_reduced`` reads the same verdict."""
    info = g._fact("classify")
    if len(info["internal_leaves"]) != len(info["lollipops"]):
        raise HasInternalLeaf("resonance requires no internal leaves other than lollipops")
    return g._fact("resonance")


def _resonate(g: PlabicGraph) -> bool:
    """The fact "resonance".  A ring pairs the trip sources of each edge's
    two darts.  A trip turns back at a leaf, so a leaf that is not a lollipop
    puts a pair (s, s) in its neighbour's ring: such a graph is never resonant."""
    source = g._fact("trips")[1]
    return all(_is_resonant_ring([(source[d], source[d ^ 1]) for d in ds])
               for v, ds in g._rot.items() if v >= 0 and len(ds) != 1)


def _is_resonant_ring(ring) -> bool:
    """Whether a ring of label pairs, each read in either order, is a
    rotation of (a1,a2),(a2,a3),...,(a(m-1),am),(a1,am) with m >= 2 and
    0 < a1 < ... < am (label 0 stands for a missing label).  Rotated to
    start at its least pair, such a ring reads exactly in that order."""
    pairs = [(x, y) if x < y else (y, x) for x, y in ring]
    if len(pairs) < 2:
        return False
    j = pairs.index(min(pairs))
    pairs = pairs[j:] + pairs[:j]
    a1 = a = pairs[0][0]
    for x, y in pairs[:-1]:
        if x != a or y <= x:
            return False
        a = y
    return a1 > 0 and pairs[-1] == (a1, a)


# ----------------------------------------------------------------------
# bad features


@dataclass(frozen=True)
class BadFeature:
    kind: str  # "roundtrip" | "essential_self_intersection" | "bad_double_crossing"
    edges: tuple

    def to_json_obj(self):
        return {"kind": self.kind, "edges": list(self.edges)}


def bad_features(g: PlabicGraph):
    """Exhaustive list of roundtrips, essential self-intersections and bad
    double crossings.  Requires a normal graph; empty iff the graph is
    reduced.

    The scan runs once per graph on the trips and places of the fact
    "trip_walks" and the sources of the fact "trips": a trip on both darts
    of an edge, and two trips that meet two shared edges in the same order,
    are read off the sources and places of a dart and its twin.
    Every call returns a new list.
    """
    return list(g._fact("bad_features"))


def _scan_bad_features(g: PlabicGraph):
    if not g._fact("classify")["normal"]:
        raise NotNormal("bad feature detection requires a normal plabic graph")
    (trips, place), source, eid = g._fact("trip_walks"), g._fact("trips")[1], g._edge_ids
    feats = [BadFeature("roundtrip", tuple(sorted({eid[d >> 1] for d in t.darts})))
             for t in trips[g.b :]]
    crossings = []
    for t in trips[: g.b]:
        s, shared = t.source, {}  # later source -> darts of s whose twins it walks
        for p, d in enumerate(t.darts):
            o = source[d ^ 1]
            if o > s:
                shared.setdefault(o, []).append(d)
            elif o == s and place[d ^ 1] < p and not any(
                    g.is_lollipop(g.dart_vertex(x)) for x in (d, d ^ 1)):
                feats.append(BadFeature("essential_self_intersection", (eid[d >> 1],)))
        for o in sorted(shared):
            # trip s meets these edges in list order, being the first to visit them
            ds = shared[o]
            for k, d1 in enumerate(ds):
                for d2 in ds[k + 1 :]:
                    if place[d1 ^ 1] < place[d2 ^ 1]:
                        crossings.append(BadFeature(
                            "bad_double_crossing", (eid[d1 >> 1], eid[d2 >> 1])))
    return tuple(feats + crossings)


_FACTS.update(trips=_trace_trips, trip_walks=_walk_trips, decorated=_decorate,
              bad_features=_scan_bad_features, resonance=_resonate)
