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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLabel, HasInternalLeaf, NotNormal, UndecoratableFixedPoint
from .graph import _FACTS, WHITE, PlabicGraph, _orbit, classify
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
    if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= g.b:
        raise BadLabel(f"boundary label {i!r} not in 1..{g.b}")
    return g._fact("trips")[i - 1]


def all_trips(g: PlabicGraph):
    """Every trip: the b one-way trips followed by all roundtrips.

    All of them are traced from one trip-successor table, in O(darts),
    once per graph; every call returns a new list.
    """
    return list(g._fact("trips"))


def _trace_trips(g: PlabicGraph):
    """The fact "trips", the tuple ``all_trips`` lists: orbits of the
    successor fill over the internal vertices with ``black=-1``, where a
    dart into the boundary has no successor and so ends its trip."""
    limit = g._dart_bound()
    nxt = [-1] * limit  # the darts into the boundary keep -1: trips end there
    g._fill_successors(nxt, g._colors, -1)
    rot, dv = g._rot, g._dart_vertex
    trips = []
    traced = 0
    for i in range(1, g.b + 1):
        darts = _orbit(nxt, rot[-i][0], limit)
        traced += len(darts)
        trips.append(Trip("oneway", i, -dv[darts[-1] ^ 1], tuple(darts)))
    if traced < len(dv):  # one-way trips are disjoint: some darts are left
        rest = set(dv)  # the darts no trip traced so far
        for t in trips:
            rest.difference_update(t.darts)
        for d0 in sorted(rest):
            if d0 in rest:
                cyc = _orbit(nxt, d0, limit)
                rest.difference_update(cyc)
                trips.append(Trip("roundtrip", None, None, tuple(cyc)))
    return tuple(trips)


def trip_permutation(g: PlabicGraph):
    """The boundary connectivity of one-way trips, as a list of targets."""
    return [t.target for t in g._fact("trips")[: g.b]]


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
    values = trip_permutation(g)
    decorations = {}
    for i in range(1, g.b + 1):
        if values[i - 1] != i:
            continue
        tree = _hanging_tree(g, g.boundary_dart(i) ^ 1)
        color = None if tree is None else _fold_tree(g, *tree)
        if color is None:
            raise UndecoratableFixedPoint(i)
        decorations[i] = "over" if color == WHITE else "under"
    return tuple(values), decorations


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
    """Map each edge id to the set of boundary labels whose trip uses it."""
    labels = {e: set() for e in g.edge_ids}
    for t in g._fact("trips"):
        if t.kind != "oneway":
            continue
        for d in t.darts:
            labels[g.edge_id(d)].add(t.source)
    return labels


def resonance(g: PlabicGraph) -> bool:
    """Whether clockwise edge labels around every internal non-lollipop
    vertex form a chain {i1,i2},{i2,i3},...,{i(m-1),im},{i1,im} with
    i1 < ... < im.  For leafless graphs this is equivalent to reducedness."""
    info = classify(g)
    if any(v not in info["lollipops"] for v in info["internal_leaves"]):
        raise HasInternalLeaf(
            "resonance requires no internal leaves other than lollipops"
        )
    labels = edge_labels(g)
    for v in g.internal_vertices():
        if g.is_lollipop(v):
            continue
        ring = [labels[g.edge_id(d)] for d in g.rotation(v)]
        if not _is_resonant_ring(ring):
            return False
    return True


def _is_resonant_ring(ring) -> bool:
    """Whether the ring is a rotation of {a1,a2},{a2,a3},...,{am,a1}, where
    a1 < ... < am are the labels of the ring's sets."""
    m = len(ring)
    a = sorted(set().union(*ring))
    if len(a) != m or any(len(s) != 2 for s in ring):
        return False
    chain = [{a[k], a[k + 1 - m]} for k in range(m)]
    return any(ring[j:] + ring[:j] == chain for j in range(m))


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

    The scan runs once per graph; every call returns a new list.
    """
    return list(g._fact("bad_features"))


def _scan_bad_features(g: PlabicGraph):
    info = classify(g)
    if not info["normal"]:
        raise NotNormal("bad feature detection requires a normal plabic graph")
    trips = g._fact("trips")
    feats = [
        BadFeature("roundtrip", tuple(sorted({g.edge_id(d) for d in t.darts})))
        for t in trips[g.b :]
    ]
    first = {}  # (source, edge) -> when that trip first meets the edge
    sources = {}  # edge -> the one-way trips through it, in source order
    for t in trips[: g.b]:
        for time, d in enumerate(t.darts):
            e = g.edge_id(d)
            if (t.source, e) not in first:
                first[t.source, e] = time
                sources.setdefault(e, []).append(t.source)
            elif not any(g.is_lollipop(g.dart_vertex(x)) for x in (d, d ^ 1)):
                feats.append(BadFeature("essential_self_intersection", (e,)))
    shared = {}  # pair of sources -> edges both trips traverse
    for e, srcs in sources.items():
        if len(srcs) == 2:
            shared.setdefault(tuple(srcs), []).append(e)
    for (s1, s2), edges in sorted(shared.items()):
        # trip s1 meets the edges in list order, being the first to visit them
        for k, e1 in enumerate(edges):
            for e2 in edges[k + 1 :]:
                if first[s2, e1] < first[s2, e2]:
                    feats.append(BadFeature("bad_double_crossing", (e1, e2)))
    return tuple(feats)


_FACTS.update(trips=_trace_trips, decorated=_decorate, bad_features=_scan_bad_features)
