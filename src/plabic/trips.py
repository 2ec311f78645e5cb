"""Trips: directed walks obeying the rules of the road.

A trip turns as sharply as possible: rightward at black vertices and
leftward at white ones.  With clockwise rotation lists this reads as

* black vertex: leave along the clockwise *predecessor* of the in-dart,
* white vertex: leave along the clockwise *successor* of the in-dart,

where the in-dart is the dart based at the vertex pointing back where the
trip came from.  Bivalent vertices pass trips straight through (both rules
agree), and a leaf produces a U-turn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLabel, HasInternalLeaf, NotNormal, UndecoratableFixedPoint
from .graph import BLACK, WHITE, PlabicGraph, _orbit, classify, collapse_trees
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


def _trip_successors(g: PlabicGraph):
    """The trip-successor table: ``nxt[d]`` is the dart traversed after d,
    or -1 when d runs into the boundary.

    For an in-dart t at internal vertex w (so the trip arrived along
    ``t ^ 1``) the trip leaves along the clockwise predecessor of t when w
    is black and along its clockwise successor when w is white.
    """
    nxt = [-1] * g.num_darts()
    for v in g.internal_vertices():
        ds = g.rotation(v)
        m = len(ds)
        if g.color(v) == BLACK:
            for j in range(m):
                nxt[ds[j] ^ 1] = ds[j - 1]
        else:
            for j in range(m):
                nxt[ds[j] ^ 1] = ds[j + 1 - m]
    return nxt


def trip_from(g: PlabicGraph, i: int) -> Trip:
    """The trip entering the disk at boundary label i."""
    if not 1 <= i <= g.b:
        raise BadLabel(f"boundary label {i} not in 1..{g.b}")
    return all_trips(g)[i - 1]


def all_trips(g: PlabicGraph):
    """Every trip: the b one-way trips followed by all roundtrips.

    All of them are traced from one trip-successor table, in O(darts).
    """
    if "trips" in g._cache:
        return g._cache["trips"]
    nxt = _trip_successors(g)
    limit = g.num_darts()
    used = bytearray(limit)
    trips = []
    for i in range(1, g.b + 1):
        darts = _orbit(nxt, g.boundary_dart(i), limit)
        for d in darts:
            used[d] = 1
        target = -g.dart_vertex(darts[-1] ^ 1)
        trips.append(Trip("oneway", i, target, tuple(darts)))
    for d0 in range(limit):
        if used[d0]:
            continue
        cyc = _orbit(nxt, d0, limit)
        for d in cyc:
            used[d] = 1
        trips.append(Trip("roundtrip", None, None, tuple(cyc)))
    g._cache["trips"] = trips
    return trips


def roundtrips(g: PlabicGraph):
    return [t for t in all_trips(g) if t.kind == "roundtrip"]


def trip_permutation(g: PlabicGraph):
    """The boundary connectivity of one-way trips, as a list of targets."""
    return [t.target for t in all_trips(g)[: g.b]]


def decorated_trip_permutation(g: PlabicGraph) -> DecoratedPermutation:
    """Trip permutation with fixed points decorated by collapsed lollipop color.

    Raises UndecoratableFixedPoint when a fixed point's component does not
    collapse to a lollipop (which signals a non-reduced graph).  The values
    and decorations are computed once per graph; every call returns a new
    permutation object.
    """
    cached = g._cache.get("decorated")
    if cached is None:
        values = trip_permutation(g)
        fixed = [i for i in range(1, g.b + 1) if values[i - 1] == i]
        decorations = {}
        if fixed:
            gbar = collapse_trees(g)
            for i in fixed:
                v = gbar.dart_vertex(gbar.twin(gbar.boundary_dart(i)))
                if v < 0 or gbar.degree(v) != 1:
                    raise UndecoratableFixedPoint(i)
                decorations[i] = "over" if gbar.color(v) == WHITE else "under"
        cached = g._cache["decorated"] = (tuple(values), decorations)
    return DecoratedPermutation(*cached)


# ----------------------------------------------------------------------
# edge labels and resonance


def edge_labels(g: PlabicGraph) -> dict:
    """Map each edge id to the set of boundary labels whose trip uses it."""
    labels = {e: set() for e in g.edge_ids}
    for t in all_trips(g):
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
    m = len(ring)
    if any(len(s) != 2 for s in ring):
        return False
    if m == 1:
        return False
    if m == 2:
        return ring[0] == ring[1]
    # chain values: consecutive sets must share exactly one element
    for start in range(m):
        seq = ring[start:] + ring[:start]
        chain = []
        ok = True
        for k in range(m):
            common = seq[k] & seq[(k + 1) % m]
            if len(common) != 1:
                ok = False
                break
            chain.append(next(iter(common)))
        if not ok:
            continue
        # chain[k] is shared by seq[k] and seq[k+1]; the vertex sequence is
        # a2, a3, ..., am, a1 when seq matches {a1a2},{a2a3},...,{a1am}
        a = chain[-1:] + chain[:-1]
        if all(a[k] < a[k + 1] for k in range(m - 1)):
            if all(seq[k] == {a[k], a[(k + 1) % m]} for k in range(m)):
                return True
    return False


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
    reduced."""
    info = classify(g)
    if not info["normal"]:
        raise NotNormal("bad feature detection requires a normal plabic graph")
    feats = []
    for t in all_trips(g):
        if t.kind == "roundtrip":
            feats.append(
                BadFeature("roundtrip", tuple(sorted({g.edge_id(d) for d in t.darts})))
            )
    oneway = [t for t in all_trips(g) if t.kind == "oneway"]
    # positions of each edge along each trip
    visits = {}  # edge id -> list of (source, time)
    for t in oneway:
        seen_edges = {}
        for time, d in enumerate(t.darts):
            e = g.edge_id(d)
            visits.setdefault(e, []).append((t.source, time))
            if e in seen_edges:
                u, v = g.edge_endpoints(e)
                leaf_edge = (u < 0 and g.degree(v) == 1) or (
                    v < 0 and g.degree(u) == 1
                )
                if not leaf_edge:
                    feats.append(BadFeature("essential_self_intersection", (e,)))
            seen_edges[e] = time
    # bad double crossings: two distinct trips through e1 then e2
    order = {}  # (source, edge) -> first traversal time
    for e, vs in visits.items():
        for src, time in vs:
            key = (src, e)
            if key not in order or time < order[key]:
                order[key] = time
    shared = {}  # pair of sources -> edges both traverse
    for e, vs in visits.items():
        srcs = sorted({src for src, _ in vs})
        if len(srcs) == 2:
            shared.setdefault(tuple(srcs), []).append(e)
    for (s1, s2), edges in sorted(shared.items()):
        for a in range(len(edges)):
            for bidx in range(len(edges)):
                if a == bidx:
                    continue
                e1, e2 = edges[a], edges[bidx]
                if (
                    order[(s1, e1)] < order[(s1, e2)]
                    and order[(s2, e1)] < order[(s2, e2)]
                    and (e1, e2) not in {(f.edges) for f in feats}
                ):
                    feats.append(BadFeature("bad_double_crossing", (e1, e2)))
    # deduplicate, stable order
    out = []
    seen = set()
    for f in feats:
        key = (f.kind, f.edges)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out
