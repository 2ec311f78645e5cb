"""Slow, independent reference implementations of the fast paths.

Each oracle below is the straightforward version of a routine the library
computes faster: the face walker over tuple-tagged rim darts, the
step-by-step trip tracer over ``rot_next``/``rot_prev``, the fixed-point
peel of pendant trees, the left-of-trip flood fill for face labels, the
site-by-site move enumeration, the dart numbering of edge-id rotation
lists, which also checks ``Builder.freeze`` up to an order-preserving dart
map, a face trace from scratch of each graph whose faces a move patched, fixed-point decorations read
off the fully collapsed graph, the bad-feature scan over every ordered edge
pair, the resonance test over every rotation of a ring, and the tree
collapse over all builder darts, normalization from a frozen collapse,
classification over edge ids, and the square moves of a weakly separated
collection found from a core-to-pairs index and a scan of every quad, and
from a table of each label mask's one-label completions, weak
separation by counting cyclic blocks of marks, the positroid through
``gale_leq``, the square-move closure of weakly separated collections on
frozensets, the canonical key in two passes (edges numbered at dequeue,
rows written after the search), move equivalence by a one-way
breadth-first search on those keys, the validation of a graph's JSON
round trip, and the checked
``DecoratedPermutation`` constructor.  The tests require the library to agree with them exactly on the
fixtures and on many bridge and move-walk graphs, some with loops, digons and
pendant trees, and on the weakly separated collections and positroids of
many permutations.
"""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plabic import (
    BLACK,
    WHITE,
    BadLabel,
    DecoratedPermutation,
    Face,
    IllegalMove,
    MoveSpec,
    NotNormal,
    SizeMismatch,
    TooLarge,
    UndecoratableFixedPoint,
    affinize,
    all_trips,
    apply_move,
    bad_features,
    bridge_graph,
    classify,
    cyclic_rotation,
    decorated_trip_permutation,
    edge_labels,
    enumerate_ws,
    face_labels,
    is_reduced,
    label_collection,
    legal_moves,
    length,
    move_equivalent,
    necklace_from_perm,
    normalize,
    positroid,
    quiver_of,
    trip_permutation,
    validate,
    weakly_separated,
)
from plabic import fixtures as F
from plabic import graph as graph_module
from plabic import labels as labels_module
from plabic.graph import Builder, PlabicGraph, _pendant_vertices, collapse_trees
from plabic.moves import KINDS, EquivalenceResult, _apply, _build, _frozen, _search_moves
from plabic.labels import _bits
from plabic.normalize import NormalizeResult, Witness
from plabic.perms import _mask, _positroid_members, _separated, is_ws_collection, shifted_key
from plabic.trips import BadFeature, Trip, _hanging_tree, _is_resonant_ring
from conftest import (
    insert_loop,
    insert_parallel_digon,
    random_decorated_permutation,
    trivalentize,
)

PRIMITIVE = ("SquareM1", "InsertBivalentM2", "RemoveBivalentM2",
             "ContractM3", "SplitM3", "FlipM4")


# ----------------------------------------------------------------------
# oracles


def all_darts_of(g):
    """Every dart of the graph, read off the rotations, in increasing order."""
    return sorted(d for v in [*g.boundary_vertices(), *g.internal_vertices()]
                  for d in g.rotation(v))


def faces_with_tuple_rim_darts(g):
    """Faces walked over graph darts plus rim darts ("fwd", i)/("bwd", i)."""
    b = g.b

    def aug_twin(d):
        if isinstance(d, tuple):
            kind, i = d
            return ("bwd", i) if kind == "fwd" else ("fwd", i)
        return d ^ 1

    def base_vertex(d):
        if isinstance(d, tuple):
            kind, i = d
            # fwd arc i is based at label i, bwd arc i at label i+1
            return -(i if kind == "fwd" else (i % b) + 1)
        return g.dart_vertex(d)

    rotations = {}
    for label in range(1, b + 1):
        prev_arc = ("bwd", label - 1 if label > 1 else b)
        rotations[-label] = [("fwd", label), *g.rotation(-label), prev_arc]
    for v in g.internal_vertices():
        rotations[v] = list(g.rotation(v))

    def next_dart(d):
        t = aug_twin(d)
        ds = rotations[base_vertex(t)]
        return ds[(ds.index(t) + 1) % len(ds)]

    all_darts = (all_darts_of(g)
                 + [("bwd", i) for i in range(1, b + 1)]
                 + [("fwd", i) for i in range(1, b + 1)])
    seen = set()
    faces = []
    for start in all_darts:
        if start in seen:
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_dart(d)
        graph_darts = tuple(x for x in walk if not isinstance(x, tuple))
        arcs = tuple(x[1] for x in walk if isinstance(x, tuple))
        fwd = any(isinstance(x, tuple) and x[0] == "fwd" for x in walk)
        bwd = any(isinstance(x, tuple) and x[0] == "bwd" for x in walk)
        if fwd and not graph_darts and not bwd:
            kind = "outer"
        elif fwd or bwd:
            kind = "boundary"
        else:
            kind = "internal"
        faces.append(Face(kind, graph_darts, arcs))
    if b == 0:
        faces.append(Face("outer", (), ()))
    return faces


def trips_stepwise(g):
    """All trips traced one dart at a time with rot_next/rot_prev."""

    def step(d):
        t = g.twin(d)
        w = g.dart_vertex(t)
        if w < 0:
            return None
        return g.rot_prev(t) if g.color(w) == BLACK else g.rot_next(t)

    trips = []
    for i in range(1, g.b + 1):
        darts = [g.boundary_dart(i)]
        while (d := step(darts[-1])) is not None:
            darts.append(d)
        target = -g.dart_vertex(g.twin(darts[-1]))
        trips.append(Trip("oneway", i, target, tuple(darts)))
    used = {d for t in trips for d in t.darts}
    for d0 in all_darts_of(g):
        if d0 in used:
            continue
        cyc = [d0]
        while (d := step(cyc[-1])) != d0:
            cyc.append(d)
        used.update(cyc)
        trips.append(Trip("roundtrip", None, None, tuple(cyc)))
    return trips


def pendant_vertices_fixed_point(g):
    """Peel internal vertices with at most one live neighbor until stable."""
    adj = {v: g.neighbors(v) for v in g.internal_vertices()}
    peeled = set()
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v in peeled:
                continue
            live = sum(1 for u in adj[v] if u >= 0 and u not in peeled)
            bdry = sum(1 for u in adj[v] if u < 0)
            if live + bdry <= 1:
                peeled.add(v)
                changed = True
    return peeled


def left_faces_flood(g, trip):
    """Non-outer faces left of a one-way trip: seed the faces on its left,
    then flood across every edge the trip does not use.

    Where the trip runs out and back along a pendant edge, the face holding
    that edge lies on both sides of the detour, so those darts seed nothing.
    """
    fmap = g.face_of_dart()
    used_darts = set(trip.darts)
    used_edges = {g.edge_id(d) for d in trip.darts}
    adjacency = {}
    for e in g.edge_ids:
        if e in used_edges:
            continue
        d0, d1 = g.darts_of_edge(e)
        adjacency.setdefault(fmap[d0], set()).add(fmap[d1])
        adjacency.setdefault(fmap[d1], set()).add(fmap[d0])
    out = set()
    stack = [fmap[d] for d in trip.darts if d ^ 1 not in used_darts]
    while stack:
        f = stack.pop()
        if f not in out:
            out.add(f)
            stack.extend(adjacency.get(f, ()))
    return out


def face_labels_flood(g, mode):
    """Face labels with one left-of-trip flood fill per trip."""
    decorated = decorated_trip_permutation(g)
    nonouter = [idx for idx, f in enumerate(g.faces()) if f.kind != "outer"]
    labels = {idx: set() for idx in nonouter}
    for t in trips_stepwise(g):
        if t.kind != "oneway":
            continue
        mark = t.source if mode == "source" else t.target
        if t.source == t.target:
            if decorated.decorations[t.source] == "over":
                for idx in nonouter:
                    labels[idx].add(mark)
            continue
        for idx in left_faces_flood(g, t):
            labels[idx].add(mark)
    return {idx: frozenset(s) for idx, s in labels.items()}


def _square_site_reference(g, face):
    if face.kind != "internal" or len(face.darts) != 4:
        return False
    vs = [g.dart_vertex(d) for d in face.darts]
    if len(set(vs)) != 4:
        return False
    cols = [g.color(v) for v in vs]
    if cols[0] == cols[1] or cols[1] != cols[3] or cols[0] != cols[2]:
        return False
    return all(g.degree(v) == 3 for v in vs)


def _urban_site_reference(g, face):
    if face.kind != "internal" or len(face.darts) != 4:
        return False
    vs = [g.dart_vertex(d) for d in face.darts]
    if len(set(vs)) != 4:
        return False
    cols = [g.color(v) for v in vs]
    if cols[0] == cols[1] or cols[1] != cols[3] or cols[0] != cols[2]:
        return False
    for v in vs:
        if g.color(v) != WHITE:
            continue
        if g.degree(v) != 3:
            return False
        side_edges = {g.edge_id(d) for d in face.darts}
        outside = [d for d in g.rotation(v) if g.edge_id(d) not in side_edges]
        if len(outside) != 1:
            return False
        x = g.dart_vertex(g.twin(outside[0]))
        if x < 0 or x in vs or g.color(x) != BLACK:
            return False
    return True


def _normal_flip_site_reference(g, v):
    if g.degree(v) != 2 or g.color(v) != BLACK:
        return False
    n1, n2 = (g.dart_vertex(g.twin(d)) for d in g.rotation(v))
    if n1 == n2 or n1 < 0 or n2 < 0:
        return False
    return all(g.color(n) == WHITE and g.degree(n) == 3 for n in (n1, n2))


def legal_moves_reference(g):
    """Every site tested on its own: each face for both square kinds, each
    internal vertex for every vertex kind, each edge id through
    ``edge_endpoints``."""
    out = []
    fmap = g.face_of_dart()
    for idx, face in enumerate(g.faces()):
        if _square_site_reference(g, face):
            around = [fmap[g.twin(d)] for d in face.darts]
            ok = all(around[k] != around[(k + 1) % 4] for k in range(4))
            out.append(MoveSpec("SquareM1", face=idx, condition_ok=ok))
        if _urban_site_reference(g, face):
            out.append(MoveSpec("UrbanRenewal", face=idx))
    for v in g.internal_vertices():
        deg = g.degree(v)
        if deg == 2:
            d1, d2 = g.rotation(v)
            if d1 != g.twin(d2):
                out.append(MoveSpec("RemoveBivalentM2", vertex=v))
        if deg >= 4:
            for start in range(deg):
                for length in range(2, deg - 1):
                    out.append(MoveSpec("SplitM3", vertex=v, start=start, length=length))
        if _normal_flip_site_reference(g, v):
            out.append(MoveSpec("NormalFlip", vertex=v))
    for e in g.edge_ids:
        u, v = g.edge_endpoints(e)
        out.append(MoveSpec("InsertBivalentM2", edge=e, color=BLACK))
        out.append(MoveSpec("InsertBivalentM2", edge=e, color=WHITE))
        if u >= 0 and v >= 0 and u != v and g.color(u) == g.color(v):
            out.append(MoveSpec("ContractM3", edge=e))
            if g.degree(u) == 3 and g.degree(v) == 3:
                out.append(MoveSpec("FlipM4", edge=e))
    return out


def from_rotation_reference(b, colors, rotation):
    """Number darts from rotation lists of edge ids with no validation: edge
    ids sorted give the edge indices, and the first occurrence of an edge in
    (vertex id, rotation position) order is its even dart."""
    ids = sorted({e for ds in rotation.values() for e in ds})
    index_of = {e: k for k, e in enumerate(ids)}
    seen = {}
    rot = {}
    for v in sorted(rotation):
        darts = []
        for e in rotation[v]:
            k = index_of[e]
            side = seen.get(e, 0)
            seen[e] = side + 1
            darts.append(2 * k + side)
        rot[v] = tuple(darts)
    return PlabicGraph(b, colors, rot, ids)


def freeze_reference(bld):
    """Write the builder's rotations as edge-id lists and rebuild the graph
    from them with the reference numbering."""
    rotation = {}
    for v in sorted(bld.rot):
        rotation[v] = [bld.ids[d >> 1] for d in bld.rot[v]]
    for i in range(1, bld.b + 1):
        rotation.setdefault(-i, [])
    return from_rotation_reference(bld.b, bld.colors, rotation)


def decorations_by_collapse(g):
    """Collapse every pendant tree of the graph, then read the lollipop at
    each fixed point; raise at the first fixed point that has none."""
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
    return DecoratedPermutation(values, decorations)


def bad_features_pairwise(g):
    """Bad features from visit lists: every ordered pair of edges shared by
    two trips is tested, skipping pairs already listed, then the whole list
    is deduplicated."""
    if not classify(g)["normal"]:
        raise NotNormal("bad feature detection requires a normal plabic graph")
    feats = []
    for t in all_trips(g):
        if t.kind == "roundtrip":
            feats.append(
                BadFeature("roundtrip", tuple(sorted({g.edge_id(d) for d in t.darts})))
            )
    oneway = [t for t in all_trips(g) if t.kind == "oneway"]
    visits = {}  # edge id -> list of (source, time)
    for t in oneway:
        seen_edges = {}
        for time, d in enumerate(t.darts):
            e = g.edge_id(d)
            visits.setdefault(e, []).append((t.source, time))
            if e in seen_edges:
                u, v = g.edge_endpoints(e)
                leaf_edge = (u < 0 and g.degree(v) == 1) or (v < 0 and g.degree(u) == 1)
                if not leaf_edge:
                    feats.append(BadFeature("essential_self_intersection", (e,)))
            seen_edges[e] = time
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
                    and (e1, e2) not in {f.edges for f in feats}
                ):
                    feats.append(BadFeature("bad_double_crossing", (e1, e2)))
    out = []
    seen = set()
    for f in feats:
        key = (f.kind, f.edges)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def collapse_trees_reference(g: PlabicGraph) -> PlabicGraph:
    """Collapse every collapsible pendant tree of the graph.

    A pendant tree hangs off the rest of the graph (or off a boundary
    vertex) and is collapsed by contracting unicolored edges and removing
    bivalent vertices; pieces that cannot be collapsed (e.g. a leaf of the
    opposite color stuck on a trivalent vertex) are left in place.
    Idempotent, and preserves the trip permutation.
    """
    peeled = _pendant_vertices(g)
    if not peeled:
        return g

    bld = Builder(g)
    changed = True
    while changed:
        changed = False
        # bivalent removals within the pendant forest
        for v in sorted(bld.colors):
            if v not in peeled or v not in bld.rot:
                continue
            if bld.degree(v) == 2:
                d1, d2 = bld.rot[v]
                if bld.other_end(d1) == v or bld.other_end(d2) == v:
                    continue  # loop through v: not a tree situation
                bld.remove_bivalent(v)
                peeled.discard(v)
                changed = True
        # unicolored contractions with at least one pendant endpoint
        for d in sorted(bld.dv):
            if d not in bld.dv:
                continue
            u, v = bld.dv[d], bld.other_end(d)
            if u < 0 or v < 0 or u == v:
                continue
            if bld.colors[u] != bld.colors[v]:
                continue
            if v in peeled:
                bld.contract(d)  # absorb v into u
                peeled.discard(v)
                changed = True
            elif u in peeled:
                bld.contract(d ^ 1)
                peeled.discard(u)
                changed = True
    return bld.freeze()


def classify_reference(g: PlabicGraph) -> dict:
    """Structural classification: bipartite / trivalent / normal flags plus
    the lists of lollipops and internal leaves."""
    bipartite = True
    for e in g.edge_ids:
        u, v = g.edge_endpoints(e)
        if u >= 0 and v >= 0 and g.color(u) == g.color(v):
            bipartite = False
            break
    lollipops = [v for v in g.internal_vertices() if g.is_lollipop(v)]
    internal_leaves = [v for v in g.internal_vertices() if g.degree(v) == 1]
    trivalent = all(
        g.degree(v) == 3
        for v in g.internal_vertices()
        if not g.is_lollipop(v)
    )
    whites_trivalent = all(
        g.degree(v) == 3 for v in g.internal_vertices() if g.color(v) == WHITE
    )
    boundary_black = all(
        g.dart_vertex(g.twin(g.boundary_dart(i))) >= 0
        and g.color(g.dart_vertex(g.twin(g.boundary_dart(i)))) == BLACK
        for i in range(1, g.b + 1)
    )
    normal = bipartite and whites_trivalent and boundary_black
    return {
        "bipartite": bipartite,
        "trivalent": trivalent,
        "normal": normal,
        "lollipops": lollipops,
        "internal_leaves": internal_leaves,
    }


def normalize_reference(g: PlabicGraph) -> NormalizeResult:
    """Run the normalization stages.

    1. collapse collapsible trees;  2. remove bivalent vertices;
    3. remove lollipops (recorded; their boundary vertices are dropped and
    the remaining labels renumbered);  4. reject on a leftover internal
    leaf;  5. contract black-black edges, rejecting on loops;  6. split
    white vertices of degree >= 4 into left-comb trees;  7. insert a black
    bivalent vertex on every white-white and white-boundary edge.
    """
    g = collapse_trees_reference(g)
    for e in g.edge_ids:  # loops certify non-reducedness immediately
        if g.is_loop(e):
            return NormalizeResult(witness=Witness("loop", edges=(e,)))
    bld = Builder(g)

    # stage 2: bivalent removal; one pass, since a removal changes no other
    # vertex's degree
    for v in sorted(bld.colors):
        if v in bld.rot and bld.degree(v) == 2:
            d1, d2 = bld.rot[v]
            if d1 ^ 1 == d2:
                return NormalizeResult(witness=Witness("loop", vertices=(v,)))
            if bld.other_end(d1) == bld.other_end(d2) == v:
                continue  # pragma: no cover
            bld.remove_bivalent(v)
    # a bivalent removal can create a loop (hollow digon input)
    for d in bld.dv:
        if bld.dv[d] == bld.other_end(d):
            return NormalizeResult(witness=Witness("loop", edges=(bld.ids[d >> 1],)))

    # stage 3: remove lollipops, dropping their boundary vertices
    removed = []
    for v in sorted(bld.colors):
        if v in bld.rot and bld.degree(v) == 1:
            u = bld.other_end(bld.rot[v][0])
            if u < 0:
                removed.append((-u, bld.colors[v]))
                bld.delete_leaf_edge(v)
                bld.drop_isolated_boundary(-u)

    # stage 4: leftover internal leaves certify non-reducedness
    for v in sorted(bld.colors):
        if v in bld.rot and bld.degree(v) == 1:
            return NormalizeResult(witness=Witness("internal_leaf", vertices=(v,)))

    # stage 5: contract black-black edges; one pass, since colors do not
    # change, so a contraction makes no new black-black edge (a parallel one
    # becomes a loop, found below)
    for d in sorted(bld.dv):
        if d not in bld.dv:
            continue
        u, v = bld.dv[d], bld.other_end(d)
        if u < 0 or v < 0:
            continue
        if bld.colors[u] != BLACK or bld.colors[v] != BLACK:
            continue
        if u == v:
            return NormalizeResult(witness=Witness("loop", edges=(bld.ids[d >> 1],)))
        bld.contract(d if u < v else d ^ 1)
    for d in sorted(bld.dv):
        if bld.dv[d] == bld.other_end(d):
            return NormalizeResult(witness=Witness("loop", edges=(bld.ids[d >> 1],)))

    # stage 6: split white vertices of degree >= 4 into left combs
    changed = True
    while changed:
        changed = False
        for v in sorted(bld.colors):
            if v in bld.rot and bld.colors[v] == WHITE and bld.degree(v) >= 4:
                bld.split(v, 0, 2)
                changed = True

    # stage 7: a black bivalent vertex on every edge with no black endpoint
    # (white-white, white-boundary, and boundary-boundary edges)
    for d in bld.edge_darts():
        u, v = bld.dv[d], bld.other_end(d)
        black_u = u >= 0 and bld.colors[u] == BLACK
        black_v = v >= 0 and bld.colors[v] == BLACK
        if not black_u and not black_v:
            bld.insert_bivalent(d, BLACK)

    surviving = [i for i in range(1, g.b + 1) if i not in {lab for lab, _ in removed}]
    label_map = bld.relabel_boundary(surviving)
    return NormalizeResult(
        normal=bld.freeze(),
        lollipops_removed=removed,
        label_map=label_map,
    )


def resonant_ring_by_rotations(ring):
    """Try every rotation of the ring: consecutive sets must share exactly
    one label, and the shared labels must rise around the ring."""
    m = len(ring)
    if any(len(s) != 2 for s in ring):
        return False
    if m == 1:
        return False
    if m == 2:
        return ring[0] == ring[1]
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
        a = chain[-1:] + chain[:-1]
        if all(a[k] < a[k + 1] for k in range(m - 1)):
            if all(seq[k] == {a[k], a[(k + 1) % m]} for k in range(m)):
                return True
    return False


def mutation_steps_reference(collection):
    """All square-move transformations of a collection of a-subsets.

    A member S+{c1,c3} flips to S+{c2,c4} when the four "sides" S+{c1,c2},
    S+{c2,c3}, S+{c3,c4}, S+{c1,c4} are all present, for cyclically ordered
    c1 < c2 < c3 < c4.
    """
    by_core = {}
    for subset in collection:
        for pair in _pairs(subset):
            core = subset - pair
            by_core.setdefault(core, set()).add(pair)
    out = []
    for core, pairs in by_core.items():
        ground = sorted({x for p in pairs for x in p})
        for quad in _quads(ground):
            c1, c2, c3, c4 = quad
            sides = (
                frozenset({c1, c2}),
                frozenset({c2, c3}),
                frozenset({c3, c4}),
                frozenset({c1, c4}),
            )
            diag, anti = frozenset({c1, c3}), frozenset({c2, c4})
            if all(s in pairs for s in sides):
                if diag in pairs:
                    out.append((core | diag, core | anti))
                if anti in pairs:
                    out.append((core | anti, core | diag))
    return out


def _pairs(subset):
    xs = sorted(subset)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            yield frozenset((xs[i], xs[j]))


def _quads(ground):
    n = len(ground)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    yield (ground[i], ground[j], ground[k], ground[l])


def weakly_separated_marks(I, J, b):
    """Weak separation by counting the cyclic blocks of I-J and J-I marks."""
    I, J = set(I), set(J)
    if len(I) != len(J):
        raise SizeMismatch(f"|{sorted(I)}| != |{sorted(J)}|")
    a_only = I - J
    b_only = J - I
    if not a_only or not b_only:
        return True
    marks = []
    for x in range(1, b + 1):
        if x in a_only:
            marks.append("A")
        elif x in b_only:
            marks.append("B")
    blocks = 1
    for k in range(1, len(marks)):
        if marks[k] != marks[k - 1]:
            blocks += 1
    if marks[0] == marks[-1] and blocks > 1:
        blocks -= 1
    return blocks <= 2


def is_ws_collection_pairwise(sets, b):
    """Weak separation of a collection, testing every pair (i, j), i < j,
    in order with ``weakly_separated``."""
    sets = list(sets)
    return all(weakly_separated(sets[i], sets[j], b)
               for i in range(len(sets)) for j in range(i + 1, len(sets)))


def gale_leq_reference(ell, b, I, J):
    """Componentwise comparison after sorting both sets in the ell-shifted order."""
    if len(I) != len(J):
        raise SizeMismatch(f"|{sorted(I)}| != |{sorted(J)}|")
    key = shifted_key(ell, b)
    si = sorted(I, key=key)
    sj = sorted(J, key=key)
    return all(key(x) <= key(y) for x, y in zip(si, sj))


def positroid_reference(nk):
    """All a-subsets J with I_ell <= J in every shifted Gale order."""
    b, a = nk.b, nk.a
    out = set()
    for J in combinations(range(1, b + 1), a):
        if all(gale_leq_reference(ell, b, nk[ell - 1], J) for ell in range(1, b + 1)):
            out.add(frozenset(J))
    return out


def mutation_steps_on_frozensets(collection, b):
    """Square moves read off each member, on frozensets of labels: M flips
    to M - {i, j} + {c2, c4} when its four sides are all present."""
    out = []
    for m in collection:
        for i, j in combinations(sorted(m), 2):
            mi, mj = m - {i}, m - {j}

            def sides(cs):  # the c in cs with m - i + c and m - j + c present
                return [c for c in cs if c not in m
                        and mi | {c} in collection and mj | {c} in collection]

            inner = sides(range(i + 1, j))
            if inner:
                for c4 in sides([*range(1, i), *range(j + 1, b + 1)]):
                    out.extend((m, (mi - {j}) | {c2, c4}) for c2 in inner)
    return out


def mutation_steps_on_masks(collection, labels):
    """All square-move transformations of a collection of a-subset masks.

    ``labels`` maps each member to its labels in increasing order.  A member
    M flips to M - {i, j} + {c2, c4}, for i < c2 < j and c4 outside [i, j],
    when the sides M - j + c2, M - i + c2, M - i + c4 and M - j + c4 are all
    present.  The sides are read off one pass over the members:
    ``completions[K]`` is the mask of the x with K + x a member, so the c
    with both M - i + c and M - j + c present are the bits of
    ``completions[M - i] & completions[M - j]``.
    """
    completions = {}
    for m in collection:
        for i in labels[m]:
            k = m ^ 1 << i
            completions[k] = completions.get(k, 0) | 1 << i
    out = []
    for m in collection:
        for i, j in combinations(labels[m], 2):
            both = completions[m ^ 1 << i] & completions[m ^ 1 << j]
            inner = both & ((1 << j) - (2 << i))  # the c with i < c < j
            if inner and inner != both:
                core = m ^ 1 << i ^ 1 << j
                out.extend((m, core | 1 << c2 | 1 << c4)
                           for c4 in _bits(both ^ inner) for c2 in _bits(inner))
    return out


def enumerate_ws_reference(p, limit=None):
    """The square-move closure of the bridge graph's target labels, on
    frozensets, checking each candidate with the reference positroid and
    the marks test for weak separation."""
    b = p.b
    a = p.anti_excedances()
    nk = necklace_from_perm(p)
    posd = positroid_reference(nk)
    size = a * (b - a) - length(affinize(p)) + 1
    seed = label_collection(bridge_graph(p), "target")
    assert len(seed) == size and set(nk.sets) <= seed <= posd

    def expand(coll):
        found = []
        for old, new in mutation_steps_on_frozensets(coll, b):
            cand = frozenset((coll - {old}) | {new})
            if len(cand) != size:
                continue
            if new not in posd:
                continue
            if not all(new == s or weakly_separated_marks(new, s, b) for s in cand):
                continue
            if not all(s in cand for s in nk.sets):
                continue
            found.append(cand)
        return found

    seen = set()
    queue = []

    def visit(coll):
        if coll not in seen:
            seen.add(coll)
            queue.append(coll)
            if limit is not None and len(seen) > limit:
                raise TooLarge(f"more than {limit} collections; raise the limit")

    visit(seed)
    for coll in queue:
        for cand in expand(coll):
            visit(cand)
    return seen


def canonical_key_reference(g: PlabicGraph):
    """The canonical key by a breadth-first search in two passes: the first
    numbers each edge when one of its darts is dequeued and lists the
    vertices reached with their rotations from the entry dart, the second
    writes one row per vertex, then the boundary attachments."""
    edge_new = {}
    out = [g.b]
    order = []  # (vertex, rotation from its entry dart)
    seen_v = set()
    queue = [g.boundary_dart(label) for label in range(1, g.b + 1)]
    qi = 0
    while qi < len(queue):
        d = queue[qi]
        qi += 1
        k = d >> 1
        if k not in edge_new:
            edge_new[k] = len(edge_new)
        w = g.dart_vertex(d ^ 1)
        if w < 0 or w in seen_v:
            continue
        seen_v.add(w)
        ds = g.rotation(w)
        i = ds.index(d ^ 1)
        ordered = ds[i:] + ds[:i]
        order.append((w, ordered))
        queue.extend(ordered[1:])
    for w, ordered in order:
        out.append((g.color(w), *[edge_new[dd >> 1] for dd in ordered]))
    for label in range(1, g.b + 1):
        out.append(("bdry", edge_new[g.boundary_dart(label) >> 1]))
    return tuple(out)


def move_equivalent_one_way(
    g1: PlabicGraph, g2: PlabicGraph, budget: int = 6, want_certificate: bool = False
):
    """Move equivalence by a one-way breadth-first search from g1, with the
    library's pre-checks, verdicts and reasons."""
    if trip_permutation(g1) != trip_permutation(g2):
        return EquivalenceResult(
            "not_equivalent", reason="trip permutations differ"
        )
    r1, r2 = is_reduced(g1), is_reduced(g2)
    if r1.reduced != r2.reduced:
        return EquivalenceResult(
            "not_equivalent", reason="exactly one side is reduced"
        )
    if r1.reduced and r2.reduced:
        if decorated_trip_permutation(g1) != decorated_trip_permutation(g2):
            return EquivalenceResult(
                "not_equivalent", reason="decorated trip permutations differ"
            )
        if not want_certificate:
            return EquivalenceResult(
                "equivalent",
                certificate=None,
                reason="both reduced with equal decorated trip permutations",
            )
    start, target = canonical_key_reference(g1), canonical_key_reference(g2)
    if start == target:
        return EquivalenceResult("equivalent", certificate=[], reason="isomorphic")
    # breadth-first search on canonical forms; certificate moves reference
    # the concrete intermediate graphs obtained by replaying from g1
    state_cap = 200_000
    seen = {start}
    frontier = [(g1, [])]
    for _ in range(budget):
        nxt = []
        for g, path in frontier:
            for mv in _search_moves(g):
                try:
                    h, _inv = _apply(g, mv)
                except IllegalMove:  # pragma: no cover
                    continue
                key = canonical_key_reference(h)
                if key == target:
                    return EquivalenceResult(
                        "equivalent",
                        certificate=path + [mv],
                        reason="found by search",
                    )
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((h, path + [mv]))
                if len(seen) > state_cap:
                    return EquivalenceResult(
                        "unknown", reason="state budget exhausted"
                    )
        frontier = nxt
        if not frontier:
            break
    return EquivalenceResult("unknown", reason=f"no certificate within budget {budget}")


# ----------------------------------------------------------------------
# graphs


def _walk(g, steps, rng, kinds=None):
    """The graphs visited by a random walk of legal moves."""
    out = []
    for _ in range(steps):
        moves = [m for m in legal_moves(g) if kinds is None or m.kind in kinds]
        g = apply_move(g, rng.choice(moves))
        out.append(g)
    return out


def _reduced_walk_graphs(rng, count):
    starts = [F.square_fan_b5, F.square_fan_b5_lollipop, F.two_trees_b6,
              F.normal_b5, F.square_path_b6]
    graphs = []
    walk = 0
    while len(graphs) < count:
        if walk % 3 == 0:
            g = starts[walk // 3 % len(starts)]()
        else:
            g = bridge_graph(random_decorated_permutation(rng.randint(2, 7), rng))
        graphs.extend(_walk(g, rng.randint(1, 25), rng, PRIMITIVE))
        walk += 1
    return graphs[:count]


@pytest.fixture(scope="module")
def reduced_walk_graphs():
    return _reduced_walk_graphs(random.Random(71), 300)


@pytest.fixture(scope="module")
def mixed_graphs(reduced_walk_graphs):
    """Fixtures, bridge graphs, move-walk graphs, and graphs with digons or
    loops (some walked further): over a thousand in all."""
    rng = random.Random(72)
    graphs = [make() for make in F.ALL_NAMED.values()]
    graphs.extend(reduced_walk_graphs)
    for _ in range(350):
        graphs.append(bridge_graph(random_decorated_permutation(rng.randint(1, 8), rng)))
    for g in list(graphs[-350:]):
        if rng.random() < 0.5:
            graphs.append(insert_parallel_digon(g, rng))
        else:
            graphs.append(insert_loop(g, rng))
    for _ in range(30):
        g = bridge_graph(random_decorated_permutation(rng.randint(2, 6), rng))
        graphs.extend(_walk(insert_parallel_digon(g, rng), 5, rng))
    for g in rng.sample(reduced_walk_graphs, 60):
        graphs.append(insert_loop(insert_parallel_digon(g, rng), rng))
    return graphs


def _grow_pendant_trees(g, rng):
    """Grow random trees of leaves and bivalent vertices of random colours
    from every lollipop and from at most one other internal vertex."""
    bld = Builder(g)
    roots = [v for v in g.internal_vertices() if g.is_lollipop(v)]
    others = [v for v in g.internal_vertices() if v not in roots]
    roots += rng.sample(others, min(len(others), rng.randint(0, 1)))
    for root in roots:
        tree = [root]
        for _ in range(rng.randint(0, 6)):
            v = rng.choice(tree)
            # length 0 hangs a new leaf off v, length 1 puts a new
            # bivalent vertex on one of v's edges
            d = bld.split(v, rng.randrange(bld.degree(v)), rng.randint(0, 1),
                          rng.choice((BLACK, WHITE)))
            tree.append(bld.other_end(d))
    return bld.freeze()


def _white_digon(g, rng):
    """Split a white vertex into two joined by a pair of parallel edges; in
    the normal graph the face between them carries a roundtrip."""
    bld = Builder(g)
    whites = [v for v in sorted(bld.colors) if bld.colors[v] == WHITE and bld.degree(v) >= 2]
    if not whites:
        return g
    v = rng.choice(whites)
    m = bld.degree(v)
    d = bld.split(v, rng.randrange(m), rng.randint(1, m - 1), WHITE)
    w = bld.other_end(d)
    e0, e1 = bld._new_dart_pair(bld.fresh_edge_id())
    bld.rot[v].append(e0)  # right after d, which split put last
    bld.rot[w].insert(len(bld.rot[w]) - 1, e1)  # right before d ^ 1
    bld.dv[e0], bld.dv[e1] = v, w
    return bld.freeze()


@pytest.fixture(scope="module")
def pendant_tree_graphs():
    """Bridge graphs of permutations with many fixed points, two thirds of
    them with parallel digons (some between two white vertices), with
    random pendant trees grown on them."""
    rng = random.Random(73)
    graphs = []
    for _ in range(800):
        b = rng.randint(1, 7)
        values = list(range(1, b + 1))
        moving = [i for i in values if rng.random() < 0.5]
        shuffled = rng.sample(moving, len(moving))
        for i, j in zip(moving, shuffled):
            values[i - 1] = j
        dec = {i: rng.choice(["over", "under"]) for i in values if values[i - 1] == i}
        g = bridge_graph(DecoratedPermutation(values, dec))
        for _ in range(rng.randint(0, 2)):
            g = rng.choice((insert_parallel_digon, _white_digon))(g, rng)
        graphs.append(_grow_pendant_trees(g, rng))
    return graphs


# ----------------------------------------------------------------------
# agreement


def _has_digon(g):
    ends = [tuple(sorted(g.edge_endpoints(e))) for e in g.edge_ids]
    ends = [(u, v) for u, v in ends if u != v]
    return len(set(ends)) < len(ends)


def test_mixed_graphs_cover_loops_digons_and_trees(mixed_graphs):
    assert len(mixed_graphs) >= 1000
    loops = sum(any(g.is_loop(e) for e in g.edge_ids) for g in mixed_graphs)
    digons = sum(_has_digon(g) for g in mixed_graphs)
    trees = sum(bool(pendant_vertices_fixed_point(g)) for g in mixed_graphs)
    assert loops >= 100 and digons >= 100 and trees >= 100


def test_faces_match_tuple_rim_walker(mixed_graphs):
    for g in mixed_graphs:
        faces = faces_with_tuple_rim_darts(g)
        assert g.faces() == faces, g.to_json()
        # the dart -> face map that faces() fills as it traces
        fmap = g.face_of_dart()
        assert {d: idx for idx, f in enumerate(faces) for d in f.darts} == {
            d: fmap[d] for d in all_darts_of(g)}
        # then arc i's forward dart, in the outer face, and its backward
        # dart, in the other face that crosses arc i
        crossing = {i: idx for idx, f in enumerate(faces) if f.kind == "boundary"
                    for i in f.rim_arcs}
        outer = [idx for idx, f in enumerate(faces) if f.kind == "outer"]
        assert fmap[g._dart_bound():] == [
            x for i in range(1, g.b + 1) for x in (*outer, crossing[i])], g.to_json()


def test_trips_match_stepwise_tracer(mixed_graphs):
    for g in mixed_graphs:
        expected = trips_stepwise(g)
        assert all_trips(g) == expected, g.to_json()
        assert trip_permutation(g) == [t.target for t in expected[: g.b]]


def test_leaf_queue_peel_matches_fixed_point_peel(mixed_graphs):
    for g in mixed_graphs:
        assert _pendant_vertices(g) == pendant_vertices_fixed_point(g), g.to_json()


@pytest.mark.parametrize("mode", ["source", "target"])
def test_bfs_labels_match_flood_fill_on_fixtures(mode):
    checked = 0
    for make in F.ALL_NAMED.values():
        g = make()
        if not is_reduced(g).reduced:
            continue
        labels = face_labels(g, mode)
        assert labels == face_labels_flood(g, mode)
        assert list(labels) == list(face_labels_flood(g, mode))
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("mode", ["source", "target"])
def test_bfs_labels_match_flood_fill_on_walks(reduced_walk_graphs, mode):
    assert len(reduced_walk_graphs) >= 200
    for g in reduced_walk_graphs:
        labels = face_labels(g, mode)
        expected = face_labels_flood(g, mode)
        assert list(labels.items()) == list(expected.items()), g.to_json()


def _frozen_parts(g):
    return (g.b, g._colors, list(g._rot.items()), list(g._dart_vertex.items()),
            g._edge_ids)


def _rotation_of(g):
    obj = g.to_json_obj()
    return {int(v): es for v, es in obj["rotation"].items()}


def test_from_rotation_and_from_json_match_reference(mixed_graphs):
    fixtures = [make() for make in F.ALL_NAMED.values()]
    for g in fixtures + mixed_graphs:
        expected = _frozen_parts(from_rotation_reference(g.b, g._colors, _rotation_of(g)))
        assert _frozen_parts(PlabicGraph.from_rotation(g.b, g._colors, _rotation_of(g))) == expected
        assert _frozen_parts(PlabicGraph.from_json(g.to_json())) == expected, g.to_json()


def test_from_json_numbers_darts_once(monkeypatch):
    real = graph_module._number_darts
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(graph_module, "_number_darts", counted)
    for make in F.ALL_NAMED.values():
        text = make().to_json()
        calls.clear()
        g = PlabicGraph.from_json(text)
        assert len(calls) == 1
        g.faces()  # traced by the Euler check, so already cached
        assert len(calls) == 1 and "faces" in g._cache


def test_validate_trusts_only_the_graphs_it_checked(mixed_graphs, monkeypatch):
    """``validate`` of a graph that ``from_json``/``from_rotation`` returned
    equals the report of the full JSON round trip and runs no check; a
    graph from ``Builder.freeze`` or the raw constructor is checked in full."""
    real = graph_module._checked_json
    calls = []

    def counted(obj):
        calls.append(1)
        return real(obj)

    monkeypatch.setattr(graph_module, "_checked_json", counted)
    for g in [make() for make in F.ALL_NAMED.values()] + mixed_graphs:
        for h, checks in ((PlabicGraph.from_json(g.to_json()), 0),
                          (PlabicGraph.from_rotation(g.b, g._colors, _rotation_of(g)), 0),
                          (Builder(g).freeze(), 1),
                          (PlabicGraph(g.b, g._colors, g._rot, g._edge_ids), 1)):
            calls.clear()
            rep = validate(h)
            assert len(calls) == checks
            assert rep == real(h.to_json_obj())[0] and rep.ok, g.to_json()


def _dense_parts(g):
    """``_frozen_parts`` through the order-preserving map of the graph's
    darts onto 0, 1, ...: what the dense numbering of the reference gives
    when the graph's numbers follow the same order.  The rotations keep
    their dict order; the dart -> vertex map is compared as a mapping."""
    ids = g._edge_ids
    assert ids[-1:] != (None,)
    assert [k for k, e in enumerate(ids) if e is None] == [
        k for k in range(len(ids)) if 2 * k not in g._dart_vertex]
    rank = {d: r for r, d in enumerate(sorted(g._dart_vertex))}
    return (g.b, g._colors, [(v, tuple(rank[d] for d in ds)) for v, ds in g._rot.items()],
            sorted((rank[d], v) for d, v in g._dart_vertex.items()),
            tuple(e for e in ids if e is not None))


@pytest.fixture
def checked_freeze(monkeypatch):
    """Make every ``Builder.freeze`` also run the reference freeze and
    require the same graph up to an order-preserving dart map, rotation
    dict order included; yields the call count."""
    real = Builder.freeze
    calls = []

    def freeze(bld):
        g = real(bld)
        assert _dense_parts(g) == _dense_parts(freeze_reference(bld))
        calls.append(1)
        return g

    monkeypatch.setattr(Builder, "freeze", freeze)
    return calls


def test_legal_moves_and_freeze_match_references(mixed_graphs, checked_freeze):
    fixtures = [make() for make in F.ALL_NAMED.values()]
    moved = 0
    for g in fixtures + mixed_graphs:
        moves = legal_moves(g)
        assert moves == legal_moves_reference(g), g.to_json()
        Builder(g).freeze()
        collapse_trees(g)
        normalize(g)
        for m in moves:
            h = apply_move(g, m)
            assert legal_moves(h) == legal_moves_reference(h), (g.to_json(), m)
            moved += 1
    assert moved >= 40_000 and len(checked_freeze) >= moved


def _traced_afresh(g):
    """The same graph with nothing cached, so that it traces its faces
    from scratch."""
    return PlabicGraph._from_parts(g.b, g._colors, g._rot, g._dart_vertex, g._edge_ids)


def _oracle_walk(g, steps, rng, kinds, balanced, counts):
    """Walk ``steps`` moves drawn uniformly among the sites of ``kinds``,
    or, when ``balanced``, of a kind drawn uniformly first; at every step
    compare the result's faces, patched from its parent's, and its legal
    moves, re-derived from its parent's sites, with from-scratch
    references.  ``counts`` gets the children whose faces were patched
    from their parent's tables and those whose sites came from their
    parent."""
    for _ in range(steps):
        sites = {}
        for m in legal_moves(g):
            if m.kind in kinds:
                sites.setdefault(m.kind, []).append(m)
        if not sites:
            return
        if balanced:
            mv = rng.choice(sites[rng.choice(sorted(sites))])
        else:
            mv = rng.choice([m for kind in kinds for m in sites.get(kind, ())])
        h = apply_move(g, mv)
        if mv.kind == "SquareM1":  # the rotations are unchanged
            assert h._cache["faces"] is g._cache["faces"]
        elif "base" in h._cache:
            counts["patched"] += 1
        if "site_base" in h._cache:  # legal_moves(g) ran, so g had sites
            counts["sites"] += 1
        fresh = _traced_afresh(h)
        assert h.faces() == fresh.faces(), (g.to_json(), mv)
        assert h.face_of_dart() == fresh.face_of_dart(), (g.to_json(), mv)
        assert "base" not in h._cache
        assert legal_moves(h) == legal_moves_reference(h), (g.to_json(), mv)
        counts[mv.kind] += 1
        if sum(counts[kind] for kind in KINDS) % 5 == 0:
            # ids and witnesses do not depend on the dart numbers
            dense = PlabicGraph.from_json(h.to_json())
            assert _normalize_fields(normalize(h)) == _normalize_fields(normalize(dense))
            assert collapse_trees(h).to_json() == collapse_trees(dense).to_json()
        g = h


def test_local_moves_match_from_scratch_references(checked_freeze):
    """On every step of criterion-7 walks and of kind-balanced walks over
    all eight kinds: faces patched from the parent's equal a full trace
    (same order, so every ``MoveSpec.face`` is unchanged), legal moves
    re-derived from the parent's sites equal the site-by-site reference,
    each freeze equals the reference numbering up to an order-preserving
    dart map, and normalization and tree collapsing give what they give on
    the densely numbered copy (every fifth step)."""
    rng = random.Random(12)
    counts = Counter()
    starts = [F.square_fan_b5, F.square_fan_b5_lollipop, F.two_trees_b6,
              F.normal_b5, F.square_path_b6]
    for walk in range(45):
        if walk % 3 == 0:
            g = starts[walk // 3 % len(starts)]()
        else:
            g = bridge_graph(random_decorated_permutation(rng.randint(3, 6), rng))
        _oracle_walk(g, rng.randint(1, 120), rng, PRIMITIVE, False, counts)
    for _ in range(40):
        p = random_decorated_permutation(rng.randint(4, 7), rng)
        _oracle_walk(trivalentize(bridge_graph(p)), 30, rng, KINDS, True, counts)
    for _ in range(15):
        g = normalize(bridge_graph(random_decorated_permutation(rng.randint(4, 7), rng))).normal
        _oracle_walk(g, 15, rng, ("UrbanRenewal", "NormalFlip"), True, counts)
    assert all(counts[kind] >= 20 for kind in KINDS), counts
    assert counts["patched"] >= 4000 and len(checked_freeze) >= counts["patched"]
    assert counts["sites"] >= 4000, counts


def test_legal_moves_lists_are_the_callers_own():
    """Changing a list ``legal_moves`` returned changes neither the next
    call on that graph nor the moves of the graphs made from it."""
    for g in (F.square_fan_b5(), F.normal_b5(), F.urban_left_b7()):
        want = legal_moves(g)
        spoiled = legal_moves(g)
        assert spoiled == want and spoiled is not want
        spoiled.reverse()
        spoiled.append(MoveSpec("SquareM1", face=0))
        del spoiled[:3]
        assert legal_moves(g) == want
        for m in want:
            h = apply_move(g, m)
            legal_moves(h).clear()
            assert legal_moves(h) == legal_moves_reference(h), (g.to_json(), m)


def _outcome(read, g):
    """What ``read(g)`` returns, or the label of the fixed point it cannot
    decorate."""
    try:
        p = read(g)
    except UndecoratableFixedPoint as exc:
        return ("undecoratable", exc.label)
    return (p.values, p.decorations)


def test_decorations_match_collapse(mixed_graphs, pendant_tree_graphs):
    fixed = stuck = 0
    for g in mixed_graphs + pendant_tree_graphs:
        expected = _outcome(decorations_by_collapse, g)
        assert _outcome(decorated_trip_permutation, g) == expected, g.to_json()
        values = trip_permutation(g)
        fixed += sum(values[i - 1] == i for i in range(1, g.b + 1))
        stuck += expected[0] == "undecoratable"
    assert fixed >= 1000 and stuck >= 100, (fixed, stuck)


def test_hanging_tree_decides_pendant_roots_locally(mixed_graphs, pendant_tree_graphs):
    """At every fixed point, the search from its root finds a tree exactly
    when the whole-graph leaf peel takes the root."""
    found = {True: 0, False: 0}
    for g in mixed_graphs + pendant_tree_graphs:
        values = trip_permutation(g)
        peeled = None
        for i in range(1, g.b + 1):
            if values[i - 1] != i:
                continue
            if peeled is None:
                peeled = _pendant_vertices(g)
            entry = g.boundary_dart(i) ^ 1
            tree = _hanging_tree(g, entry)
            assert (tree is not None) == (g.dart_vertex(entry) in peeled), (g.to_json(), i)
            found[tree is not None] += 1
    assert found[True] >= 1000 and found[False] >= 50, found


def test_trusted_decorated_permutation_equals_the_checked_one(reduced_walk_graphs):
    """``decorated_trip_permutation`` skips the constructor's checks; its
    result equals the permutation the checked constructor builds from the
    same values, and each call gets its own decorations."""
    fixed = 0
    for g in reduced_walk_graphs:
        p = decorated_trip_permutation(g)
        checked = DecoratedPermutation(list(p.values), p.decorations)
        assert type(p.values) is tuple and type(p.decorations) is dict
        assert (p.values, p.decorations) == (checked.values, checked.decorations)
        assert p == checked and hash(p) == hash(checked)
        fixed += len(p.decorations)
        p.decorations.clear()
        assert decorated_trip_permutation(g) == checked
    assert fixed >= 100, fixed


def test_bad_features_match_pairwise_scan(mixed_graphs, pendant_tree_graphs):
    kinds = {"roundtrip": 0, "essential_self_intersection": 0, "bad_double_crossing": 0}
    normal = [normalize(g).normal for g in mixed_graphs + pendant_tree_graphs]
    # normal inputs keep their black lollipops, which normalize removes
    normal += [g for g in mixed_graphs + pendant_tree_graphs if classify(g)["normal"]]
    for n in normal:
        if n is None:
            continue
        expected = bad_features_pairwise(n)
        assert bad_features(n) == expected, n.to_json()
        for f in expected:
            kinds[f.kind] += 1
    assert min(kinds.values()) >= 100, kinds


def _rings(g):
    labels = edge_labels(g)
    for v in g.internal_vertices():
        yield [labels[g.edge_id(d)] for d in g.rotation(v)]


def _random_ring(rng):
    """A rotated chain {a1,a2},...,{am,a1} of rising labels, sometimes with
    one set changed, or a ring of random sets."""
    m = rng.randint(1, 6)
    if rng.random() < 0.3:
        return [set(rng.sample(range(1, 9), rng.randint(0, 3))) for _ in range(m)]
    a = sorted(rng.sample(range(1, 12), m))
    ring = [{a[k], a[(k + 1) % m]} for k in range(m)]
    j = rng.randrange(m)
    ring = ring[j:] + ring[:j]
    if rng.random() < 0.5:
        ring[rng.randrange(m)] = set(rng.sample(range(1, 12), rng.randint(1, 3)))
    if rng.random() < 0.2:
        ring.reverse()
    return ring


def test_resonant_rings_match_rotation_search(mixed_graphs, pendant_tree_graphs):
    rng = random.Random(74)
    rings = [r for g in mixed_graphs + pendant_tree_graphs for r in _rings(g)]
    rings += [_random_ring(rng) for _ in range(20_000)]
    verdicts = [resonant_ring_by_rotations(r) for r in rings]
    assert [_is_resonant_ring(r) for r in rings] == verdicts
    assert sum(verdicts) >= 1000 and verdicts.count(False) >= 1000


def _normalize_fields(res):
    return (res.witness, res.normal and res.normal.to_json(), res.lollipops_removed,
            res.label_map)


def test_normalize_collapse_and_classify_match_references(mixed_graphs, pendant_tree_graphs):
    graphs = mixed_graphs + pendant_tree_graphs
    graphs += [n for n in (normalize(g).normal for g in graphs) if n is not None]
    witnesses = {"loop": 0, "internal_leaf": 0}
    for g in graphs:
        res = normalize(g)
        assert _normalize_fields(res) == _normalize_fields(normalize_reference(g)), g.to_json()
        assert collapse_trees(g).to_json() == collapse_trees_reference(g).to_json()
        assert classify(g) == classify_reference(g)
        if res.witness:
            witnesses[res.witness.kind] += 1
    assert len(graphs) >= 3000 and min(witnesses.values()) >= 200, (len(graphs), witnesses)


def test_structural_reads_need_no_edge_ids(mixed_graphs, monkeypatch):
    def refuse(g, edge_id):
        raise AssertionError(f"darts_of_edge({edge_id}) called")

    monkeypatch.setattr(PlabicGraph, "darts_of_edge", refuse)
    for g in [make() for make in F.ALL_NAMED.values()] + mixed_graphs:
        classify(g)
        quiver_of(g, "ids")
        res = normalize(g)
        if res.ok:
            bad_features(res.normal)
            quiver_of(res.normal)
        if classify(g)["normal"]:
            bad_features(g)


def test_square_moves_read_off_members_match_quad_scan():
    """The moves of every collection read off the per-member move table
    equal those of the quad scan and of the mask-level completions scan,
    each kept when its result lies in the positroid."""
    rng = random.Random(73)
    perms = [cyclic_rotation(2, b) for b in range(4, 8)]
    perms += [cyclic_rotation(3, 6), cyclic_rotation(3, 7)]
    perms.append(DecoratedPermutation.parse("3 4 5 1 2 6^"))
    perms += [random_decorated_permutation(rng.randint(3, 7), rng) for _ in range(40)]
    collections = steps = 0
    for p in perms:
        members = _positroid_members(necklace_from_perm(p))
        index = {_mask(J, p.b): t for t, J in enumerate(members)}
        masks = list(index)
        rows = {}
        for coll in enumerate_ws(p):
            held = [_mask(s, p.b) for s in coll]
            bitset = sum(1 << index[m] for m in held)
            got = []
            for m in held:
                t = index[m]
                if t not in rows:
                    rows[t] = labels_module._square_row(t, m, p.b, index)
                got += [(m, masks[v]) for look, need, _, v in rows[t] if bitset & look == need]
            labels = {m: _bits(m) for m in held}
            on_masks = [(old, new) for old, new in mutation_steps_on_masks(held, labels)
                        if new in index]
            assert Counter(got) == Counter(on_masks), sorted(map(sorted, coll))
            want = [(old, new) for old, new in mutation_steps_reference(coll)
                    if _mask(new, p.b) in index]
            as_sets = [(frozenset(_bits(old)), frozenset(_bits(new))) for old, new in got]
            assert Counter(as_sets) == Counter(want), sorted(map(sorted, coll))
            collections += 1
            steps += len(got)
    assert collections >= 400 and steps >= 1600, (collections, steps)


def test_enumerate_ws_matches_reference():
    perms = [cyclic_rotation(3, 7), cyclic_rotation(3, 8), cyclic_rotation(4, 8)]
    perms += [cyclic_rotation(2, b) for b in (5, 6, 7)] + [cyclic_rotation(3, 6)]
    perms.append(DecoratedPermutation.parse("3 4 5 1 2 6^"))
    for p in perms:
        assert enumerate_ws(p) == enumerate_ws_reference(p), str(p)


def _limit_outcome(enumerate_fn, p, limit):
    try:
        return enumerate_fn(p, limit=limit)
    except TooLarge as exc:
        return str(exc)


def test_enumerate_ws_matches_reference_on_random_permutations():
    rng = random.Random(91)
    total = 0
    for _ in range(60):
        p = random_decorated_permutation(rng.randint(1, 8), rng)
        want = enumerate_ws_reference(p)
        assert enumerate_ws(p) == want, str(p)
        total += len(want)
        limit = rng.randrange(len(want) + 1)
        assert _limit_outcome(enumerate_ws, p, limit) == \
            _limit_outcome(enumerate_ws_reference, p, limit), (str(p), limit)
    assert total >= 300, total


def test_positroid_matches_reference():
    rng = random.Random(92)
    sizes = Counter()
    for _ in range(300):
        p = random_decorated_permutation(rng.randint(1, 9), rng)
        nk = necklace_from_perm(p)
        want = positroid_reference(nk)
        assert positroid(nk) == want, str(p)
        sizes[len(want) > 1] += 1
    assert min(sizes.values()) >= 50, sizes


def _ws_outcome(fn, sets, b):
    try:
        return fn(sets, b)
    except (BadLabel, SizeMismatch) as exc:
        return type(exc).__name__, str(exc)


def test_is_ws_collection_matches_pairwise_scan():
    """Same verdict, and the same error with the same message, as testing
    every pair in order, on random collections with bad labels and sets of
    unequal sizes mixed in."""
    rng = random.Random(95)
    outcomes = Counter()
    for _ in range(4000):
        b = rng.randint(1, 8)
        a = rng.randint(0, b)
        sets = [rng.sample(range(1, b + 1), a) for _ in range(rng.randint(0, 5))]
        if sets and rng.random() < 0.3:
            damaged = sets[rng.randrange(len(sets))]
            if rng.random() < 0.5:
                damaged.append(rng.choice([0, b + 1]))
            elif damaged:
                damaged.pop()
        want = _ws_outcome(is_ws_collection_pairwise, sets, b)
        assert _ws_outcome(is_ws_collection, sets, b) == want, (sets, b)
        outcomes[want if isinstance(want, bool) else want[0]] += 1
    assert min(outcomes.values()) >= 200 and len(outcomes) == 4, outcomes


def _check_against_marks(I, J, b):
    want = weakly_separated_marks(I, J, b)
    assert weakly_separated(I, J, b) == want
    assert _separated(_mask(I, b), [_mask(J, b)]) == want
    return want


def test_weak_separation_matches_marks_exhaustively():
    verdicts = Counter()
    for b in range(1, 9):
        for a in range(b + 1):
            subsets = list(combinations(range(1, b + 1), a))
            for I in subsets:
                for J in subsets:
                    verdicts[_check_against_marks(I, J, b)] += 1
    assert min(verdicts.values()) >= 1000, verdicts


@st.composite
def _label_pairs(draw):
    """b in 1..12, and two a-subsets of 1..b for some a in 0..b, often equal."""
    b = draw(st.integers(1, 12))
    a = draw(st.integers(0, b))
    subsets = st.sets(st.integers(1, b), min_size=a, max_size=a)
    I = draw(subsets)
    return b, I, I if draw(st.booleans()) else draw(subsets)


@settings(max_examples=200, deadline=None)
@given(_label_pairs())
@example((12, set(), set()))
@example((12, set(range(1, 13)), set(range(1, 13))))
@example((12, {1, 3, 5, 7, 9, 11}, {2, 4, 6, 8, 10, 12}))
@example((12, {1, 2, 11, 12}, {5, 6, 7, 8}))
def test_weak_separation_matches_marks(case):
    b, I, J = case
    _check_against_marks(I, J, b)


def _equiv_style_pairs(rng):
    """Pairs like the equiv benchmark's: h is d vertex-adding search moves
    from a bridge graph g, so exactly d moves away; the budget is d."""
    pairs = []
    for b, d, n in ((3, 1, 6), (3, 2, 4), (3, 3, 3), (4, 1, 4), (4, 2, 3), (5, 1, 3), (5, 2, 2)):
        for _ in range(n):
            g = bridge_graph(random_decorated_permutation(b, rng))
            h = g
            for _ in range(d):
                growing = [m for m in legal_moves(h) if m.kind in ("InsertBivalentM2", "SplitM3")]
                h = apply_move(h, rng.choice(growing))
            pairs.append((g, h, d))
    return pairs


def _leaf_pairs(rng):
    """One bridge graph with a leaf hung off one of two of its vertices,
    at budgets 1..3."""
    pairs = []
    for _ in range(9):
        g = bridge_graph(random_decorated_permutation(3, rng))
        g1, g2 = [apply_move(g, MoveSpec("SplitM3", vertex=v, start=rng.randrange(g.degree(v)),
                                         length=0))
                  for v in rng.sample(g.internal_vertices(), 2)]
        pairs.extend((g1, g2, budget) for budget in (1, 2, 3))
    return pairs


def _late_leaf_pair():
    """A white leaf on the black corner of a square: the square move must
    come first, and only then can the leaf be contracted.  At budget 2 the
    meeting needs g2's side to grow the leaf back."""
    g1 = PlabicGraph.from_rotation(
        3, {0: WHITE, 1: BLACK, 2: WHITE, 3: BLACK, 4: WHITE},
        {0: [0, 5, 8], 1: [1, 6, 5], 2: [6, 2, 7], 3: [8, 7, 9], 4: [9],
         -1: [0], -2: [1], -3: [2]})
    g = apply_move(g1, MoveSpec("SquareM1", face=3))
    return g1, apply_move(g, MoveSpec("ContractM3", edge=9))


def _pendant_pairs(graphs, rng):
    """Small graphs with pendant trees and a walk of one or two search
    moves from each, contractions of leaves among them."""
    small = [g for g in graphs if len(g.edge_ids) <= 9]
    pairs = []
    for g in rng.sample(small, 16):
        h = g
        for _ in range(rng.randint(1, 2)):
            h = apply_move(h, rng.choice(_search_moves(h)))
        pairs.append((g, h, 2))
    return pairs


def test_meet_in_the_middle_matches_one_way_search(pendant_tree_graphs):
    rng = random.Random(93)
    pairs = _equiv_style_pairs(rng)
    pairs += [(F.square_fan_b5_lollipop(), F.square_path_b6(), 4),
              (F.urban_left_b7(), F.urban_right_b7(), 3)]
    pairs += [(F.ALL_NAMED["white_digon_b2"](), F.ALL_NAMED["black_digon_b2"](), budget) for budget in (1, 2, 3)]
    pairs += _pendant_pairs(pendant_tree_graphs, rng)
    pairs += _leaf_pairs(rng)
    g1, g2 = _late_leaf_pair()
    pairs += [(g1, g2, budget) for budget in (1, 2, 3)]
    verdicts = Counter()
    for g1, g2, budget in pairs:
        got = move_equivalent(g1, g2, budget, want_certificate=True)
        want = move_equivalent_one_way(g1, g2, budget, want_certificate=True)
        assert (got.verdict, got.reason) == (want.verdict, want.reason), (g1.to_json(), budget)
        verdicts[got.verdict] += 1
        if got.certificate is None:
            continue
        assert len(got.certificate) == len(want.certificate), (g1.to_json(), budget)
        x = g1
        for mv in got.certificate:
            x = apply_move(x, mv)
        assert canonical_key_reference(x) == canonical_key_reference(g2), (g1.to_json(), budget)
        if got.reason == "found by search":
            assert sum(got.depth) == len(got.certificate)
    assert verdicts["equivalent"] >= 40 and verdicts["unknown"] >= 10, verdicts


def test_one_pass_keys_match_two_pass_reference(reduced_walk_graphs):
    """Every state of seeded criterion-7 walks and of kind-balanced walks
    over all eight kinds has the reference key, and so has every search
    child: keyed on what ``_build`` returns (a builder for most moves) and
    again once frozen."""
    rng = random.Random(14)
    states = list(reduced_walk_graphs)
    for _ in range(20):
        g = trivalentize(bridge_graph(random_decorated_permutation(rng.randint(4, 7), rng)))
        for _ in range(15):
            sites = {}
            for m in legal_moves(g):
                sites.setdefault(m.kind, []).append(m)
            g = apply_move(g, rng.choice(sites[rng.choice(sorted(sites))]))
            states.append(g)
    children = Counter()
    for g in states:
        assert g.canonical_key() == canonical_key_reference(g), g.to_json()
        for mv in _search_moves(g):
            h = _build(g, mv)[0]
            key = h.canonical_key()
            frozen = _frozen(h)
            assert key == frozen.canonical_key() == canonical_key_reference(frozen), (
                g.to_json(), mv)
            children[type(h).__name__] += 1
    assert children["Builder"] >= 10_000 and children["PlabicGraph"] >= 30, children
