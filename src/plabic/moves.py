"""Local moves on plabic graphs and bounded move-equivalence search.

Move kinds:

* ``SquareM1``      -- flip the colors around an alternating quadrilateral
                       face whose four (distinct) vertices are trivalent;
* ``InsertBivalentM2`` / ``RemoveBivalentM2`` -- insert/remove a degree-2
                       vertex in the middle of an edge;
* ``ContractM3`` / ``SplitM3`` -- contract a unicolored internal edge /
                       split a vertex along a contiguous rotation arc;
* ``FlipM4``        -- the flip for two trivalent same-colored neighbors,
                       realized as a contraction followed by the rotated
                       split;
* ``UrbanRenewal``  -- the bipartite square move that pushes the black
                       corners out (whites must be trivalent);
* ``NormalFlip``    -- the flip through a bivalent black vertex joining two
                       trivalent whites.

Faces are addressed by their index in ``graph.faces()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import normalize  # registers the fact "is_reduced"
from .errors import BadBudget, IllegalMove, _ints, _show
from .graph import _FACTS, _PATCHES, BLACK, WHITE, Builder, PlabicGraph, other_color
from .trips import decorated_trip_permutation, trip_permutation

# kinds explored by the bounded search (inserts kept: they are needed to
# undo contractions performed on the other side)
_SEARCH_KINDS = ("SquareM1", "RemoveBivalentM2", "InsertBivalentM2", "ContractM3", "SplitM3")


class MoveSpec(NamedTuple):
    """One move site.  A tuple: immutable, hashable and cheap to build."""

    kind: str
    face: int = None
    vertex: int = None
    edge: int = None
    color: str = None
    start: int = None
    length: int = None
    condition_ok: bool = None  # informational flag on SquareM1 sites

    def to_json_obj(self):
        # Written out field by field: the walk benchmark keys every listed
        # spec by this object, and a loop over ``_fields`` is twice as slow.
        out = {"kind": self.kind}
        if self.face is not None:
            out["face"] = self.face
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.edge is not None:
            out["edge"] = self.edge
        if self.color is not None:
            out["color"] = self.color
        if self.start is not None:
            out["start"] = self.start
        if self.length is not None:
            out["length"] = self.length
        if self.condition_ok is not None:
            out["condition_ok"] = self.condition_ok
        return out

    @staticmethod
    def from_json_obj(obj):
        """Parse a spec object; raises IllegalMove on any malformed field."""
        if not isinstance(obj, dict):
            raise IllegalMove(f"a move spec must be a JSON object, got {obj!r}")
        return _checked(MoveSpec(*[obj.get(k) for k in MoveSpec._fields]))


def _checked(m: MoveSpec) -> MoveSpec:
    """``m``, once its kind is known and each field has its type; raises
    IllegalMove otherwise."""
    if m.kind not in KINDS:
        raise IllegalMove(f"unknown move kind {m.kind!r}")
    for k, v in zip(("face", "vertex", "edge", "start", "length"),
                    (m.face, m.vertex, m.edge, m.start, m.length)):
        if v is not None and type(v) is not int:  # plain ints pass at once
            _ints((v,), IllegalMove, f"move field {k!r} must be an integer, got {{}}")
    if m.color is not None and not isinstance(m.color, str):
        raise IllegalMove(f"move field 'color' must be a string, got {m.color!r}")
    if m.condition_ok is not None and not isinstance(m.condition_ok, bool):
        raise IllegalMove(f"move field 'condition_ok' must be a boolean, got {m.condition_ok!r}")
    return m


# ----------------------------------------------------------------------
# site rules, each shared by ``legal_moves`` and the matching ``_apply_*``


def _trivalent(rot, vs) -> bool:
    """Whether every vertex of ``vs`` has degree 3: the corners of a
    SquareM1 face, the two ends of a FlipM4 edge."""
    for v in vs:
        if len(rot[v]) != 3:
            return False
    return True


def _removable(ds) -> bool:
    """Whether a vertex with darts ``ds`` is bivalent and carries no loop."""
    return len(ds) == 2 and ds[0] != ds[1] ^ 1


def _contractible(colors, u, w) -> bool:
    """Whether the edge from u to w is internal, not a loop, and
    unicolored (ContractM3; FlipM4 also needs ``_trivalent`` ends)."""
    return u >= 0 and w >= 0 and u != w and colors[u] == colors[w]


def _edge_darts(g: PlabicGraph, edge):
    """The two darts of an edge id; IllegalMove for an id the graph lacks."""
    try:
        return g.darts_of_edge(edge)
    except ValueError:
        raise IllegalMove(f"no edge with id {edge}")


def _alternating_quads(g: PlabicGraph, faces):
    """``(index, corners)`` of each of ``faces`` that is an internal
    quadrilateral whose corners, in walk order, are four distinct vertices
    of alternating colors."""
    dv, colors = g._dart_vertex, g._colors
    out = []
    for idx, face in enumerate(faces):
        if face.kind != "internal" or len(face.darts) != 4:
            continue
        vs = [dv[d] for d in face.darts]
        if len(set(vs)) != 4:
            continue
        c0, c1, c2, c3 = [colors[v] for v in vs]
        if c0 == c1 or c1 != c3 or c0 != c2:
            continue
        out.append((idx, vs))
    return out


def _alternating_quad(g: PlabicGraph, face):
    """The corners of one face if ``_alternating_quads`` lists it, else
    None."""
    quads = _alternating_quads(g, (face,))
    return quads[0][1] if quads else None


def _square_condition_ok(g: PlabicGraph, face) -> bool:
    """Whether the four surrounding faces are consecutively distinct."""
    fmap = g._fact("faces")[1]
    around = [fmap[g.twin(d)] for d in face.darts]
    return all(around[k] != around[(k + 1) % 4] for k in range(4))


def _urban_corners_ok(g: PlabicGraph, face, vs) -> bool:
    """Whether the white corners ``vs`` of an alternating quadrilateral are
    trivalent, each with one edge off the square to a black vertex outside."""
    side_edges = {d >> 1 for d in face.darts}
    dv = g._dart_vertex
    for v in vs:
        if g.color(v) != WHITE:
            continue
        if g.degree(v) != 3:
            return False
        # a trivalent corner lies on two sides: one dart leaves the square
        (od,) = [d for d in g.rotation(v) if (d >> 1) not in side_edges]
        x = dv[od ^ 1]
        if x < 0 or x in vs or g.color(x) != BLACK:
            return False
    return True


def _is_normal_flip_site(g: PlabicGraph, v) -> bool:
    """Whether v is a bivalent black vertex between two distinct trivalent
    white vertices; false for a vertex id the graph does not have."""
    colors, rot = g._colors, g._rot
    if colors.get(v) != BLACK or len(rot[v]) != 2:
        return False
    d1, d2 = rot[v]
    n1, n2 = g._dart_vertex[d1 ^ 1], g._dart_vertex[d2 ^ 1]
    return (
        n1 != n2
        and colors.get(n1) == WHITE  # boundary vertices have no color
        and colors.get(n2) == WHITE
        and len(rot[n1]) == 3
        and len(rot[n2]) == 3
    )


# ----------------------------------------------------------------------
# enumeration


# Specs are immutable, so graphs share them: both tables are cached by id.
@lru_cache(maxsize=1 << 14)
def _edge_specs(e):
    """The sites of edge id e when it is not contractible, contractible,
    and a flip site: (its two InsertBivalentM2 specs), then with its
    ContractM3 spec, then also with its FlipM4 spec."""
    insert = (MoveSpec("InsertBivalentM2", edge=e, color=BLACK),
              MoveSpec("InsertBivalentM2", edge=e, color=WHITE))
    contract = (*insert, MoveSpec("ContractM3", edge=e))
    return insert, contract, (*contract, MoveSpec("FlipM4", edge=e))


@lru_cache(maxsize=1 << 14)
def _vertex_specs(v):
    """The sites of degree-2 vertex id v when it carries only a loop, is
    removable, and is a NormalFlip site: (), then its RemoveBivalentM2
    spec, then also its NormalFlip spec."""
    remove = (MoveSpec("RemoveBivalentM2", vertex=v),)
    return (), remove, (*remove, MoveSpec("NormalFlip", vertex=v))


def _vertex_sites(g: PlabicGraph, v):
    """The sites at internal vertex v: RemoveBivalentM2 and NormalFlip at
    degree 2, the SplitM3 arcs at degree >= 4."""
    ds = g._rot[v]
    deg = len(ds)
    if deg == 2:
        specs = _vertex_specs(v)
        if not _removable(ds):
            return specs[0]
        return specs[2] if _is_normal_flip_site(g, v) else specs[1]
    if deg < 4:
        return ()
    return tuple([MoveSpec("SplitM3", vertex=v, start=start, length=length)
                  for start in range(deg) for length in range(2, deg - 1)])


def _edge_sites(g: PlabicGraph, k):
    """The sites on the edge of index k: InsertBivalentM2 of both colours,
    ContractM3 and FlipM4; none at a hole."""
    e = g._edge_ids[k]
    if e is None:
        return ()
    specs = _edge_specs(e)
    dv, rot = g._dart_vertex, g._rot
    u, w = dv[2 * k], dv[2 * k + 1]
    if not _contractible(g._colors, u, w):
        return specs[0]
    return specs[2] if _trivalent(rot, (u, w)) else specs[1]


def _derive_sites(g: PlabicGraph):
    """The fact "sites", ``(vertex sites, edge sites)``: a dict from each
    internal vertex with sites to its tuple of specs, and a list of the
    tuples of specs of each edge index, empty at the holes."""
    vertex_sites = {}
    for v in g._colors:
        part = _vertex_sites(g, v)
        if part:
            vertex_sites[v] = part
    return vertex_sites, [_edge_sites(g, k) for k in range(len(g._edge_ids))]


def _patch_sites(g: PlabicGraph, sites, gone, edited, touched):
    """The fact "sites" from the sites of the graph g was made from by a
    move: only the sites a move can change are derived again, at the
    vertices whose rotations changed, at their neighbours (a NormalFlip
    site reads its neighbours' colours and degrees) and on the edges at
    the former or in ``gone``, the edge indices the move emptied.  A
    parent's edge at an edited vertex is one or the other."""
    pvertex, pedge = sites
    rot, dv, colors = g._rot, g._dart_vertex, g._colors
    vertex_sites = pvertex.copy()
    redo = set(gone)  # edge indices
    near = set(edited)
    for v in touched:
        for x in rot[v]:
            redo.add(x >> 1)
            near.add(dv[x ^ 1])
    for v in near:
        # an untouched vertex keeps its degree, so only a NormalFlip
        # site can come or go there
        if v < 0 or v not in edited and len(rot[v]) != 2:
            continue
        part = _vertex_sites(g, v) if v in colors else ()
        if part:
            vertex_sites[v] = part
        else:
            vertex_sites.pop(v, None)
    n, pn = len(g._edge_ids), len(pedge)
    edge_sites = pedge[:n] if n <= pn else pedge + [()] * (n - pn)
    for k in redo:
        if k < n:
            edge_sites[k] = _edge_sites(g, k)
    return vertex_sites, edge_sites


_FACTS["sites"], _PATCHES["sites"] = _derive_sites, _patch_sites


def legal_moves(g: PlabicGraph):
    """All applicable move sites, in a new list on every call.

    SplitM3 sites are enumerated for arcs of length 2..deg-2 (splits that
    keep both parts at degree >= 3); other arc lengths are still accepted by
    ``apply_move`` when given explicitly.  SquareM1 specs carry a
    ``condition_ok`` flag telling whether the four surrounding faces are
    consecutively distinct (square moves violating it are still legal, but
    they do not commute with quiver mutation).

    Specs come in a fixed order: face sites by face index, then vertex
    sites by vertex id, then edge sites by edge index.  The face sites are
    found on every call.  The vertex and edge sites are derived once per
    graph, and a graph made by a move re-derives only those at the
    vertices the move touched, at their neighbours and on their edges,
    keeping its parent's others (``_patch_sites``).
    """
    rot = g._rot
    out = []
    faces = g._fact("faces")[0]
    for idx, vs in _alternating_quads(g, faces):
        face = faces[idx]
        if _trivalent(rot, vs):
            out.append(MoveSpec("SquareM1", face=idx,
                                condition_ok=_square_condition_ok(g, face)))
        if _urban_corners_ok(g, face, vs):
            out.append(MoveSpec("UrbanRenewal", face=idx))
    vertex_sites, edge_sites = g._fact("sites")
    for v in sorted(vertex_sites):
        out += vertex_sites[v]
    for part in edge_sites:
        out += part
    return out


# ----------------------------------------------------------------------
# application


def apply_move(g: PlabicGraph, m: MoveSpec) -> PlabicGraph:
    """Rewrite the graph by one move; raises IllegalMove on a malformed
    spec or a bad site."""
    return _apply(g, _checked(m))[0]


def _apply(g: PlabicGraph, m: MoveSpec):
    """Apply a move; returns (new graph, inverse MoveSpec): ``_build``,
    then ``_frozen``."""
    h, inv = _build(g, m)
    return _frozen(h), inv


def _build(g: PlabicGraph, m: MoveSpec):
    """Apply a move without freezing its result; returns (result, inverse
    MoveSpec).  The result is the ``Builder`` the move edited, or, for
    UrbanRenewal, which reads the new faces, the frozen graph; so every
    search move gives a builder.  Either has ``canonical_key``, so a
    caller may key the result and drop it unfrozen.  ``apply_move`` checks
    the spec; the search builds only specs that ``legal_moves`` listed.
    """
    return _BUILD[m.kind](g, m)


def _frozen(h):
    """The graph of a ``_build`` result: a builder frozen, a graph as is."""
    return h.freeze() if type(h) is Builder else h


def _face_at(g, idx):
    faces = g._fact("faces")[0]
    if idx is None or not 0 <= idx < len(faces):
        raise IllegalMove(f"no face with index {idx}")
    return faces[idx]


def _apply_square(g, m):
    vs = _alternating_quad(g, _face_at(g, m.face))
    if vs is None or not _trivalent(g._rot, vs):
        raise IllegalMove(f"face {m.face} is not a square-move site")
    bld = Builder(g)
    for v in vs:
        bld.recolor(v, other_color(g._colors[v]))
    return bld, MoveSpec("SquareM1", face=m.face)


def _apply_remove_bivalent(g, m):
    v = m.vertex
    if v not in g._colors or g.degree(v) != 2:
        raise IllegalMove(f"vertex {v} is not an internal bivalent vertex")
    if not _removable(g._rot[v]):
        raise IllegalMove(f"vertex {v} carries only a loop")
    d1, d2 = g._rot[v]
    color = g.color(v)
    kept = min(g.edge_id(d1), g.edge_id(d2))
    bld = Builder(g)
    bld.remove_bivalent(v)
    return bld, MoveSpec("InsertBivalentM2", edge=kept, color=color)


def _apply_insert_bivalent(g, m):
    if m.color not in (BLACK, WHITE):
        raise IllegalMove(f"insertion needs a color, got {m.color!r}")
    d, _ = _edge_darts(g, m.edge)
    bld = Builder(g)
    w = bld.insert_bivalent(d, m.color)
    return bld, MoveSpec("RemoveBivalentM2", vertex=w)


def _apply_contract(g, m):
    d0, d1 = _edge_darts(g, m.edge)
    u, v = g._dart_vertex[d0], g._dart_vertex[d1]
    if not _contractible(g._colors, u, v):
        raise IllegalMove(f"edge {m.edge} is not a contractible unicolored edge")
    d = d0 if u < v else d1
    bld = Builder(g)
    survivor = bld.dv[d]
    j = bld.rot[survivor].index(d)
    fan = bld.degree(bld.other_end(d)) - 1
    bld.contract(d)
    return bld, MoveSpec("SplitM3", vertex=survivor, start=j, length=fan)


def _apply_split(g, m):
    v = m.vertex
    if v not in g._colors:
        raise IllegalMove(f"vertex {v} is not internal")
    deg = g.degree(v)
    if m.start is None or m.length is None or not 0 <= m.length <= deg:
        raise IllegalMove(f"bad split arc (start={m.start}, length={m.length})")
    bld = Builder(g)
    link = bld.split(v, m.start % max(deg, 1), m.length)
    return bld, MoveSpec("ContractM3", edge=bld.ids[link >> 1])


def _apply_flip(g, m):
    d0, d1 = _edge_darts(g, m.edge)
    u, v = g._dart_vertex[d0], g._dart_vertex[d1]
    if not (_contractible(g._colors, u, v) and _trivalent(g._rot, (u, v))):
        raise IllegalMove(f"edge {m.edge} is not a flip site")
    bld = Builder(g)
    link = _flip(bld, d0)
    return bld, MoveSpec("FlipM4", edge=bld.ids[link >> 1])


def _flip(bld, d):
    """Flip the trivalent-trivalent edge of dart d: contract it into its
    smaller endpoint, then split that vertex the other way.  Returns the new
    edge's dart."""
    if bld.dv[d] > bld.other_end(d):
        d ^= 1
    survivor = bld.dv[d]
    j = bld.rot[survivor].index(d)
    bld.contract(d)
    return bld.split(survivor, (j + 1) % 4, 2)


def _apply_urban(g, m):
    face = _face_at(g, m.face)
    vs = _alternating_quad(g, face)
    if vs is None or not _urban_corners_ok(g, face, vs):
        raise IllegalMove(f"face {m.face} is not an urban renewal site")
    side_darts = set()
    for d in face.darts:
        side_darts.add(d)
        side_darts.add(g.twin(d))
    walk = list(face.darts)
    bld = Builder(g)
    # push out the black corners
    new_whites = []
    for k, d in enumerate(walk):
        bq = g.dart_vertex(g.twin(d))  # vertex the walk enters after dart d
        if g.color(bq) != BLACK:
            continue
        rot = bld.rot[bq]
        i = rot.index(g.twin(d))
        assert rot[(i + 1) % len(rot)] == walk[(k + 1) % 4]
        # split the adjacent pair (twin(d), next walk dart) off to a new white
        link = bld.split(bq, i, 2, WHITE)
        new_whites.append(bld.other_end(link))
    # recolor the white corners black and absorb their outside neighbors
    merged = []
    for v in vs:
        if g.color(v) != WHITE:
            continue
        bld.recolor(v, BLACK)
        outside = [d for d in bld.rot[v] if d not in side_darts]
        (od,) = outside
        # far end black: _urban_corners_ok checked it; splits move only side darts
        bld.contract(od)
        merged.append(v)
    out = bld.freeze()
    new_square = set(new_whites) | set(merged)
    inv_face = None
    for idx, f in enumerate(out._fact("faces")[0]):
        if f.kind == "internal" and len(f.darts) == 4:
            if {out.dart_vertex(d) for d in f.darts} == new_square:
                inv_face = idx
                break
    return out, MoveSpec("UrbanRenewal", face=inv_face)


def _apply_normal_flip(g, m):
    v = m.vertex
    if not _is_normal_flip_site(g, v):
        raise IllegalMove(f"vertex {v} is not a normal-flip site")
    bld = Builder(g)
    # the edge that survives the removal is the white-white edge
    nb = bld.insert_bivalent(_flip(bld, bld.remove_bivalent(v)), BLACK)
    return bld, MoveSpec("NormalFlip", vertex=nb)


# kind -> its ``_apply_*``; the order is the public order of ``KINDS``
_BUILD = {
    "SquareM1": _apply_square,
    "InsertBivalentM2": _apply_insert_bivalent,
    "RemoveBivalentM2": _apply_remove_bivalent,
    "ContractM3": _apply_contract,
    "SplitM3": _apply_split,
    "FlipM4": _apply_flip,
    "UrbanRenewal": _apply_urban,
    "NormalFlip": _apply_normal_flip,
}
KINDS = tuple(_BUILD)


# ----------------------------------------------------------------------
# move equivalence


@dataclass
class EquivalenceResult:
    verdict: str  # "equivalent" | "not_equivalent" | "unknown"
    certificate: list = None
    reason: str = ""
    # set when the search ran: states recorded and layers grown, each as
    # (g1's side, g2's side); a layer cut short by a meeting or by the
    # state cap counts as grown
    states: tuple = None
    depth: tuple = None

    @property
    def equivalent(self):
        return self.verdict == "equivalent"


_STATE_CAP = 200_000


def _search_moves(g: PlabicGraph):
    """Moves explored by the bounded search."""
    return [m for m in legal_moves(g) if m.kind in _SEARCH_KINDS]


def _leaves(g: PlabicGraph) -> int:
    """Internal vertices of degree 1."""
    rot = g._rot
    return sum(len(rot[v]) == 1 for v in g._colors)


def _backward_moves(g: PlabicGraph, grow_leaves: bool):
    """Candidate moves from a state on g2's side: the search moves, plus,
    when ``grow_leaves``, a leaf of the vertex's own colour at every
    rotation slot (undone by a ContractM3 search move)."""
    moves = _search_moves(g)
    if grow_leaves:
        moves += [
            MoveSpec("SplitM3", vertex=v, start=s, length=0)
            for v in sorted(g._colors)
            for s in range(len(g._rot[v]))
        ]
    return moves


def _undoable(h, inv: MoveSpec) -> bool:
    """Whether the inverse ``inv`` returned by ``_build`` is a search move
    at ``h``, a search move's builder.  Only SplitM3 can fail: ``legal_moves``
    lists arcs of length 2..deg-2, while undoing the contraction of an
    edge with a bivalent or leaf end needs length 1 or 0."""
    return inv.kind != "SplitM3" or 2 <= inv.length <= h.degree(inv.vertex) - 2


def move_equivalent(
    g1: PlabicGraph, g2: PlabicGraph, budget: int = 6, want_certificate: bool = False
):
    """Decide move equivalence.

    Reduced graphs are decided instantly by comparing decorated trip
    permutations (no certificate, unless ``want_certificate`` forces the
    search).  Otherwise a bidirectional breadth-first search over the
    search moves (square, bivalent insertion and removal, contraction and
    split) looks for a chain of at most ``budget`` moves from g1 to g2 and
    either returns it as a certificate or gives up with "unknown".

    Each side maps canonical keys to (parent key, move), and its frontier
    holds (key, state) pairs.  A child is keyed before it is frozen: its
    state is the ``Builder`` that ``_build`` returns, and it is frozen
    only when its layer is expanded, so children on a side's last layer
    and children already seen are never frozen.  The shallower side grows
    one layer at a time, g1's side first, so g1's side reaches depth
    ceil(budget/2) and g2's side floor(budget/2); a new key is
    checked against the other side before its own, so the first meeting
    gives a shortest chain.  g2's side must hold only graphs that reach g2
    by search moves, and all of those within its depth.  So it keeps a
    move only when the inverse ``_build`` returns is a search move (see
    ``_undoable``), and while it holds fewer leaves than g1 it also hangs
    new leaves: contracting a leaf into a vertex of degree >= 3 is a
    search move that no search move undoes, and since no search move adds
    a leaf, a state with more leaves than g1 is out of g1's reach.  The
    certificate is g1's path to the meeting state, then at each step back
    to g2 the first search move whose result has the next key (each
    candidate is keyed unfrozen, and only the match is frozen).  The state
    cap counts both sides.
    """
    message = "budget must be a non-negative integer, got {}"
    if _ints((budget,), BadBudget, message)[0] < 0:
        raise BadBudget(message.format(_show(budget)))
    if trip_permutation(g1) != trip_permutation(g2):
        return EquivalenceResult(
            "not_equivalent", reason="trip permutations differ"
        )
    r1, r2 = g1._fact("is_reduced"), g2._fact("is_reduced")
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
    if g1 == g2:
        return EquivalenceResult("equivalent", certificate=[], reason="isomorphic")
    # key -> (parent key, move applied to the parent's graph); the roots
    # map to None
    k1, k2 = g1.canonical_key(), g2.canonical_key()
    sides = ({k1: None}, {k2: None})
    frontiers = [[(k1, g1)], [(k2, g2)]]
    depth = [0, 0]
    leaves = _leaves(g1)

    def result(verdict, reason, certificate=None):
        return EquivalenceResult(verdict, certificate, reason,
                                 states=tuple(map(len, sides)), depth=tuple(depth))

    while depth[0] + depth[1] < budget and all(frontiers):
        s = 0 if depth[0] <= depth[1] else 1
        own, other = sides[s], sides[1 - s]
        depth[s] += 1
        nxt = []
        for gkey, state in frontiers[s]:
            g = _frozen(state)
            moves = _search_moves(g) if s == 0 else _backward_moves(g, _leaves(g) < leaves)
            for mv in moves:
                try:
                    h, inv = _build(g, mv)
                except IllegalMove:  # pragma: no cover
                    continue
                if s == 1 and not _undoable(h, inv):
                    continue
                key = h.canonical_key()
                if key in other:
                    own[key] = (gkey, mv)
                    return result("equivalent", "found by search",
                                  _certificate(g1, sides, key))
                if key in own:
                    continue
                own[key] = (gkey, mv)
                nxt.append((key, h))
                if len(sides[0]) + len(sides[1]) > _STATE_CAP:
                    return result("unknown", "state budget exhausted")
        frontiers[s] = nxt
    return result("unknown", f"no certificate within budget {budget}")


def _certificate(g1: PlabicGraph, sides, meet):
    """The moves from g1 to the meeting key along g1's side, then back to
    g2 along g2's side, each replayed on the concrete graph reached."""
    forward, backward = sides
    path = []
    key = meet
    while forward[key] is not None:
        key, mv = forward[key]
        path.append(mv)
    path.reverse()
    if backward[meet] is None:  # met at g2 itself
        return path
    x = g1
    for mv in path:
        x = apply_move(x, mv)
    key = meet
    while backward[key] is not None:
        key = backward[key][0]
        for mv in _search_moves(x):
            h = _build(x, mv)[0]
            if h.canonical_key() == key:
                break
        else:  # pragma: no cover
            raise AssertionError("g2's side recorded a move no search move undoes")
        path.append(mv)
        x = _frozen(h)
    return path
