"""Plabic graphs as rotation systems in a disk.

A plabic graph is stored as a half-edge (dart) structure: every edge
contributes two darts that are twins of each other, and every vertex holds
the cyclic list of its incident darts in *clockwise* order as drawn.
Boundary vertices are uncolored, carry ids ``-1 .. -b`` (id ``-i`` is the
boundary vertex labeled ``i``), and are incident to exactly one edge.
Internal vertices have nonnegative ids and are black or white.

Graphs are immutable values; every operation returns a new graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

from .errors import InvalidGraph, TripDoesNotTerminate

BLACK = "black"
WHITE = "white"


def other_color(c: str) -> str:
    return WHITE if c == BLACK else BLACK


def _int_id(x):
    """A vertex or edge id from JSON: an integer, and not a boolean."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"ids must be integers, got {x!r}")
    return x


def _parse_json_obj(obj):
    """``(b, colors, rotation, declared edge ids)`` of a graph JSON object.

    Raises InvalidGraph when the object does not have the format's shape;
    ``_checked_graph`` checks the values.
    """
    try:
        b = obj["b"]
        colors = {_int_id(v["id"]): v["color"] for v in obj.get("vertices", [])}
        rotation = {int(v): list(es) for v, es in obj.get("rotation", {}).items()}
        declared = {_int_id(e["id"]) for e in obj.get("edges", [])}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph([f"malformed graph object: {exc}"])
    return b, colors, rotation, declared


def _orbit(nxt, d0, limit):
    """Darts from d0 along ``nxt`` until it returns to d0 or reaches -1.

    Faces and trips are both orbits of a successor table over darts; an
    orbit longer than ``limit`` means the table is corrupt.
    """
    darts = [d0]
    d = nxt[d0]
    while d != -1 and d != d0:
        darts.append(d)
        if len(darts) > limit:
            raise TripDoesNotTerminate(f"orbit from dart {d0} runs past {limit} darts")
        d = nxt[d]
    return darts


def _face_of_walk(walk, inward, b):
    """The face traced as ``walk``, an orbit of graph darts; ``inward``
    maps the dart into boundary label i to i, and the walk crosses rim arc
    i - 1 (arc b for i = 1) right after that dart."""
    into = inward.keys() & walk
    if not into:
        return Face("internal", tuple(walk), ())
    arcs = tuple([(inward[x] - 2) % b + 1 for x in sorted(into, key=walk.index)])
    return Face("boundary", tuple(walk), arcs)


@dataclass(frozen=True)
class Face:
    """One face of the rim-augmented graph.

    ``kind`` is "internal", "boundary" or "outer".  ``darts`` lists the graph
    darts of the boundary walk in order; ``rim_arcs`` lists the indices i of
    the rim arcs (joining boundary labels i and i+1) traversed by the walk.
    """

    kind: str
    darts: tuple
    rim_arcs: tuple


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)


class PlabicGraph:
    """Immutable plabic graph.

    Darts are integers ``2k`` and ``2k+1`` for edge index ``k``; the twin of
    dart ``d`` is ``d ^ 1``.  Edge index ``k`` carries the public edge id
    ``_edge_ids[k]`` used by the JSON format.  Edge indices follow edge-id
    order but may have holes: a graph made by a move keeps the dart numbers
    of its parent, so the indices of removed edges hold ``None`` and their
    darts are unused.  ``_dart_bound()`` is the index bound; the rim
    entries of ``face_of_dart()`` start there.  Of an edge's two darts the
    even one is the first met in (vertex id, rotation position) order, so
    the order of the darts depends only on the ids and rotations.

    Facts derived from a graph are computed once and kept in ``_cache``,
    which is safe because the graph never changes.  Its keys: "valid"
    (``from_rotation``/``from_json`` accepted the graph), "edge_index",
    "faces", "face_of_dart" and "face_next" (the face tables; the last
    holds the successor table and ``_inward()``), "base" (the parent's
    face tables to patch, until ``faces`` runs), "sites" (the vertex and
    edge move sites, ``moves._sites``), "site_base" (the parent's sites to
    re-derive from, until ``legal_moves`` runs), "ckey"
    (``canonical_key``), "classify", "trips", "decorated",
    ("face_labels", mode), "normalize", "is_reduced" and "bad_features".
    A graph made by a move may start with its parent's "faces",
    "face_of_dart" and "face_next" (a square move keeps the rotations),
    with "base" and with "site_base"; it inherits no other key.
    """

    __slots__ = ("b", "_colors", "_rot", "_dart_vertex", "_edge_ids", "_cache")

    def __init__(self, b, colors, rot, edge_ids):
        self.b = b
        self._colors = dict(colors)
        self._rot = {v: tuple(ds) for v, ds in rot.items()}
        self._edge_ids = tuple(edge_ids)
        dv = {}
        for v, ds in self._rot.items():
            for d in ds:
                dv[d] = v
        self._dart_vertex = dv
        self._cache = {}

    @staticmethod
    def _from_parts(b, colors, rot, dart_vertex, edge_ids):
        """A graph that holds the given parts without copying them: the
        caller hands them over, or shares them with another immutable graph.
        """
        g = object.__new__(PlabicGraph)
        g.b = b
        g._colors = colors
        g._rot = rot
        g._dart_vertex = dart_vertex
        g._edge_ids = edge_ids
        g._cache = {}
        return g

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def from_rotation(b, colors, rotation):
        """Build a graph from rotation lists of *edge ids*.

        ``rotation`` maps every vertex id (boundary ids ``-1..-b`` included)
        to its clockwise list of incident edge ids; a loop's id appears twice
        in its vertex's list.
        """
        report, g = _checked_graph(b, colors, rotation)
        if not report.ok:
            raise InvalidGraph(report.problems)
        g._cache["valid"] = True
        return g

    @staticmethod
    def from_json(text_or_obj):
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        report, g = _checked_json(obj)
        if not report.ok:
            raise InvalidGraph(report.problems)
        g._cache["valid"] = True
        return g

    def to_json_obj(self):
        rotation = {}
        for v in sorted(self._rot):
            rotation[str(v)] = [self.edge_id(d) for d in self._rot[v]]
        return {
            "b": self.b,
            "vertices": [
                {"id": v, "color": self._colors[v]} for v in sorted(self._colors)
            ],
            "edges": [{"id": e} for e in sorted(self.edge_ids)],
            "rotation": rotation,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    # ------------------------------------------------------------------
    # basic accessors

    def twin(self, d: int) -> int:
        return d ^ 1

    def dart_vertex(self, d: int) -> int:
        return self._dart_vertex[d]

    def edge_id(self, d: int) -> int:
        return self._edge_ids[d >> 1]

    def darts_of_edge(self, edge_id: int):
        """The two darts of an edge; ValueError for an unknown edge id."""
        index = self._cache.get("edge_index")
        if index is None:
            index = dict(zip(self._edge_ids, range(len(self._edge_ids))))
            index.pop(None, None)  # the holes
            self._cache["edge_index"] = index
        k = index.get(edge_id)
        if k is None:
            raise ValueError(f"no edge with id {edge_id!r}")
        return 2 * k, 2 * k + 1

    def edge_endpoints(self, edge_id: int):
        d0, d1 = self.darts_of_edge(edge_id)
        return self._dart_vertex[d0], self._dart_vertex[d1]

    @property
    def edge_ids(self):
        """The public edge ids, in edge-index order (increasing in every
        graph the library builds)."""
        ids = self._edge_ids
        if 2 * len(ids) == len(self._dart_vertex):
            return ids
        return tuple([e for e in ids if e is not None])

    def internal_vertices(self):
        return sorted(self._colors)

    def boundary_vertices(self):
        return [-i for i in range(1, self.b + 1)]

    def color(self, v: int) -> str:
        return self._colors[v]

    def is_boundary(self, v: int) -> bool:
        return v < 0

    def rotation(self, v: int):
        return self._rot[v]

    def degree(self, v: int) -> int:
        return len(self._rot[v])

    def neighbors(self, v: int):
        return [self._dart_vertex[d ^ 1] for d in self._rot[v]]

    def num_darts(self) -> int:
        return len(self._dart_vertex)

    def _dart_bound(self) -> int:
        """One past the largest dart number a graph dart may have."""
        return 2 * len(self._edge_ids)

    def boundary_dart(self, label: int) -> int:
        """The unique dart based at the boundary vertex with this label."""
        return self._rot[-label][0]

    def rot_next(self, d: int) -> int:
        """Clockwise successor of dart d around its base vertex."""
        ds = self._rot[self._dart_vertex[d]]
        return ds[(ds.index(d) + 1) % len(ds)]

    def rot_prev(self, d: int) -> int:
        ds = self._rot[self._dart_vertex[d]]
        return ds[(ds.index(d) - 1) % len(ds)]

    def is_loop(self, edge_id: int) -> bool:
        u, v = self.edge_endpoints(edge_id)
        return u == v

    def is_lollipop(self, v: int) -> bool:
        """Internal degree-1 vertex hanging off a boundary vertex."""
        if v < 0 or len(self._rot[v]) != 1:
            return False
        return self._dart_vertex[self._rot[v][0] ^ 1] < 0

    # ------------------------------------------------------------------
    # faces

    def faces(self):
        """All faces of the rim-augmented graph, deterministic order.

        The rim adds one arc per boundary label i, joining labels i and
        i+1, and clockwise at label i come: arc i, the graph dart, arc
        i-1.  Faces are the orbits of ``next(d) = clockwise successor of
        d ^ 1``, which keeps the traced face on the left of every dart
        (``_fill_successors``, which fills the trip table too).
        The arcs are not darts of the successor table: a walk into label
        i crosses arc i-1 and goes on along the dart of label i-1, so the
        table maps graph darts to graph darts, and the outer face, the
        one face without graph darts, holds the arcs in increasing order.
        Orbits are started from every graph dart in increasing order, so
        faces come in the order of their smallest darts, which fixes the
        order that ``MoveSpec.face`` indexes into; the outer face is last.

        A graph made by a move from a graph whose faces were traced starts
        from that graph's tables: it keeps the faces the move did not
        change and walks the others afresh from the darts whose
        successors changed (``_patch_faces``).
        """
        cache = self._cache
        faces = cache.get("faces")
        if faces is None:
            base = cache.pop("base", None)
            if base is None:
                faces, face_of, nxt, inward = self._trace_faces()
            else:
                faces, face_of, nxt, inward = self._patch_faces(*base)
            cache["faces"] = faces
            cache["face_of_dart"] = face_of
            cache["face_next"] = (nxt, inward)
        return faces

    def _fill_successors(self, nxt, vertices, black=1):
        """Set ``nxt[d]`` for the darts d whose twins are based at
        ``vertices``: the dart one place clockwise from ``d ^ 1``, or
        ``black`` places at a black vertex, and for the dart into boundary
        label i the dart of label i - 1, across arc i - 1.  Faces turn the
        same way everywhere (``black=1``); trips turn back at black
        vertices (``black=-1``, over internal vertices only)."""
        b, rot, colors = self.b, self._rot, self._colors
        for v in vertices:
            ds = rot[v]
            if v < 0:  # across arc -v-1 to the dart of label -v-1
                nxt[ds[0] ^ 1] = rot[-((-v - 2) % b) - 1][0]
                continue
            m = len(ds)
            k = -1 if black < 0 and colors[v] == BLACK else 1 - m  # ds[j + k] wraps around
            for j in range(m):
                nxt[ds[j] ^ 1] = ds[j + k]

    def _inward(self):
        """The darts into boundary labels 1..b, in label order, each mapped
        to its label."""
        rot, b = self._rot, self.b
        return dict(zip([rot[v][0] ^ 1 for v in range(-1, -b - 1, -1)], range(1, b + 1)))

    @staticmethod
    def _add_rim(face_of, inward, outer):
        """Append the rim part to ``face_of``: the forward dart of arc i
        (at index bound + 2(i - 1)) lies in face ``outer``, the backward
        dart after it in the face of the dart into label i + 1."""
        ins = list(inward)
        part = [outer] * (2 * len(ins))
        part[1::2] = map(face_of.__getitem__, ins[1:] + ins[:1])
        face_of += part

    def _trace_faces(self):
        """``(faces, face_of, nxt, inward)`` traced from scratch: ``nxt`` is
        the face-successor table over graph darts, -1 at the holes, and
        ``inward`` is ``_inward()``."""
        n = self._dart_bound()
        nxt = [-1] * n
        self._fill_successors(nxt, self._rot)
        inward = self._inward()
        face_of = [-1] * n  # dart -> index of its face; -1 at the holes
        faces = []
        for start in range(n):
            if face_of[start] >= 0 or nxt[start] < 0:
                continue
            walk = _orbit(nxt, start, n)
            idx = len(faces)
            for d in walk:
                face_of[d] = idx
            faces.append(_face_of_walk(walk, inward, self.b))
        self._add_rim(face_of, inward, len(faces))
        faces.append(Face("outer", (), tuple(range(1, self.b + 1))))
        return faces, face_of, nxt, inward

    def _patch_faces(self, pfaces, pface_of, pnxt, pinward, prot, edited, touched):
        """``_trace_faces`` from the tables of the graph this one was made
        from by a local edit, and its rotations ``prot``.  ``touched`` are
        the vertices of this graph whose rotations differ from ``prot``,
        and ``edited`` those and the vertices the edit removed.

        A cut is a dart whose successor differs from the parent's, which
        makes it an in-dart of a touched vertex.  A face of the parent
        with no cut and no removed dart is kept, since it keeps its dart
        numbers; the others are dirty, and their darts lie on the new
        walks, each an orbit from a cut.  New walks take the places of
        the dirty faces when that keeps the faces sorted by smallest dart,
        so that no kept face changes index; else kept and new faces are
        merged in that order.
        """
        b, rot, dv = self.b, self._rot, self._dart_vertex
        n, pn = self._dart_bound(), len(pnxt)
        if n <= pn:
            nxt, face_of = pnxt[:n], pface_of[:n]
        else:
            nxt, face_of = pnxt + [-1] * (n - pn), pface_of[:pn] + [-1] * (n - pn)
        dirty = set()  # the indices of the dirty faces in the parent
        for v in edited:  # the removed darts become holes
            for x in prot.get(v, ()):
                if x not in dv:
                    dirty.add(pface_of[x])
                    if x < n:
                        nxt[x] = face_of[x] = -1
        if touched and min(touched) < 0:
            # the dart into label i goes on along the dart of label i - 1
            touched = {*touched, *[-(-v % b) - 1 for v in touched if v < 0]}
            inward = self._inward()
        else:
            inward = pinward
        self._fill_successors(nxt, touched)
        cuts = []
        for v in touched:
            for x in rot[v]:
                y = x ^ 1
                if y >= pn:
                    cuts.append(y)
                elif nxt[y] != pnxt[y]:
                    cuts.append(y)
                    dirty.add(pface_of[y])
        dirty.discard(-1)  # a cut in a hole of the parent
        walks = []
        seen = set()  # the darts of the new walks so far
        for c in cuts:
            if c not in seen:
                walk = _orbit(nxt, c, n)
                seen.update(walk)
                i = walk.index(min(walk))  # the smallest dart starts the face
                walks.append(walk[i:] + walk[:i])
        walks.sort()
        faces = pfaces[:-1]  # the outer face goes last
        places = sorted(dirty)
        in_order = len(places) == len(walks)
        if in_order:  # sorted walks in sorted places: check them against kept faces
            for idx, walk in zip(places, walks):
                w0 = walk[0]
                if (idx and idx - 1 not in dirty and faces[idx - 1].darts[0] > w0
                        or idx + 1 < len(faces) and idx + 1 not in dirty
                        and faces[idx + 1].darts[0] < w0):
                    in_order = False
                    break
        if not in_order:  # merge kept and new faces by smallest dart
            order = sorted([*[(f.darts[0], i) for i, f in enumerate(pfaces[:-1])
                              if i not in dirty],
                            *[(walk[0], -1 - j) for j, walk in enumerate(walks)]])
            remap = [-1] * len(pfaces)  # a dirty face's darts are all re-placed
            faces, places = [], []
            for idx, (_, i) in enumerate(order):
                if i < 0:
                    places.append(idx)
                    faces.append(None)
                else:
                    remap[i] = idx
                    faces.append(pfaces[i])
            remap.append(-1)  # remap[-1] keeps the holes
            face_of = [remap[i] for i in face_of]
        for idx, walk in zip(places, walks):
            for d in walk:
                face_of[d] = idx
            faces[idx] = _face_of_walk(walk, inward, b)
        self._add_rim(face_of, inward, len(faces))
        faces.append(pfaces[-1])
        return faces, face_of, nxt, inward

    def nonouter_faces(self):
        return self.faces()[:-1]  # the outer face is last

    def face_of_dart(self):
        """The index into ``faces()`` of each dart's face, as a list indexed
        by dart: the graph darts up to the index bound (-1 at the holes),
        then the rim darts ``faces`` adds."""
        self.faces()
        return self._cache["face_of_dart"]

    def euler_ok(self) -> bool:
        if self.b == 0:
            return not self._colors and not self._dart_vertex
        v = len(self._colors) + self.b
        e = len(self._dart_vertex) // 2 + self.b
        f = len(self.faces())
        return v - e + f == 2

    # ------------------------------------------------------------------
    # equality and canonical form

    def canonical_key(self):
        """Canonical serialization, invariant under internal relabeling.

        Internal vertices and edges are renumbered by a deterministic
        traversal anchored at the boundary labels, so two graphs have equal
        keys iff they are isomorphic by a boundary-label-preserving map that
        respects rotations.
        """
        key = self._cache.get("ckey")
        if key is None:
            key = self._cache["ckey"] = _canonical_key(
                self.b, self._colors, self._rot, self._dart_vertex)
        return key

    def __eq__(self, other):
        if not isinstance(other, PlabicGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (
            f"PlabicGraph(b={self.b}, vertices={len(self._colors)}, "
            f"edges={len(self._dart_vertex) // 2})"
        )

    # ------------------------------------------------------------------
    # exporters (display only)

    def to_dot(self) -> str:
        lines = ["graph plabic {"]
        for i in range(1, self.b + 1):
            lines.append(f'  b{i} [shape=none, label="{i}"];')
        for v in sorted(self._colors):
            fill = "black" if self._colors[v] == BLACK else "white"
            fc = "white" if fill == "black" else "black"
            lines.append(
                f'  v{v} [shape=circle, style=filled, fillcolor={fill}, '
                f'fontcolor={fc}, label="{v}"];'
            )

        def name(v):
            return f"b{-v}" if v < 0 else f"v{v}"

        for e in sorted(self.edge_ids):
            u, v = self.edge_endpoints(e)
            lines.append(f"  {name(u)} -- {name(v)} [label={e}];")
        lines.append("}")
        return "\n".join(lines)

    def to_tikz(self) -> str:
        import math

        pos = {}
        for i in range(1, self.b + 1):
            ang = math.pi / 2 - 2 * math.pi * (i - 1) / max(self.b, 1)
            pos[-i] = (3 * math.cos(ang), 3 * math.sin(ang))
        internal = sorted(self._colors)
        n = max(len(internal), 1)
        for j, v in enumerate(internal):
            ang = 2 * math.pi * j / n
            pos[v] = (1.5 * math.cos(ang), 1.5 * math.sin(ang))
        lines = ["\\begin{tikzpicture}", "  \\draw (0,0) circle (3);"]
        for v, (x, y) in pos.items():
            if v < 0:
                lines.append(
                    f"  \\node[label={-v}] (n{abs(v)}b) at ({x:.2f},{y:.2f}) {{}};"
                )
                lines.append(f"  \\fill ({x:.2f},{y:.2f}) circle (1.5pt);")
            else:
                style = "fill" if self._colors[v] == BLACK else "draw"
                lines.append(f"  \\{style} ({x:.2f},{y:.2f}) circle (2.5pt);")

        def coord(v):
            x, y = pos[v]
            return f"({x:.2f},{y:.2f})"

        for e in sorted(self.edge_ids):
            u, v = self.edge_endpoints(e)
            lines.append(f"  \\draw {coord(u)} -- {coord(v)};")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# construction and validation


def _canonical_key(b, colors, rot, dv):
    """The canonical key of a rotation system, in one breadth-first pass.

    The queue starts with the boundary darts in label order.  Dequeuing a
    dart d reaches the vertex w of ``d ^ 1``; the first time w is reached
    it writes the row (colour, edge numbers of its darts clockwise from
    ``d ^ 1``) and queues its other darts.  An edge is numbered when its
    first dart is queued, which, the queue being FIFO, gives the numbers
    that numbering at dequeue would.  The key reads only rotations and the
    ``d ^ 1`` pairing, so it does not depend on the dart numbers.
    """
    edge_new = {}
    queue = []
    for label in range(1, b + 1):
        d = rot[-label][0]
        queue.append(d)
        if d >> 1 not in edge_new:
            edge_new[d >> 1] = len(edge_new)
    bdry = [("bdry", edge_new[d >> 1]) for d in queue]
    out = [b]
    seen = set()
    for d in queue:  # grows while it is read
        t = d ^ 1
        w = dv[t]
        if w < 0 or w in seen:
            continue
        seen.add(w)
        ds = rot[w]
        i = ds.index(t)
        row = [colors[w], edge_new[d >> 1]]
        for dd in ds[i + 1:] + ds[:i]:
            row.append(edge_new.setdefault(dd >> 1, len(edge_new)))
            queue.append(dd)
        out.append(tuple(row))
    out += bdry
    return tuple(out)


def _number_darts(b, colors, rot, keys, shift, ids=None) -> PlabicGraph:
    """The graph of per-vertex clockwise entries with dense dart numbers:
    the one place that numbers darts from scratch.

    ``rot`` maps vertices to clockwise lists of entries, entry ``x`` lies on
    the edge with key ``x >> shift``, and ``keys`` lists the edge keys in
    increasing order, which must be the order of the public ids: ``ids[key]``,
    or the key itself when ``ids`` is None.  The edge of key rank r gets
    darts ``2r`` and ``2r + 1``, and of its two entries the first met in
    (vertex id, rotation position) order takes ``2r``, so the numbering
    depends only on the ids and rotations.
    """
    slot = {k: 2 * r for r, k in enumerate(keys)}  # edge -> next dart to hand out
    rot_out = {}
    dv = {}
    for v in sorted(rot.keys() | range(-b, 0)):
        darts = []
        for x in rot.get(v, ()):
            k = x >> shift
            nd = slot[k]
            slot[k] = nd + 1
            darts.append(nd)
            dv[nd] = v
        rot_out[v] = tuple(darts)
    edge_ids = tuple(keys) if ids is None else tuple([ids[k] for k in keys])
    return PlabicGraph._from_parts(b, dict(colors), rot_out, dv, edge_ids)


def _checked_graph(b, colors, rotation):
    """``(report, graph)`` for rotation lists of edge ids, as decoded from
    JSON; the report lists every violation of the encoding found.

    The graph is built once the checks on the raw lists pass (else it is
    None); connectivity and the Euler count then run on it, so the faces
    traced for the count stay in its cache.
    """
    rep = ValidationReport()
    if isinstance(b, bool) or not isinstance(b, int) or b < 0:
        rep.add(f"b must be a nonnegative integer, got {b!r}")
        return rep, None
    for v, c in colors.items():
        if v < 0:
            rep.add(f"internal vertex id {v} must be nonnegative")
        if c not in (BLACK, WHITE):
            rep.add(f"vertex {v} has invalid color {c!r}")
    # b is not bounded by the input's size: at most len(rotation) boundary
    # vertices have entries, and only the first 20 missing ones are named
    boundary = sorted([v for v in rotation if -b <= v < 0], reverse=True)
    listed = list(islice((v for v in range(-b, 0) if v not in rotation), 20))
    for v in sorted({v for v in colors if v not in rotation and not -b <= v < 0}.union(listed)):
        rep.add(f"vertex {v} has no rotation entry")
    if rest := b - len(boundary) - len(listed):
        rep.add(f"{rest} more boundary vertices have no rotation entry")
    for v in sorted([v for v in rotation if v not in colors and not -b <= v < 0]):
        rep.add(f"rotation entry for undeclared vertex {v}")
    counts = {}
    for v, ds in rotation.items():
        for e in ds:
            if isinstance(e, bool) or not isinstance(e, int):
                rep.add(f"vertex {v} lists edge id {e!r}, which is not an integer")
            else:
                counts[e] = counts.get(e, 0) + 1
    for e, c in sorted(counts.items()):
        if c == 1:
            rep.add(f"edge {e} has only one dart (twin involution violated)")
        elif c != 2:
            rep.add(f"edge {e} appears {c} times in rotations (expected 2)")
    for v in boundary:
        if len(rotation[v]) != 1:
            rep.add(f"boundary vertex {-v} has degree {len(rotation[v])} (expected 1)")
    if not rep.ok:
        return rep, None
    g = _number_darts(b, colors, rotation, sorted(counts), 0)
    # connectivity to the boundary
    rot, dv = g._rot, g._dart_vertex
    reached = set(range(-b, 0))
    stack = list(reached)
    while stack:
        for d in rot[stack.pop()]:
            u = dv[d ^ 1]
            if u not in reached:
                reached.add(u)
                stack.append(u)
    for v in sorted(colors):
        if v not in reached:
            rep.add(f"internal vertex {v} has no path to the boundary")
    if rep.ok and not g.euler_ok():
        rep.add("rim-augmented Euler check V - E + F = 2 failed (graph not planar as drawn)")
    return rep, g


def _checked_json(obj):
    """``(report, graph)`` for a graph JSON object: the format's shape, the
    rotation lists, then the declared edges, each checked once the one
    before passes."""
    try:
        b, colors, rotation, declared = _parse_json_obj(obj)
    except InvalidGraph as exc:
        return ValidationReport(exc.problems), None
    rep, g = _checked_graph(b, colors, rotation)
    if rep.ok:
        extra = sorted(declared - set(g.edge_ids))
        if extra:
            rep.add(f"declared edges never used in rotation: {extra}")
    return rep, g


def validate(g) -> ValidationReport:
    """Validate a graph (or raw JSON-style dict); every call returns a new
    report.

    A graph that ``from_rotation`` or ``from_json`` returned passed these
    checks when it was built, so its report is empty without checking
    again.  Any other graph (from the raw constructor or ``Builder.freeze``)
    is checked in full through its JSON object, so the checks stay
    independent of the code that built it.
    """
    if isinstance(g, PlabicGraph):
        if g._cache.get("valid"):
            return ValidationReport()
        g = g.to_json_obj()
    return _checked_json(g)[0]


# ----------------------------------------------------------------------
# mutable builder used by moves / normalization / tree collapsing


class Builder:
    """Mutable copy of a graph's rotation system, for graph surgery.

    Darts follow the frozen graph's convention: dart ``d`` belongs to edge
    index ``d >> 1`` and its twin is ``d ^ 1``.  A builder starts from a
    graph's rotations, dart -> vertex map ``dv`` and public edge ids ``ids``
    (edge index -> id, None at a hole); surgery moves darts between slots so
    that the pairing stays ``d ^ 1``.  A new edge takes the next index and a
    fresh id, larger than every id, so indices follow id order; a removed
    edge leaves a hole, and the one edge that ``remove_bivalent`` gives a
    smaller id returns to that id's index when frozen.  Rotations are shared
    with the graph until
    surgery edits them: ``_edit`` hands out a vertex's rotation as a list
    and records the vertex as touched.  ``freeze`` produces an immutable
    PlabicGraph with the public ids.  All operations keep rotations
    planar-consistent (splices preserve the cyclic order).

    ``canonical_key`` equals the key of the frozen graph, so a builder may
    be keyed and then dropped without ever being frozen; the equivalence
    search keys every child this way and freezes only those it expands.
    A builder keeps the graph it started from alive until it is dropped.
    Surgery may recolour only vertices whose rotations it edits: the
    frozen graph re-derives move sites only around those.
    """

    def __init__(self, g: PlabicGraph):
        self.b = g.b
        self.colors = dict(g._colors)
        self.rot = dict(g._rot)  # tuples, until ``_edit``
        self.dv = dict(g._dart_vertex)
        self.ids = list(g._edge_ids)
        self._graph = g  # whose face tables a frozen result may patch
        self._touched = set()  # vertices whose rotation changed, or that left
        self._homes = {}  # edge index -> the index of its id, when they differ
        self._max_vertex = self._max_edge_id = None  # None: not known yet

    # -- fresh ids ------------------------------------------------------

    def fresh_vertex(self) -> int:
        if self._max_vertex is None:
            self._max_vertex = max(self.colors, default=-1)
        return self._max_vertex + 1

    def fresh_edge_id(self) -> int:
        if self._max_edge_id is None:
            self._max_edge_id = max(set(self.ids) - {None}, default=-1)
        return self._max_edge_id + 1

    def _new_dart_pair(self, eid):
        k = len(self.ids)
        self.ids.append(eid)
        if self._max_edge_id is not None and eid > self._max_edge_id:
            self._max_edge_id = eid
        return 2 * k, 2 * k + 1

    # -- queries ---------------------------------------------------------

    def degree(self, v):
        return len(self.rot[v])

    def other_end(self, d):
        return self.dv[d ^ 1]

    def edge_darts(self):
        """The even dart of every edge, in edge-index order."""
        return [2 * k for k, e in enumerate(self.ids) if e is not None]

    def canonical_key(self):
        """The ``canonical_key`` of the graph ``freeze`` would return,
        computed on the builder's own parts: the key reads only rotations
        and the ``d ^ 1`` pairing, which ``freeze`` keeps."""
        return _canonical_key(self.b, self.colors, self.rot, self.dv)

    # -- surgery ---------------------------------------------------------

    def _edit(self, v):
        """The rotation of v as a list to edit in place."""
        ds = self.rot[v]
        if type(ds) is not list:
            ds = self.rot[v] = list(ds)
        self._touched.add(v)
        return ds

    def _set(self, v, ds):
        self.rot[v] = ds
        self._touched.add(v)

    def add_vertex(self, color):
        v = self.fresh_vertex()
        self._max_vertex = v
        self.colors[v] = color
        self._set(v, [])
        return v

    def _drop_vertex(self, v):
        del self.rot[v]
        del self.colors[v]
        self._touched.add(v)
        if v == self._max_vertex:
            self._max_vertex = None

    def contract(self, d):
        """Contract the edge of dart d, merging vertex(d ^ 1) into vertex(d).

        The absorbed vertex's fan replaces d in the survivor's rotation,
        preserving the clockwise order.  The edge must not be a loop.
        """
        t = d ^ 1
        u, v = self.dv[d], self.dv[t]
        assert u != v, "cannot contract a loop"
        rv = self.rot[v]
        i = rv.index(t)
        fan = [*rv[i + 1 :], *rv[:i]]
        ru = self.rot[u]
        j = ru.index(d)
        self._set(u, [*ru[:j], *fan, *ru[j + 1 :]])
        for dd in fan:
            self.dv[dd] = u
        self._drop_vertex(v)
        self._drop_edge(d)
        return u

    def remove_bivalent(self, v):
        """Remove a degree-2 vertex, merging its two edges into one.

        The edge of v's first dart survives: that dart moves into the far
        slot of the other edge, which is dropped, and the survivor keeps the
        smaller of the two public ids.  If both edges join v to the same
        vertex, the merged edge is a loop.  Returns the moved dart.
        """
        d1, d2 = self.rot[v]
        t2 = d2 ^ 1
        y = self.dv[t2]
        ry = self._edit(y)
        ry[ry.index(t2)] = d1
        self.dv[d1] = y
        k1, k2 = d1 >> 1, d2 >> 1
        if self.ids[k2] < self.ids[k1]:
            # the survivor takes an id from below its index; ``freeze``
            # moves it to that id's index, so that indices follow ids
            if self.ids[k1] == self._max_edge_id:
                self._max_edge_id = None
            self.ids[k1] = self.ids[k2]
            self._homes[k1] = self._homes.get(k2, k2)
        self._drop_vertex(v)
        self._drop_edge(d2)
        return d1

    def insert_bivalent(self, d, color):
        """Insert a new vertex of the given color in the middle of d's edge.

        The half toward ``vertex(d)`` keeps the edge and its public id, with
        ``d ^ 1`` moved to the new vertex; the other half is a new edge with
        a fresh id, whose far dart takes the old slot of ``d ^ 1``.  Returns
        the new vertex id.
        """
        t = d ^ 1
        x = self.dv[t]
        w = self.add_vertex(color)
        # the far dart is even: x's id is below the new vertex's
        n1, n0 = self._new_dart_pair(self.fresh_edge_id())
        rx = self._edit(x)
        rx[rx.index(t)] = n1
        self.rot[w] = [t, n0]
        self.dv[n0] = w
        self.dv[n1] = x
        self.dv[t] = w
        return w

    def split(self, v, start, length, color=None):
        """Split off a contiguous rotation arc of v into a new vertex.

        The new vertex takes ``rotation(v)[start:start+length]`` (cyclically)
        and is joined to v by a fresh edge placed where the arc was.
        Returns the new edge's dart at v, which is last in v's rotation.
        """
        ds = self.rot[v]
        m = len(ds)
        assert 0 <= length <= m
        arc = [ds[(start + i) % m] for i in range(length)] if m else []
        rest = [ds[(start + length + i) % m] for i in range(m - length)]
        w = self.add_vertex(color if color is not None else self.colors[v])
        d0, d1 = self._new_dart_pair(self.fresh_edge_id())
        self._set(v, rest + [d0])
        self.dv[d0] = v
        self.rot[w] = arc + [d1]
        self.dv[d1] = w
        for dd in arc:
            self.dv[dd] = w
        return d0

    def delete_leaf_edge(self, v):
        """Delete a degree-1 internal vertex together with its edge."""
        (d,) = self.rot[v]
        u = self.dv[d ^ 1]
        self._edit(u).remove(d ^ 1)
        self._drop_vertex(v)
        self._drop_edge(d)
        return u

    def _drop_edge(self, d):
        del self.dv[d]
        del self.dv[d ^ 1]
        k = d >> 1
        self._homes.pop(k, None)
        if self.ids[k] == self._max_edge_id:
            self._max_edge_id = None
        self.ids[k] = None

    def relabel_boundary(self, keep_labels):
        """Keep only the listed boundary labels, renumbering 1..b' in order."""
        keep = sorted(keep_labels)
        mapping = {}
        for new, old in enumerate(keep, start=1):
            mapping[old] = new
        new_rot = {}
        for v, ds in self.rot.items():
            if v < 0:
                old = -v
                if old not in mapping:
                    raise ValueError(f"boundary vertex {old} still has edges")
                new_rot[-mapping[old]] = ds
            else:
                new_rot[v] = ds
        self.rot = new_rot
        for d, v in list(self.dv.items()):
            if v < 0:
                self.dv[d] = -mapping[-v]
        # boundary ids keep their order, so no even dart changes; the rim
        # does, so the result traces its faces afresh
        self._touched = {-mapping[-v] if v < 0 else v for v in self._touched
                         if v >= 0 or -v in mapping}
        self._graph = None
        self.b = len(keep)
        return mapping

    def drop_isolated_boundary(self, label):
        """Remove an edgeless boundary vertex (after its lollipop was deleted)."""
        assert not self.rot.get(-label)
        self.rot.pop(-label, None)
        self._touched.add(-label)
        self._graph = None

    def freeze(self) -> PlabicGraph:
        """Produce the immutable graph; public ids are preserved.

        Untouched darts keep their numbers and untouched vertices share
        their rotations with the graph the builder started from.  An edge
        that ``remove_bivalent`` gave a smaller id moves to that id's
        index.  Only edges at touched vertices can then break the even-dart
        rule; the two darts of such an edge trade numbers.  Once holes pass
        half the index space, darts are numbered afresh by
        ``_number_darts``.  When the starting graph's faces are traced, or
        its move sites derived, the result keeps them, to walk only the
        faces the surgery changed (``faces``) and re-derive only the sites
        around the touched vertices (``moves._sites``).
        """
        ids = self.ids
        n = len(ids)
        while n and ids[n - 1] is None:
            n -= 1
        if len(self.dv) < n:  # more holes than edges
            keys = sorted((k for k in range(n) if ids[k] is not None), key=ids.__getitem__)
            return _number_darts(self.b, self.colors, self.rot, keys, 1, ids)
        rot = dict(self.rot)
        dv = dict(self.dv)
        touched = {v for v in self._touched if v in rot}
        ids = ids[:n]
        moved = {}  # builder dart -> its number in the graph
        for k, h in self._homes.items():
            ids[h], ids[k] = ids[k], None
            for side in (0, 1):
                moved[2 * k + side] = 2 * h + side
                v = dv[2 * h + side] = dv.pop(2 * k + side)
                touched.add(v)
        while n and ids[n - 1] is None:
            n -= 1
        swap = set()  # edges whose darts trade numbers
        for v in touched:
            for x in rot[v]:
                k = moved.get(x, x) >> 1
                a, c = dv[2 * k], dv[2 * k + 1]
                if a == c:  # a loop: compare positions
                    ds = [moved.get(y, y) for y in rot[a]]
                    a, c = ds.index(2 * k), ds.index(2 * k + 1)
                if a > c:
                    swap.add(k)
        for k in swap:
            dv[2 * k], dv[2 * k + 1] = dv[2 * k + 1], dv[2 * k]
            touched.add(dv[2 * k])
            touched.add(dv[2 * k + 1])
        for v in touched:
            if moved or swap:
                rot[v] = tuple([y ^ 1 if y >> 1 in swap else y
                                for y in [moved.get(x, x) for x in rot[v]]])
            else:
                rot[v] = tuple(rot[v])
        g = PlabicGraph._from_parts(self.b, dict(self.colors), rot, dv, tuple(ids[:n]))
        parent = self._graph
        if parent is not None:
            pc = parent._cache
            edited = self._touched | touched
            if self.b and "faces" in pc:
                g._cache["base"] = (pc["faces"], pc["face_of_dart"], *pc["face_next"],
                                    parent._rot, edited, touched)
            if "sites" in pc:
                g._cache["site_base"] = (pc["sites"], parent._rot, edited, touched)
        return g


# ----------------------------------------------------------------------
# tree collapsing


def _pendant_vertices(g: PlabicGraph) -> set:
    """Internal vertices that lie on no cycle and hang off the core.

    Peels leaves with a queue: a vertex goes once at most one of its darts
    still leads to the boundary or to an internal vertex not yet peeled.
    A vertex with a loop keeps both loop darts and is never peeled.
    """
    live = {v: g.degree(v) for v in g.internal_vertices()}
    queue = [v for v, n in live.items() if n <= 1]
    peeled = set(queue)
    for v in queue:
        for d in g.rotation(v):
            u = g.dart_vertex(d ^ 1)
            if u >= 0 and u not in peeled:
                live[u] -= 1
                if live[u] <= 1:
                    peeled.add(u)
                    queue.append(u)
    return peeled


def collapse_trees(g: PlabicGraph) -> PlabicGraph:
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
    _collapse_pendant(bld, peeled)
    return bld.freeze()


def _collapse_pendant(bld: Builder, peeled: set) -> None:
    """Collapse the pendant forest ``peeled`` of the builder in place.  Only
    pendant vertices are removed or absorbed, so a dart with no pendant end
    never changes its ends and no vertex becomes pendant."""
    changed = True
    while changed:
        changed = False
        # bivalent removals within the pendant forest
        for v in sorted(peeled):
            if bld.degree(v) == 2:
                d1, d2 = bld.rot[v]
                if bld.other_end(d1) == v or bld.other_end(d2) == v:
                    continue  # loop through v: not a tree situation
                bld.remove_bivalent(v)
                peeled.discard(v)
                changed = True
        # unicolored contractions with at least one pendant endpoint
        at_pendant = {d for v in peeled for d in bld.rot[v]}
        for d in sorted(at_pendant | {d ^ 1 for d in at_pendant}):
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


def classify(g: PlabicGraph) -> dict:
    """Structural classification: bipartite / trivalent / normal flags plus
    the lists of lollipops and internal leaves.

    Computed once per graph; every call returns a new dict with new lists.
    """
    info = g._cache.get("classify")
    if info is None:
        info = g._cache["classify"] = _classify(g)
    return {**info, "lollipops": list(info["lollipops"]),
            "internal_leaves": list(info["internal_leaves"])}


def _classify(g: PlabicGraph) -> dict:
    colors, rot, dv = g._colors, g._rot, g._dart_vertex
    bipartite = trivalent = whites_trivalent = True
    lollipops, internal_leaves = [], []
    for v in sorted(colors):
        ds, c = rot[v], colors[v]
        if bipartite and any(colors.get(dv[d ^ 1]) == c for d in ds):
            bipartite = False
        if len(ds) == 3:
            continue
        if c == WHITE:
            whites_trivalent = False
        if len(ds) == 1:
            internal_leaves.append(v)
            if dv[ds[0] ^ 1] < 0:
                lollipops.append(v)
                continue
        trivalent = False
    boundary_black = all(
        colors.get(dv[rot[-i][0] ^ 1]) == BLACK for i in range(1, g.b + 1)
    )
    return {
        "bipartite": bipartite,
        "trivalent": trivalent,
        "normal": bipartite and whites_trivalent and boundary_black,
        "lollipops": lollipops,
        "internal_leaves": internal_leaves,
    }


def lollipop_graph(decorations) -> PlabicGraph:
    """A graph of b lollipops; ``decorations`` is a string over {'w','b'}."""
    if set(decorations) - {"w", "b"}:
        raise InvalidGraph([f"lollipop colors must be 'w' or 'b', got {decorations!r}"])
    b = len(decorations)
    colors = {}
    rotation = {}
    for i, c in enumerate(decorations, start=1):
        colors[i - 1] = WHITE if c == "w" else BLACK
        rotation[i - 1] = [i - 1]
        rotation[-i] = [i - 1]
    return PlabicGraph.from_rotation(b, colors, rotation)
