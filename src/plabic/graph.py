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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote

from .errors import InvalidGraph, TripDoesNotTerminate, _ints, _show

BLACK = "black"
WHITE = "white"


def other_color(c: str) -> str:
    return WHITE if c == BLACK else BLACK


def _loads(text, error):
    """``json.loads(text)``, raising ``error(message)`` on text that is not
    JSON, an integer past Python's digit limit or nesting past the
    recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(str(exc)) from None


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


def _face_of_walk(walk, dv, b):
    """The face traced as ``walk``, an orbit of graph darts.  A dart whose
    twin is based at boundary vertex -i is the dart into label i, and the
    walk crosses rim arc i - 1 (arc b for i = 1) right after it."""
    arcs = tuple([(-dv[x ^ 1] - 2) % b + 1 for x in walk if dv[x ^ 1] < 0])
    return Face("boundary" if arcs else "internal", tuple(walk), arcs)


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


_HAND_DOWN = "hand_down"  # the cache key of a graph's hand-down record


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

    The id order holds by construction and is not checked: the raw
    constructor takes edge ids in any order, say ``(5, 3, 2)``.  So the
    largest edge id is never read off ``_edge_ids[-1]``.

    Facts derived from a graph are read through ``_fact`` and kept in
    ``_cache``, which is safe because the graph never changes.  The cache
    also holds the flag "valid", which only ``from_rotation`` and
    ``from_json`` set, after their full check; a graph from the raw
    constructor, ``Builder.freeze`` or ``bridges.bridge_graph``, which
    writes its dart tables itself, never carries it.  On a graph made by a
    move the cache holds the hand-down record that ``Builder.freeze``
    stores until the facts it holds are read.
    """

    __slots__ = ("b", "_colors", "_rot", "_dart_vertex", "_edge_ids", "_cache",
                 "__weakref__")

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
        return _checked_graph(b, colors, rotation)

    @staticmethod
    def from_json(text_or_obj):
        obj = text_or_obj
        if isinstance(obj, str):
            obj = _loads(obj, lambda msg: InvalidGraph([f"malformed graph JSON: {msg}"]))
        try:
            b, vertices, rot = obj["b"], obj.get("vertices", []), obj.get("rotation", {})
            colors = {v["id"]: v["color"] for v in vertices}
            rotation = {int(v) if isinstance(v, str) else v: es if type(es) is list else list(es)
                        for v, es in rot.items()}
            declared = [e["id"] for e in obj.get("edges", [])]
            repeats = len(vertices) - len(colors), len(rot) - len(rotation)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidGraph([f"malformed graph object: {exc}"]) from None
        return _checked_graph(b, colors, rotation, declared, repeats)

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
        """The text of ``json.dumps(self.to_json_obj(), sort_keys=True)``,
        written in one pass with no dict built: the keys in sorted order,
        rotation keys in string order ("-10" before "-2"), ints written by
        ``int.__repr__``, ", " between items and ": " after keys."""
        r, rot = int.__repr__, self._rot
        names = [None if e is None else r(e) for e in self._edge_ids]
        dart_names = names + names  # dart d has edge index d >> 1
        dart_names[::2] = dart_names[1::2] = names
        rotation = ", ".join([f'"{k}": [{", ".join([dart_names[d] for d in rot[v]])}]'
                              for k, v in sorted([(r(v), v) for v in rot])])
        ids = sorted(self.edge_ids)
        edges = '{"id": ' + '}, {"id": '.join(map(r, ids)) + "}" if ids else ""
        vertices = ", ".join([f'{{"color": {_quote(c)}, "id": {r(v)}}}'
                              for v, c in sorted(self._colors.items())])
        return (f'{{"b": {r(self.b)}, "edges": [{edges}], "rotation": {{{rotation}}}, '
                f'"vertices": [{vertices}]}}')

    def _fact(self, name):
        """The fact ``name`` of ``_FACTS``, derived on the first read and
        kept; callers must not change it.  On a move's result the faces and
        the move sites are patched from the parent's values in the hand-down
        record ``(handed, gone, edited, touched)`` when ``handed`` holds them,
        and the record goes once ``handed`` is empty; "maxima" may be there
        from ``freeze``."""
        cache = self._cache
        value = cache.get(name)
        if value is None:
            record = cache.get(_HAND_DOWN)
            if record is not None and name in record[0]:
                handed, prot, edited, touched = record
                value = _PATCHES[name](self, handed.pop(name), prot, edited, touched)
                if not handed:
                    del cache[_HAND_DOWN]
            else:
                value = _FACTS[name](self)
            cache[name] = value
        return value

    # ------------------------------------------------------------------
    # basic accessors

    def twin(self, d: int) -> int:
        return d ^ 1

    def dart_vertex(self, d: int) -> int:
        return self._dart_vertex[d]

    def edge_id(self, d: int) -> int:
        return self._edge_ids[d >> 1]

    def darts_of_edge(self, edge_id: int):
        """The two darts of an edge, found by a scan of ``_edge_ids``;
        ValueError for an id the graph does not hold: unknown, removed by
        the move that made the graph, or None, which marks a hole."""
        if edge_id is not None:
            try:
                k = self._edge_ids.index(edge_id)
                return 2 * k, 2 * k + 1
            except ValueError:
                pass
        raise ValueError(f"no edge with id {edge_id!r}")

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
        """All faces of the rim-augmented graph, deterministic order, in a
        new list on every call.

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
        return list(self._fact("faces")[0])

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

    def _trace_faces(self):
        """The fact "faces" traced from scratch: ``(faces, face_of, nxt)``,
        the index of each graph dart's face and the face-successor table
        indexed by graph dart, -1 at the holes."""
        n, dv = self._dart_bound(), self._dart_vertex
        nxt = [-1] * n
        self._fill_successors(nxt, self._rot)
        face_of = [-1] * n  # dart -> index of its face; -1 at the holes
        faces = []
        for start in range(n):
            if face_of[start] >= 0 or nxt[start] < 0:
                continue
            walk = _orbit(nxt, start, n)
            idx = len(faces)
            for d in walk:
                face_of[d] = idx
            faces.append(_face_of_walk(walk, dv, self.b))
        faces.append(Face("outer", (), tuple(range(1, self.b + 1))))
        return faces, face_of, nxt

    def _patch_faces(self, tables, gone, edited, touched):
        """The fact "faces" from the tables of the graph this one was made
        from by a local edit.  ``gone`` are the edge indices the edit
        emptied, whose darts become holes, and ``touched`` the vertices of
        this graph whose rotations or colours changed; every other dart of
        the parent keeps its vertex and its successor's.

        A cut is a dart whose successor differs from the parent's, which
        makes it an in-dart of a touched vertex.  A face of the parent
        with no cut is kept, since it keeps its dart numbers; the others
        are dirty, and their darts lie on the new walks, each an orbit from
        a cut.  A face with a removed dart holds a cut, a kept dart whose
        successor was removed: no edit removes every dart of a face, which
        would take a removed loop, a digon of two removed edges or a whole
        tree.  The new walks take the places of the dirty faces, in sorted
        order, and are as many, since no edit changes V - E, the genus or the
        components.  When a new walk would not fall between the kept faces
        around its place, some kept face changes index, and the faces are
        traced afresh instead (``_trace_faces``).
        """
        b, rot, dv = self.b, self._rot, self._dart_vertex
        pfaces, pface_of, pnxt = tables
        n, pn = self._dart_bound(), len(pnxt)
        if n <= pn:
            nxt, face_of = pnxt[:n], pface_of[:n]
        else:
            nxt, face_of = pnxt + [-1] * (n - pn), pface_of + [-1] * (n - pn)
        for k in gone:
            if 2 * k < n:
                nxt[2 * k] = nxt[2 * k + 1] = face_of[2 * k] = face_of[2 * k + 1] = -1
        if touched and min(touched) < 0:
            # the dart into label i goes on along the dart of label i - 1
            touched = {*touched, *[-(-v % b) - 1 for v in touched if v < 0]}
        self._fill_successors(nxt, touched)
        cuts, dirty = [], set()  # dirty: the indices of the dirty faces in the parent
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
        places = sorted(dirty)
        faces = pfaces[:-1]  # the outer face goes last
        for idx, walk in zip(places, walks):  # sorted walks in sorted places
            w0 = walk[0]
            if (idx and idx - 1 not in dirty and faces[idx - 1].darts[0] > w0
                    or idx + 1 < len(faces) and idx + 1 not in dirty
                    and faces[idx + 1].darts[0] < w0):
                return self._trace_faces()  # a kept face would change index
            for d in walk:
                face_of[d] = idx
            faces[idx] = _face_of_walk(walk, dv, b)
        faces.append(pfaces[-1])
        return faces, face_of, nxt

    def nonouter_faces(self):
        """The faces but the outer one, which ``faces()`` lists last, in a
        new list on every call."""
        return self._fact("faces")[0][:-1]

    def face_of_dart(self):
        """The index into ``faces()`` of each dart's face, in a new list on
        every call, indexed by dart: the graph darts up to the index bound
        (-1 at the holes), then the rim darts.  The forward dart of arc i
        (at index bound + 2(i - 1)) lies in the outer face, the backward
        dart after it in the face of the dart into label i + 1."""
        faces, face_of, _ = self._fact("faces")
        rot, b = self._rot, self.b
        rim = [len(faces) - 1] * (2 * b)
        rim[1::2] = [face_of[rot[-(i % b) - 1][0] ^ 1] for i in range(1, b + 1)]
        return face_of + rim

    def _face_count(self) -> int:
        """The number of faces: read off the cached faces, or else counted
        as the orbits of a fresh face-successor table, each marked by
        emptying its entries, with no ``Face`` built and nothing cached."""
        faces = self._cache.get("faces")
        if faces is not None:
            return len(faces[0])
        nxt = [-1] * self._dart_bound()
        self._fill_successors(nxt, self._rot)
        count = 1  # the outer face has no graph dart
        for d in range(len(nxt)):
            if nxt[d] >= 0:  # a dart of a face not counted yet
                count += 1
                while d >= 0:  # mark the orbit by emptying its entries
                    nxt[d], d = -1, nxt[d]
        return count

    def euler_ok(self) -> bool:
        """Whether V - E + F = 2 holds for the rim-augmented graph.  F is
        only counted (``_face_count``); the faces are traced when first
        read."""
        if self.b == 0:
            return not self._colors and not self._dart_vertex
        v = len(self._colors) + self.b
        e = len(self._dart_vertex) // 2 + self.b
        return v - e + self._face_count() == 2

    # ------------------------------------------------------------------
    # equality and canonical form

    def canonical_key(self):
        """Canonical serialization, invariant under internal relabeling.

        Internal vertices and edges are renumbered by a deterministic
        traversal anchored at the boundary labels, so two graphs have equal
        keys iff they are isomorphic by a boundary-label-preserving map that
        respects rotations.
        """
        return self._fact("ckey")

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


def _number_darts(b, colors, rot, order, keys, shift, ids=None) -> PlabicGraph:
    """The graph of per-vertex clockwise entries with dense dart numbers:
    the one place that numbers darts from scratch for checked graphs and
    builders, ``_checked_graph`` and ``Builder._number_afresh``.
    ``bridges.bridge_graph`` writes the same numbering for its own graphs
    directly.

    ``rot`` maps vertices to clockwise lists of entries, ``order`` lists its
    keys in increasing order, entry ``x`` lies on the edge with key
    ``x >> shift``, and ``keys`` lists the edge keys in increasing order,
    which must be the order of the public ids: ``ids[key]``, or the key
    itself when ``ids`` is None.  The edge of key rank r gets darts ``2r``
    and ``2r + 1``, and of its two entries the first met in (vertex id,
    rotation position) order takes ``2r``, so the numbering depends only on
    the ids and rotations.
    """
    slot = {k: 2 * r for r, k in enumerate(keys)}  # edge -> next dart to hand out
    rot_out = {}
    dv = {}
    for v in order:
        darts = []
        for x in rot[v]:
            k = x >> shift
            nd = slot[k]
            slot[k] = nd + 1
            darts.append(nd)
            dv[nd] = v
        rot_out[v] = tuple(darts)
    edge_ids = tuple(keys) if ids is None else tuple([ids[k] for k in keys])
    return PlabicGraph._from_parts(b, dict(colors), rot_out, dv, edge_ids)


def _checked_graph(b, colors, rotation, declared=(), repeats=(0, 0)) -> PlabicGraph:
    """The graph of rotation lists of edge ids, marked checked, or InvalidGraph
    listing every violation found; ``from_json`` also passes the declared
    edge ids and how many vertex ids repeat.  Each stage runs once the one
    before passes.  The rotation lists are walked once to count the edge
    ids, once to number the darts and once to reach the boundary; the
    boundary, missing and undeclared vertices are read off the sorted
    vertex ids and the differences of the key sets.  Problem texts print
    ids with ``_show``, and a graph is refused when its smallest or largest
    vertex or edge id is past Python's integer digit limit, so that its
    JSON can be written.  The Euler check only counts the faces
    (``euler_ok``); they are traced when first read."""
    tail = [f"{n} {where} repeat a vertex id"
            for n, where in zip(repeats, ("entries of 'vertices'", "keys of 'rotation'")) if n]

    def fail(*problems):
        raise InvalidGraph([*problems, *tail])

    try:  # plain ints are passed first: only the rest can fail the integer test
        _ints([v for v in [*colors.keys(), *rotation.keys(), *declared] if type(v) is not int],
              TypeError, "ids must be integers, got {}")
        if bad := [v for v, es in rotation.items() if type(es) is not list]:
            raise TypeError(f"the rotation of vertex {_show(bad[0])} is not a list")
    except (AttributeError, TypeError) as exc:
        fail(f"malformed graph object: {exc}")
    _ints((b,), fail, "b must be a nonnegative integer, got {}")
    if b < 0:
        fail(f"b must be a nonnegative integer, got {_show(b)}")
    rep = []
    for v, c in colors.items():
        if v < 0:
            rep.append(f"internal vertex id {_show(v)} must be nonnegative")
        if c not in (BLACK, WHITE):
            rep.append(f"vertex {_show(v)} has invalid color {_show(c)}")
    order = sorted(rotation)
    lo = bisect_left(order, -b)
    boundary = order[lo:bisect_left(order, 0, lo)][::-1]
    # b is not bounded by the input's size: at most len(rotation) boundary
    # vertices have entries, and only the first 20 missing ones are named
    listed = list(islice((v for v in range(-b, 0) if v not in rotation), 20))
    for v in sorted({v for v in colors.keys() - rotation.keys() if not -b <= v < 0}.union(listed)):
        rep.append(f"vertex {_show(v)} has no rotation entry")
    if rest := b - len(boundary) - len(listed):
        rep.append(f"{_show(rest)} more boundary vertices have no rotation entry")
    for v in sorted([v for v in rotation.keys() - colors.keys() if not -b <= v < 0]):
        rep.append(f"rotation entry for undeclared vertex {_show(v)}")
    counts = {}
    for v, es in rotation.items():
        for e in es:
            if type(e) is not int:
                try:
                    _ints((e,), TypeError)
                except TypeError:
                    rep.append(f"vertex {_show(v)} lists edge id {_show(e)}, which is not an integer")
                    continue
            counts[e] = counts.get(e, 0) + 1
    if {*counts.values()} - {2}:
        for e, c in sorted(counts.items()):
            if c == 1:
                rep.append(f"edge {_show(e)} has only one dart (twin involution violated)")
            elif c != 2:
                rep.append(f"edge {_show(e)} appears {c} times in rotations (expected 2)")
    for v in boundary:
        if len(rotation[v]) != 1:
            rep.append(f"boundary vertex {_show(-v)} has degree {len(rotation[v])} (expected 1)")
    keys = sorted(counts)
    for what, ids in (("vertex", order), ("edge", keys)):
        for x in ids[:1] + ids[1:][-1:]:  # the smallest and largest hold the longest
            try:
                int.__repr__(x)
            except ValueError:
                rep.append(f"{what} id {_show(x)} is past Python's integer digit limit")
    if rep:
        fail(*rep)
    g = _number_darts(b, colors, rotation, order, keys, 0)
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
    rep = [f"internal vertex {_show(v)} has no path to the boundary" for v in sorted(colors)
           if v not in reached]
    if not rep and not g.euler_ok():
        rep.append("rim-augmented Euler check V - E + F = 2 failed (graph not planar as drawn)")
    if rep or tail:
        fail(*rep)
    if extra := sorted(set(declared).difference(counts)):
        fail(f"declared edges never used in rotation: [{', '.join(map(_show, extra))}]")
    g._cache["valid"] = True
    return g


def validate(g) -> ValidationReport:
    """Validate a graph, graph JSON text or its object: the report lists
    exactly the problems ``from_json`` raises on it, and every call returns
    a new report.

    A graph that ``from_rotation`` or ``from_json`` returned passed the
    check when it was built (they alone set the flag "valid"), so its
    report is empty without checking again.  Any other graph (from the raw
    constructor, ``Builder.freeze`` or ``bridge_graph``) is checked in full
    through its JSON object, so the check stays independent of the code
    that built it.
    """
    if not (isinstance(g, PlabicGraph) and g._cache.get("valid")):
        try:
            PlabicGraph.from_json(g.to_json_obj() if isinstance(g, PlabicGraph) else g)
        except InvalidGraph as exc:
            return ValidationReport(exc.problems)
    return ValidationReport()


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
    smaller id returns to that id's index when frozen.

    Fresh ids are ``max(current ids) + 1``, for vertices and for edges.
    The builder starts from the graph's fact "maxima" and keeps both
    maxima as it adds; only removing the current maximum forgets it, and
    the next fresh id of that kind then takes a scan.  It records the edge
    indices it empties, and ``freeze`` hands both to the graph.

    Rotations are shared with the graph until
    surgery edits them: ``_edit`` hands out a vertex's rotation as a list
    and records the vertex as touched.  ``freeze`` produces an immutable
    PlabicGraph with the public ids and hands it the builder's dicts, so a
    builder is frozen once and then dropped.  All operations keep rotations
    planar-consistent (splices preserve the cyclic order).

    ``canonical_key`` equals the key of the frozen graph, so a builder may
    be keyed and then dropped without ever being frozen; the equivalence
    search keys every child this way and freezes only those it expands.
    A builder keeps the graph it started from alive until it is dropped.
    ``recolor`` records the vertex as touched, like an edit of its
    rotation, so the frozen graph re-derives the move sites around it.
    A builder never changes the boundary (b and the labels), so the
    frozen graph may patch the facts of the graph it started from.
    """

    def __init__(self, g: PlabicGraph):
        self.b = g.b
        self.colors = dict(g._colors)
        self.rot = dict(g._rot)  # tuples, until ``_edit``
        self.dv = dict(g._dart_vertex)
        self.ids = list(g._edge_ids)
        self._graph = g  # whose facts a frozen result may patch
        self._touched = set()  # vertices recoloured, edited or removed
        self._homes = {}  # edge index -> the index of its id, when they differ
        self._gone = set()  # edge indices emptied by ``_drop_edge``
        # the largest vertex and edge ids, None once the largest is removed
        self._max_vertex, self._max_edge_id = g._fact("maxima")

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

    def recolor(self, v, color):
        """Give internal vertex v this colour; v counts as touched."""
        self.colors[v] = color
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
        self._edit(self.dv[d ^ 1]).remove(d ^ 1)
        self._drop_vertex(v)
        self._drop_edge(d)

    def _drop_edge(self, d):
        del self.dv[d]
        del self.dv[d ^ 1]
        k = d >> 1
        self._gone.add(k)
        self._homes.pop(k, None)
        if self.ids[k] == self._max_edge_id:
            self._max_edge_id = None
        self.ids[k] = None

    def _number_afresh(self, b, rot) -> PlabicGraph:
        """Rotations ``rot`` of these darts and b labels, numbered by ``_number_darts``
        with the live edge indices ranked by id; for ``freeze`` and ``normalize``."""
        ids = self.ids
        keys = sorted((k for k, e in enumerate(ids) if e is not None), key=ids.__getitem__)
        return _number_darts(b, self.colors, rot, sorted(rot), keys, 1, ids)

    def freeze(self) -> PlabicGraph:
        """Produce the immutable graph; public ids are preserved.

        Untouched darts keep their numbers and untouched vertices share
        their rotations with the graph the builder started from.  An edge
        that ``remove_bivalent`` gave a smaller id moves to that id's
        index.  Only edges at touched vertices can then break the even-dart
        rule; the two darts of such an edge trade numbers.  Once holes pass
        half the index space, darts are numbered afresh by
        ``_number_afresh``.  Otherwise the result gets a hand-down record
        for ``PlabicGraph._fact``: the starting graph's faces and move
        sites, when it has read them, the edge indices left empty
        (dropped, or moved to a home), and the vertices edited (touched or
        removed) and touched; it keeps no ancestor alive.  Either way the
        builder's maxima become the fact "maxima" when it still knows both.
        The builder then holds None in place of the dicts the graph took
        over, so an edit after freezing fails at once.
        """
        ids = self.ids
        n = len(ids)
        while n and ids[n - 1] is None:
            n -= 1
        if len(self.dv) < n:  # more holes than edges
            g = self._number_afresh(self.b, self.rot)
        else:
            rot, dv, colors = self.rot, self.dv, self.colors
            touched = {v for v in self._touched if v in rot}
            moved = {}  # builder dart -> its number in the graph
            for k, h in self._homes.items():
                ids[h], ids[k] = ids[k], None
                for side in (0, 1):
                    moved[2 * k + side] = 2 * h + side
                    v = dv[2 * h + side] = dv.pop(2 * k + side)
                    touched.add(v)
            n = len(ids)  # a home may lie past the last edge
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
            g = PlabicGraph._from_parts(self.b, colors, rot, dv, tuple(ids[:n]))
            pc = self._graph._cache
            handed = {name: pc[name] for name in _PATCHES if name in pc}
            if handed:
                gone = {k for k in self._gone.union(self._homes) if ids[k] is None}
                g._cache[_HAND_DOWN] = (handed, gone, self._touched | touched, touched)
        self.rot = self.dv = self.colors = None
        maxima = self._max_vertex, self._max_edge_id
        if None not in maxima:
            g._cache["maxima"] = maxima
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
    info = g._fact("classify")
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


def _maxima(g):
    """The fact "maxima": ``(largest vertex id, largest edge id)``, -1 when
    there is none; a move's builder hands it to its graph (``freeze``)
    unless the move removed either largest id."""
    return max(g._colors, default=-1), max(set(g._edge_ids) - {None}, default=-1)


# The facts derived from a graph, registered by the modules that own them:
# ``_FACTS[name](g)`` derives a fact (never None) from g alone, and
# ``_PATCHES[name](g, parent value, gone, edited, touched)`` from the value
# of the graph a move made g from (``Builder.freeze``); ``gone`` holds the
# edge indices the move emptied.  Only "faces" and "sites" (``moves.py``)
# have a patch; an edge id is found by a scan (``darts_of_edge``).
_FACTS = dict(
    faces=PlabicGraph._trace_faces,
    maxima=_maxima,
    ckey=lambda g: _canonical_key(g.b, g._colors, g._rot, g._dart_vertex),
    classify=_classify,
)
_PATCHES = dict(faces=PlabicGraph._patch_faces)


def lollipop_graph(decorations) -> PlabicGraph:
    """A graph of b lollipops; ``decorations`` is a string over {'w','b'}."""
    colors, rotation = {}, {}
    try:
        for i, c in enumerate(decorations, start=1):
            colors[i - 1] = {"w": WHITE, "b": BLACK}[c]
            rotation[i - 1] = [i - 1]
            rotation[-i] = [i - 1]
    except (KeyError, TypeError):  # another color, or no sequence
        problem = f"lollipop colors must be 'w' or 'b', got {_show(decorations)}"
        raise InvalidGraph([problem]) from None
    return PlabicGraph.from_rotation(len(colors), colors, rotation)
