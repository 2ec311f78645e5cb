"""Quivers of plabic graphs, quiver mutation, and the triangulation /
wiring-diagram constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import normalize  # registers the fact "is_reduced"
from .errors import (BadLabel, BadWord, FrozenVertex, NotATriangulation, _ints, _parse_int,
                     _show, _text)
from .graph import BLACK, WHITE, PlabicGraph
from .labels import _face_labels


@dataclass
class Quiver:
    """Vertices with frozen flags and a signed arrow-multiplicity matrix.

    ``arrows[(u, v)] = m > 0`` means m arrows from key u to key v; the
    matrix is kept antisymmetric (only positive entries stored) and carries
    no frozen-frozen arrows.
    """

    vertices: list  # (key, frozen)
    arrows: dict  # (key, key) -> positive int

    def keys(self):
        return [k for k, _ in self.vertices]

    def frozen(self, key) -> bool:
        """Whether the vertex is frozen; BadLabel for a key the quiver lacks."""
        for k, fr in self.vertices:
            if k == key:
                return fr
        raise BadLabel(f"the quiver has no vertex {key!r}")

    def m(self, u, v) -> int:
        """Signed multiplicity of arrows u -> v."""
        return self.arrows.get((u, v), 0) - self.arrows.get((v, u), 0)

    def mutate(self, k) -> "Quiver":
        """Standard quiver mutation at a mutable vertex:
        m'[u][v] = -m[u][v] if k in {u, v}, else
        m[u][v] + sign(m[u][k]) * max(0, m[u][k] * m[k][v]).

        In O(arrows + in-degree * out-degree of k): the arrows at k turn
        round and each path u -> k -> v adds its product to u -> v.  Like
        the formula over all pairs of keys, it drops arrows between two
        frozen vertices and those at a key the quiver lacks."""
        if self.frozen(k):
            raise FrozenVertex(f"vertex {k!r} is frozen")
        frozen = dict(self.vertices)
        net = _signed(self.arrows, frozen)
        ins = [(u, a) for (u, v), a in net.items() if v == k and a > 0]
        outs = [(v, c) for (u, v), c in net.items() if u == k and c > 0]
        for pair, a in net.items():
            if k in pair:
                net[pair] = -a
        for u, a in ins:
            for v, c in outs:
                net[u, v] = net.get((u, v), 0) + a * c
                net[v, u] = net.get((v, u), 0) - a * c
        return Quiver(list(self.vertices), {
            (u, v): a for (u, v), a in net.items() if a > 0 and not (frozen[u] and frozen[v])})

    def is_isomorphic(self, other: "Quiver") -> bool:
        """Equality matching vertex keys (not positions)."""
        if set(self.vertices) != set(other.vertices):
            return False
        keys = set(self.keys())
        return _signed(self.arrows, keys) == _signed(other.arrows, keys)

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        names = {}
        for idx, (k, fr) in enumerate(self.vertices):
            names[k] = f"n{idx}"
            shape = "box" if fr else "ellipse"
            lines.append(f'  n{idx} [shape={shape}, label="{_key_label(k)}"];')
        for (u, v), mult in sorted(self.arrows.items(), key=repr):
            for _ in range(mult):
                lines.append(f"  {names[u]} -> {names[v]};")
        lines.append("}")
        return "\n".join(lines)


def _signed(arrows, keys) -> dict:
    """The nonzero signed multiplicities m[u][v] of the pairs of distinct
    ``keys`` that ``arrows`` joins, in both orders; the positive ones are
    the arrows left once opposite arrows cancel."""
    net = {}
    for (u, v), a in arrows.items():
        if u != v and u in keys and v in keys:
            m = a - arrows.get((v, u), 0)
            if m:
                net[u, v] = m
                net[v, u] = -m
    return net


def _key_label(k):
    if isinstance(k, frozenset):
        return "{" + ",".join(str(x) for x in sorted(k)) + "}"
    return str(k)


def quiver_of(g: PlabicGraph, keys: str = "auto") -> Quiver:
    """The quiver with one vertex per non-outer face.

    A bicolored edge separating two distinct faces (at least one internal)
    contributes an arrow crossing it with the white endpoint on the left;
    opposite arrows cancel.  Vertex keys are the target face labels when
    the graph is reduced (``keys="labels"``), or raw face indices
    (``keys="ids"``); ``"auto"`` picks labels exactly when reduced.
    """
    if keys not in ("auto", "labels", "ids"):
        raise ValueError(f"keys must be 'auto', 'labels' or 'ids', got {keys!r}")
    faces, fmap, _ = g._fact("faces")
    nonouter = [idx for idx, f in enumerate(faces) if f.kind != "outer"]
    if keys == "auto":
        keys = "labels" if g._fact("is_reduced").reduced else "ids"
    if keys == "labels":
        labeling = _face_labels(g, "target", True)
        key_of = {idx: frozenset(labeling[idx]) for idx in nonouter}
    else:
        key_of = {idx: idx for idx in nonouter}
    frozen_of = {idx: faces[idx].kind == "boundary" for idx in nonouter}
    raw = {}
    for d0 in range(0, g._dart_bound(), 2):  # edge-index order, as edge_ids
        if d0 not in g._dart_vertex:  # a hole
            continue
        u, v = g.dart_vertex(d0), g.dart_vertex(d0 ^ 1)
        if u < 0 or v < 0 or u == v or g.color(u) == g.color(v):
            continue
        d = d0 if g.color(u) == WHITE else d0 ^ 1
        left = fmap[d]
        right = fmap[g.twin(d)]
        if left == right:
            continue
        if frozen_of[left] and frozen_of[right]:
            continue
        raw[(right, left)] = raw.get((right, left), 0) + 1
    arrows = {(key_of[u], key_of[v]): a for (u, v), a in _signed(raw, frozen_of).items() if a > 0}
    vertices = [(key_of[idx], frozen_of[idx]) for idx in nonouter]
    return Quiver(vertices, arrows)


def mutate(q: Quiver, k) -> Quiver:
    return q.mutate(k)


# ----------------------------------------------------------------------
# triangulations


def _triangulation_sides(m):
    return [frozenset({i, i % m + 1}) for i in range(1, m + 1)]


def check_triangulation(m: int, triangles):
    """Validate a triangulation of a convex m-gon given as vertex triples."""
    message = "m and the triangle corners must be integers, got {}"
    (m,) = _ints((m,), NotATriangulation, message)
    try:
        tris = [tuple(sorted(_ints(t, NotATriangulation, message))) for t in triangles]
    except TypeError:  # not iterable
        raise NotATriangulation(f"expected a list of triangles, got {_show(triangles)}") from None
    if len(tris) != m - 2:
        raise NotATriangulation(f"expected {m - 2} triangles, got {len(tris)}")
    for t in tris:
        if len(set(t)) != 3 or not all(1 <= x <= m for x in t):
            raise NotATriangulation(f"bad triangle {t}")
    sides = set(_triangulation_sides(m))
    counts = {}
    for t in tris:
        a, b, c = t
        for pair in (frozenset({a, b}), frozenset({a, c}), frozenset({b, c})):
            counts[pair] = counts.get(pair, 0) + 1
    diagonals = set()
    for pair, c in counts.items():
        if pair in sides:
            if c != 1:
                raise NotATriangulation(f"side {sorted(pair)} used {c} times")
        else:
            if c != 2:
                raise NotATriangulation(f"diagonal {sorted(pair)} used {c} times")
            diagonals.add(pair)
    if len(diagonals) != m - 3:
        raise NotATriangulation("wrong number of diagonals")
    return tris, sorted(diagonals, key=sorted)


def triangulation_label_key(pair, m: int) -> frozenset:
    """Target face label of the face that a polygon side/diagonal opens into.

    With the corner-k-to-boundary-(k+1) stub convention used by
    ``from_triangulation``, the face across side or diagonal {i, j} carries
    the target label {i+2, j+2} (mod m, 1-based).
    """
    return frozenset((x + 1) % m + 1 for x in pair)


def from_triangulation(m: int, triangles) -> PlabicGraph:
    """The plabic graph of a polygon triangulation: a white vertex per
    corner, a black vertex inside each triangle joined to its corners, and
    a stub from corner k to boundary vertex k+1.

    The quiver of the result equals the triangulation quiver
    (``quiver_of_triangulation``) after renaming each side/diagonal key by
    ``triangulation_label_key``.
    """
    tris, _ = check_triangulation(m, triangles)

    def corner_angle(k):
        return math.pi / 2 - 2 * math.pi * (k - 1) / m

    def centroid(t):
        xs = [math.cos(corner_angle(k)) for k in t]
        ys = [math.sin(corner_angle(k)) for k in t]
        return sum(xs) / 3, sum(ys) / 3

    colors = {}
    rotation = {}
    # white corner vertices 1..m are internal ids 0..m-1
    for k in range(1, m + 1):
        colors[k - 1] = WHITE
    tri_vertex = {}
    for tidx, t in enumerate(tris):
        tri_vertex[t] = m + tidx
        colors[m + tidx] = BLACK
    edge_count = 0
    incident = {v: [] for v in colors}  # (clockwise bearing, edge id)

    def bearing(from_xy, to_xy):
        dx, dy = to_xy[0] - from_xy[0], to_xy[1] - from_xy[1]
        return math.atan2(dx, dy) % (2 * math.pi)  # clockwise from north

    pos = {k - 1: (math.cos(corner_angle(k)), math.sin(corner_angle(k))) for k in range(1, m + 1)}
    for t in tris:
        pos[tri_vertex[t]] = centroid(t)
    for t in tris:
        tv = tri_vertex[t]
        for k in t:
            e = edge_count
            edge_count += 1
            incident[tv].append((bearing(pos[tv], pos[k - 1]), e))
            incident[k - 1].append((bearing(pos[k - 1], pos[tv]), e))
    # boundary stubs: corner k attaches to boundary vertex k+1 (radially out)
    for k in range(1, m + 1):
        e = edge_count
        edge_count += 1
        label = k % m + 1
        out = (2 * pos[k - 1][0], 2 * pos[k - 1][1])
        incident[k - 1].append((bearing(pos[k - 1], out), e))
        rotation[-label] = [e]
    for v, inc in incident.items():
        rotation[v] = [e for _, e in sorted(inc)]
    return PlabicGraph.from_rotation(m, colors, rotation)


def quiver_of_triangulation(m: int, triangles) -> Quiver:
    """Direct construction: diagonals are mutable, sides frozen; each
    triangle contributes a clockwise cycle of arrows among its edges."""
    tris, diagonals = check_triangulation(m, triangles)
    sides = set(_triangulation_sides(m))
    vertices = [(d, False) for d in diagonals] + [(s, True) for s in sorted(sides, key=sorted)]
    raw = {}
    for t in tris:
        a, b, c = t  # a < b < c; clockwise order of edges around the triangle
        cyc = [frozenset({a, b}), frozenset({b, c}), frozenset({a, c})]
        for idx in range(3):
            u, v = cyc[idx], cyc[(idx + 1) % 3]
            if u in sides and v in sides:
                continue
            raw[(u, v)] = raw.get((u, v), 0) + 1
    return Quiver(vertices, {pair: a for pair, a in _signed(raw, dict(vertices)).items() if a > 0})


# ----------------------------------------------------------------------
# wiring diagrams


def parse_word(text: str):
    """Tokens like "s2 s3 s2"; capital S marks a thick crossing."""
    word = []
    for tok in _text(text, BadWord).split():
        if len(tok) < 2 or tok[0] not in "sS" or not tok[1:].isdigit():
            raise BadWord(f"bad token {tok!r}")
        word.append((_parse_int(tok[1:], BadWord), tok[0] == "S"))
    return word


def from_wiring(word, n: int, kind: str = "single") -> PlabicGraph:
    """The plabic graph of a wiring diagram.

    ``word`` is a list of letters; each letter is either an int i (with
    1 <= i < n) or a pair (i, thick).  For single diagrams every crossing
    puts the black vertex on top; for double diagrams thin crossings put
    the white vertex on top and thick crossings the black one.  Wires are
    numbered from the bottom; boundary labels run 1..n up the left side
    then n+1..2n down the right side.
    """
    if kind not in ("single", "double"):
        raise ValueError(f"kind must be 'single' or 'double', got {kind!r}")
    if _ints((n,), BadWord, "the number of wires must be an integer, got {}")[0] < 1:
        raise BadWord(f"a wiring diagram needs at least one wire, got {_show(n)}")
    try:
        letters = [w if isinstance(w, tuple) else (w, True) for w in word]
        for i in _ints([i for i, _ in letters], BadWord, "letters must be integers, got {}"):
            if not 1 <= i < n:
                raise BadWord(f"letter s{_show(i)} out of range for {n} wires")
    except (TypeError, ValueError):  # no sequence, or a tuple that is no pair
        raise BadWord(f"not a word of letters i or pairs (i, thick): {_show(word)}") from None
    if kind == "single":
        letters = [(i, True) for i, _ in letters]
    colors = {}
    rows = {r: [] for r in range(1, n + 1)}  # (x, vertex)
    vid = 0
    for x, (i, thick) in enumerate(letters):
        lo, hi = vid, vid + 1
        # thick: black on top (row i+1); thin: white on top
        colors[lo] = WHITE if thick else BLACK
        colors[hi] = BLACK if thick else WHITE
        rows[i].append((x, lo))
        rows[i + 1].append((x, hi))
        vid += 2
    rotation = {v: {} for v in colors}  # direction -> edge
    boundary = {}  # boundary vertex -> [its edge]
    edge_count = 0

    def fresh():
        nonlocal edge_count
        edge_count += 1
        return edge_count - 1

    # vertical edges inside each crossing
    for x in range(len(letters)):
        lo, hi = 2 * x, 2 * x + 1
        e = fresh()
        rotation[lo]["N"] = e
        rotation[hi]["S"] = e
    # horizontal wires with boundary stubs
    for r in range(1, n + 1):
        prev = -r  # left label r
        for _, v in sorted(rows[r]):
            e = fresh()
            if prev < 0:
                boundary[prev] = [e]
            else:
                rotation[prev]["E"] = e
            rotation[v]["W"] = e
            prev = v
        e = fresh()
        if prev < 0:
            boundary[prev] = [e]  # wire with no crossings: boundary-boundary edge
        else:
            rotation[prev]["E"] = e
        boundary[-(2 * n - r + 1)] = [e]  # right label
    rotation = {v: [rot[d] for d in "NESW" if d in rot] for v, rot in rotation.items()}
    return PlabicGraph.from_rotation(2 * n, colors, {**rotation, **boundary})
