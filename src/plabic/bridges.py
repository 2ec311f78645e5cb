"""BCFW factorization of bounded affine permutations and bridge graphs.

The factorization repeatedly swaps a pair of non-fixed positions i < j
carrying increasing values, with every position strictly between them
fixed, until the window is the identity modulo b.  Each swap lengthens the
permutation by one, so exactly ``a(b-a) - length`` swaps are made.

The bridge graph realizes the factorization: boundary vertices sit at the
top of vertical strands, bridges (horizontal rungs with the white end on
the smaller position) are attached top to bottom, and decorated fixed
points of the input become lollipops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import BLACK, WHITE, PlabicGraph
from .perms import BoundedAffinePermutation, DecoratedPermutation, affinize


@dataclass
class BridgeSequence:
    b: int
    transpositions: list  # ordered (i, j) pairs, attached top to bottom
    base_decorations: dict = field(default_factory=dict)  # position -> "over"/"under"

    def replay(self) -> BoundedAffinePermutation:
        """Rebuild the input window from the identity-mod-b base window."""
        w = [
            i if self.base_decorations[i] == "under" else i + self.b
            for i in range(1, self.b + 1)
        ]
        f = BoundedAffinePermutation(w)
        for i, j in reversed(self.transpositions):
            f = f.swap(i, j)
        return f

    def to_json_obj(self):
        return {
            "b": self.b,
            "transpositions": [list(t) for t in self.transpositions],
            "base_decorations": {str(k): v for k, v in self.base_decorations.items()},
        }


def bcfw_factorize(f: BoundedAffinePermutation) -> BridgeSequence:
    """Factor the window into bridge transpositions.

    Among all admissible pairs (i, j) -- 1 <= i < j <= b, f(i) < f(j),
    neither endpoint fixed, every position strictly between them fixed --
    the one with the smallest i, then the smallest j, is chosen.

    It walks a plain list copy of the window and the sorted list of its
    moved positions, those i with f(i) != i mod b.  The admissible pairs
    are the consecutive moved pairs carrying increasing values, and a swap
    exchanges two window entries in place, dropping an endpoint that it
    fixes.  A swap at the k-th consecutive pair leaves every pair before
    the (k-1)-th as it was, so the next search starts there.  The whole
    factorization costs O(b + swaps * b) list steps and builds no
    permutation object.
    """
    b = f.b
    w = list(f.window)
    moved = [i for i in range(1, b + 1) if w[i - 1] % b != i % b]
    transpositions = []
    k = 0
    while moved:
        for k in range(max(k - 1, 0), len(moved) - 1):
            i, j = moved[k], moved[k + 1]
            if w[i - 1] < w[j - 1]:
                break
        else:  # pragma: no cover
            raise AssertionError(f"window {f.window} has no admissible pair at {w}")
        fi, fj = w[i - 1], w[j - 1]
        if not (i <= fj <= i + b and j <= fi <= j + b):  # pragma: no cover
            raise AssertionError(f"swapping {i} and {j} leaves the bounds of {w}")
        w[i - 1], w[j - 1] = fj, fi
        transpositions.append((i, j))
        if fi % b == j % b:
            del moved[k + 1]
        if fj % b == i % b:
            del moved[k]
    decor = {i: ("under" if w[i - 1] == i else "over") for i in range(1, b + 1)}
    return BridgeSequence(b, transpositions, decor)


def bridge_graph(p: DecoratedPermutation) -> PlabicGraph:
    """A reduced plabic graph with the given decorated trip permutation.

    Strand i hangs from boundary vertex i; each transposition (i, j) adds a
    white vertex on strand i and a black vertex on strand j joined by a
    rung.  Clockwise rotations read (up, east, down) at a white rung end
    and (up, down, west) at a black one.  For b = 0 it is the empty graph.
    """
    b = p.b
    # b = 0 has no bounded affine window; its graph is the empty one
    transpositions = bcfw_factorize(affinize(p)).transpositions if b else []
    colors = {}
    rotation = {}
    edge_count = 0
    vid = 0

    def fresh_edge():
        nonlocal edge_count
        edge_count += 1
        return edge_count - 1

    def fresh_vertex(color):
        nonlocal vid
        colors[vid] = color
        vid += 1
        return vid - 1

    strands = {i: [] for i in range(1, b + 1)}  # (vertex, rung edge, white?)
    for i, j in transpositions:
        w = fresh_vertex(WHITE)
        bk = fresh_vertex(BLACK)
        rung = fresh_edge()
        strands[i].append((w, rung, True))
        strands[j].append((bk, rung, False))
    for i in range(1, b + 1):
        chain = strands[i]
        if not chain:
            v = fresh_vertex(WHITE if p.decorations[i] == "over" else BLACK)
            e = fresh_edge()
            rotation[v] = [e]
            rotation[-i] = [e]
            continue
        ups = [fresh_edge() for _ in chain]
        rotation[-i] = [ups[0]]
        for k, (v, rung, is_white) in enumerate(chain):
            up = ups[k]
            down = ups[k + 1] if k + 1 < len(chain) else None
            if is_white:  # rung leaves eastward
                rot = [up, rung] + ([down] if down is not None else [])
            else:  # rung leaves westward
                rot = [up] + ([down] if down is not None else []) + [rung]
            rotation[v] = rot
    return PlabicGraph.from_rotation(b, colors, rotation)
