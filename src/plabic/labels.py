"""Face labelings of reduced plabic graphs and weakly separated collections.

A face picks up the source label i (resp. target label i) when it lies to
the left of the trip starting (resp. ending) at boundary vertex i.  Trips
in a reduced graph cut the disk in two, and every dart lies on exactly one
trip, with its face on the trip's left.  So two faces across an edge differ
only in the marks of the two trips on that edge (Oh--Postnikov--Speyer):
crossing from the face of dart d to the face of its twin drops the mark of
the trip on d and adds the mark of the trip on the twin.  All labels
follow from one boundary face by a breadth-first search across edges.
Fixed-point trips contribute to every face when their lollipop is white
and to none when it is black.
"""

from __future__ import annotations

from itertools import combinations

from .bridges import bridge_graph
from .errors import NotReducedError, TooLarge
from .graph import PlabicGraph
from .normalize import is_reduced
from .perms import (
    DecoratedPermutation,
    affinize,
    length,
    necklace_from_perm,
    positroid,
    weakly_separated,
)
from .trips import all_trips, decorated_trip_permutation


def face_labels(g: PlabicGraph, mode: str = "target", check: bool = True) -> dict:
    """Map each non-outer face index to its label set, in face-index order.

    The search starts at the first boundary face, holding rim arc i (which
    joins boundary labels i and i+1).  That face lies left of the trip
    s -> t, s != t, exactly when ``(i - s) mod b < (t - s) mod b``, and of
    no roundtrip; fixed points decorated "over" mark every face.  Crossing
    an edge from the face of dart d to the face of ``d ^ 1`` then swaps the
    mark of the trip on d for the mark of the trip on ``d ^ 1``.

    Requires a reduced graph (labels are only well-sized there); pass
    ``check=False`` to skip the reducedness test when the caller already
    guarantees it.
    """
    if mode not in ("source", "target"):
        raise ValueError(f"mode must be 'source' or 'target', got {mode!r}")
    if check:
        red = is_reduced(g)
        if not red.reduced:
            raise NotReducedError(red.witness)
    cache_key = ("face_labels", mode)
    if cache_key in g._cache:
        return g._cache[cache_key]
    decorated = decorated_trip_permutation(g)
    faces = g.faces()
    start = next((idx for idx, f in enumerate(faces) if f.kind == "boundary"), None)
    if start is None:
        labels = {}
    else:
        b = g.b
        arc = faces[start].rim_arcs[0]
        # mark[d]: the mark of the one-way, non-fixed trip on dart d
        mark = [None] * g.num_darts()
        seed = {i for i, dec in decorated.decorations.items() if dec == "over"}
        for t in all_trips(g):
            if t.kind != "oneway" or t.source == t.target:
                continue
            m = t.source if mode == "source" else t.target
            for d in t.darts:
                mark[d] = m
            if (arc - t.source) % b < (t.target - t.source) % b:
                seed.add(m)
        fmap = g.face_of_dart()
        found = {start: frozenset(seed)}
        queue = [start]
        for f in queue:
            label = found[f]
            for d in faces[f].darts:
                h = fmap[d ^ 1]
                if h in found:
                    continue
                out, into = mark[d], mark[d ^ 1]
                if out != into:
                    label_h = set(label)
                    label_h.discard(out)
                    if into is not None:
                        label_h.add(into)
                    found[h] = frozenset(label_h)
                else:
                    found[h] = label
                queue.append(h)
        labels = {idx: found[idx] for idx in sorted(found)}
    g._cache[cache_key] = labels
    return labels


def label_collection(g: PlabicGraph, mode: str = "target", check: bool = True) -> frozenset:
    """The set of face labels (forgetting which face carries which)."""
    return frozenset(face_labels(g, mode, check=check).values())


def strongly_equivalent(g1: PlabicGraph, g2: PlabicGraph) -> bool:
    """Whether two reduced graphs have the same sets of target face labels."""
    return label_collection(g1, "target") == label_collection(g2, "target")


# ----------------------------------------------------------------------
# enumeration of maximal weakly separated collections


def _mutation_steps(collection, b):
    """All square-move transformations of a collection of a-subsets of 1..b.

    A member M flips to M - {i, j} + {c2, c4}, for i < c2 < j and c4 outside
    [i, j], when the sides M - j + c2, M - i + c2, M - i + c4 and M - j + c4
    are all present.  Sorted, {i, c2, j, c4} is the cyclic quad of these
    sides, so each step is found once, from the member it removes.
    """
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


def enumerate_ws(p: DecoratedPermutation, limit: int = None):
    """All maximal weakly separated collections attached to the permutation.

    Starts from the target labels of a bridge graph and closes under square
    moves; every collection returned contains the Grassmann necklace, lies
    inside the positroid, has size a(b-a) - length + 1 and is pairwise
    weakly separated.  Raises TooLarge when ``limit`` is exceeded.
    """
    b = p.b
    a = p.anti_excedances()
    nk = necklace_from_perm(p)
    posd = positroid(nk)
    size = a * (b - a) - length(affinize(p)) + 1
    seed = label_collection(bridge_graph(p), "target")
    _check_collection(seed, nk, posd, size)

    def expand(coll):
        found = []
        for old, new in _mutation_steps(coll, b):
            cand = frozenset((coll - {old}) | {new})
            if len(cand) != size:
                continue
            if new not in posd:
                continue
            if not all(new == s or weakly_separated(new, s, b) for s in cand):
                continue
            if not all(s in cand for s in nk.sets):
                continue
            found.append(cand)
        return found

    seen = set()
    queue = []  # breadth first: the collections found, in order

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


def _check_collection(coll, nk, posd, size):
    if len(coll) != size:
        raise AssertionError(
            f"seed collection has {len(coll)} labels, expected {size}"
        )
    for s in nk.sets:
        if s not in coll:
            raise AssertionError(f"necklace member {sorted(s)} missing from seed")
    for s in coll:
        if s not in posd:
            raise AssertionError(f"seed label {sorted(s)} outside the positroid")
