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
from .errors import BadBudget, NotReducedError, TooLarge
from .graph import PlabicGraph
from .normalize import _is_reduced
from .perms import (
    DecoratedPermutation,
    _mask,
    _positroid_members,
    _separated,
    affinize,
    length,
    necklace_from_perm,
)
from .trips import _all_trips, decorated_trip_permutation


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
    guarantees it.  The labels are found once per graph and mode; every
    call returns a new dict.
    """
    return dict(_face_labels(g, mode, check))


def _face_labels(g: PlabicGraph, mode: str, check: bool) -> dict:
    """The labeling ``face_labels`` copies, kept in the graph's cache;
    callers inside the package read it and must not change it."""
    if mode not in ("source", "target"):
        raise ValueError(f"mode must be 'source' or 'target', got {mode!r}")
    if check:
        red = _is_reduced(g)
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
        mark = [None] * g._dart_bound()
        seed = {i for i, dec in decorated.decorations.items() if dec == "over"}
        for t in _all_trips(g):
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
    return frozenset(_face_labels(g, mode, check).values())


def strongly_equivalent(g1: PlabicGraph, g2: PlabicGraph) -> bool:
    """Whether two reduced graphs have the same sets of target face labels."""
    return label_collection(g1, "target") == label_collection(g2, "target")


# ----------------------------------------------------------------------
# enumeration of maximal weakly separated collections, on label masks


def _bits(m):
    """The labels of a mask, in increasing order."""
    return [x for x in range(m.bit_length()) if m >> x & 1]


def _mutation_steps(collection, labels):
    """All square-move transformations of a collection of a-subset masks.

    ``labels`` maps each member to its labels in increasing order.  A member
    M flips to M - {i, j} + {c2, c4}, for i < c2 < j and c4 outside [i, j],
    when the sides M - j + c2, M - i + c2, M - i + c4 and M - j + c4 are all
    present.  Sorted, {i, c2, j, c4} is the cyclic quad of these sides, so
    each step is found once, from the member it removes.  The sides are read
    off one pass over the members: ``completions[K]`` is the mask of the x
    with K + x a member, so the c with both M - i + c and M - j + c present
    are the bits of ``completions[M - i] & completions[M - j]``.
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


def enumerate_ws(p: DecoratedPermutation, limit: int = None):
    """All maximal weakly separated collections attached to the permutation.

    Starts from the target labels of a bridge graph and closes under square
    moves; every collection returned contains the Grassmann necklace, lies
    inside the positroid, has size a(b-a) - length + 1 and is pairwise
    weakly separated.  Raises TooLarge when ``limit`` is exceeded, and
    BadBudget for a ``limit`` that is not a non-negative integer.
    """
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 0):
        raise BadBudget(f"limit must be a non-negative integer, got {limit!r}")
    b = p.b
    a = p.anti_excedances()
    nk = necklace_from_perm(p)
    posd = {_mask(J, b): J for J in _positroid_members(nk)}  # mask -> labels
    necklace = {_mask(s, b) for s in nk.sets}
    size = a * (b - a) - length(affinize(p)) + 1
    seed = frozenset(_mask(s, b) for s in label_collection(bridge_graph(p), "target"))
    _check_collection(seed, necklace, posd, size)

    def expand(coll):
        found = []
        for old, new in _mutation_steps(coll, posd):
            cand = coll - {old} | {new}
            if len(cand) != size:
                continue
            if new not in posd:
                continue
            if not _separated(new, cand):
                continue
            if not necklace <= cand:
                continue
            found.append(cand)
        return found

    seen = set()
    queue = []  # breadth first: the collections found, in order

    def visit(coll):
        if coll not in seen:
            # a compact copy: a frozenset made by - and | keeps a table
            # sized for twice its members, and the search holds every one
            coll = frozenset(tuple(coll))
            seen.add(coll)
            queue.append(coll)
            if limit is not None and len(seen) > limit:
                raise TooLarge(f"more than {limit} collections; raise the limit")

    visit(seed)
    for coll in queue:
        for cand in expand(coll):
            visit(cand)
    seen.clear()
    # back to frozensets, one per distinct label, freeing each mask
    # collection as it is converted
    sets = {}
    out = set()
    while queue:
        coll = queue.pop()
        for m in coll:
            if m not in sets:
                sets[m] = frozenset(posd[m])
        out.add(frozenset(map(sets.__getitem__, coll)))
    return out


def _check_collection(coll, necklace, posd, size):
    if len(coll) != size:
        raise AssertionError(
            f"seed collection has {len(coll)} labels, expected {size}"
        )
    for s in necklace:
        if s not in coll:
            raise AssertionError(f"necklace member {_bits(s)} missing from seed")
    for s in coll:
        if s not in posd:
            raise AssertionError(f"seed label {_bits(s)} outside the positroid")
