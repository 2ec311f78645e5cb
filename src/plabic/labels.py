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

from collections import deque
from itertools import combinations

from . import normalize  # registers the fact "is_reduced"
from .bridges import bridge_graph
from .errors import BadBudget, NotReducedError, TooLarge, _ints, _show
from .graph import _FACTS, PlabicGraph
from .perms import (
    DecoratedPermutation,
    _mask,
    _member_test,
    _separated,
    affinize,
    length,
    necklace_from_perm,
)
from .trips import decorated_trip_permutation


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
    """The labeling ``face_labels`` copies, the fact "source_labels" or
    "target_labels"; callers inside the package must not change it."""
    if mode not in ("source", "target"):
        raise ValueError(f"mode must be 'source' or 'target', got {mode!r}")
    if check:
        red = g._fact("is_reduced")
        if not red.reduced:
            raise NotReducedError(red.witness)
    return g._fact(mode + "_labels")


def _label_faces(g: PlabicGraph, mode: str) -> dict:
    """The labeling of ``face_labels`` in ``mode``, found afresh: the trip on
    dart d marks ``mark[source[d]]``, None for a roundtrip or fixed point."""
    decorated = decorated_trip_permutation(g)
    faces, fmap, _ = g._fact("faces")
    start = next((idx for idx, f in enumerate(faces) if f.kind == "boundary"), None)
    if start is None:
        return {}
    b = g.b
    arc = faces[start].rim_arcs[0]
    targets, source, _ = g._fact("trips")
    mark = [None] * (b + 1)
    seed = {i for i, dec in decorated.decorations.items() if dec == "over"}
    for i, t in enumerate(targets, 1):
        if i == t:
            continue
        m = mark[i] = i if mode == "source" else t
        if (arc - i) % b < (t - i) % b:
            seed.add(m)
    found = {start: frozenset(seed)}
    queue = [start]
    for f in queue:
        label = found[f]
        for d in faces[f].darts:
            h = fmap[d ^ 1]
            if h in found:
                continue
            out, into = mark[source[d]], mark[source[d ^ 1]]
            if out != into:
                label_h = set(label)
                label_h.discard(out)
                if into is not None:
                    label_h.add(into)
                found[h] = frozenset(label_h)
            else:
                found[h] = label
            queue.append(h)
    return {idx: found[idx] for idx in sorted(found)}


_FACTS["source_labels"] = lambda g: _label_faces(g, "source")
_FACTS["target_labels"] = lambda g: _label_faces(g, "target")


def label_collection(g: PlabicGraph, mode: str = "target", check: bool = True) -> frozenset:
    """The set of face labels (forgetting which face carries which)."""
    return frozenset(_face_labels(g, mode, check).values())


def strongly_equivalent(g1: PlabicGraph, g2: PlabicGraph) -> bool:
    """Whether two reduced graphs have the same sets of target face labels."""
    return label_collection(g1, "target") == label_collection(g2, "target")


# ----------------------------------------------------------------------
# enumeration of maximal weakly separated collections, on positroid bitsets
#
# The members of the positroid are numbered 0, 1, ... as the search meets
# them: a mask's membership (Oh's threshold test against the necklace) is
# found once and remembered, so nothing is paid for members the search
# never reaches.  A collection is the int with bit t set for each member t
# it holds.  The square moves that remove member t are read off the
# positroid into one row (``_square_row``) the first time t appears in a
# collection; necklace members lie in every collection and get an empty
# row.  A move is legal in a collection exactly when the collection holds
# its four sides and not the member it brings in, which is one AND and one
# comparison.  Only the seed is tested for weak separation: a square move
# inside the positroid takes a maximal weakly separated collection to
# another one (Oh--Postnikov--Speyer).  Each collection travels with the
# list of its member numbers, and a result's list is its parent's with one
# number replaced.


def _bits(m):
    """The set bits of m, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _square_row(t, m, b, lookup):
    """The square moves that remove member t, of mask m, from a collection,
    as (look, need, flip, v) with the member numbers ``lookup`` gives.

    A move flips m to u = m - {i, j} + {c2, c4}, for i < c2 < j and c4
    outside [i, j], and its sides are m - j + c2, m - i + c2, m - i + c4 and
    m - j + c4.  It is listed when u and all four sides lie in the positroid,
    that is when ``lookup`` gives them a number and not None; v is the
    number of u, ``need`` the bits of the sides, ``look`` those plus v's bit
    and ``flip`` the bits of t and v.  Sorted, {i, c2, j, c4} is the cyclic
    quad of the sides, so each move of a collection is found once, from the
    member it removes.
    """
    labels = _bits(m)
    free = [c for c in range(1, b + 1) if not m >> c & 1]
    # side[i]: for each c outside m, the number of m - i + c, or None
    side = {i: [lookup(m ^ 1 << i | 1 << c) for c in free] for i in labels}
    out = []
    for i, j in combinations(labels, 2):
        inner, outer = [], []  # (bit of c, bits of m - i + c and m - j + c)
        for c, si, sj in zip(free, side[i], side[j]):
            if si is not None and sj is not None:
                (inner if i < c < j else outer).append((1 << c, 1 << si | 1 << sj))
        core = m ^ 1 << i ^ 1 << j
        for c2, need2 in inner:
            for c4, need4 in outer:
                u = core | c2 | c4
                v = lookup(u)
                if v is not None:
                    need = need2 | need4
                    out.append((need | 1 << v, need, 1 << t | 1 << v, v))
    return out


def enumerate_ws(p: DecoratedPermutation, limit: int = None):
    """All maximal weakly separated collections attached to the permutation.

    Starts from the target labels of a bridge graph and closes under square
    moves; every collection returned contains the Grassmann necklace, lies
    inside the positroid, has size a(b-a) - length + 1 and is pairwise
    weakly separated.  The seed is tested for all four; its square moves
    inside the positroid keep them (Oh--Postnikov--Speyer), so no later
    collection is tested for weak separation.  The search holds each
    collection as a bitset over the positroid members it has met, numbered
    as it meets them, and reads the square moves of each member from a
    table row, built the first time the member appears; a move costs a few
    integer operations.  Raises TooLarge when ``limit`` is exceeded (the
    seed counts), and BadBudget for a ``limit`` that is not a non-negative
    integer.
    """
    message = "limit must be a non-negative integer, got {}"
    if limit is not None and _ints((limit,), BadBudget, message)[0] < 0:
        raise BadBudget(message.format(_show(limit)))
    b = p.b
    a = p.anti_excedances()
    nk = necklace_from_perm(p)
    member = _member_test(nk)
    number = {}  # mask -> its member number, or None outside the positroid
    masks = []  # member number -> mask

    def lookup(m):
        v = number.get(m, -1)
        if v == -1:
            v = number[m] = len(masks) if member(tuple(_bits(m))) else None
            if v is not None:
                masks.append(m)
        return v

    necklace = {_mask(s, b) for s in nk.sets}
    size = a * (b - a) - length(affinize(p)) + 1
    seed = frozenset(_mask(s, b) for s in label_collection(bridge_graph(p), "target"))
    _check_collection(seed, necklace, lookup, size)
    rows = {number[m]: () for m in necklace}  # member number -> its square moves
    sets = {}  # member number -> its labels, as returned
    seen = set()
    queue = deque()  # breadth first: (bitset, its member numbers)

    def visit(coll, ts):
        seen.add(coll)
        queue.append((coll, ts))
        if limit is not None and len(seen) > limit:
            raise TooLarge(f"more than {limit} collections; raise the limit")

    ts = [number[m] for m in seed]
    for t in ts:
        sets[t] = frozenset(_bits(masks[t]))
    visit(sum(1 << t for t in ts), ts)
    out = set()
    while queue:
        coll, ts = queue.popleft()
        for k, t in enumerate(ts):
            row = rows.get(t)
            if row is None:
                row = rows[t] = _square_row(t, masks[t], b, lookup)
            for look, need, flip, v in row:
                if coll & look != need or coll ^ flip in seen:
                    continue
                if v not in sets:
                    sets[v] = frozenset(_bits(masks[v]))
                child = ts.copy()
                child[k] = v
                visit(coll ^ flip, child)
        out.add(frozenset(map(sets.__getitem__, ts)))
    return out


def _check_collection(coll, necklace, lookup, size):
    """AssertionError unless the masks of coll are ``size`` many, hold the
    necklace, lie in the positroid (``lookup`` numbers them) and are
    pairwise weakly separated."""
    if len(coll) != size:
        raise AssertionError(
            f"seed collection has {len(coll)} labels, expected {size}"
        )
    for s in necklace:
        if s not in coll:
            raise AssertionError(f"necklace member {_bits(s)} missing from seed")
    for s in coll:
        if lookup(s) is None:
            raise AssertionError(f"seed label {_bits(s)} outside the positroid")
    for s, y in combinations(coll, 2):
        if not _separated(s, (y,)):
            raise AssertionError(
                f"seed label {_bits(s)} not weakly separated from {_bits(y)}"
            )
