"""Normalization pipeline and the public reducedness decision.

``normalize`` turns an arbitrary plabic graph into a normal one (bipartite,
trivalent white vertices, boundary attached to black) that is
move-equivalent to the input up to lollipop bookkeeping, or else certifies
that the input is not reduced.  ``is_reduced`` reads a resonant graph
whose only leaves are lollipops as reduced (Kodama–Williams); for any other
graph it runs the pipeline and then looks for bad features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import _FACTS, BLACK, WHITE, Builder, PlabicGraph, _collapse_pendant, _pendant_vertices
from .trips import bad_features


@dataclass(frozen=True)
class Witness:
    kind: str  # "internal_leaf" | "loop" | a bad-feature kind
    vertices: tuple = ()
    edges: tuple = ()

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "edges": list(self.edges),
        }


@dataclass
class NormalizeResult:
    normal: PlabicGraph = None
    witness: Witness = None
    lollipops_removed: list = field(default_factory=list)  # (label, color)
    label_map: dict = field(default_factory=dict)  # old boundary label -> new

    @property
    def ok(self):
        return self.witness is None


def normalize(g: PlabicGraph) -> NormalizeResult:
    """Run the normalization stages.

    1. collapse collapsible trees;  2. remove bivalent vertices;
    3. remove lollipops (recorded; their boundary vertices are dropped and
    the remaining labels renumbered);  4. reject on a leftover internal
    leaf;  5. contract black-black edges, rejecting on loops;  6. split
    white vertices of degree >= 4 into left-comb trees;  7. insert a black
    bivalent vertex on every white-white and white-boundary edge.

    The stages run once per graph.  Every call returns a new result, which
    holds the same frozen normal graph and new copies of
    ``lollipops_removed`` and ``label_map``.
    """
    res = g._fact("normalize")
    return NormalizeResult(res.normal, res.witness, list(res.lollipops_removed),
                           dict(res.label_map))


def _normalize(g: PlabicGraph) -> NormalizeResult:
    """The fact "normalize": the stages of ``normalize``."""
    bld = Builder(g)
    _collapse_pendant(bld, _pendant_vertices(g))
    # loops certify non-reducedness immediately; report the smallest edge id
    loops = [e for k, e in enumerate(bld.ids)
             if e is not None and bld.dv[2 * k] == bld.dv[2 * k + 1]]
    if loops:
        return NormalizeResult(witness=Witness("loop", edges=(min(loops),)))

    # stage 2: bivalent removal; one pass, since a removal changes no other
    # vertex's degree
    for v in sorted(bld.colors):
        if bld.degree(v) == 2:
            d1, d2 = bld.rot[v]
            if d1 ^ 1 == d2:
                return NormalizeResult(witness=Witness("loop", vertices=(v,)))
            bld.remove_bivalent(v)
    # a bivalent removal can create a loop (hollow digon input); the darts
    # are scanned in (vertex id, rotation position) order of the input, so
    # that the loop reported does not depend on the dart numbers
    for v in sorted(g._rot):
        for d in g._rot[v]:
            if d in bld.dv and bld.dv[d] == bld.other_end(d):
                return NormalizeResult(witness=Witness("loop", edges=(bld.ids[d >> 1],)))

    # stage 3: remove lollipops, leaving their boundary vertices edgeless
    removed = []
    for v in sorted(bld.colors):
        if bld.degree(v) == 1:
            u = bld.other_end(bld.rot[v][0])
            if u < 0:
                removed.append((-u, bld.colors[v]))
                bld.delete_leaf_edge(v)

    # stage 4: leftover internal leaves certify non-reducedness
    for v in sorted(bld.colors):
        if bld.degree(v) == 1:
            return NormalizeResult(witness=Witness("internal_leaf", vertices=(v,)))

    # stage 5: contract black-black edges in one pass.  Only a black-black edge
    # can become a loop, and each one the scan passed was contracted, so a loop
    # a contraction makes lies ahead, where the u == v test returns on it.
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

    # stage 6: split white vertices of degree >= 4 into left combs
    changed = True
    while changed:
        changed = False
        for v in sorted(bld.colors):
            if bld.colors[v] == WHITE and bld.degree(v) >= 4:
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

    # the edged labels renumbered 1..b' in order, and the darts numbered afresh
    kept = [i for i in range(1, g.b + 1) if bld.rot[-i]]
    label_map = {old: new for new, old in enumerate(kept, start=1)}
    rot = {v if v >= 0 else -label_map[-v]: ds for v, ds in bld.rot.items() if v >= 0 or ds}
    normal = bld._number_afresh(len(kept), rot)
    return NormalizeResult(normal, lollipops_removed=removed, label_map=label_map)


@dataclass
class ReducednessResult:
    reduced: bool
    witness: Witness = None


def is_reduced(g: PlabicGraph) -> ReducednessResult:
    """Whether the graph is reduced, with a witness if not: a resonant graph
    (``trips.resonance``) is reduced by Kodama–Williams, and any other graph
    is normalized and its normal form scanned for bad features.  Decided
    once per graph; every call returns a new result, which shares the
    (immutable) witness."""
    res = g._fact("is_reduced")
    return ReducednessResult(res.reduced, res.witness)


def _decide_reduced(g: PlabicGraph) -> ReducednessResult:
    """The fact "is_reduced", the result ``is_reduced`` copies."""
    if g._fact("resonance"):
        return ReducednessResult(True)
    res = g._fact("normalize")
    if not res.ok:
        return ReducednessResult(False, res.witness)
    # a normal form with b = 0 is the empty graph, which has no features
    if feats := bad_features(res.normal):
        return ReducednessResult(False, Witness(feats[0].kind, edges=feats[0].edges))
    return ReducednessResult(True)


_FACTS.update(normalize=_normalize, is_reduced=_decide_reduced)
