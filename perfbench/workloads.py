"""The four benchmark workloads: input generation, one round of ops, checks.

Every input is built in set-up from ``--seed`` through the public API and
the graph-JSON format, and handed to the ops as JSON text, so each round
parses fresh graphs and no per-graph cache survives from one round to the
next.  A round runs every op of the workload once; ``run.py`` repeats
rounds until the run's time is up.  ``run_round`` returns a dict of work
counts, which must be identical in every round of a run.

Calls into ``plabic`` go through ``L``, the table built by ``layers``, so
that a traced run can wrap each of them in a span.
"""

import json
import math
import random
from collections import Counter
from types import SimpleNamespace

DEFAULT_SEED = 7

PRIMITIVE = ("SquareM1", "InsertBivalentM2", "RemoveBivalentM2",
             "ContractM3", "SplitM3", "FlipM4")
# The kinds move_equivalent searches over.
SEARCH = ("SquareM1", "RemoveBivalentM2", "InsertBivalentM2",
          "ContractM3", "SplitM3")
# Search moves that add one internal vertex: a pair built from d of them
# is exactly d search moves apart, since no search move adds two.
GROWING = ("InsertBivalentM2", "SplitM3")

# (span name, attribute of L, how to get it from the imported package)
LAYERS = (
    ("graph.from_json", "from_json", lambda P: P.PlabicGraph.from_json),
    ("graph.to_json", "to_json", lambda P: P.PlabicGraph.to_json),
    ("graph.validate", "validate", lambda P: P.validate),
    ("graph.classify", "classify", lambda P: P.classify),
    ("graph.nonouter_faces", "nonouter_faces",
     lambda P: P.PlabicGraph.nonouter_faces),
    ("graph.canonical_key", "canonical_key",
     lambda P: P.PlabicGraph.canonical_key),
    ("moves.legal_moves", "legal_moves", lambda P: P.legal_moves),
    ("moves.apply_move", "apply_move", lambda P: P.apply_move),
    ("moves.move_equivalent", "move_equivalent", lambda P: P.move_equivalent),
    ("trips.trip_permutation", "trip_permutation",
     lambda P: P.trip_permutation),
    ("trips.decorated_trip_permutation", "decorated_trip_permutation",
     lambda P: P.decorated_trip_permutation),
    ("trips.resonance", "resonance", lambda P: P.resonance),
    ("normalize.is_reduced", "is_reduced", lambda P: P.is_reduced),
    ("normalize.normalize", "normalize", lambda P: P.normalize),
    ("labels.label_collection", "label_collection",
     lambda P: P.label_collection),
    ("labels.face_labels", "face_labels", lambda P: P.face_labels),
    ("labels.enumerate_ws", "enumerate_ws", lambda P: P.enumerate_ws),
    ("perms.necklace_from_perm", "necklace_from_perm",
     lambda P: P.necklace_from_perm),
    ("perms.positroid", "positroid", lambda P: P.positroid),
    ("bridges.bridge_graph", "bridge_graph", lambda P: P.bridge_graph),
    ("quiver.quiver_of", "quiver_of", lambda P: P.quiver_of),
    ("triple.minimality", "minimality",
     lambda P: lambda normal: P.TripleView(normal).minimality()),
)


def layers(P, tracer=None):
    """The table of library calls; with a tracer, each records a span.
    ``apply_move`` spans are named by move kind."""
    L = SimpleNamespace()
    for name, attr, get in LAYERS:
        fn = get(P)
        if tracer is not None:
            name_of = None
            if attr == "apply_move":
                name_of = lambda g, m, *rest: "moves.apply_move." + m.kind
            fn = tracer.wrap(name, fn, name_of)
        setattr(L, attr, fn)
    return L


# ----------------------------------------------------------------------
# shared helpers


def random_decorated_permutation(P, b, rng):
    vals = list(range(1, b + 1))
    rng.shuffle(vals)
    dec = {i: rng.choice(["over", "under"])
           for i in range(1, b + 1) if vals[i - 1] == i}
    return P.DecoratedPermutation(vals, dec)


def spec_key(m):
    """Order of move specs that does not depend on enumeration order."""
    return tuple(sorted(m.to_json_obj().items()))


def moves_of(L, g, kinds, counts):
    """Legal moves of the given kinds (all kinds for None), sorted by
    ``spec_key``; ``counts`` accumulates specs returned and kept."""
    found = L.legal_moves(g)
    kept = [m for m in found if kinds is None or m.kind in kinds]
    counts.returned += len(found)
    counts.kept += len(kept)
    kept.sort(key=spec_key)
    return kept


def face_count_law(P, p):
    """Non-outer faces of a reduced graph with decorated permutation p."""
    a = p.anti_excedances()
    return a * (p.b - a) - P.length(P.affinize(p)) + 1


def sizes(L, g):
    """(V, E, F, b): internal vertices, edges, non-outer faces, boundary."""
    return (len(g.internal_vertices()), len(g.edge_ids),
            len(L.nonouter_faces(g)), g.b)


def mean_sizes(P, L, texts):
    rows = [sizes(L, L.from_json(t)) for t in texts]
    return tuple(round(sum(col) / len(rows), 1) for col in zip(*rows))


def run_op(rec, body, tag=None, count=1):
    """Time ``body()`` as one op (or ``count`` ops sharing its time).
    A check that fails, or an exception, fails the op."""
    handle = rec.begin()
    try:
        ok, note = body(), None
    except Exception as exc:  # any library error is a failed op
        ok, note = False, f"{type(exc).__name__}: {exc}"
    rec.end(handle, bool(ok), tag=tag, count=count, note=note)
    return ok


# ----------------------------------------------------------------------
# walk: criterion-7 move walks


class Walk:
    """One op is one move step with its invariant checks.  A walk's first
    step also parses the start graph and computes the invariants it keeps;
    its last step also runs ``is_reduced``."""

    name = "walk"
    walks = 144
    fixture_starts = ("square_fan_b5", "square_fan_b5_lollipop",
                      "two_trees_b6", "normal_b5", "square_path_b6")
    # one round's work at DEFAULT_SEED; SquareM1 steps are as rare as in
    # criterion 7 (4 in its 6k steps)
    pinned = {"steps": 14401, "ContractM3": 1609, "FlipM4": 22,
              "InsertBivalentM2": 9408, "RemoveBivalentM2": 3339,
              "SplitM3": 18, "SquareM1": 5}

    def make_inputs(self, P, F, L, rng, counts):
        # lengths rise with the walk index, so each kind of start graph
        # (which repeats every 12 walks) gets long and short walks alike
        lengths = [1 + (199 * i) // (self.walks - 1) for i in range(self.walks)]
        out = []
        for w in range(self.walks):
            if w % 3 == 0:
                name = self.fixture_starts[w // 3 % len(self.fixture_starts)]
                g = getattr(F, name)()
            else:
                b = 3 + (w - w // 3 - 1) % 4
                g = L.bridge_graph(random_decorated_permutation(P, b, rng))
            out.append((L.to_json(g), lengths[w], rng.getrandbits(64)))
        return out

    def run_round(self, P, L, walks, rec):
        kinds = Counter()
        for text, steps, choice_seed in walks:
            st = SimpleNamespace(r=random.Random(choice_seed))

            def step(first, last):
                if first:
                    st.g = L.from_json(text)
                    st.p = L.decorated_trip_permutation(st.g)
                    st.nfaces = len(L.nonouter_faces(st.g))
                    st.labels = L.label_collection(st.g, "target", check=False)
                g = st.g
                mv = st.r.choice(moves_of(L, g, PRIMITIVE, rec))
                kinds[mv.kind] += 1
                h = L.apply_move(g, mv)
                ok = (L.decorated_trip_permutation(h) == st.p
                      and len(L.nonouter_faces(h)) == st.nfaces)
                new = L.label_collection(h, "target", check=False)
                if mv.kind == "SquareM1":
                    ok = (ok and len(st.labels ^ new) == 2
                          and square_rule_holds(L, g, h, mv.face))
                else:
                    ok = ok and new == st.labels
                st.labels, st.g = new, h
                if last:
                    ok = ok and L.is_reduced(h).reduced
                return ok

            for s in range(steps):
                if not run_op(rec, lambda: step(s == 0, s == steps - 1)):
                    break
        return {"steps": sum(kinds.values()), **dict(sorted(kinds.items()))}

    def describe(self, P, L, walks):
        return {"walks": len(walks),
                "start_mean_VEFb": mean_sizes(P, L, [t for t, _, _ in walks])}


def square_rule_holds(L, before, after, face_idx):
    """The square face's label flips ikS <-> jlS; its four neighbours carry
    ijS, jkS, klS, ilS; no other label changes (criterion 7)."""
    lb = L.face_labels(before, "target", check=False)
    la = L.face_labels(after, "target", check=False)
    if [idx for idx in lb if lb[idx] != la[idx]] != [face_idx]:
        return False
    old, new = lb[face_idx], la[face_idx]
    common = old & new
    ik, jl = old - common, new - common
    if len(ik) != 2 or len(jl) != 2 or ik & jl:
        return False
    fmap = before.face_of_dart()
    side = {lb[fmap[before.twin(d)]] for d in before.faces()[face_idx].darts}
    i, k = sorted(ik)
    j, l = sorted(jl)
    return side == {frozenset(common | {x, y})
                    for x, y in ((i, j), (j, k), (k, l), (i, l))}


# ----------------------------------------------------------------------
# decide: the read-only path behind `plabic info/labels/quiver`


class Decide:
    """One op decides one graph given as JSON text and cross-checks the
    reducedness criteria as criterion 8 does."""

    name = "decide"
    rotations = (("gr38", 3, 8), ("gr512", 5, 12), ("gr816", 8, 16))
    b_range = range(8, 17)
    per_cell = 23  # graphs per (b, perturbation style): over 1000 in all
    # one round's work at DEFAULT_SEED
    pinned = {"graphs": 1038, "minimality_checked": 830, "reduced": 417,
              "resonance_checked": 1016}

    def make_inputs(self, P, F, L, rng, counts):
        items = []
        for tag, a, b in self.rotations:
            p = P.cyclic_rotation(a, b)
            items.append(self._item(P, L, tag, L.bridge_graph(p), True, p))
        for b in self.b_range:
            for style in range(5):
                for _ in range(self.per_cell):
                    p = random_decorated_permutation(P, b, rng)
                    g = L.bridge_graph(p)
                    # a digon or loop makes the graph non-reduced; moves
                    # preserve reducedness and the decorated permutation
                    reduced = True
                    if style in (1, 4):
                        digon = with_parallel_digon(L, g, rng)
                        if digon is not None:
                            g, reduced = digon, False
                    if style == 2:
                        g, reduced = with_loop(L, g, rng), False
                    if style in (3, 4):
                        for _ in range(rng.randint(1, 4 if style == 3 else 3)):
                            g = L.apply_move(g, rng.choice(
                                moves_of(L, g, None, counts)))
                    items.append(self._item(P, L, f"b{b}s{style}", g, reduced,
                                            p if reduced else None))
        return items

    @staticmethod
    def _item(P, L, tag, g, reduced, perm):
        faces = face_count_law(P, perm) if perm is not None else None
        size = perm.anti_excedances() if perm is not None else None
        return SimpleNamespace(tag=tag, text=L.to_json(g), reduced=reduced,
                               perm=perm, faces=faces, label_size=size)

    def run_round(self, P, L, items, rec):
        work = Counter()

        def decide(it):
            g = L.from_json(it.text)
            ok = L.validate(g).ok
            red = L.is_reduced(g).reduced
            tp = L.trip_permutation(g)
            ok = ok and red == it.reduced
            if it.perm is not None:
                ok = ok and list(tp) == list(it.perm.values)
            if red:
                work["reduced"] += 1
                dtp = L.decorated_trip_permutation(g)
                labels = L.face_labels(g, "target")
                q = L.quiver_of(g)
                ok = (ok and dtp == it.perm and len(labels) == it.faces
                      and len(set(labels.values())) == len(labels)
                      and all(len(s) == it.label_size for s in labels.values())
                      and len(q.keys()) == len(labels))
            res = L.normalize(g)
            if res.ok and res.normal.b:
                work["minimality_checked"] += 1
                ok = ok and L.minimality(res.normal).minimal == red
            info = L.classify(g)
            if all(v in info["lollipops"] for v in info["internal_leaves"]):
                work["resonance_checked"] += 1
                ok = ok and L.resonance(g) == red
            return ok and L.to_json(g) == it.text

        for it in items:
            tag = it.tag if it.tag.startswith("gr") else None
            run_op(rec, lambda: decide(it), tag=tag)
            work["graphs"] += 1
        return dict(sorted(work.items()))

    def describe(self, P, L, items):
        out = {it.tag + "_VEFb": sizes(L, L.from_json(it.text))
               for it in items if it.tag.startswith("gr")}
        out["graphs"] = len(items)
        out["seeded_mean_VEFb"] = mean_sizes(
            P, L, [it.text for it in items if not it.tag.startswith("gr")])
        return out


def _rotation_lists(L, g):
    obj = json.loads(L.to_json(g))
    return obj, {int(v): es for v, es in obj["rotation"].items()}


def _with_rotation(L, obj, rot, new_edge):
    obj["rotation"] = {str(v): es for v, es in rot.items()}
    obj["edges"].append({"id": new_edge})
    return L.from_json(json.dumps(obj))


def with_parallel_digon(L, g, rng):
    """Double a random internal edge, adjacent in rotation on both sides,
    by editing the graph's JSON rotation lists; None without such an edge
    (a graph of lollipops only)."""
    obj, rot = _rotation_lists(L, g)
    ends = {}
    for v in sorted(rot):
        for e in rot[v]:
            ends.setdefault(e, []).append(v)
    cands = [e for e in sorted(ends)
             if len(ends[e]) == 2 and min(ends[e]) >= 0 and ends[e][0] != ends[e][1]]
    if not cands:
        return None
    e = rng.choice(cands)
    u, v = ends[e]
    new = max(ends) + 1
    rot[u].insert(rot[u].index(e) + 1, new)
    rot[v].insert(rot[v].index(e), new)
    return _with_rotation(L, obj, rot, new)


def with_loop(L, g, rng):
    """Attach a loop at a random internal vertex, through the JSON."""
    obj, rot = _rotation_lists(L, g)
    v = rng.choice([v for v in sorted(rot) if v >= 0])
    new = max(e for es in rot.values() for e in es) + 1
    rot[v] = [new, new] + rot[v]
    return _with_rotation(L, obj, rot, new)


# ----------------------------------------------------------------------
# equiv: budgeted move-equivalence search


class Equiv:
    """One op is one ``move_equivalent(g, h, budget, want_certificate=True)``
    search; a certificate is replayed and must reach h."""

    name = "equiv"
    # (b, d, pairs): seeded pairs with h exactly d moves from a b-boundary
    # bridge graph.  Depth 3 only at b = 3: at b = 4, 5 a depth-3 search
    # costs up to 2 s with a tail heavy enough to make the mix differ from
    # seed to seed; the fixture pairs cover deep searches with fixed inputs.
    # Depth-1 pairs are cheap and the large majority, so that op_p50_ms
    # falls well inside their costs, where many samples make it steady, and
    # not in the sparse gap between depth 1 and depth 2, where it would
    # move with the seed.
    cells = ((3, 1, 120), (3, 2, 16), (3, 3, 16), (4, 1, 120), (4, 2, 16),
             (5, 1, 120), (5, 2, 16))
    budget = 3
    # one round's work at DEFAULT_SEED
    pinned = {"certificate_moves": 508, "equivalent": 425, "unknown": 1}
    # (g, h, budget, verdict, certificate length)
    fixture_pairs = (("square_fan_b5_lollipop", "square_path_b6", 4, "equivalent", 4),
                     ("urban_left_b7", "urban_right_b7", 3, "unknown", None))

    def make_inputs(self, P, F, L, rng, counts):
        pairs = []
        for i in range(max(n for _, _, n in self.cells)):
            for b, d, n in self.cells:
                if i >= n:
                    continue
                g = L.bridge_graph(random_decorated_permutation(P, b, rng))
                h = g
                for _ in range(d):
                    h = L.apply_move(h, rng.choice(moves_of(L, h, GROWING, counts)))
                pairs.append(SimpleNamespace(
                    tag=f"b{b}d{d}", g=L.to_json(g), h=L.to_json(h),
                    budget=self.budget, verdict="equivalent", length=d))
        for gname, hname, budget, verdict, n in self.fixture_pairs:
            pairs.append(SimpleNamespace(
                tag=gname, g=L.to_json(getattr(F, gname)()),
                h=L.to_json(getattr(F, hname)()), budget=budget,
                verdict=verdict, length=n))
        return pairs

    def run_round(self, P, L, pairs, rec):
        work = Counter()

        def search(pair):
            g, h = L.from_json(pair.g), L.from_json(pair.h)
            res = L.move_equivalent(g, h, pair.budget, want_certificate=True)
            work[res.verdict] += 1
            if res.verdict != pair.verdict:
                return False
            if res.verdict != "equivalent":
                return True
            x = g
            for m in res.certificate:
                x = L.apply_move(x, m)
            work["certificate_moves"] += len(res.certificate)
            return (len(res.certificate) == pair.length
                    and L.canonical_key(x) == L.canonical_key(h))

        for pair in pairs:
            run_op(rec, lambda: search(pair))
        return dict(sorted(work.items()))

    def describe(self, P, L, pairs):
        return {"pairs": len(pairs),
                "seeded_g_mean_VEFb": mean_sizes(
                    P, L, [p.g for p in pairs if p.tag.startswith("b")])}

    def probe(self, P, L, pairs, rec):
        """One BFS layer from each start graph: apply every search move and
        key the result, so the trace splits search cost into move
        application and canonical keys."""
        for pair in pairs:
            g = L.from_json(pair.g)
            for m in moves_of(L, g, SEARCH, rec):
                L.canonical_key(L.apply_move(g, m))


# ----------------------------------------------------------------------
# census: weakly separated collections and a large positroid


class Census:
    """One op is one maximal weakly separated collection found by
    ``enumerate_ws``; the ops of one call share its time equally.  Each
    round also computes the Gr(8,16) positroid, as one more op."""

    name = "census"
    # (a, b, collections); 5470 is this code's own output, pinned as a
    # regression value, not a value from the literature
    grassmannians = ((3, 7, 259), (3, 8, 2136), (4, 8, 5470))
    positroid_of = (8, 16)
    pinned = {"gr37": 259, "gr38": 2136, "gr48": 5470, "positroid": 12870}

    def make_inputs(self, P, F, L, rng, counts):
        order = list(self.grassmannians)
        rng.shuffle(order)
        runs = [(a, b, want, P.cyclic_rotation(a, b)) for a, b, want in order]
        return SimpleNamespace(runs=runs, spot=rng.getrandbits(32),
                               big=P.cyclic_rotation(*self.positroid_of))

    def run_round(self, P, L, inp, rec):
        work = {}
        for a, b, want, p in inp.runs:
            out = {}

            def enumerate_ws():
                out["colls"] = colls = L.enumerate_ws(p)
                return (len(colls) == want
                        and collections_hold(P, colls, a, b, inp.spot))

            run_op(rec, enumerate_ws, count=want)
            work[f"gr{a}{b}"] = len(out.get("colls", ()))

        def positroid():
            out["pos"] = L.positroid(L.necklace_from_perm(inp.big))
            a, b = self.positroid_of
            return len(out["pos"]) == math.comb(b, a)

        run_op(rec, positroid)
        work["positroid"] = len(out.get("pos", ()))
        return work

    def describe(self, P, L, inp):
        return {f"gr{a}{b}": want for a, b, want, _ in inp.runs}


def collections_hold(P, colls, a, b, spot):
    """Every collection has a(b-a)+1 sets of size a and holds the frozen
    necklace sets; one collection, chosen by the seed, is pairwise weakly
    separated."""
    frozen = P.necklace_from_perm(P.cyclic_rotation(a, b)).sets
    size = a * (b - a) + 1
    for c in colls:
        if len(c) != size or any(len(s) != a for s in c):
            return False
        if not all(s in c for s in frozen):
            return False
    ordered = sorted(colls, key=lambda c: sorted(sorted(s) for s in c))
    pick = list(ordered[spot % len(ordered)])
    return all(P.weakly_separated(x, y, b)
               for i, x in enumerate(pick) for y in pick[i + 1:])


WORKLOADS = {w.name: w for w in (Walk(), Decide(), Equiv(), Census())}
