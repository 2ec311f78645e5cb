"""Command-line front end.

All graph-consuming subcommands read the canonical JSON format (file path
or ``-`` for stdin) and graph-producing ones write it to stdout.  Domain
errors exit with status 1 and a machine-readable JSON object on stderr;
usage errors exit with status 2.  A reader that closes the output pipe
early (``... | head -n 1``) is no error: exit 0, nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fixtures
from .bridges import bridge_graph
from .errors import (BadWord, IllegalMove, MalformedPermutation, MalformedWindow,
                     NotATriangulation, PlabicError, TooLarge, _parse_int)
from .graph import PlabicGraph, _loads, classify, lollipop_graph
from .labels import enumerate_ws, face_labels
from .moves import MoveSpec, apply_move, move_equivalent
from .normalize import is_reduced
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    affinize,
    count_dab,
    format_subset,
    length,
    necklace_from_perm,
    positroid,
)
from .quiver import from_triangulation, from_wiring, parse_word, quiver_of
from .trips import all_trips, decorated_trip_permutation, edge_labels, trip_permutation


def _read_graph(path: str) -> PlabicGraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return PlabicGraph.from_json(text)


def _emit_graph(g: PlabicGraph) -> None:
    print(g.to_json())


def _fail(err: Exception) -> int:
    payload = {"error": type(err).__name__, "message": str(err)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


def cmd_gen(args) -> None:
    if args.what == "bridge":
        return _emit_graph(bridge_graph(DecoratedPermutation.parse(args.arg)))
    if args.what == "lollipops":
        return _emit_graph(lollipop_graph(args.arg))
    if args.what == "triangulation":
        text = sys.stdin.read() if args.arg == "-" else args.arg
        if os.path.exists(text):
            text = Path(text).read_text()
        data = _loads(text, lambda msg: NotATriangulation(f"malformed triangulation JSON: {msg}"))
        if isinstance(data, dict) and data.keys() >= {"m", "triangles"}:
            m, tris = data["m"], data["triangles"]
        elif isinstance(data, list):  # an m-gon has m - 2 triangles
            m, tris = len(data) + 2, data
        else:
            raise NotATriangulation(
                'expected a list of triangles or {"m": ..., "triangles": [...]}'
            )
        return _emit_graph(from_triangulation(m, tris))
    if args.what in ("word", "dword"):
        word = parse_word(args.arg)
        if not word and args.wires is None:
            raise BadWord("the word is empty; give --wires")
        n = args.wires if args.wires is not None else max(i for i, _ in word) + 1
        kind = "single" if args.what == "word" else "double"
        return _emit_graph(from_wiring(word, n, kind))
    raise PlabicError(f"unknown generator {args.what!r}")  # pragma: no cover


def cmd_info(args) -> None:
    g = _read_graph(args.graph)  # from_json raises InvalidGraph on an invalid graph
    info = classify(g)
    red = is_reduced(g)
    faces = g.faces()
    out = {
        "b": g.b,
        "valid": True,
        "normal": info["normal"],
        "bipartite": info["bipartite"],
        "trivalent": info["trivalent"],
        "reduced": red.reduced,
        "trip_permutation": trip_permutation(g),
        "faces": {
            "internal": sum(1 for f in faces if f.kind == "internal"),
            "boundary": sum(1 for f in faces if f.kind == "boundary"),
            "nonouter": sum(1 for f in faces if f.kind != "outer"),
        },
    }
    if red.reduced:
        out["decorated_trip_permutation"] = str(decorated_trip_permutation(g))
    elif red.witness is not None:
        out["witness"] = red.witness.to_json_obj()
    print(json.dumps(out, sort_keys=True))


def cmd_trips(args) -> None:
    g = _read_graph(args.graph)
    out = {
        "trips": [t.to_json_obj(g) for t in all_trips(g)],
        "trip_permutation": trip_permutation(g),
        "edge_labels": {
            str(e): sorted(s) for e, s in sorted(edge_labels(g).items())
        },
    }
    try:
        out["decorated_trip_permutation"] = str(decorated_trip_permutation(g))
    except PlabicError:
        pass
    print(json.dumps(out, sort_keys=True))


def cmd_labels(args) -> None:
    g = _read_graph(args.graph)
    labeling = face_labels(g, args.mode)
    faces = g.faces()
    rows = []
    for idx in sorted(labeling):
        rows.append(
            {
                "face": idx,
                "kind": faces[idx].kind,
                "rim_arcs": list(faces[idx].rim_arcs),
                "label": format_subset(labeling[idx], g.b),
            }
        )
    print(json.dumps({"mode": args.mode, "labels": rows}, sort_keys=True))


def cmd_move(args) -> None:
    g = _read_graph(args.graph)
    spec = MoveSpec.from_json_obj(
        _loads(args.spec, lambda msg: IllegalMove(f"malformed move spec JSON: {msg}")))
    _emit_graph(apply_move(g, spec))


def cmd_equiv(args) -> None:
    g1 = _read_graph(args.g1)
    g2 = _read_graph(args.g2)
    res = move_equivalent(g1, g2, budget=args.budget)
    out = {"verdict": res.verdict, "reason": res.reason}
    if res.certificate is not None:
        out["certificate"] = [m.to_json_obj() for m in res.certificate]
    print(json.dumps(out, sort_keys=True))


def cmd_quiver(args) -> None:
    g = _read_graph(args.graph)
    q = quiver_of(g)
    if args.dot:
        print(q.to_dot())
        return
    def name(k):
        return sorted(k) if isinstance(k, frozenset) else k
    out = {
        "vertices": [{"key": name(k), "frozen": fr} for k, fr in q.vertices],
        "arrows": [
            {"from": name(u), "to": name(v), "multiplicity": c}
            for (u, v), c in sorted(q.arrows.items(), key=repr)
        ],
    }
    print(json.dumps(out, sort_keys=True))


def cmd_perm(args) -> None:
    if args.op == "affinize":
        f = affinize(DecoratedPermutation.parse(args.arg))
        print(" ".join(str(x) for x in f.window))
    elif args.op == "length":
        f = BoundedAffinePermutation([_parse_int(t, MalformedWindow) for t in args.arg.split()])
        print(length(f))
    elif args.op == "necklace":
        nk = necklace_from_perm(DecoratedPermutation.parse(args.arg))
        print(" ".join(format_subset(s, nk.b) for s in nk.sets))
    elif args.op == "positroid":
        p = DecoratedPermutation.parse(args.arg)
        sets = positroid(necklace_from_perm(p))
        for s in sorted(sorted(x) for x in sets):
            print(format_subset(s, p.b))
    elif args.op == "dab":
        if args.extra is None:
            raise MalformedPermutation("perm dab needs two integers: a and b")
        a, b = (_parse_int(t, MalformedPermutation) for t in (args.arg, args.extra))
        try:
            print(count_dab(a, b))
        except ValueError:  # more digits than Python prints
            raise TooLarge(f"the count has more than {sys.get_int_max_str_digits()} digits") from None
    else:  # pragma: no cover
        raise PlabicError(f"unknown perm op {args.op!r}")


def cmd_ws(args) -> None:
    p = DecoratedPermutation.parse(args.perm)
    colls = enumerate_ws(p, limit=args.limit)
    for coll in sorted(sorted(format_subset(s, p.b) for s in c) for c in colls):
        print(" ".join(coll))


def cmd_export(args) -> None:
    g = _read_graph(args.graph)
    print(g.to_dot() if args.format == "dot" else g.to_tikz())


def cmd_fixture(args) -> None:
    _emit_graph(fixtures.ALL_NAMED[args.name]())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plabic", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs")
    gen.add_argument("what", choices=["bridge", "triangulation", "word", "dword", "lollipops"])
    gen.add_argument("arg", help="permutation / triangulation JSON / word / colors")
    gen.add_argument("--wires", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    info = sub.add_parser("info", help="validity, normality, reducedness, trips, faces")
    info.add_argument("graph")
    info.set_defaults(func=cmd_info)

    trips = sub.add_parser("trips", help="trips and edge labels")
    trips.add_argument("graph")
    trips.set_defaults(func=cmd_trips)

    labels = sub.add_parser("labels", help="face labels")
    labels.add_argument("graph")
    labels.add_argument("--mode", choices=["source", "target"], default="target")
    labels.set_defaults(func=cmd_labels)

    move = sub.add_parser("move", help="apply a move spec")
    move.add_argument("graph")
    move.add_argument("--spec", required=True, help="JSON move spec")
    move.set_defaults(func=cmd_move)

    equiv = sub.add_parser("equiv", help="decide move equivalence")
    equiv.add_argument("g1")
    equiv.add_argument("g2")
    equiv.add_argument("--budget", type=int, default=6)
    equiv.set_defaults(func=cmd_equiv)

    quiv = sub.add_parser("quiver", help="the quiver of a graph")
    quiv.add_argument("graph")
    quiv.add_argument("--dot", action="store_true")
    quiv.set_defaults(func=cmd_quiver)

    perm = sub.add_parser("perm", help="permutation utilities")
    perm.add_argument("op", choices=["affinize", "length", "necklace", "positroid", "dab"])
    perm.add_argument("arg")
    perm.add_argument("extra", nargs="?")
    perm.set_defaults(func=cmd_perm)

    ws = sub.add_parser("ws", help="weakly separated collections")
    ws.add_argument("op", choices=["enumerate"])
    ws.add_argument("perm")
    ws.add_argument("--limit", type=int, default=None)
    ws.set_defaults(func=cmd_ws)

    exp = sub.add_parser("export", help="DOT / TikZ display export")
    exp.add_argument("format", choices=["dot", "tikz"])
    exp.add_argument("graph")
    exp.set_defaults(func=cmd_export)

    fix = sub.add_parser("fixture", help="emit a named example graph")
    fix.add_argument("name", choices=sorted(fixtures.ALL_NAMED))
    fix.set_defaults(func=cmd_fixture)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)  # a command fails by raising
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return 0
    except BrokenPipeError:  # the reader stopped reading, which is no failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit writes there
        os.close(devnull)
        return 0
    except (PlabicError, OSError, ValueError) as err:
        return _fail(err)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
