"""The public API, pinned: every name ``plabic`` exports and the parameter
names of every public function, class and method defined in the package.

A change that drops, renames or reorders any of them fails here; when the
change is meant, update the tables in the same change.
"""

import inspect

import plabic

NAMES = [
    "BLACK", "BadBudget", "BadLabel", "BadWord", "BoundedAffinePermutation",
    "BridgeSequence", "DecoratedPermutation", "EquivalenceResult", "Face",
    "FrozenVertex", "GrassmannNecklace", "HasInternalLeaf", "IllegalMove",
    "InvalidGraph", "MalformedPermutation", "MalformedWindow", "Minimality", "MoveSpec",
    "NormalizeResult", "NotANecklace", "NotATriangulation", "NotNormal",
    "NotReducedError", "PlabicError", "PlabicGraph", "Quiver", "ReducednessResult",
    "SizeMismatch", "TooLarge", "Trip", "TripDoesNotTerminate", "TripleView",
    "UndecoratableFixedPoint", "WHITE", "Witness", "affinize", "all_trips",
    "apply_move", "bad_features", "bcfw_factorize", "bridge_graph", "bridges",
    "classify", "collapse_trees", "count_dab", "cyclic_rotation", "deaffinize",
    "decorated_trip_permutation", "edge_labels", "enumerate_ws", "errors",
    "face_labels", "from_triangulation", "from_wiring", "graph", "is_reduced",
    "label_collection", "labels", "legal_moves", "length", "lollipop_graph",
    "move_equivalent", "moves", "mutate", "necklace_from_perm", "normalize",
    "parse_word", "perm_from_necklace", "perms", "positroid", "quiver", "quiver_of",
    "quiver_of_triangulation", "resonance", "strongly_equivalent",
    "triangulation_label_key", "trip_from", "trip_permutation", "triple", "trips",
    "validate", "weakly_separated",
]

PARAMETERS = {
    "BoundedAffinePermutation": "window",
    "BoundedAffinePermutation.is_fixed": "self i",
    "BoundedAffinePermutation.is_identity_mod_b": "self",
    "BoundedAffinePermutation.swap": "self i j",
    "BridgeSequence": "b transpositions base_decorations",
    "BridgeSequence.replay": "self",
    "BridgeSequence.to_json_obj": "self",
    "DecoratedPermutation": "values decorations",
    "DecoratedPermutation.anti_excedances": "self",
    "DecoratedPermutation.inverse": "self",
    "DecoratedPermutation.is_fixed": "self i",
    "DecoratedPermutation.parse": "text",
    "EquivalenceResult": "verdict certificate reason states depth",
    "Face": "kind darts rim_arcs",
    "GrassmannNecklace": "sets",
    "InvalidGraph": "problems",
    "Minimality": "minimal badgon edges",
    "MoveSpec": "kind face vertex edge color start length condition_ok",
    "MoveSpec.from_json_obj": "obj",
    "MoveSpec.to_json_obj": "self",
    "NormalizeResult": "normal witness lollipops_removed label_map",
    "NotReducedError": "witness",
    "PlabicGraph": "b colors rot edge_ids",
    "PlabicGraph.boundary_dart": "self label",
    "PlabicGraph.boundary_vertices": "self",
    "PlabicGraph.canonical_key": "self",
    "PlabicGraph.color": "self v",
    "PlabicGraph.dart_vertex": "self d",
    "PlabicGraph.darts_of_edge": "self edge_id",
    "PlabicGraph.degree": "self v",
    "PlabicGraph.edge_endpoints": "self edge_id",
    "PlabicGraph.edge_id": "self d",
    "PlabicGraph.euler_ok": "self",
    "PlabicGraph.face_of_dart": "self",
    "PlabicGraph.faces": "self",
    "PlabicGraph.from_json": "text_or_obj",
    "PlabicGraph.from_rotation": "b colors rotation",
    "PlabicGraph.internal_vertices": "self",
    "PlabicGraph.is_boundary": "self v",
    "PlabicGraph.is_lollipop": "self v",
    "PlabicGraph.is_loop": "self edge_id",
    "PlabicGraph.neighbors": "self v",
    "PlabicGraph.nonouter_faces": "self",
    "PlabicGraph.num_darts": "self",
    "PlabicGraph.rot_next": "self d",
    "PlabicGraph.rot_prev": "self d",
    "PlabicGraph.rotation": "self v",
    "PlabicGraph.to_dot": "self",
    "PlabicGraph.to_json": "self",
    "PlabicGraph.to_json_obj": "self",
    "PlabicGraph.to_tikz": "self",
    "PlabicGraph.twin": "self d",
    "Quiver": "vertices arrows",
    "Quiver.frozen": "self key",
    "Quiver.is_isomorphic": "self other",
    "Quiver.keys": "self",
    "Quiver.m": "self u v",
    "Quiver.mutate": "self k",
    "Quiver.to_dot": "self",
    "ReducednessResult": "reduced witness",
    "Trip": "kind source target darts",
    "Trip.to_json_obj": "self g",
    "TripleView": "base",
    "TripleView.minimality": "self",
    "TripleView.strand_permutation": "self",
    "TripleView.swivel": "self site",
    "TripleView.to_tikz": "self",
    "UndecoratableFixedPoint": "label",
    "Witness": "kind vertices edges",
    "Witness.to_json_obj": "self",
    "affinize": "p",
    "all_trips": "g",
    "apply_move": "g m",
    "bad_features": "g",
    "bcfw_factorize": "f",
    "bridge_graph": "p",
    "classify": "g",
    "collapse_trees": "g",
    "count_dab": "a b",
    "cyclic_rotation": "a b",
    "deaffinize": "f",
    "decorated_trip_permutation": "g",
    "edge_labels": "g",
    "enumerate_ws": "p limit",
    "face_labels": "g mode check",
    "from_triangulation": "m triangles",
    "from_wiring": "word n kind",
    "is_reduced": "g",
    "label_collection": "g mode check",
    "legal_moves": "g",
    "length": "f",
    "lollipop_graph": "decorations",
    "move_equivalent": "g1 g2 budget want_certificate",
    "mutate": "q k",
    "necklace_from_perm": "p",
    "normalize": "g",
    "parse_word": "text",
    "perm_from_necklace": "nk",
    "positroid": "nk",
    "quiver_of": "g keys",
    "quiver_of_triangulation": "m triangles",
    "resonance": "g",
    "strongly_equivalent": "g1 g2",
    "triangulation_label_key": "pair m",
    "trip_from": "g i",
    "trip_permutation": "g",
    "validate": "g",
    "weakly_separated": "I J b",
}


def _parameters():
    """Name -> space-separated parameter names, for every callable the
    tables above cover."""
    def params(f):
        return " ".join(inspect.signature(f).parameters)

    out = {}
    for name in plabic.__all__:
        obj = getattr(plabic, name)
        if inspect.isfunction(obj):
            out[name] = params(obj)
        elif inspect.isclass(obj):
            try:
                out[name] = params(obj)
            except ValueError:  # an exception with the builtin constructor
                pass
            for klass in obj.__mro__:
                if not klass.__module__.startswith("plabic"):
                    continue
                for attr in vars(klass):
                    method = getattr(obj, attr)
                    key = f"{name}.{attr}"
                    if attr.startswith("_") or key in out or inspect.isclass(method):
                        continue
                    if callable(method):
                        out[key] = params(method)
    return out


def test_exported_names_are_pinned():
    assert sorted(plabic.__all__) == NAMES


def test_parameter_names_are_pinned():
    assert _parameters() == PARAMETERS
