"""Combinatorics of plabic graphs: local moves, trips, reducedness
criteria, quivers, bridge decompositions and positroid machinery."""

from .errors import (
    BadBudget,
    BadLabel,
    BadWord,
    FrozenVertex,
    HasInternalLeaf,
    IllegalMove,
    InvalidGraph,
    MalformedPermutation,
    MalformedWindow,
    NotANecklace,
    NotATriangulation,
    NotNormal,
    NotReducedError,
    PlabicError,
    SizeMismatch,
    TooLarge,
    TripDoesNotTerminate,
    UndecoratableFixedPoint,
)
from .graph import (
    BLACK,
    WHITE,
    Face,
    PlabicGraph,
    classify,
    collapse_trees,
    lollipop_graph,
    validate,
)
from .moves import EquivalenceResult, MoveSpec, apply_move, legal_moves, move_equivalent
from .normalize import NormalizeResult, ReducednessResult, Witness, is_reduced, normalize
from .perms import (
    BoundedAffinePermutation,
    DecoratedPermutation,
    GrassmannNecklace,
    affinize,
    count_dab,
    cyclic_rotation,
    deaffinize,
    length,
    necklace_from_perm,
    perm_from_necklace,
    positroid,
    weakly_separated,
)
from .bridges import BridgeSequence, bcfw_factorize, bridge_graph
from .labels import enumerate_ws, face_labels, label_collection, strongly_equivalent
from .quiver import (
    Quiver,
    from_triangulation,
    from_wiring,
    mutate,
    parse_word,
    quiver_of,
    quiver_of_triangulation,
    triangulation_label_key,
)
from .triple import Minimality, TripleView
from .trips import (
    Trip,
    all_trips,
    bad_features,
    decorated_trip_permutation,
    edge_labels,
    resonance,
    trip_from,
    trip_permutation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
