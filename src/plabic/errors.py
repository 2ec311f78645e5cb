"""Exception types shared across the package, and the input checks by
which each entry point raises its own type: ``_ints`` (the one integer
test), ``_parse_int`` and ``_text``."""


def _show(x) -> str:
    """``repr(x)``, or x's type where that holds an int past Python's digit limit."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _ints(xs, error, message="expected integers, got {}") -> tuple:
    """``xs`` as a tuple; ``error(message)``, filled with the first item
    that is no int or is a bool (or with xs when it is not iterable),
    unless every item is an int."""
    try:
        xs = tuple(xs)
        bad = [x for x in xs if isinstance(x, bool) or not isinstance(x, int)]
    except TypeError:  # not iterable
        bad = [xs]
    if bad:
        raise error(message.format(_show(bad[0])))
    return xs


def _parse_int(tok: str, error) -> int:
    """``int(tok)``; ``error`` for a token that is no integer or is past Python's digit limit."""
    try:
        return int(tok)
    except ValueError:
        raise error(f"bad token {tok!r}") from None


def _text(x, error) -> str:
    """``x``; ``error`` unless it is a string."""
    if not isinstance(x, str):
        raise error(f"expected text, got {_show(x)}")
    return x


class PlabicError(Exception):
    """Base class for all domain errors."""


class InvalidGraph(PlabicError):
    """Raised when an operation receives a graph that fails validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid plabic graph: " + "; ".join(str(p) for p in problems))


class BadLabel(PlabicError):
    """Boundary label out of range."""


class IllegalMove(PlabicError):
    """A move spec whose preconditions fail on the target graph."""


class HasInternalLeaf(PlabicError):
    """Resonance test applied to a graph with a non-lollipop internal leaf."""


class NotNormal(PlabicError):
    """Operation requires a normal plabic graph."""


class NotReducedError(PlabicError):
    """Operation requires a reduced plabic graph."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"graph is not reduced (witness: {witness})")


class UndecoratableFixedPoint(PlabicError):
    """A trip fixed point whose pendant tree does not collapse to a lollipop.

    The tree folds bottom up: a vertex keeps its own colour when no child
    subtree folded to the other colour, takes the other colour when exactly
    one did, and is stuck when two or more did or a child is stuck.  Raised
    when the root is stuck, or when the vertex at the fixed point's boundary
    edge is not pendant (it lies on a cycle or joins the rest of the graph).
    """

    def __init__(self, label):
        self.label = label
        super().__init__(f"fixed point {label} is not collapsible to a lollipop")


class MalformedWindow(PlabicError):
    """Window values violate the bounded affine permutation axioms."""


class MalformedPermutation(PlabicError):
    """Not a valid (decorated) permutation."""


class NotANecklace(PlabicError):
    """Cyclic sequence of subsets violates the necklace condition."""


class SizeMismatch(PlabicError):
    """Subsets of unequal cardinality where equal ones are required."""


class NotATriangulation(PlabicError):
    """Triangle list does not triangulate a convex polygon."""


class BadWord(PlabicError):
    """Malformed wiring-diagram word."""


class FrozenVertex(PlabicError):
    """Quiver mutation requested at a frozen vertex."""


class TripDoesNotTerminate(PlabicError):
    """A trip or face orbit that never closes (corrupt rotation data)."""


class TooLarge(PlabicError):
    """Enumeration exceeded its budget."""


class BadBudget(PlabicError):
    """A search budget or enumeration limit that is negative or not an integer."""
