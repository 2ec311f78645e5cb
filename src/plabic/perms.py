"""Decorated permutations, bounded affine permutations, Grassmann necklaces,
positroids and weak separation.

Inside this module and ``labels``, a label set S of 1..b is held as the
``int`` mask with bit x set exactly when x is in S.  Masks never leave the
two modules: public functions take and return frozensets (or any iterable
of labels), and convert at the edge.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from operator import le

from .errors import (
    BadLabel,
    MalformedPermutation,
    MalformedWindow,
    NotANecklace,
    SizeMismatch,
    _ints,
    _parse_int,
    _show,
    _text,
)


def _check_ab(a, b):
    """MalformedPermutation unless a and b are integers with 0 <= a <= b."""
    _ints((a, b), MalformedPermutation)
    if not 0 <= a <= b:
        raise MalformedPermutation(f"need 0 <= a <= b, got a={_show(a)}, b={_show(b)}")


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation of 1..b with each fixed point tagged 'over' or 'under'."""

    values: tuple
    decorations: dict = field(compare=True, hash=False, default_factory=dict)

    def __init__(self, values, decorations=None):
        values = _ints(values, MalformedPermutation)
        try:
            decorations = dict(decorations or {})
        except (TypeError, ValueError):  # no mapping, nor a list of pairs
            raise MalformedPermutation(f"decorations {_show(decorations)} are no mapping") from None
        _ints(decorations, MalformedPermutation)
        b = len(values)
        if sorted(values) != list(range(1, b + 1)):
            raise MalformedPermutation(f"not a permutation of 1..{b}: {_show(values)}")
        fixed = {i for i in range(1, b + 1) if values[i - 1] == i}
        if set(decorations) != fixed:
            raise MalformedPermutation(
                f"decorations {_show(sorted(decorations))} must be keyed exactly by "
                f"the fixed points {sorted(fixed)}"
            )
        if any(d not in ("over", "under") for d in decorations.values()):
            raise MalformedPermutation("decorations must be 'over' or 'under'")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "decorations", decorations)

    @classmethod
    def _trusted(cls, values: tuple, decorations: dict) -> "DecoratedPermutation":
        """A permutation from values and decorations the caller knows to be
        valid, skipping the checks; it holds a copy of ``decorations``."""
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        object.__setattr__(p, "decorations", dict(decorations))
        return p

    @property
    def b(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def inverse(self) -> "DecoratedPermutation":
        inv = [0] * self.b
        for i, v in enumerate(self.values, start=1):
            inv[v - 1] = i
        return DecoratedPermutation(inv, dict(self.decorations))

    def is_fixed(self, i: int) -> bool:
        return self.values[i - 1] == i

    def anti_excedances(self) -> int:
        """Count positions with value below position (or an 'over' fixed point)."""
        n = 0
        for i in range(1, self.b + 1):
            v = self.values[i - 1]
            if v < i or (v == i and self.decorations[i] == "over"):
                n += 1
        return n

    def __hash__(self):
        return hash((self.values, tuple(sorted(self.decorations.items()))))

    # one-line notation: "3 4 5 1 2 6^" with ^ = over, _ = under
    @staticmethod
    def parse(text: str) -> "DecoratedPermutation":
        values = []
        decorations = {}
        for pos, tok in enumerate(_text(text, MalformedPermutation).split(), start=1):
            mark = None
            if tok.endswith("^"):
                mark, tok = "over", tok[:-1]
            elif tok.endswith("_"):
                mark, tok = "under", tok[:-1]
            v = _parse_int(tok, MalformedPermutation)
            values.append(v)
            if mark is not None:
                if v != pos:
                    raise MalformedPermutation(
                        f"decorated entry {tok} at position {pos} is not a fixed point"
                    )
                decorations[pos] = mark
        return DecoratedPermutation(values, decorations)

    def __str__(self):
        toks = []
        for i, v in enumerate(self.values, start=1):
            if v == i:
                toks.append(f"{v}^" if self.decorations[i] == "over" else f"{v}_")
            else:
                toks.append(str(v))
        return " ".join(toks)


def cyclic_rotation(a: int, b: int) -> DecoratedPermutation:
    """The permutation i -> i + a (mod b), with a in 0..b.

    For 0 < a < b this is the fixed-point-free rotation; a = 0 gives the
    all-under identity and a = b the all-over identity (a counts the
    anti-excedances in every case).
    """
    _check_ab(a, b)
    if a in (0, b):
        mark = "under" if a == 0 else "over"
        return DecoratedPermutation(range(1, b + 1), dict.fromkeys(range(1, b + 1), mark))
    return DecoratedPermutation([(i + a - 1) % b + 1 for i in range(1, b + 1)])


# ----------------------------------------------------------------------
# bounded affine permutations


@dataclass(frozen=True)
class BoundedAffinePermutation:
    """Window values f(1)..f(b) of a b-periodic bijection with i <= f(i) <= i+b."""

    window: tuple

    def __init__(self, window):
        window = _ints(window, MalformedWindow)
        b = len(window)
        if b == 0:
            raise MalformedWindow("empty window")
        for i, v in enumerate(window, start=1):
            if not i <= v <= i + b:
                raise MalformedWindow(f"f({i}) = {_show(v)} outside [{i}, {i + b}]")
        if sorted(v % b for v in window) != sorted(range(b)):
            raise MalformedWindow(f"window {window} not a bijection mod {b}")
        object.__setattr__(self, "window", window)

    @classmethod
    def _trusted(cls, window: tuple) -> "BoundedAffinePermutation":
        """A window of ints the caller knows to be valid and non-empty,
        skipping the checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "window", window)
        return f

    @property
    def b(self) -> int:
        return len(self.window)

    @property
    def a(self) -> int:
        b = self.b
        return (sum(self.window) - b * (b + 1) // 2) // b

    def __call__(self, i: int) -> int:
        b = self.b
        q, r = divmod(i - 1, b)
        return self.window[r] + q * b

    def is_fixed(self, i: int) -> bool:
        return self(i) % self.b == i % self.b

    def is_identity_mod_b(self) -> bool:
        return all(self.is_fixed(i) for i in range(1, self.b + 1))

    def swap(self, i: int, j: int) -> "BoundedAffinePermutation":
        """Swap the values in positions i and j (and all their b-shifts)."""
        b = self.b
        w = list(self.window)
        fi, fj = self(i), self(j)
        qi, ri = divmod(i - 1, b)
        qj, rj = divmod(j - 1, b)
        w[ri] = fj - qi * b
        w[rj] = fi - qj * b
        return BoundedAffinePermutation(w)


def length(f: BoundedAffinePermutation) -> int:
    """Number of inversion classes, counted over representatives
    (i, j) with 1 <= i <= b and i < j < i + b.

    Counts on the window extended by one period, f(1)..f(2b), with b(b-1)
    comparisons of plain ints."""
    b = f.b
    w = f.window
    ext = w + tuple(v + b for v in w)
    return sum(1 for i in range(b) for y in ext[i + 1:i + b] if ext[i] > y)


def _check_perm(p) -> None:
    """MalformedPermutation unless p is a DecoratedPermutation."""
    if not isinstance(p, DecoratedPermutation):
        raise MalformedPermutation(f"expected a DecoratedPermutation, got {_show(p)}")


def affinize(p: DecoratedPermutation) -> BoundedAffinePermutation:
    """Lift a decorated permutation to its bounded affine window, which is
    valid because p is, so it is not checked again."""
    _check_perm(p)
    b = p.b
    if not b:  # the checked constructor refuses the empty window
        return BoundedAffinePermutation(())
    w = []
    for i in range(1, b + 1):
        v = p(i)
        if v > i:
            w.append(v)
        elif v < i:
            w.append(v + b)
        elif p.decorations[i] == "under":
            w.append(i)
        else:
            w.append(i + b)
    return BoundedAffinePermutation._trusted(tuple(w))


def deaffinize(f: BoundedAffinePermutation) -> DecoratedPermutation:
    """Inverse of affinize."""
    b = f.b
    values = []
    decorations = {}
    for i in range(1, b + 1):
        v = f(i)
        if v == i:
            values.append(i)
            decorations[i] = "under"
        elif v == i + b:
            values.append(i)
            decorations[i] = "over"
        elif v <= b:
            values.append(v)
        else:
            values.append(v - b)
    return DecoratedPermutation(values, decorations)


def count_dab(a: int, b: int) -> int:
    """Number of decorated permutations on b letters with a anti-excedances.

    Alternating-sum closed form; the empty sum at a = 0 is read as 1
    (the all-under identity is the unique such permutation).
    """
    _check_ab(a, b)
    if a == 0:
        return 1
    total = 0
    for i in range(a):
        term = (a - i) ** i * (a - i + 1) ** (b - i) - (a - i - 1) ** i * (a - i) ** (b - i)
        total += (-1) ** i * math.comb(b, i) * term
    return total


# ----------------------------------------------------------------------
# Grassmann necklaces and positroids


@dataclass(frozen=True)
class GrassmannNecklace:
    """Cyclic sequence I_1..I_b of a-subsets with I_{i+1} >= I_i minus {i}."""

    sets: tuple  # tuple of frozensets

    def __init__(self, sets):
        try:
            sets = tuple(frozenset(_ints(s, NotANecklace)) for s in sets)
        except TypeError:  # not iterable: _ints checks each set
            raise NotANecklace(f"expected a sequence of sets, got {_show(sets)}") from None
        b = len(sets)
        if b == 0:
            raise NotANecklace("a Grassmann necklace needs b >= 1 sets, got none")
        sizes = {len(s) for s in sets}
        if len(sizes) != 1:
            raise NotANecklace(f"subsets of unequal sizes {sorted(sizes)}")
        for s in sets:
            if not all(1 <= x <= b for x in s):
                raise NotANecklace(f"subset {_show(sorted(s))} not within 1..{b}")
        for i in range(1, b + 1):
            cur, nxt = sets[i - 1], sets[i % b]
            if not (cur - {i}) <= nxt:
                raise NotANecklace(
                    f"I_{i % b + 1} = {sorted(nxt)} does not contain "
                    f"I_{i} - {{{i}}} = {sorted(cur - {i})}"
                )
        object.__setattr__(self, "sets", sets)

    @classmethod
    def _trusted(cls, sets) -> "GrassmannNecklace":
        """A necklace of frozensets the caller knows to be one, with b >= 1,
        skipping the checks."""
        nk = object.__new__(cls)
        object.__setattr__(nk, "sets", tuple(sets))
        return nk

    @property
    def b(self) -> int:
        return len(self.sets)

    @property
    def a(self) -> int:
        return len(self.sets[0])

    def __getitem__(self, i):
        return self.sets[i]


def necklace_from_perm(p: DecoratedPermutation) -> GrassmannNecklace:
    """The necklace by its recurrence: I_1 holds the values p(j) < j and the
    fixed points decorated "over", and I_{i+1} = I_i - {i} + {p(i)}, or I_i
    when i is fixed.  ``perm_from_necklace`` reads p back by the same rule.
    The sets form a necklace because p is a permutation, so they are not
    checked again."""
    _check_perm(p)
    if not p.values:  # the checked constructor refuses the empty necklace
        return GrassmannNecklace(())
    cur = frozenset(v for j, v in enumerate(p.values, start=1)
                    if v < j or v == j and p.decorations[j] == "over")
    sets = []
    for i, v in enumerate(p.values, start=1):
        sets.append(cur)
        if v != i:
            cur = cur - {i} | {v}
    return GrassmannNecklace._trusted(sets)


def perm_from_necklace(nk: GrassmannNecklace) -> DecoratedPermutation:
    """Inverse of necklace_from_perm: i is fixed, "over" when in I_i, where
    I_{i+1} = I_i, and else p(i) is the one label of I_{i+1} not in I_i (the
    necklace's own check makes I_{i+1} = I_i - {i} + {p(i)})."""
    values = []
    decorations = {}
    for i, (cur, nxt) in enumerate(zip(nk.sets, nk.sets[1:] + nk.sets[:1]), start=1):
        if cur == nxt:
            values.append(i)
            decorations[i] = "over" if i in cur else "under"
        else:
            values.extend(nxt - cur)
    return DecoratedPermutation(values, decorations)


def gale_leq(ell: int, b: int, I, J) -> bool:
    """Whether I <= J in the ell-shifted Gale order: componentwise on the
    sorted keys (x - ell) mod b, as in ``_member_test``."""
    _ints((ell,), BadLabel)
    _mask(I, b)  # BadLabel for a label outside 1..b or not an int, before the keys are read
    _mask(J, b)
    if len(I) != len(J):
        raise SizeMismatch(f"|{sorted(I)}| != |{sorted(J)}|")
    return all(map(le, sorted((x - ell) % b for x in I), sorted((y - ell) % b for y in J)))


def _member_test(nk: GrassmannNecklace):
    """The test of whether an a-subset J (a sorted tuple) lies in the
    positroid of nk: I_ell <= J in every shifted Gale order (Oh).

    In the ell-shifted order, a sorted J reads J[r:] then J[:r] + b, where
    r = bisect_left(J, ell); so J passes at ell when its window
    (J + (J + b))[r:r + a] is componentwise at least I_ell's thresholds,
    the ell-shifted keys of I_ell plus ell.  An I_ell equal to
    {ell, ..., ell + a - 1} (keys 0..a-1) bounds nothing and is skipped,
    and J's window is built only when some I_ell bounds something.
    """
    b, a = nk.b, nk.a
    tests = []
    for ell in range(1, b + 1):
        keys = sorted((x - ell) % b for x in nk[ell - 1])
        if keys != list(range(a)):
            tests.append((ell, [k + ell for k in keys]))

    def member(J) -> bool:
        if tests:
            J2 = J + tuple(x + b for x in J)
            for ell, t in tests:
                r = bisect_left(J, ell)
                if not all(map(le, t, J2[r:r + a])):
                    return False
        return True

    return member


def _positroid_members(nk: GrassmannNecklace):
    """Each a-subset J (a sorted tuple) that passes ``_member_test``."""
    return filter(_member_test(nk), combinations(range(1, nk.b + 1), nk.a))


def positroid(nk: GrassmannNecklace):
    """All a-subsets J with I_ell <= J in every shifted Gale order."""
    return {frozenset(J) for J in _positroid_members(nk)}


# ----------------------------------------------------------------------
# weak separation


def _mask(labels, b: int) -> int:
    """The mask of a set of labels; BadLabel for a label outside 1..b, or for
    a label or b that is not an integer."""
    _ints((b,), BadLabel)
    m = 0
    for x in _ints(labels, BadLabel):
        if not 1 <= x <= b:
            raise BadLabel(f"label {_show(x)} not in 1..{_show(b)}")
        m |= 1 << x
    return m


def _separated(x: int, ys) -> bool:
    """Whether the mask x is weakly separated from every mask in ys (all of
    x's size).

    With A = x - y and B = y - x both nonempty, the labels of A and B form
    at most two cyclic blocks exactly when, read linearly, they follow the
    pattern A*B*A* or B*A*B*: no bit of A lies within B's span from its
    lowest to its highest bit, or no bit of B within A's.
    """
    for y in ys:
        A, B = x & ~y, y & ~x
        if (A and B and A & ((1 << B.bit_length()) - (B & -B))
                and B & ((1 << A.bit_length()) - (A & -A))):
            return False
    return True


def weakly_separated(I, J, b: int) -> bool:
    """Whether the symmetric-difference halves can be separated by a chord
    of the circle 1..b, i.e. the elements of I-J and J-I do not interleave.
    Raises BadLabel for an element outside 1..b."""
    x, y = _mask(I, b), _mask(J, b)
    if x.bit_count() != y.bit_count():
        raise SizeMismatch(f"|{sorted(set(I))}| != |{sorted(set(J))}|")
    return _separated(x, (y,))


def is_ws_collection(sets, b: int) -> bool:
    """Whether the sets are pairwise weakly separated; BadLabel for an
    element outside 1..b, SizeMismatch for sets of unequal sizes."""
    return all(weakly_separated(x, y, b) for x, y in combinations(list(sets), 2))


def format_subset(s, b: int) -> str:
    xs = sorted(s)
    if b <= 9:
        return "".join(str(x) for x in xs)
    return ",".join(str(x) for x in xs)


def parse_subset(text: str):
    """The labels of ``format_subset``'s text; BadLabel for text that is none."""
    text = _text(text, BadLabel).strip()
    return frozenset(_parse_int(t, BadLabel) for t in (text.split(",") if "," in text else text))
