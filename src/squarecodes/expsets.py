"""Monomial exponent sets and the folding rule x^q = x.

A code in this package is described by a finite set A of exponent vectors:
the evaluation code spanned by the monomials X^a, a in A, over the full grid
F_q^m.  Because every field element satisfies x^q = x, an exponent i > 0 can
be folded to ((i-1) mod (q-1)) + 1 without changing the monomial as a
function; 0 stays 0 (x^0 and x^(q-1) differ at x = 0).  Sets therefore carry
an explicit ``reduced`` flag: reduced means every coordinate already lies in
[0, q-1].

Minkowski sums come up because the componentwise (Schur) product of two
codewords multiplies monomials, i.e. adds exponents:
``square_support(A) = reduce(A + A)`` is the support of the square code.

The kernels work on dense integer grids: a reduced set keeps a (k, m) array
of its members, and every boolean grid a kernel builds is checked against the
point budget before it is allocated.  A set has one index, its lex order:
``v in A`` is a binary search in it, and ``member_mask`` answers for a whole
array of points at once.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import EmptySet, MismatchedAmbient, NotReduced, RangeError
from .gf import POINT_BUDGET, check_budget

ExpVec = tuple[int, ...]

MAX_VARS = 8


def exact_dtype(top: int):
    """int64 when no value a computation reaches exceeds ``top`` in magnitude,
    Python integers (object dtype) otherwise, so that nothing wraps around."""
    return np.int64 if top < 1 << 63 else object


def check_ambient(q: int, m: int) -> None:
    """The (q, m) rules every MonomialSet obeys."""
    if q < 2:
        raise RangeError(f"ambient order must be >= 2, got {q}")
    if not 1 <= m <= MAX_VARS:
        raise RangeError(f"number of variables must be in [1, {MAX_VARS}], got {m}")


def check_box(shape, what: str) -> None:
    """Refuse a grid of the given shape over the point budget before it is built."""
    check_budget(math.prod(shape), POINT_BUDGET, f"{what}, {' x '.join(map(str, shape))} points")


def reduce_exponent(i: int, q: int) -> int:
    """Fold one exponent by x^q = x: 0 -> 0, otherwise into [1, q-1]."""
    if i < 0:
        raise RangeError(f"exponents must be nonnegative, got {i}")
    if i == 0:
        return 0
    return (i - 1) % (q - 1) + 1


def fold_indices(side: int, q: int) -> np.ndarray:
    """reduce_exponent of every index in [0, side-1], as an int64 array."""
    t = np.arange(side)
    return np.where(t == 0, 0, (t - 1) % (q - 1) + 1)


def _integers(values) -> tuple[int, ...]:
    """Python or numpy integers as ints; floats and strings are refused, not
    truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise RangeError(f"expected integers, got {values!r}") from None


@dataclass(frozen=True)
class MonomialSet:
    """An ambient (q, m) plus a finite set of exponent vectors.

    Vectors are stored sorted lexicographically and deduplicated; the
    ``reduced`` flag records whether every coordinate is in [0, q-1].
    """

    q: int
    m: int
    exponents: tuple[ExpVec, ...]
    reduced: bool = dc_field(init=False)

    def __init__(self, q: int, m: int, exponents):
        check_ambient(q, m)
        seen = set()
        for v in exponents:
            t = _integers(v)
            if len(t) != m:
                raise RangeError(f"exponent vector {t} has length {len(t)}, expected {m}")
            if any(c < 0 for c in t):
                raise RangeError(f"exponent vector {t} has a negative coordinate")
            seen.add(t)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "exponents", tuple(sorted(seen)))
        object.__setattr__(self, "reduced", all(c <= q - 1 for v in seen for c in v))
        object.__setattr__(self, "_points", None)

    @classmethod
    def _from_indicator(cls, q: int, m: int, grid: np.ndarray) -> "MonomialSet":
        """Bulk constructor for sets the package computes itself: the members
        of a boolean grid over a corner [0, n_1) x ... x [0, n_m) of the box,
        each n_j <= q.  The caller has validated the ambient and the grid;
        input from outside the package goes through ``__init__``."""
        pts = np.argwhere(grid)  # lexicographic and duplicate-free
        pts.flags.writeable = False
        exps = tuple(zip(*pts.T.tolist()))
        obj = object.__new__(cls)
        for name, value in (
            ("q", q), ("m", m), ("exponents", exps), ("reduced", True), ("_points", pts),
        ):
            object.__setattr__(obj, name, value)
        return obj

    def points(self) -> np.ndarray:
        """The members as a read-only (k, m) array, in lex order: int64, or
        Python integers (object dtype) when a coordinate is >= 2^63."""
        if self._points is None:
            try:
                pts = np.array(self.exponents, dtype=np.int64).reshape(-1, self.m)
            except OverflowError:
                pts = np.array(self.exponents, dtype=object).reshape(-1, self.m)
            pts.flags.writeable = False
            object.__setattr__(self, "_points", pts)
        return self._points

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __contains__(self, v) -> bool:
        """Binary search in the lex order; False, not an error, for a vector
        of the wrong length or of non-integers."""
        try:
            t = _integers(v)
        except RangeError:
            return False
        i = bisect.bisect_left(self.exponents, t)
        return i < len(self.exponents) and self.exponents[i] == t

    def same_ambient(self, other: "MonomialSet") -> None:
        if (self.q, self.m) != (other.q, other.m):
            raise MismatchedAmbient(
                f"ambients differ: (q={self.q}, m={self.m}) vs (q={other.q}, m={other.m})"
            )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"q": self.q, "m": self.m, "exponents": [list(v) for v in self.exponents]}

    @classmethod
    def from_json(cls, obj: dict) -> "MonomialSet":
        q, m = _integers((obj["q"], obj["m"]))
        return cls(q, m, obj["exponents"])


def reduce_set(A: MonomialSet) -> MonomialSet:
    """Fold every exponent vector; duplicates collapse, so |result| <= |A|."""
    if A.reduced:
        return A
    return MonomialSet(A.q, A.m, (tuple(reduce_exponent(c, A.q) for c in v) for v in A))


def minkowski_sum(A: MonomialSet, B: MonomialSet) -> MonomialSet:
    """All pairwise sums a + b.  Output is NOT folded back into [0, q-1]."""
    A.same_ambient(B)
    sums = {tuple(x + y for x, y in zip(a, b)) for a in A for b in B}
    return MonomialSet(A.q, A.m, sums)


def square_support(A: MonomialSet) -> MonomialSet:
    """Support of the componentwise-product square: reduce(A + A).

    Requires a reduced input — squaring an unreduced set silently conflates
    distinct functions, so it is refused.  With hi the largest coordinate of
    A on each axis, one shifted copy of A's indicator over [0, hi] per member
    of A is OR-ed into the sums grid [0, 2 hi]; every axis with 2 hi > q - 1
    is then folded by OR-ing its slab [q, 2 hi] onto [1, 2 hi - q + 1].  Only
    the sums grid is budgeted, so small coordinates stay cheap in a large
    ambient.
    """
    if not A.reduced:
        raise NotReduced("square_support needs exponents in [0, q-1]; call reduce_set first")
    if len(A) == 0:
        raise EmptySet("square of an empty support")
    q, m = A.q, A.m
    pts = A.points()
    hi = pts.max(axis=0).tolist()
    check_box([2 * h + 1 for h in hi], "the sums grid of a square support")
    core = np.zeros([h + 1 for h in hi], dtype=bool)
    core[tuple(pts.T)] = True
    sums = np.zeros([2 * h + 1 for h in hi], dtype=bool)
    for a in pts.tolist():
        sums[tuple(slice(c, c + h + 1) for c, h in zip(a, hi))] |= core
    for axis, h in enumerate(hi):
        if 2 * h >= q:
            head = [slice(None)] * m
            tail = [slice(None)] * m
            head[axis], tail[axis] = slice(1, 2 * h - q + 2), slice(q, 2 * h + 1)
            sums[tuple(head)] |= sums[tuple(tail)]
    folded = tuple(slice(0, min(2 * h + 1, q)) for h in hi)
    return MonomialSet._from_indicator(q, m, sums[folded])


def member_mask(B: MonomialSet, pts) -> np.ndarray:
    """Whether each row of the (n, m) integer array ``pts`` is a member of B.

    Each member of B is a linear key over B's bounding box, ascending because
    the members are in lex order; a row inside the box is looked up among the
    keys by binary search, and a row outside it is no member.  Keys past
    int64 are Python integers, so every answer is exact, and nothing larger
    than |B| + n entries is allocated.
    """
    pts = np.asarray(pts)
    hit = np.zeros(len(pts), dtype=bool)
    if len(B) == 0 or len(pts) == 0:
        return hit
    members = B.points()
    sides = members.max(axis=0) + 1
    dtype = exact_dtype(math.prod(sides.tolist()))
    strides = np.array([math.prod(sides[j + 1:].tolist()) for j in range(B.m)], dtype=dtype)
    keys = members.astype(dtype) @ strides
    inside = ((pts >= 0) & (pts < sides)).all(axis=1)
    probe = pts[inside].astype(dtype) @ strides
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    hit[inside] = keys[at] == probe
    return hit


def is_lower_set(A: MonomialSet) -> bool:
    """True iff A is downward closed: with a, it contains every b <= a.

    Checking single-coordinate decrements suffices (induction on the sum).
    A lower set holds the box [0, a] under each member a, so no coordinate
    reaches |A|; past that test the decrements along each axis are looked
    up with member_mask.
    """
    k = len(A)
    if k == 0:
        return True
    if any(A.exponents[0]):  # a nonempty lower set holds 0, its lex-first member
        return False
    pts = A.points()
    if pts.max() >= k:
        return False
    for j in range(A.m):
        below = pts[pts[:, j] > 0]
        below[:, j] -= 1
        if not member_mask(A, below).all():
            return False
    return True


def dilate(A: MonomialSet, factor: int) -> MonomialSet:
    """The set {factor * a : a in A} (unreduced; used for doubling)."""
    if factor < 0:
        raise RangeError("dilation factor must be nonnegative")
    return MonomialSet(A.q, A.m, (tuple(factor * c for c in v) for v in A))
