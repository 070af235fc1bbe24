"""Code-family constructors and the convex-region designer for square codes.

Everything here is exact set combinatorics: integers and Fraction, never a
float.  The constructors produce the exponent sets of the classic monomial
families (Reed-Muller, weighted Reed-Muller, hyperbolic, half-hyperbolic and
the optimal even-distance staircases), and the ConvexRegion machinery turns
"pick a convex region whose half-integer points double into B" into an
executable verifier: algorithm1_verify enumerates every half-integer point of
[0, q-1]^m, and a clean pass guarantees that the square of the region's
lattice-point code lives inside C_B.

Constructors and region scans are predicates over ``np.indices`` grids.
Rational data is multiplied through by the lcm of its denominators, so every
comparison is between integers: int64 when the largest reachable magnitude
fits, Python integers otherwise.  Every grid is checked against the point
budget before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product

import numpy as np

from .errors import (
    CrossCheckFailed,
    DimensionMismatch,
    InvalidOrder,
    NotReduced,
    ParityError,
    RangeError,
)
from .expsets import (
    ExpVec,
    MonomialSet,
    check_ambient,
    check_box,
    dilate,
    exact_dtype,
    fold_indices,
    member_mask,
    square_support,
)

Epsilon = tuple[int, ...]


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def _grid(q: int, m: int, side: int, top: int, what: str):
    """``np.indices`` of [0, side-1]^m as open grids, once the ambient and the
    point budget are checked, in a dtype that holds every magnitude up to
    ``top`` exactly."""
    check_ambient(q, m)
    check_box((side,) * m, what)
    return np.indices((side,) * m, sparse=True, dtype=exact_dtype(top))


def _clamp(x: int, lo: int, hi: int) -> int:
    return max(lo, min(x, hi))


def _lcm_scale(*fractions: Fraction) -> int:
    """The lcm of the denominators: multiplying by it makes every value an integer."""
    return math.lcm(*(x.denominator for x in fractions))


def reed_muller_set(q: int, m: int, s: int) -> MonomialSet:
    """All exponents in [0, q-1]^m of total degree at most s."""
    if not isinstance(s, int) or s < 0:
        raise RangeError(f"degree bound must be a natural number, got {s!r}")
    top = m * (q - 1)
    t = _grid(q, m, q, top, "a Reed-Muller set")
    return MonomialSet._from_indicator(q, m, sum(t) <= min(s, top))


def weighted_rm_set(q: int, m: int, s, weights) -> MonomialSet:
    """Exponents with weighted degree sum(w_j * i_j) <= s, exact rationals."""
    w = tuple(Fraction(x) for x in weights)
    if len(w) != m:
        raise DimensionMismatch(f"expected {m} weights, got {len(w)}")
    if any(x <= 0 for x in w):
        raise RangeError("weights must be positive")
    bound = Fraction(s)
    scale = _lcm_scale(bound, *w)
    W = [int(x * scale) for x in w]
    top = sum(W) * (q - 1)
    t = _grid(q, m, q, top, "a weighted Reed-Muller set")
    degree = sum(c * x for c, x in zip(W, t))
    return MonomialSet._from_indicator(q, m, degree <= _clamp(int(bound * scale), -1, top))


def hyperbolic_set(q: int, m: int, d: int) -> MonomialSet:
    """The largest exponent set whose footprint bound is still >= d."""
    if not isinstance(d, int) or d < 1:
        raise RangeError(f"designed distance must be a positive integer, got {d!r}")
    check_ambient(q, m)
    top = q**m
    t = _grid(q, m, q, top + 1, "a hyperbolic set")
    return MonomialSet._from_indicator(q, m, math.prod(q - x for x in t) >= min(d, top + 1))


def half_hyperbolic_set(q: int, m: int, d: int) -> MonomialSet:
    """Exponents a of the half box whose double 2a stays in the hyperbolic set.

    Membership is prod(q - 2*a_j) >= d over [0, floor((q-1)/2)]^m; squaring a
    code on this set lands inside the hyperbolic code of designed distance d.
    """
    if not isinstance(d, int) or d < 1:
        raise RangeError(f"designed distance must be a positive integer, got {d!r}")
    check_ambient(q, m)
    if d >= q**m:
        raise InvalidOrder(f"designed distance {d} must be < q^m = {q**m}")
    t = _grid(q, m, (q - 1) // 2 + 1, q**m, "a half-hyperbolic set")
    return MonomialSet._from_indicator(q, m, math.prod(q - 2 * x for x in t) >= d)


def wrm_even_witness(q: int, d: int, variant: str = "b1"):
    """Exact weights and bound realizing the even-d optimal staircase.

    The staircase keeps everything strictly under the line i + j = s plus the
    first jmax + 1 points on the line itself (jmax = (q-d)//2, counted along
    the axis the variant favors).  Tilting the line by delta = 1/(2s) and
    setting the bound to s + jmax*delta selects exactly those lattice points:
    interior points can afford the tilt, line points survive iff their tilted
    coordinate is at most jmax, and everything beyond the line stays out
    because jmax*delta < 1.
    """
    variant = variant.lower()
    if variant not in ("b1", "b2"):
        raise RangeError(f"variant must be 'b1' or 'b2', got {variant!r}")
    if not isinstance(d, int) or d % 2:
        raise ParityError(f"this staircase needs an even designed distance, got {d!r}")
    if not 2 <= d < q:
        raise RangeError(f"designed distance must satisfy 2 <= d < q, got d={d}")
    s = q - d // 2
    jmax = (q - d) // 2
    delta = Fraction(1, 2 * s)
    bound = s + jmax * delta
    if variant == "b1":
        weights = (Fraction(1), 1 + delta)
    else:
        weights = (1 + delta, Fraction(1))
    return weights, bound


def wrm_even_optimal_set(q: int, d: int, variant: str = "b1") -> MonomialSet:
    """Optimal two-variable set with square footprint >= d, d even.

    Built twice — once from its explicit two-piece description, once as a
    weighted-degree set from wrm_even_witness — and the two must coincide,
    which nails the witness exactly rather than by hand-waving.
    """
    weights, bound = wrm_even_witness(q, d, variant)  # validates q, d, variant
    variant = variant.lower()
    s = q - d // 2
    jmax = (q - d) // 2
    i, j = _grid(q, 2, q, 2 * q, "a staircase")
    tilted = j if variant == "b1" else i
    explicit = MonomialSet._from_indicator(
        q, 2, (i + j < s) | ((i + j == s) & (tilted <= jmax))
    )
    realized = weighted_rm_set(q, 2, bound, weights)
    if explicit.exponents != realized.exponents:
        raise CrossCheckFailed(
            "witness weights do not reproduce the staircase: "
            f"q={q}, d={d}, variant={variant}"
        )
    return explicit


# ---------------------------------------------------------------------------
# the B_eps covering and containment checks
# ---------------------------------------------------------------------------

def all_epsilons(m: int) -> list[Epsilon]:
    return list(product((0, 1), repeat=m))


def b_epsilon_set(B: MonomialSet, eps: Epsilon) -> MonomialSet:
    """Translate B by (q-1)*eps, keeping only members positive on eps-axes.

    The output is deliberately unreduced: its points live in [0, 2q-2]^m and
    fold back onto B, which is exactly what makes the union over all eps cover
    every unreduced exponent that reduces into B.
    """
    if len(eps) != B.m:
        raise DimensionMismatch(f"epsilon has length {len(eps)}, set has m={B.m}")
    if any(e not in (0, 1) for e in eps):
        raise RangeError(f"epsilon must be a 0/1 vector, got {eps}")
    if not B.reduced:
        raise NotReduced("b_epsilon_set needs a reduced base set")
    q = B.q
    vecs = [
        tuple(c + (q - 1) * e for c, e in zip(b, eps))
        for b in B
        if all(c > 0 for c, e in zip(b, eps) if e == 1)
    ]
    return MonomialSet(B.q, B.m, vecs)


def necessary_condition_check(A: MonomialSet, B: MonomialSet) -> bool:
    """True iff 2A is covered by the union of the B_eps translates.

    A False here already proves the square support of A cannot fit inside B,
    before any Minkowski sum is computed.
    """
    A.same_ambient(B)
    if not (A.reduced and B.reduced):
        raise NotReduced("both sets must be reduced")
    covered: set[ExpVec] = set()
    for eps in all_epsilons(B.m):
        covered.update(b_epsilon_set(B, eps).exponents)
    return all(v in covered for v in dilate(A, 2))


def square_design_violation(A: MonomialSet, B: MonomialSet) -> ExpVec | None:
    """First exponent of the square support of A that escapes B, if any."""
    A.same_ambient(B)
    if not (A.reduced and B.reduced):
        raise NotReduced("both sets must be reduced")
    if len(A) == 0:
        return None  # the zero code squares to itself, inside anything
    S = square_support(A)
    inside = member_mask(B, S.points())
    return None if inside.all() else S.exponents[int(inside.argmin())]


def check_square_designed(A: MonomialSet, B: MonomialSet) -> bool:
    """True iff the square support of A is contained in B."""
    return square_design_violation(A, B) is None


# ---------------------------------------------------------------------------
# convex regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalHalfspace:
    """The closed halfspace normal . x <= bound, exact rationals."""

    normal: tuple[Fraction, ...]
    bound: Fraction

    def __init__(self, normal, bound):
        n = tuple(Fraction(c) for c in normal)
        if not n or all(c == 0 for c in n):
            raise RangeError("halfspace needs at least one nonzero coefficient")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "bound", Fraction(bound))

    def contains(self, point) -> bool:
        if len(point) != len(self.normal):
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, halfspace has {len(self.normal)}"
            )
        return sum(c * Fraction(x) for c, x in zip(self.normal, point)) <= self.bound


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of halfspaces, an optional box, and one product constraint.

    The product constraint is the nonlinear region prod(q - 2 x_i) >= d on the
    box 0 <= x_i <= (q-1)/2, where every factor is positive — that positivity
    is what keeps the region convex, so it must never be evaluated outside the
    half box.  Membership with a product constraint therefore needs q.
    """

    m: int
    halfspaces: tuple[RationalHalfspace, ...] = ()
    box: tuple[Fraction, Fraction] | None = None
    product_bound: int | None = None

    def __init__(self, m, halfspaces=(), box=None, product_bound=None):
        if not isinstance(m, int) or m < 1:
            raise RangeError(f"dimension must be a positive integer, got {m!r}")
        hs = tuple(halfspaces)
        for h in hs:
            if len(h.normal) != m:
                raise DimensionMismatch("halfspace dimension does not match region")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "halfspaces", hs)
        if box is not None:
            lo, hi = box
            box = (Fraction(lo), Fraction(hi))
        object.__setattr__(self, "box", box)
        if product_bound is not None and (
            not isinstance(product_bound, int) or product_bound < 1
        ):
            raise RangeError("product bound must be a positive integer")
        object.__setattr__(self, "product_bound", product_bound)

    def contains(self, point, q: int | None = None) -> bool:
        if len(point) != self.m:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, region has m={self.m}"
            )
        xs = tuple(Fraction(x) for x in point)
        if self.box is not None:
            lo, hi = self.box
            if any(x < lo or x > hi for x in xs):
                return False
        for h in self.halfspaces:
            if not h.contains(xs):
                return False
        if self.product_bound is not None:
            if q is None:
                raise RangeError("membership with a product constraint needs q")
            half = Fraction(q - 1, 2)
            if any(x < 0 or x > half for x in xs):
                return False
            prod = Fraction(1)
            for x in xs:
                prod *= q - 2 * x
            if prod < self.product_bound:
                return False
        return True


def _region_mask(C: ConvexRegion, q: int, side: int, scale: int) -> np.ndarray:
    """Membership in C of every point x = t/scale, t in [0, side-1]^m, as a
    boolean grid; scale is 1 for lattice points and 2 for half-integer points.

    Every test is an integer comparison: the box becomes integer bounds on t,
    a halfspace is multiplied through by scale and the lcm of its
    denominators, and the product constraint prod(q - 2x) >= d on the half
    box 0 <= 2x <= q-1 becomes prod(q - c t) >= d with c = 2/scale.  The
    caller has checked the grid against the point budget.
    """
    m = C.m
    shape = (side,) * m
    t = np.indices(shape, sparse=True)
    mask = np.ones(shape, dtype=bool)
    if C.box is not None:
        lo, hi = C.box
        coords = np.arange(side)
        ok = (coords >= _clamp(math.ceil(lo * scale), 0, side)) & (
            coords <= _clamp(math.floor(hi * scale), -1, side - 1)
        )
        for x in t:
            mask &= ok[x]
    for h in C.halfspaces:
        k = _lcm_scale(h.bound, *h.normal)
        N = [int(c * k) for c in h.normal]
        top = sum(abs(c) for c in N) * (side - 1)
        x = np.indices(shape, sparse=True, dtype=exact_dtype(top + 1))
        lhs = sum(c * xj for c, xj in zip(N, x))
        mask &= lhs <= _clamp(int(h.bound * k * scale), -top - 1, top)
    if C.product_bound is not None:
        c = 2 // scale
        top = q**m
        factor = np.array(
            [q - c * v if c * v <= q - 1 else 0 for v in range(side)],
            dtype=exact_dtype(top + 1),
        )
        mask &= math.prod(factor[x] for x in t) >= min(C.product_bound, top + 1)
    return mask


def region_lattice_points(C: ConvexRegion, q: int) -> MonomialSet:
    """All integer points of [0, q-1]^m inside the region, as a MonomialSet."""
    if not isinstance(q, int) or q < 2:
        raise RangeError(f"q must be an integer >= 2, got {q!r}")
    check_ambient(q, C.m)
    check_box((q,) * C.m, "the lattice points of a region")
    return MonomialSet._from_indicator(q, C.m, _region_mask(C, q, q, 1))


def algorithm1_violation(C: ConvexRegion, B: MonomialSet) -> tuple[int, ...] | None:
    """First doubled point 2c witnessing failure of the half-integer test.

    Scans every c with 2c in [0, 2q-2]^m; a violation is a point of the region
    whose double folds outside B.  Returns the integer vector 2c (never the
    half-integer c itself) so the result stays exact and printable.
    """
    if not B.reduced:
        raise NotReduced("the target set must be reduced")
    if C.m != B.m:
        raise DimensionMismatch(f"region has m={C.m}, set has m={B.m}")
    q, m = B.q, B.m
    side = 2 * q - 1
    check_box((side,) * m, "the half-integer grid of Algorithm 1")  # covers B's q^m grid too
    member = np.zeros((q,) * m, dtype=bool)
    member[tuple(B.points().T)] = True
    outside = ~member[np.ix_(*[fold_indices(side, q)] * m)]
    bad = outside & _region_mask(C, q, side, 2)
    if not bad.any():
        return None
    # C order is lex order: the first True is the scalar scan's first hit
    return tuple(int(c) for c in np.unravel_index(int(bad.argmax()), bad.shape))


def algorithm1_verify(C: ConvexRegion, B: MonomialSet) -> bool:
    """True certifies: the square of the region's lattice-point code sits in C_B.

    Sufficient, not necessary — the test is over all real (here half-integer)
    points of the region, which can fail even when the lattice points
    themselves are fine.
    """
    return algorithm1_violation(C, B) is None


# ---------------------------------------------------------------------------
# exhaustive staircase sweep (two variables)
# ---------------------------------------------------------------------------

def all_weighted_rm_sets(q: int):
    """Every distinct two-variable weighted-degree set over [0, q-1]^2.

    A weighted-degree set is a prefix of the grid sorted by a positive linear
    functional w, cut only at value boundaries.  As w sweeps the positive
    quadrant, the induced ordering changes exactly at the rational slopes b/a
    with 1 <= a, b <= q-1 (two grid points tie there), so it suffices to take:

    * each critical direction (a, b) itself (ties grouped), and
    * one rational representative strictly inside each adjacent open interval,
      realized as (aN+1, bN) and (aN-1, bN), plus the two extreme directions
      (N, 1) and (1, N).

    N = 4q^2 keeps every perturbed slope inside its interval: the offset is
    b/(a(aN-1)) < 1/(a(q-1)) because (q-1)^2 < 4q^2 - 1, while neighboring
    critical slopes differ by at least 1/(a(q-1)).

    Returns [(set, (w1, w2), bound)] with integer witness data, deduplicated,
    in deterministic order.
    """
    if not isinstance(q, int) or q < 2:
        raise RangeError(f"q must be an integer >= 2, got {q!r}")
    N = 4 * q * q
    directions: list[tuple[int, int]] = [(N, 1), (1, N)]
    for a in range(1, q):
        for b in range(1, q):
            if math.gcd(a, b) == 1:
                directions.extend([(a, b), (a * N + 1, b * N), (a * N - 1, b * N)])
    pts = list(product(range(q), repeat=2))
    seen: set[frozenset] = set()
    out = []
    for a, b in directions:
        keyed = sorted((a * x + b * y, (x, y)) for x, y in pts)
        prefix: list[tuple[int, int]] = []
        for key, grp in groupby(keyed, key=lambda kv: kv[0]):
            prefix.extend(pt for _, pt in grp)
            fs = frozenset(prefix)
            if fs not in seen:
                seen.add(fs)
                out.append((MonomialSet(q, 2, prefix), (a, b), key))
    return out
