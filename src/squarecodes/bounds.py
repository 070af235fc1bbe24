"""The footprint bound, closed-form parameters, and comparison theorems.

The footprint bound FB(A) = min over a in A of prod(q - a_j) lower-bounds the
minimum distance of the evaluation code on A; for downward-closed sets the
certify module upgrades it to an exact distance.  The rest of this module is
the closed-form arithmetic around it: the Reed-Muller distance formula, the
half-hyperbolic dimension sum, and the dimension comparisons between the
families, each cross-checked against direct enumeration where the underlying
statement has boundary cases worth distrusting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evalcode
from .errors import CrossCheckFailed, EmptySet, NotReduced, RangeError
from .expsets import ExpVec, MonomialSet, exact_dtype, square_support
from .families import (
    ConvexRegion,
    RationalHalfspace,
    half_hyperbolic_set,
    region_lattice_points,
    wrm_even_witness,
)

CSV_HEADER = "family,q,m,d_design,n,k,fb,d_exact,d_source,square_fb"


def footprint_on_grid(A: MonomialSet, sizes: tuple[int, ...]) -> tuple[int, tuple[ExpVec, ...]]:
    """min over a in A of prod(n_j - a_j) for per-axis grid sizes n_j, and
    the members attaining it, in lex order.  A must be nonempty with
    a_j < n_j; the products are exact (Python integers past int64)."""
    pts = A.points().astype(exact_dtype(math.prod(sizes)), copy=False)
    prods = np.prod(np.array(sizes, dtype=pts.dtype) - pts, axis=1)
    best = prods.min()
    exps = A.exponents
    return int(best), tuple(exps[i] for i in np.flatnonzero(prods == best))


def _check_footprint_input(A: MonomialSet) -> None:
    if not A.reduced:
        raise NotReduced("the footprint bound needs exponents in [0, q-1]")
    if len(A) == 0:
        raise EmptySet("the zero code has no footprint bound")


def footprint_bound(A: MonomialSet) -> int:
    """min over a in A of prod(q - a_j); a lower bound for d(C_A)."""
    _check_footprint_input(A)
    return footprint_on_grid(A, (A.q,) * A.m)[0]


def footprint_argmins(A: MonomialSet) -> tuple:
    """All exponent vectors attaining the footprint bound, in lex order."""
    _check_footprint_input(A)
    return footprint_on_grid(A, (A.q,) * A.m)[1]


def rm_min_distance(q: int, m: int, s: int) -> int:
    """Exact minimum distance (q-b) * q^(m-1-a) of the degree-s code, s = a(q-1)+b."""
    if not isinstance(s, int) or not 0 <= s <= m * (q - 1):
        raise RangeError(f"degree must satisfy 0 <= s <= m(q-1), got {s!r}")
    if s == m * (q - 1):
        return 1
    a, b = divmod(s, q - 1)
    return (q - b) * q ** (m - 1 - a)


def halfhyp_dimension_formula(q: int, d: int) -> int:
    """Closed-form dimension of the two-variable half-hyperbolic set.

    The summand's denominator 4i - 2q is negative throughout, so the floor
    must round toward minus infinity — Python's // does exactly that.  The
    result is checked against direct enumeration on every call; the formula
    has enough sign traps that trusting it bare would be reckless.
    """
    if not isinstance(d, int) or not 1 <= d < q * q:
        raise RangeError(f"need 1 <= d < q^2, got d={d!r}")
    total = 0
    for i in range((q * q - d) // (2 * q) + 1):
        total += (d + (q + 2) * (2 * i - q)) // (4 * i - 2 * q)
    if total != len(half_hyperbolic_set(q, 2, d)):
        raise CrossCheckFailed(f"dimension formula disagrees with enumeration at q={q}, d={d}")
    return total


def rm_vs_hyp_comparison(q: int, t: int) -> str:
    """'hyp_strictly_larger' or 'equal': hyperbolic vs Reed-Muller dimension.

    Both codes are compared at the same designed distance d = rm distance of
    degree t; the hyperbolic set always contains the Reed-Muller one, and is
    strictly larger exactly inside the window (t+5)/2 <= q <= (t+1)^2 / 4,
    tested here with integer arithmetic only.
    """
    if not isinstance(t, int) or not 0 <= t <= 2 * (q - 1):
        raise RangeError(f"need 0 <= t <= 2(q-1), got t={t!r}")
    if t + 5 <= 2 * q and 4 * q <= (t + 1) ** 2:
        return "hyp_strictly_larger"
    return "equal"


def wrm_design_region(q: int, d: int) -> ConvexRegion:
    """The region of [0, q-1]^2 whose lattice points are the weighted-degree
    design of square footprint >= d (see best_wrm_square_design)."""
    if not isinstance(d, int) or not 1 <= d < q:
        raise RangeError(f"need 1 <= d < q, got d={d!r}")
    if d == 1:
        return ConvexRegion(2, (), (0, q - 1))
    if d % 2:
        halfspace = RationalHalfspace((1, 1), q - (d + 1) // 2)
    else:
        halfspace = RationalHalfspace(*wrm_even_witness(q, d, "b1"))
    return ConvexRegion(2, (halfspace,), (0, q - 1))


def best_wrm_square_design(q: int, d: int) -> MonomialSet:
    """The largest weighted-degree set whose square footprint stays >= d.

    The lattice points of wrm_design_region(q, d).  d = 1: the full box —
    every square clears a bound of 1, so nothing beats dimension q^2.  Odd
    d >= 3: the plain degree set with s = q - (d+1)/2.  Even d: the tilted
    staircase (first variant).  The claimed square bound is checked before
    returning — the value promised is the value delivered.
    """
    A = region_lattice_points(wrm_design_region(q, d), q)
    fb = footprint_bound(square_support(A))
    if fb < d:
        raise CrossCheckFailed(f"square footprint {fb} < designed {d} at q={q}")
    return A


def wrm_beats_halfhyp(q: int, d: int) -> bool:
    """True iff d < (2 - sqrt(2)) q, tested exactly as (2q-d)^2 > 2q^2.

    In that range the weighted-degree design strictly beats the
    half-hyperbolic set in dimension at equal designed square distance; the
    dimension gap is checked whenever the predicate returns True.
    """
    if not isinstance(d, int) or not 1 <= d < q:
        raise RangeError(f"need 1 <= d < q, got d={d!r}")
    wins = (2 * q - d) ** 2 > 2 * q * q
    if wins:
        k_wrm = len(best_wrm_square_design(q, d))
        k_hh = len(half_hyperbolic_set(q, 2, d))
        if k_wrm <= k_hh:
            raise CrossCheckFailed(f"threshold promised a win at q={q}, d={d}: {k_wrm} <= {k_hh}")
    return wins


# ---------------------------------------------------------------------------
# parameter reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamsReport:
    """Everything known about one code: [n, k, >= fb] plus exact d if proven."""

    n: int
    k: int
    fb: int
    d_exact: int | None
    d_source: str  # certificate | exhaustive | formula | none
    square: "ParamsReport | None" = None

    def __post_init__(self):
        if self.d_exact is not None and self.fb > self.d_exact:
            raise CrossCheckFailed(f"footprint bound {self.fb} > exact distance {self.d_exact}")

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "fb": self.fb,
            "d_exact": self.d_exact,
            "d_source": self.d_source,
        }
        out["square"] = self.square.to_json() if self.square is not None else None
        return out


def params_csv_row(family: str, q: int, m: int, d_design, report: ParamsReport) -> str:
    """One CSV line in the fixed column order of CSV_HEADER."""
    square_fb = "" if report.square is None else str(report.square.fb)
    d_exact = "" if report.d_exact is None else str(report.d_exact)
    return ",".join(
        [
            family,
            str(q),
            str(m),
            str(d_design),
            str(report.n),
            str(report.k),
            str(report.fb),
            d_exact,
            report.d_source,
            square_fb,
        ]
    )


def _leaf_report(A: MonomialSet, effort: str, budget: int) -> ParamsReport:
    from . import certify  # deferred: certify depends on this module

    n = A.q**A.m
    k = len(A)
    fb = footprint_bound(A)
    d_exact = None
    d_source = "none"
    if effort in ("certify", "exhaustive"):
        res = certify.certified_min_distance(A)
        if res.exact:
            d_exact, d_source = res.d, "certificate"
        elif effort == "exhaustive":
            # reduced monomials are independent: the rank is |A|, known before rref
            evalcode._check_exact_budget(A.q, k, n, budget)
            G = evalcode.generator_matrix(A)
            d_exact = evalcode.exact_min_distance(G, budget=budget)
            d_source = "exhaustive"
    return ParamsReport(n=n, k=k, fb=fb, d_exact=d_exact, d_source=d_source)


def params_report(
    A: MonomialSet, effort: str = "certify", budget: int | None = None
) -> ParamsReport:
    """Full parameter bundle for C_A and, one level deep, for its square.

    effort = fb_only: bounds only.  certify: exact distance when a
    certificate is found, otherwise just the bound.  exhaustive: certificates
    first, then the enumeration oracle (BudgetExceeded propagates if neither
    the code nor its dual fits the class budget).  A budget other than None
    or an integer >= 1 raises RangeError at every effort.
    """
    if effort not in ("fb_only", "certify", "exhaustive"):
        raise RangeError(f"unknown effort level {effort!r}")
    budget = evalcode.resolve_budget(budget)
    if not A.reduced:
        raise NotReduced("parameter reports need a reduced set")
    if len(A) == 0:
        raise EmptySet("the zero code has no parameters to report")
    top = _leaf_report(A, effort, budget)
    sq = _leaf_report(square_support(A), effort, budget)
    return ParamsReport(
        n=top.n,
        k=top.k,
        fb=top.fb,
        d_exact=top.d_exact,
        d_source=top.d_source,
        square=sq,
    )
