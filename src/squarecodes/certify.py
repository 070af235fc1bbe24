"""Distance certificates: explicit codewords meeting the footprint bound.

A certificate is a fully expanded, machine-checkable witness: a product of
univariate factors whose evaluation is a codeword of C_A with weight exactly
equal to the (possibly shift-improved) footprint bound, proving the bound is
the exact minimum distance.

Every certificate comes out of one pipeline, which takes a shift s such that
X^s divides every member of A (s may be zero).  It divides X^s out, giving
the residual set B (B = A when s = 0); takes the footprint argmins of B over
the grid punctured on each axis with s_i > 0 (the point x_i = 0 dropped, so
q - 1 points there); searches them for a witness of one of two shapes;
multiplies the witness back by X^s; and re-verifies it against A.

* box — the product of beta_i distinct linear factors per axis; works
  whenever some argmin beta has its whole coordinate box inside B.
* divisor — products of binomials X^l - beta^t (l a divisor of q-1), whose
  root counts come from the binomial root-counting lemma; covers sparse sets
  like {1, X^l} that contain no box.

The kind is the shape's name for a zero shift and ``shifted`` otherwise.
certified_min_distance pulls out the per-axis minimum of A and tries both
shapes; box_certificate and divisor_certificate use a zero shift and one.

Shifting does NOT preserve the full-grid distance (a single monomial X*Y^3
over F_5 has weight 16, while its shift {(0,0)} has weight 25); what is true
is d(C_A) = d of C_B evaluated on the punctured grid.  The punctured grid has
its own footprint bound, min over b in B of prod(n_i - b_i) with n_i the
per-axis point count, which is why shifting can only raise the bound.

Every certificate returned by this module has been re-verified by expanding
the witness to monomials (support must lie inside A) and evaluating it over
the full grid — the lemmas propose, the oracle disposes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import evalcode
from .bounds import footprint_on_grid
from .errors import CrossCheckFailed, EmptySet, NotReduced, RangeError
from .expsets import ExpVec, MonomialSet
from .gf import FieldSpec, field


@dataclass(frozen=True)
class WitnessFactor:
    """One univariate factor of a witness polynomial, attached to an axis.

    kind = "linear":   product of (X - r) over the element indices in roots.
    kind = "binomial": X^l - c, with c an element index.
    kind = "monomial": X^s.
    """

    axis: int
    kind: str
    roots: tuple[int, ...] = ()
    l: int = 0
    c: int = 0
    s: int = 0

    def to_json(self) -> dict:
        if self.kind == "linear":
            return {"axis": self.axis, "kind": "linear", "roots": list(self.roots)}
        if self.kind == "binomial":
            return {"axis": self.axis, "kind": "binomial", "l": self.l, "c": self.c}
        return {"axis": self.axis, "kind": "monomial", "s": self.s}

    def univariate(self, F: FieldSpec) -> dict[int, int]:
        """Expand to {degree: coefficient index} over F."""
        if self.kind == "monomial":
            return {self.s: 1}
        if self.kind == "binomial":
            poly = {self.l: 1}
            neg = F.neg(self.c)
            if neg:
                poly[0] = neg
            return poly
        return {d: c for d, c in enumerate(_linear_product(F.q, self.roots)) if c}


@functools.lru_cache(maxsize=1 << 12)
def _linear_product(q: int, roots: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients, by degree, of the product of (X - r) over ``roots`` in
    GF(q).  Box witnesses use contiguous root ranges, so few keys recur."""
    F = field(q)
    coeffs = [1]
    for r in roots:
        neg_r = F.neg(r)
        # (X - r) * f: every coefficient moves up one degree, plus -r * f
        coeffs = [
            F.add(lo, F.mul(neg_r, c)) for lo, c in zip([0] + coeffs, coeffs + [0])
        ]
    return tuple(coeffs)


@dataclass(frozen=True)
class DistanceCertificate:
    """A witness that d(C_A) equals the claimed weight.

    kind is one of box / divisor / shifted / none; the last carries no
    witness and only marks a lower bound.  alpha is the exponent vector of A
    whose footprint product the witness attains; shift is the common monomial
    pulled out first (None when there is none).
    """

    kind: str
    q: int
    m: int
    alpha: ExpVec | None
    shift: ExpVec | None
    factors: tuple[WitnessFactor, ...]
    weight: int | None

    def to_polynomial(self) -> dict[ExpVec, int]:
        """Expand the factor product into {exponent vector: coefficient index}."""
        if self.kind == "none":
            raise EmptySet("a bound-only certificate has no witness polynomial")
        F = field(self.q)
        per_axis: list[dict[int, int]] = [{0: 1} for _ in range(self.m)]
        if self.shift is not None:
            for i, s in enumerate(self.shift):
                if s:
                    per_axis[i] = {s: 1}
        for fac in self.factors:
            cur = per_axis[fac.axis]
            other = fac.univariate(F)
            prod: dict[int, int] = {}
            for d1, c1 in cur.items():
                for d2, c2 in other.items():
                    d = d1 + d2
                    prod[d] = F.add(prod.get(d, 0), F.mul(c1, c2))
            per_axis[fac.axis] = {d: c for d, c in prod.items() if c}
        combos: list[tuple[ExpVec, int]] = [((), 1)]
        for axis_poly in per_axis:
            combos = [
                (vec + (d,), F.mul(coeff, c))
                for vec, coeff in combos
                for d, c in axis_poly.items()
            ]
        return {vec: coeff for vec, coeff in combos if coeff}

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": None if self.alpha is None else list(self.alpha),
            "shift": None if self.shift is None else list(self.shift),
            "factors": [f.to_json() for f in self.factors],
            "weight": self.weight,
        }


@dataclass(frozen=True)
class CertifiedDistance:
    """Outcome of certified_min_distance: a distance or just a floor for it."""

    d: int
    exact: bool
    certificate: DistanceCertificate


def _verify(cert: DistanceCertificate, A: MonomialSet) -> None:
    w = evalcode.weight_of_witness(cert.to_polynomial(), A)
    if w != cert.weight:
        raise CrossCheckFailed(f"certificate claims weight {cert.weight} but evaluates to {w}")


def root_count_binomial(l: int, j: int, F: FieldSpec) -> int:
    """Number of roots of X^l - alpha^j in F (alpha the primitive element).

    gcd(l, q-1) when that gcd divides j, else none: the image of x -> x^l is
    the subgroup of index gcd(l, q-1), and each attained value is hit by
    exactly gcd(l, q-1) elements.
    """
    if l < 1:
        raise RangeError(f"exponent must be positive, got {l}")
    if not 0 <= j <= F.q - 2:
        raise RangeError(f"need 0 <= j <= q-2, got j={j}")
    g = math.gcd(l, F.q - 1)
    return g if j % g == 0 else 0


def _check_ready(A: MonomialSet) -> None:
    if not A.reduced:
        raise NotReduced("certificates need exponents in [0, q-1]")
    if len(A) == 0:
        raise EmptySet("the zero code has no distance to certify")


def _box_search(B: MonomialSet, argmins, punctured: tuple[bool, ...]):
    """First (beta, factors) whose coordinate box [0, beta_1] x ... x
    [0, beta_m] lies inside B: the product of beta_i linear factors per axis.

    B has no duplicates, so that holds exactly when prod(beta_i + 1) members
    are <= beta componentwise.  The roots are the first beta_i points of each
    axis's grid: indices 0.. on a full axis, 1.. on a punctured one (index 0
    is the removed zero).
    """
    pts = B.points()
    for beta in argmins:
        if np.count_nonzero((pts <= beta).all(axis=1)) == math.prod(c + 1 for c in beta):
            starts = [1 if p else 0 for p in punctured]
            factors = tuple(
                WitnessFactor(axis=i, kind="linear", roots=tuple(range(starts[i], starts[i] + b)))
                for i, b in enumerate(beta)
                if b
            )
            return beta, factors
    return None


def _divisor_axis_options(a: int, q: int, allow_zero_root: bool = True):
    """Ways to realize ``a`` roots on one axis with binomial factors.

    Returns (support, recipe) pairs in deterministic order: chains of
    k = a/l binomials X^l - beta^t for each divisor l of q-1 dividing a
    (largest l first, i.e. sparsest support first), then the {X, X^a} shape
    X * (X^(a-1) - gamma), which avoids exponent 0 in the support but puts a
    root at the point 0 — so it is offered only when that point is in the
    grid (allow_zero_root)."""
    opts = []
    if a == 0:
        return [((0,), ())]
    for l in sorted((x for x in range(1, q) if (q - 1) % x == 0), reverse=True):
        if l <= a and a % l == 0:
            k = a // l
            support = tuple(t * l for t in range(k + 1))
            opts.append((support, ("chain", l, k)))
    if allow_zero_root and a >= 2 and (q - 1) % (a - 1) == 0:
        opts.append(((1, a), ("shifted_binomial", a)))
    return opts


def _divisor_search(B: MonomialSet, argmins, punctured: tuple[bool, ...]):
    """First (alpha, factors) whose binomial supports cross-multiply into B.

    Chain binomials X^l - beta^t never vanish at 0 (their constants are
    powers of the primitive element), so their root counts survive on
    punctured axes unchanged; the shifted-binomial shape is suppressed there.
    """
    q = B.q
    F = field(q)
    alpha_prim = F.primitive_element()
    for alpha in argmins:
        axis_opts = [
            _divisor_axis_options(a, q, allow_zero_root=not punctured[i])
            for i, a in enumerate(alpha)
        ]
        for combo in itertools.product(*axis_opts):
            support_vecs = itertools.product(*[sup for sup, _ in combo])
            if not all(v in B for v in support_vecs):
                continue
            factors: list[WitnessFactor] = []
            for axis, (_, recipe) in enumerate(combo):
                if recipe == ():
                    continue
                if recipe[0] == "chain":
                    _, l, k = recipe
                    beta = F.pow(alpha_prim, l)
                    for t in range(1, k + 1):
                        factors.append(
                            WitnessFactor(axis=axis, kind="binomial", l=l, c=F.pow(beta, t))
                        )
                else:
                    _, a = recipe
                    gamma = F.pow(alpha_prim, a - 1)
                    factors.append(WitnessFactor(axis=axis, kind="monomial", s=1))
                    factors.append(
                        WitnessFactor(axis=axis, kind="binomial", l=a - 1, c=gamma)
                    )
            return alpha, tuple(factors)
    return None


_SEARCHES = {"box": _box_search, "divisor": _divisor_search}


def _residual(A: MonomialSet, shift: ExpVec) -> MonomialSet:
    """A with X^shift divided out of every member; A itself for a zero shift."""
    if not any(shift):
        return A
    return MonomialSet(A.q, A.m, (tuple(c - s for c, s in zip(v, shift)) for v in A))


def _certify(A: MonomialSet, shift: ExpVec, shapes) -> tuple[int, DistanceCertificate | None]:
    """The certificate pipeline: the footprint bound of A / X^shift over the
    grid punctured on the shifted axes, and the first verified witness among
    ``shapes`` (names in _SEARCHES), or None.

    A must be reduced and nonempty, and X^shift must divide every member.
    """
    punctured = tuple(s > 0 for s in shift)
    B = _residual(A, shift)
    fb, argmins = footprint_on_grid(B, tuple(A.q - 1 if p else A.q for p in punctured))
    for shape in shapes:
        found = _SEARCHES[shape](B, argmins, punctured)
        if found is not None:
            beta, factors = found
            cert = DistanceCertificate(
                kind="shifted" if any(punctured) else shape,
                q=A.q,
                m=A.m,
                alpha=tuple(b + s for b, s in zip(beta, shift)),
                shift=shift if any(punctured) else None,
                factors=factors,
                weight=fb,
            )
            _verify(cert, A)  # full-grid evaluation, support checked inside A
            return fb, cert
    return fb, None


def box_certificate(A: MonomialSet) -> DistanceCertificate | None:
    """Product-of-linear-factors witness at a footprint argmin, if one fits.

    Needs some argmin alpha whose full box [0, alpha_1] x ... x [0, alpha_m]
    lies inside A — true for every downward-closed set.  Returns None when no
    argmin's box fits.
    """
    _check_ready(A)
    return _certify(A, (0,) * A.m, ("box",))[1]


def divisor_certificate(A: MonomialSet) -> DistanceCertificate | None:
    """Binomial-product witness for sets too sparse to contain a box.

    Per axis, alpha_i roots are collected either from a chain of binomials
    (X_i^l - beta, X_i^l - beta^2, ..., beta = alpha_prim^l, each contributing
    l fresh roots because l divides q-1) or from X_i * (X_i^(a-1) - gamma).
    A combination is accepted only if the full cross product of the factor
    supports lies inside A — per-axis membership alone is not enough.
    """
    _check_ready(A)
    return _certify(A, (0,) * A.m, ("divisor",))[1]


def shift_reduce(A: MonomialSet, axis: int) -> tuple[MonomialSet, int] | None:
    """Pull the common factor X_axis^s out of every monomial of A.

    Returns the lowered set and s = the minimum coordinate on that axis, or
    None when s = 0.  The distances relate through the punctured grid, not by
    plain equality: d(C_A) = minimum weight of C_B restricted to x_axis != 0.
    """
    _check_ready(A)
    if not 0 <= axis < A.m:
        raise RangeError(f"axis must be in [0, {A.m}), got {axis}")
    s = min(v[axis] for v in A)
    if s == 0:
        return None
    return _residual(A, tuple(s if j == axis else 0 for j in range(A.m))), s


def certified_min_distance(A: MonomialSet) -> CertifiedDistance:
    """Exact distance with a verified witness when one of the shapes applies.

    Pipeline: shift out common monomial factors on every axis, compute the
    footprint bound of the residual set over the correspondingly punctured
    grid (one point fewer per shifted axis), then look for a box witness
    there, then for binomial-product witnesses.  Failing everything, the
    punctured-grid footprint bound is returned as a plain lower bound — it is
    never smaller than the direct footprint bound of A.
    """
    _check_ready(A)
    field(A.q)  # an invalid order is refused before any int64 array is built
    shift = tuple(A.points().min(axis=0).tolist())
    fb, cert = _certify(A, shift, ("box", "divisor"))
    if cert is not None:
        return CertifiedDistance(d=fb, exact=True, certificate=cert)
    return CertifiedDistance(
        d=fb,
        exact=False,
        certificate=DistanceCertificate(
            kind="none", q=A.q, m=A.m, alpha=None, shift=shift if any(shift) else None,
            factors=(), weight=None,
        ),
    )
