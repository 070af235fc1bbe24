"""Scalar reference definitions of the vectorized kernels.

Each function walks every point (or every pair, member or monomial) with
plain Python integers and Fractions, the way the package computed these
results before its kernels became integer array operations; the witness
evaluation goes through the generator matrix of the polynomial's support.
The property tests in test_kernels.py require the package to agree with them
exactly.  The last two are helpers that only the tests need.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from squarecodes.errors import RangeError
from squarecodes.evalcode import generator_matrix
from squarecodes.expsets import MonomialSet, minkowski_sum, reduce_exponent, reduce_set
from squarecodes.gf import field


def square_support_pairwise(A: MonomialSet) -> MonomialSet:
    """fold(A + A) from all k^2 pairwise sums."""
    return reduce_set(minkowski_sum(A, A))


def reed_muller_ref(q: int, m: int, s: int) -> MonomialSet:
    return MonomialSet(q, m, [v for v in product(range(q), repeat=m) if sum(v) <= s])


def weighted_rm_ref(q: int, m: int, s, weights) -> MonomialSet:
    w = tuple(Fraction(x) for x in weights)
    bound = Fraction(s)
    vecs = [
        v
        for v in product(range(q), repeat=m)
        if sum(wj * c for wj, c in zip(w, v)) <= bound
    ]
    return MonomialSet(q, m, vecs)


def hyperbolic_ref(q: int, m: int, d: int) -> MonomialSet:
    vecs = [v for v in product(range(q), repeat=m) if math.prod(q - c for c in v) >= d]
    return MonomialSet(q, m, vecs)


def half_hyperbolic_ref(q: int, m: int, d: int) -> MonomialSet:
    half = (q - 1) // 2
    vecs = [
        v
        for v in product(range(half + 1), repeat=m)
        if math.prod(q - 2 * c for c in v) >= d
    ]
    return MonomialSet(q, m, vecs)


def staircase_ref(q: int, d: int, variant: str) -> MonomialSet:
    """The explicit two-piece description of the even-d optimal staircase."""
    s = q - d // 2
    jmax = (q - d) // 2
    vecs = []
    for i, j in product(range(q), repeat=2):
        tilted = j if variant == "b1" else i
        if i + j < s or (i + j == s and tilted <= jmax):
            vecs.append((i, j))
    return MonomialSet(q, 2, vecs)


def footprint_ref(A: MonomialSet, sizes) -> tuple:
    """(min over a of prod(n_j - a_j), the members attaining it in lex order)."""
    prods = [math.prod(n - c for n, c in zip(sizes, v)) for v in A]
    best = min(prods)
    return best, tuple(v for v, p in zip(A, prods) if p == best)


def region_lattice_points_ref(C, q: int) -> MonomialSet:
    return MonomialSet(q, C.m, [v for v in product(range(q), repeat=C.m) if C.contains(v, q)])


def algorithm1_violation_ref(C, B: MonomialSet):
    """The first t in [0, 2q-2]^m, in lex order, whose fold escapes B while
    t/2 lies in C; None when there is none."""
    q = B.q
    for t in product(range(2 * q - 1), repeat=B.m):
        if tuple(reduce_exponent(c, q) for c in t) in B:
            continue
        if C.contains(tuple(Fraction(x, 2) for x in t), q):
            return t
    return None


def evaluate_poly_ref(poly: dict, q: int, m: int) -> np.ndarray:
    """A sparse polynomial's values on the grid: the sum of the rows of its
    support's generator matrix, each times its coefficient."""
    F = field(q)
    tab = F.tables()
    acc = np.zeros(q**m, dtype=tab.mul.dtype)
    support = sorted(exp for exp, c in poly.items() if c)
    if not support:
        return acc
    rows = generator_matrix(MonomialSet(q, m, support)).rows
    for i, exp in enumerate(support):
        acc = tab.add[acc, tab.mul[poly[exp], rows[i]]]
    return acc


def linear_product_ref(F, roots) -> dict:
    """prod (X - r) over ``roots`` as {degree: coefficient index}, with the
    field's scalar operations and the zero terms dropped after each factor."""
    poly = {0: 1}
    for r in roots:
        nxt: dict[int, int] = {}
        for deg, coeff in poly.items():
            nxt[deg + 1] = F.add(nxt.get(deg + 1, 0), coeff)
            nxt[deg] = F.add(nxt.get(deg, 0), F.mul(F.neg(r), coeff))
        poly = {d: c for d, c in nxt.items() if c}
    return poly


def is_lower_set_ref(A: MonomialSet) -> bool:
    """Downward closure by single-coordinate decrements, member by member."""
    for a in A:
        for j, c in enumerate(a):
            if c and a[:j] + (c - 1,) + a[j + 1:] not in A:
                return False
    return True


def square_design_violation_ref(A: MonomialSet, B: MonomialSet):
    """The lex-first member of A's square support that is not in B, each
    looked up in a Python set of B's members; None when there is none."""
    members = set(B)
    for v in square_support_pairwise(A):
        if v not in members:
            return v
    return None


def box_fit_ref(A: MonomialSet):
    """The first footprint argmin of A whose whole box [0, beta] lies in A,
    every point of the box looked up; None when no argmin's box fits."""
    members = set(A)
    for beta in footprint_ref(A, (A.q,) * A.m)[1]:
        if all(v in members for v in product(*[range(c + 1) for c in beta])):
            return beta
    return None


def d_epsilon_points(q: int, m: int, d: int, eps) -> list[tuple[int, ...]]:
    """Doubled points of the eps-orthant whose folded product drops below d.

    Each axis ranges over [0, q-1] (eps_i = 0) or [q, 2q-2] (eps_i = 1); the
    factor q + eps_i(q-1) - t_i is then exactly q minus the folded coordinate.
    The union over all eps is the full bad set scanned by algorithm1_violation
    with B the hyperbolic set of designed distance d.
    """
    if not isinstance(d, int) or d < 1:
        raise RangeError(f"designed distance must be a positive integer, got {d!r}")
    if len(eps) != m or any(e not in (0, 1) for e in eps):
        raise RangeError(f"epsilon must be a 0/1 vector of length {m}, got {eps}")
    axes = [range(q) if e == 0 else range(q, 2 * q - 1) for e in eps]
    return [
        t
        for t in product(*axes)
        if math.prod(q + e * (q - 1) - c for e, c in zip(eps, t)) < d
    ]


def element_order(F, a: int) -> int:
    """Multiplicative order of a nonzero element of F, by repeated products."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    order, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        order += 1
    return order
