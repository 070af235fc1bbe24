"""Generator matrices, Schur squares, and exact minimum-distance oracles.

A monomial set A over (q, m) spans the evaluation code
    C_A = { (f(P))_{P in F_q^m} : f in span{X^a : a in A} },
with one matrix row per exponent vector (in the set's lexicographic order)
and one column per grid point (in enumerate_points order).  All bulk work
happens on numpy arrays of element indices, combined through the dense field
tables — there is no floating point anywhere in this module.

Two exact distance routes are provided and kept deliberately distinct:

* ``min_distance_exhaustive`` walks every projective message class
  (first nonzero coordinate fixed to 1), in deterministic blocks.
* ``exact_min_distance`` uses the same walk when it fits the budget and
  otherwise enumerates the dual code and converts its exact weight
  distribution through the MacWilliams identity (integer arithmetic only).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    CrossCheckFailed,
    DimensionMismatch,
    EmptySet,
    MismatchedFields,
    RangeError,
    SupportOutsideA,
)
from .expsets import ExpVec, MonomialSet, reduce_exponent
from .gf import FieldSpec, check_budget, field

DEFAULT_CLASS_BUDGET = 10**7
GENMAT_BUDGET = 1 << 26  # cap on matrix entries materialized at once
_BLOCK_ROWS = 1 << 16  # codewords per numpy block in exhaustive walks


def resolve_budget(budget: int | None = None) -> int:
    """The class budget: ``budget`` itself, an integer >= 1, or
    DEFAULT_CLASS_BUDGET when it is None.  Anything else, bools included,
    raises RangeError."""
    if budget is None:
        return DEFAULT_CLASS_BUDGET
    try:
        cap = None if isinstance(budget, bool) else operator.index(budget)
    except TypeError:
        cap = None
    if cap is None or cap < 1:
        raise RangeError(f"the class budget must be an integer >= 1, got {budget!r}")
    return cap


@dataclass
class GeneratorMatrix:
    """Rows of evaluated monomials; ``rows[i, j]`` is an element index."""

    field: FieldSpec
    m: int
    rows: np.ndarray
    exponents: tuple[ExpVec, ...] | None = None

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def _check_compatible(self, other: "GeneratorMatrix") -> None:
        if self.field != other.field:
            raise MismatchedFields(
                f"codes live over GF({self.field.q}) and GF({other.field.q})"
            )
        if self.n != other.n:
            raise DimensionMismatch(f"code lengths differ: {self.n} vs {other.n}")


def generator_matrix(A: MonomialSet) -> GeneratorMatrix:
    """Evaluate every monomial of A over the full grid.

    Unreduced exponents are fine: evaluation applies x^q = x pointwise, which
    is exactly what makes reduce_set row-space preserving (and testable).
    """
    F = field(A.q)
    n = F.q ** A.m
    check_budget(n * max(len(A), 1), GENMAT_BUDGET, f"the entries of {len(A)} rows of length {n}")
    tab = F.tables()
    # column j of the grid: index of the point's j-th coordinate
    axis = [
        (np.arange(n, dtype=np.int64) // F.q ** (A.m - 1 - j)) % F.q for j in range(A.m)
    ]
    rows = np.empty((len(A), n), dtype=tab.mul.dtype)
    for r, vec in enumerate(A):
        row = np.ones(n, dtype=tab.mul.dtype)
        for j, e in enumerate(vec):
            if e:
                row = tab.mul[row, F.power_column(e)[axis[j]]]
        rows[r] = row
    return GeneratorMatrix(F, A.m, rows, exponents=A.exponents)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def rref(rows: np.ndarray, F: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F; returns (nonzero rows, pivot columns)."""
    tab = F.tables()
    R = np.array(rows, dtype=tab.mul.dtype, copy=True)
    if R.ndim != 2:
        raise DimensionMismatch("expected a 2-d matrix")
    k, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == k:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = tab.mul[tab.inv[R[r, c]], R[r]]
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            R[mask] = tab.add[R[mask], tab.mul[tab.neg[col[mask]][:, None], R[r][None, :]]]
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(G: GeneratorMatrix) -> int:
    return rref(G.rows, G.field)[0].shape[0]


def row_space_equal(G1: GeneratorMatrix, G2: GeneratorMatrix) -> bool:
    """Exact row-space equality via canonical reduced echelon forms."""
    G1._check_compatible(G2)
    R1, _ = rref(G1.rows, G1.field)
    R2, _ = rref(G2.rows, G2.field)
    return R1.shape == R2.shape and bool(np.array_equal(R1, R2))


def dual_matrix(G: GeneratorMatrix) -> GeneratorMatrix:
    """A generator matrix of the dual code (standard construction from rref)."""
    F = G.field
    tab = F.tables()
    R, pivots = rref(G.rows, F)
    n = G.n
    free = [c for c in range(n) if c not in set(pivots)]
    H = np.zeros((len(free), n), dtype=tab.mul.dtype)
    for t, fcol in enumerate(free):
        H[t, fcol] = 1
        for i, pcol in enumerate(pivots):
            H[t, pcol] = tab.neg[R[i, fcol]]
    return GeneratorMatrix(F, G.m, H)


def schur_square_matrix(G: GeneratorMatrix) -> GeneratorMatrix:
    """Basis of the span of all componentwise products of row pairs."""
    k = G.k
    if k == 0:
        raise EmptySet("square of a zero code")
    pairs = k * (k + 1) // 2
    check_budget(pairs * G.n, GENMAT_BUDGET, f"the entries of {pairs} product rows of length {G.n}")
    tab = G.field.tables()
    ii, jj = np.triu_indices(k)
    P = tab.mul[G.rows[ii], G.rows[jj]]
    R, _ = rref(P, G.field)
    return GeneratorMatrix(G.field, G.m, R)


# ---------------------------------------------------------------------------
# exhaustive oracles
# ---------------------------------------------------------------------------

def _span_blocks(rows: np.ndarray, F: FieldSpec, n: int):
    """Yield the span of ``rows`` as arrays of at most ~_BLOCK_ROWS codewords.

    Deterministic: coefficient tuples are enumerated in lexicographic order,
    leading rows slowest, so concatenating all blocks always gives the same
    sequence regardless of block size.
    """
    tab = F.tables()
    q = F.q
    k = rows.shape[0]
    tail = 0
    while tail < k and q ** (tail + 1) <= _BLOCK_ROWS:
        tail += 1
    S = np.zeros((1, n), dtype=tab.mul.dtype)
    for row in rows[k - tail:][::-1]:
        parts = [S] + [tab.add[S, tab.mul[c, row][None, :]] for c in range(1, q)]
        S = np.concatenate(parts, axis=0)
    if k == tail:
        yield S
        return
    for combo in product(range(q), repeat=k - tail):
        v = np.zeros(n, dtype=tab.mul.dtype)
        for c, row in zip(combo, rows[: k - tail]):
            if c:
                v = tab.add[v, tab.mul[c, row]]
        yield tab.add[v[None, :], S]


def _projective_weight_counts(G: GeneratorMatrix) -> np.ndarray:
    """Weight histogram over one representative per projective message class."""
    tab = G.field.tables()
    counts = np.zeros(G.n + 1, dtype=np.int64)
    for i in range(G.k):
        head = G.rows[i]
        for block in _span_blocks(G.rows[i + 1:], G.field, G.n):
            w = np.count_nonzero(tab.add[head[None, :], block], axis=1)
            counts += np.bincount(w, minlength=G.n + 1)
    return counts


def _classes(q: int, k: int) -> int:
    """(q^k - 1)/(q - 1): the projective message classes of a rank-k code."""
    return (q**k - 1) // (q - 1)


def _check_class_budget(q: int, k: int, cap: int) -> None:
    check_budget(_classes(q, k), cap, f"the message classes at q = {q}, k = {k}")


def _check_exact_budget(q: int, k: int, n: int, cap: int) -> None:
    """Refuse exact_min_distance on a rank-k code of length n over GF(q)
    when neither its message classes nor its dual's fit the class budget."""
    what = f"the message classes of the code (k = {k}) and of its dual (n - k = {n - k})"
    check_budget(min(_classes(q, k), _classes(q, n - k)), cap, what)


def min_distance_exhaustive(G: GeneratorMatrix, budget: int | None = None) -> int:
    """Minimum weight over all nonzero codewords, by projective enumeration.

    Scalar multiples share a weight, so only messages whose first nonzero
    coordinate is 1 are expanded: (q^k - 1)/(q - 1) classes, checked against
    the budget before any allocation.
    """
    cap = resolve_budget(budget)
    if G.k == 0:
        raise EmptySet("the zero code has no minimum distance")
    _check_class_budget(G.field.q, G.k, cap)
    counts = _projective_weight_counts(G)
    nz = np.nonzero(counts[1:])[0]
    if nz.size == 0:
        raise EmptySet("all codewords are zero (zero generator matrix)")
    return int(nz[0]) + 1


def weight_distribution_exhaustive(
    G: GeneratorMatrix, budget: int | None = None
) -> list[int]:
    """Exact weight distribution [A_0, ..., A_n] of the code spanned by G.

    Row-reduces first so each codeword corresponds to exactly one message of
    the basis; each projective class then stands for q-1 codewords.
    """
    cap = resolve_budget(budget)
    F = G.field
    basis, _ = rref(G.rows, F)
    B = GeneratorMatrix(F, G.m, basis)
    dist = [0] * (G.n + 1)
    dist[0] = 1
    if B.k == 0:
        return dist
    _check_class_budget(F.q, B.k, cap)
    counts = _projective_weight_counts(B)
    for w in range(G.n + 1):
        dist[w] += int(counts[w]) * (F.q - 1)
    return dist


def macwilliams_transform(dist: list[int], n: int, q: int) -> list[int]:
    """Weight distribution of the dual code, exactly (Krawtchouk sums).

    ``dist`` must be the full distribution of a code C of size sum(dist);
    the result is the distribution of the dual, integer-exact (a division
    by |C| that leaves a remainder raises CrossCheckFailed).
    """
    size = sum(dist)
    out = []
    for j in range(n + 1):
        total = 0
        for w, aw in enumerate(dist):
            if aw == 0:
                continue
            kraw = 0
            for s in range(min(j, w) + 1):
                term = (q - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
                kraw += -term if s & 1 else term
            total += aw * kraw
        if total % size:
            raise CrossCheckFailed(f"MacWilliams sum at weight {j} not divisible by |C| = {size}")
        out.append(total // size)
    return out


def exact_min_distance(G: GeneratorMatrix, budget: int | None = None) -> int:
    """Exact minimum distance by whichever exhaustive route fits the budget.

    Direct projective enumeration when (q^k - 1)/(q - 1) is within budget;
    otherwise the dual code is enumerated and the distribution pushed back
    through the MacWilliams identity.  Raises BudgetExceeded when neither
    side fits.
    """
    cap = resolve_budget(budget)
    F = G.field
    basis, _ = rref(G.rows, F)
    k = basis.shape[0]
    if k == 0:
        raise EmptySet("the zero code has no minimum distance")
    _check_exact_budget(F.q, k, G.n, cap)
    if _classes(F.q, k) <= cap:
        return min_distance_exhaustive(GeneratorMatrix(F, G.m, basis), budget=cap)
    dual_dist = weight_distribution_exhaustive(dual_matrix(G), budget=cap)
    dist = macwilliams_transform(dual_dist, G.n, F.q)
    for w in range(1, G.n + 1):
        if dist[w]:
            return w
    raise CrossCheckFailed("a nonzero code whose weight distribution has no nonzero weight")


# ---------------------------------------------------------------------------
# witness evaluation
# ---------------------------------------------------------------------------

def _check_witness_budget(terms: int, q: int, m: int) -> None:
    """Refuse a witness of ``terms`` monomials when terms * q^m, the entries
    of its support's generator matrix, exceeds GENMAT_BUDGET."""
    n = q**m
    check_budget(terms * n, GENMAT_BUDGET, f"the matrix entries of {terms} monomials on {n} points")


def evaluate_poly(poly: dict[ExpVec, int], q: int, m: int) -> np.ndarray:
    """Evaluate a sparse polynomial (exponent -> coefficient index) on the grid.

    Each exponent is folded by x^q = x and the coefficients of terms that
    fold together are added, giving a dense coefficient tensor over the
    support's bounding box (at most q entries per axis).  The tensor is then
    contracted one axis at a time with the table of powers x^e, so the cost
    is at most m * q * q^m table lookups whatever the support size.  The
    values come out in enumerate_points order.
    """
    F = field(q)
    tab = F.tables()
    terms = [(exp, c) for exp, c in poly.items() if c]
    _check_witness_budget(len(terms), q, m)
    if not terms:
        return np.zeros(q**m, dtype=tab.mul.dtype)
    keys = []
    for exp, _ in terms:
        if len(exp) != m:
            raise RangeError(f"exponent vector {exp} has length {len(exp)}, expected {m}")
        keys.append(tuple(reduce_exponent(e, q) for e in exp))
    coeffs = np.zeros([max(col) + 1 for col in zip(*keys)], dtype=tab.mul.dtype)
    for key, (_, c) in zip(keys, terms):
        coeffs[key] = tab.add[coeffs[key], c]
    # the (q, q) tables are read flat: entry [a, b] sits at a * q + b
    values = coeffs
    for axis in range(m):
        rows = np.moveaxis(values, axis, -1).astype(np.intp) * q  # (..., degree)
        acc = np.zeros(rows.shape[:-1] + (q,), dtype=tab.mul.dtype)
        for e in range(rows.shape[-1]):
            term = tab.mul.take(rows[..., e, None] + F.power_column(e))  # c * x^e
            acc = tab.add.take(acc.astype(np.intp) * q + term)
        values = np.moveaxis(acc, -1, axis)
    return values.reshape(-1)


def weight_of_witness(poly, A: MonomialSet) -> int:
    """Hamming weight of the codeword of C_A given by the polynomial ``poly``.

    Accepts a sparse dict {exponent vector: coefficient index} or any witness
    object exposing to_polynomial().  Every monomial with a nonzero
    coefficient must lie in A — that is what makes the evaluation a codeword
    of C_A — otherwise SupportOutsideA names the offending exponent.
    """
    if hasattr(poly, "to_polynomial"):
        poly = poly.to_polynomial()
    support = [exp for exp, c in poly.items() if c]
    if not support:
        raise EmptySet("the zero polynomial is not a distance witness")
    _check_witness_budget(len(support), A.q, A.m)
    for exp in sorted(support):
        if exp not in A:
            raise SupportOutsideA(f"witness monomial {exp} lies outside the support set")
    values = evaluate_poly(poly, A.q, A.m)
    return int(np.count_nonzero(values))
