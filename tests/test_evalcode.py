"""Generator matrices and exhaustive distance oracles.

The reference oracle here is deliberately primitive: pure-integer modular
arithmetic over prime fields, enumerating every message with itertools.  The
numpy machinery must agree with it exactly (matrices, minimum distances, and
full weight distributions) before anything downstream gets to rely on it.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squarecodes.errors import BudgetExceeded, EmptySet, SupportOutsideA
from squarecodes.evalcode import (
    dual_matrix,
    exact_min_distance,
    generator_matrix,
    macwilliams_transform,
    min_distance_exhaustive,
    rank,
    resolve_budget,
    row_space_equal,
    rref,
    schur_square_matrix,
    weight_distribution_exhaustive,
    weight_of_witness,
)
from squarecodes.expsets import MonomialSet, reduce_set, square_support
from squarecodes.gf import field


# --- independent oracle (prime fields, pure ints) ---------------------------

def brute_rows(q, m, exps):
    pts = list(itertools.product(range(q), repeat=m))
    return [
        [
            int(np.prod([pow(x, e, q) for x, e in zip(pt, vec)], dtype=object)) % q
            for pt in pts
        ]
        for vec in exps
    ]


def brute_weight_counter(q, rows, n):
    counter = Counter({0: 1})
    for msg in itertools.product(range(q), repeat=len(rows)):
        if not any(msg):
            continue
        cw = [sum(c * r[i] for c, r in zip(msg, rows)) % q for i in range(n)]
        counter[sum(v != 0 for v in cw)] += 1
    return counter


def brute_sets(draw_q, max_pow):
    """Strategy for (q, m, exponent set) with q prime and q^k small."""

    @st.composite
    def strat(draw):
        q = draw(st.sampled_from(draw_q))
        m = draw(st.integers(1, 2))
        kmax = 1
        while q ** (kmax + 1) <= max_pow:
            kmax += 1
        vecs = draw(
            st.lists(
                st.tuples(*[st.integers(0, q - 1)] * m),
                min_size=1,
                max_size=min(kmax, q**m),
                unique=True,
            )
        )
        return MonomialSet(q, m, vecs)

    return strat()


@settings(max_examples=25, deadline=None)
@given(brute_sets([2, 3, 5], 2048))
def test_matrix_and_distance_match_integer_arithmetic(A):
    # prime-field element indices coincide with integer values, so the whole
    # matrix must match, not just derived statistics
    G = generator_matrix(A)
    rows = brute_rows(A.q, A.m, A.exponents)
    assert G.rows.tolist() == rows

    counter = brute_weight_counter(A.q, rows, G.n)
    # distinct reduced exponents give independent rows: no hidden zero words
    assert min_distance_exhaustive(G) == min(w for w in counter if w > 0)
    dist = weight_distribution_exhaustive(G)
    assert dist == [counter.get(w, 0) for w in range(G.n + 1)]


def test_frozen_tiny_matrices():
    G = generator_matrix(MonomialSet(2, 1, [(0,), (1,)]))
    assert G.rows.tolist() == [[1, 1], [0, 1]]
    G3 = generator_matrix(MonomialSet(3, 1, [(0,), (1,), (2,)]))
    assert G3.rows.tolist() == [[1, 1, 1], [0, 1, 2], [0, 1, 1]]


def test_reed_solomon_distances():
    # degree-bound-s polynomials over the full line: d = q - s
    for q, s in [(5, 2), (7, 3), (8, 4), (9, 3)]:
        A = MonomialSet(q, 1, [(i,) for i in range(s + 1)])
        assert min_distance_exhaustive(generator_matrix(A)) == q - s


def test_repetition_code():
    G = generator_matrix(MonomialSet(4, 2, [(0, 0)]))
    assert min_distance_exhaustive(G) == 16


# --- row reduction and duals -------------------------------------------------

def test_rref_identity_and_rank():
    A = MonomialSet(5, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    G = generator_matrix(A)
    R, pivots = rref(G.rows, G.field)
    assert len(pivots) == 4 == rank(G)
    R2, _ = rref(R, G.field)
    assert np.array_equal(R, R2)


def test_row_space_equal_under_row_operations():
    F = field(7)
    tab = F.tables()
    A = MonomialSet(7, 1, [(0,), (1,), (2,)])
    G = generator_matrix(A)
    mixed = G.rows.copy()
    mixed[0] = tab.add[tab.mul[3, mixed[0]], mixed[2]]
    mixed[1] = tab.mul[5, mixed[1]]
    mixed = mixed[::-1].copy()
    H = type(G)(F, 1, mixed)
    assert row_space_equal(G, H)
    smaller = type(G)(F, 1, G.rows[:2])
    assert not row_space_equal(G, smaller)


def _inner_products_zero(G, H):
    tab = G.field.tables()
    for g in G.rows:
        for h in H.rows:
            prods = tab.mul[g, h]
            acc = 0
            for v in prods:
                acc = int(tab.add[acc, int(v)])
            if acc != 0:
                return False
    return True


@pytest.mark.parametrize("q,m,vecs", [
    (3, 2, [(0, 0), (1, 0), (0, 1)]),
    (2, 3, [(0, 0, 0), (1, 1, 0), (0, 1, 1)]),
    (4, 1, [(0,), (1,)]),
    (5, 1, [(0,), (1,), (2,)]),
])
def test_dual_matrix_orthogonal_full_rank(q, m, vecs):
    G = generator_matrix(MonomialSet(q, m, vecs))
    H = dual_matrix(G)
    assert rank(G) + H.k == G.n
    assert _inner_products_zero(G, H)


@pytest.mark.parametrize("q,m,vecs", [
    (3, 2, [(0, 0), (1, 0), (0, 1)]),
    (2, 3, [(0, 0, 0), (1, 1, 0), (0, 1, 1)]),
    (4, 1, [(0,), (1,)]),
])
def test_macwilliams_matches_exhaustive_dual(q, m, vecs):
    G = generator_matrix(MonomialSet(q, m, vecs))
    H = dual_matrix(G)
    dist_primal = weight_distribution_exhaustive(G)
    dist_dual = weight_distribution_exhaustive(H)
    assert macwilliams_transform(dist_primal, G.n, q) == dist_dual
    # and back again
    assert macwilliams_transform(dist_dual, G.n, q) == dist_primal


def test_exact_min_distance_routes_agree():
    # q = 2, n = 16: k = 9 gives 511 direct classes, dual k = 7 gives 127.
    # A budget of 200 rules out the direct walk and forces the dual route.
    vecs = [v for v in itertools.product(range(2), repeat=4)][:9]
    G = generator_matrix(MonomialSet(2, 4, vecs))
    assert rank(G) == 9
    direct = exact_min_distance(G)
    via_dual = exact_min_distance(G, budget=200)
    assert direct == via_dual == min_distance_exhaustive(G)
    with pytest.raises(BudgetExceeded):
        exact_min_distance(G, budget=50)


# --- Schur squares ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(brute_sets([2, 3, 5], 700))
def test_square_matrix_row_space_is_square_support_code(A):
    G = generator_matrix(A)
    sq = schur_square_matrix(G)
    expected = generator_matrix(square_support(A))
    assert row_space_equal(sq, expected)


def test_square_of_reed_solomon_grows_degree():
    A = MonomialSet(7, 1, [(0,), (1,), (2,)])
    sq = schur_square_matrix(generator_matrix(A))
    assert sq.k == 5
    assert min_distance_exhaustive(sq) == 7 - 4


def test_unreduced_set_evaluates_like_reduced():
    # both unreduced vectors fold onto (2, 1), which also collapses the rank
    A = MonomialSet(5, 2, [(0, 0), (6, 1), (2, 9)])
    R = reduce_set(A)
    assert R.exponents == ((0, 0), (2, 1))
    GA = generator_matrix(A)
    GR = generator_matrix(R)
    assert row_space_equal(GA, GR)
    assert rank(GA) == 2


# --- witnesses and budgets -----------------------------------------------------

def test_weight_of_witness():
    A = MonomialSet(3, 2, [(0, 0), (1, 1)])
    assert weight_of_witness({(1, 1): 1}, A) == 4
    assert weight_of_witness({(1, 1): 2, (0, 0): 0}, A) == 4
    with pytest.raises(SupportOutsideA):
        weight_of_witness({(1, 0): 1}, A)
    with pytest.raises(EmptySet):
        weight_of_witness({(1, 1): 0}, A)


def test_budget_resolution():
    assert resolve_budget() == 10**7
    assert resolve_budget(99) == 99
    assert resolve_budget(1) == 1
    assert resolve_budget(np.int64(7)) == 7


def test_min_distance_budget_error():
    A = MonomialSet(3, 2, [(0, 0), (1, 0), (0, 1)])
    G = generator_matrix(A)
    with pytest.raises(BudgetExceeded):
        min_distance_exhaustive(G, budget=10)


def test_zero_code_has_no_distance():
    G = generator_matrix(MonomialSet(3, 1, []))
    with pytest.raises(EmptySet):
        min_distance_exhaustive(G)
