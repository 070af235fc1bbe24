"""Exponent-set algebra: folding, Minkowski sums, square supports."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squarecodes.errors import (
    EmptySet,
    MismatchedAmbient,
    NotReduced,
    RangeError,
)
from squarecodes.expsets import (
    MonomialSet,
    dilate,
    is_lower_set,
    minkowski_sum,
    reduce_exponent,
    reduce_set,
    square_support,
)

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11]


# --- reduce_exponent -------------------------------------------------------

def test_reduce_exponent_frozen_values():
    # q = 11: nonzero exponents fold into [1, 10] with period 10
    assert reduce_exponent(0, 11) == 0
    assert reduce_exponent(10, 11) == 10
    assert reduce_exponent(11, 11) == 1
    assert reduce_exponent(14, 11) == 4
    assert reduce_exponent(16, 11) == 6
    assert reduce_exponent(20, 11) == 10
    assert reduce_exponent(21, 11) == 1
    # q = 4: period 3
    assert [reduce_exponent(i, 4) for i in range(8)] == [0, 1, 2, 3, 1, 2, 3, 1]


def test_reduce_exponent_rejects_negative():
    with pytest.raises(RangeError):
        reduce_exponent(-1, 7)


@given(st.integers(0, 500), st.sampled_from(PRIME_POWERS))
def test_reduce_exponent_is_idempotent_and_congruent(i, q):
    r = reduce_exponent(i, q)
    assert reduce_exponent(r, q) == r
    if i == 0:
        assert r == 0
    else:
        assert 1 <= r <= q - 1
        assert (r - i) % (q - 1) == 0


# --- MonomialSet basics ----------------------------------------------------

def test_monomial_set_sorts_and_dedupes():
    A = MonomialSet(5, 2, [(1, 0), (0, 1), (1, 0), (0, 0)])
    assert A.exponents == ((0, 0), (0, 1), (1, 0))
    assert len(A) == 3
    assert (0, 1) in A
    assert (4, 4) not in A
    assert A.reduced


def test_membership_of_malformed_vectors_is_false():
    A = MonomialSet(5, 2, [(0, 0), (0, 1), (1, 0)])
    assert [0, 1] in A and (np.int64(1), 0) in A
    for v in [(0,), (0, 1, 0), (), (0.0, 1), (0, 1.5), ("a", 1), (None, 0), "ab", 7]:
        assert v not in A


def test_monomial_set_flags_unreduced():
    assert not MonomialSet(5, 1, [(7,)]).reduced
    assert MonomialSet(5, 1, [(4,)]).reduced


def test_monomial_set_validation():
    with pytest.raises(RangeError):
        MonomialSet(5, 2, [(0, -1)])
    with pytest.raises(RangeError):
        MonomialSet(5, 2, [(0, 1, 2)])  # wrong arity
    with pytest.raises(RangeError):
        MonomialSet(5, 0, [])
    with pytest.raises(RangeError):
        MonomialSet(1, 2, [(0, 0)])


def test_json_round_trip():
    A = MonomialSet(7, 2, [(0, 0), (2, 3)])
    assert MonomialSet.from_json(A.to_json()) == A


def test_same_ambient_mismatch():
    A = MonomialSet(5, 2, [(0, 0)])
    B = MonomialSet(7, 2, [(0, 0)])
    with pytest.raises(MismatchedAmbient):
        minkowski_sum(A, B)


# --- Minkowski sum and folding --------------------------------------------

def test_minkowski_sum_plain():
    A = MonomialSet(7, 1, [(0,), (1,)])
    B = MonomialSet(7, 1, [(0,), (2,)])
    assert minkowski_sum(A, B).exponents == ((0,), (1,), (2,), (3,))


def test_square_support_folds_high_powers():
    # q = 5, one variable: 4 + 4 = 8 folds back to 4, so the square support
    # is {0, 4} again; 3 + 4 = 7 would fold to 3.
    A = MonomialSet(5, 1, [(0,), (4,)])
    assert square_support(A).exponents == ((0,), (4,))
    B = MonomialSet(5, 1, [(3,), (4,)])
    assert square_support(B).exponents == ((2,), (3,), (4,))


def test_square_support_weighted_simplex_example():
    # {3i + 2j <= 5} over F_7 doubles without any folding
    A = MonomialSet(7, 2, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
    expected = {(i, j) for i in range(3) for j in range(3)}
    expected |= {(0, 3), (0, 4), (1, 3)}
    assert set(square_support(A).exponents) == expected


def test_square_support_requires_reduced():
    with pytest.raises(NotReduced):
        square_support(MonomialSet(5, 1, [(9,)]))


def test_square_support_rejects_empty():
    with pytest.raises(EmptySet):
        square_support(MonomialSet(5, 1, []))


@st.composite
def reduced_sets(draw, max_m=3, max_size=8):
    q = draw(st.sampled_from(PRIME_POWERS))
    m = draw(st.integers(1, max_m))
    vecs = draw(
        st.lists(
            st.tuples(*[st.integers(0, q - 1)] * m), min_size=1, max_size=max_size
        )
    )
    return MonomialSet(q, m, vecs)


@given(reduced_sets())
def test_square_support_size_bounds(A):
    S = square_support(A)
    assert len(S) <= len(A) * (len(A) + 1) // 2
    # a + a covers every folded double, so S is at least as big as that image
    assert len(S) >= len(set(dilate(A, 2).exponents)) and S.reduced


@given(reduced_sets())
def test_square_support_contains_folded_doubles(A):
    S = square_support(A)
    for v in reduce_set(dilate(A, 2)):
        assert v in S


@st.composite
def same_ambient_pairs(draw):
    A = draw(reduced_sets())
    vecs = draw(
        st.lists(
            st.tuples(*[st.integers(0, A.q - 1)] * A.m), min_size=1, max_size=8
        )
    )
    return A, MonomialSet(A.q, A.m, vecs)


@given(same_ambient_pairs())
def test_minkowski_sum_commutes(pair):
    A, B = pair
    assert minkowski_sum(A, B).exponents == minkowski_sum(B, A).exponents


def test_reduce_set_is_idempotent_and_coordinatewise():
    A = MonomialSet(5, 2, [(9, 0), (4, 8)])
    R = reduce_set(A)
    assert R.exponents == ((1, 0), (4, 4))
    assert reduce_set(R) is R


# --- lower sets and dilation ------------------------------------------------

def test_is_lower_set():
    simplex = MonomialSet(7, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
    assert is_lower_set(simplex)
    assert not is_lower_set(MonomialSet(7, 2, [(1, 1)]))
    assert not is_lower_set(MonomialSet(7, 2, [(0, 0), (2, 0)]))
    assert is_lower_set(MonomialSet(7, 1, [(0,), (1,), (2,)]))


def test_dilate():
    A = MonomialSet(5, 2, [(0, 1), (2, 2)])
    assert dilate(A, 2).exponents == ((0, 2), (4, 4))
    assert not dilate(A, 3).reduced
