"""Distance certificates checked against the exhaustive oracle.

The certificate constructions are only trusted because every witness they
emit is re-evaluated over the full grid; these tests additionally pin the
exact witnesses for a handful of hand-checked instances and confirm the
punctured-grid semantics of monomial shifts.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarecodes import evalcode
from squarecodes.bounds import footprint_bound
from squarecodes.certify import (
    box_certificate,
    certified_min_distance,
    divisor_certificate,
    root_count_binomial,
    shift_reduce,
)
from squarecodes.errors import EmptySet, NotReduced, RangeError
from squarecodes.expsets import MonomialSet
from squarecodes.families import half_hyperbolic_set, reed_muller_set, weighted_rm_set
from squarecodes.gf import field


def exhaustive_d(A):
    return evalcode.min_distance_exhaustive(evalcode.generator_matrix(A))


def punctured_min_weight(B, punctured):
    """Minimum weight of C_B over the grid with x_i = 0 removed per axis."""
    G = evalcode.generator_matrix(B)
    q, m = B.q, B.m
    n = q**m
    keep = np.ones(n, dtype=bool)
    for j, p in enumerate(punctured):
        if p:
            keep &= (np.arange(n) // q ** (m - 1 - j)) % q != 0
    masked = evalcode.GeneratorMatrix(field=G.field, m=m, rows=G.rows[:, keep])
    return evalcode.min_distance_exhaustive(masked)


# ------------------------------------------------------------ root counting


def test_root_count_frozen():
    F7 = field(7)
    assert root_count_binomial(1, 3, F7) == 1
    assert root_count_binomial(3, 0, F7) == 3  # X^3 - 1 has roots {1,2,4}
    assert root_count_binomial(2, 1, F7) == 0  # the primitive element is a non-square
    assert root_count_binomial(2, 0, F7) == 2
    assert root_count_binomial(6, 0, F7) == 6


def test_root_count_validation():
    F = field(5)
    with pytest.raises(RangeError):
        root_count_binomial(0, 1, F)
    with pytest.raises(RangeError):
        root_count_binomial(2, 4, F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11])
def test_root_count_matches_enumeration(q):
    F = field(q)
    alpha = F.primitive_element()
    for l in range(1, q):
        for j in range(q - 1):
            target = F.pow(alpha, j)
            brute = sum(1 for x in range(q) if F.pow(x, l) == target)
            assert root_count_binomial(l, j, F) == brute


# --------------------------------------------------------- box certificates


def test_box_certificate_plain_degree_set():
    cert = box_certificate(reed_muller_set(11, 2, 6))
    assert cert.kind == "box"
    assert cert.alpha == (0, 6)  # first argmin in lex order
    assert cert.weight == 55
    assert len(cert.factors) == 1 and cert.factors[0].axis == 1
    assert cert.factors[0].roots == (0, 1, 2, 3, 4, 5)


def test_box_certificate_constant():
    cert = box_certificate(MonomialSet(7, 2, [(0, 0)]))
    assert cert.weight == 49
    assert cert.factors == ()
    assert cert.to_polynomial() == {(0, 0): 1}


def test_box_certificate_half_hyperbolic():
    cert = box_certificate(half_hyperbolic_set(11, 2, 6))
    assert cert.alpha == (4, 4)
    assert cert.weight == 49


def test_box_certificate_weighted_set():
    cert = box_certificate(weighted_rm_set(11, 2, 15, (5, 3)))
    assert cert.weight == 66


def test_box_certificate_none_when_box_sticks_out():
    assert box_certificate(MonomialSet(5, 2, [(0, 0), (2, 0)])) is None


def test_box_witness_support_stays_inside_a():
    A = half_hyperbolic_set(11, 2, 6)
    poly = box_certificate(A).to_polynomial()
    assert all(v in A for v in poly)


# ----------------------------------------------------- divisor certificates


def test_divisor_single_binomial():
    # {1, X^3} over F_7: X^3 - beta with beta = alpha^3 kills 3 points per row
    A = MonomialSet(7, 2, [(0, 0), (3, 0)])
    cert = divisor_certificate(A)
    assert cert.kind == "divisor"
    assert certified_min_distance(A).certificate == cert
    assert cert.weight == 28
    assert [f.to_json() for f in cert.factors] == [
        {"axis": 0, "kind": "binomial", "l": 3, "c": 6}
    ]


def test_divisor_chain_of_binomials():
    # {1, X^2, X^4} over F_7: (X^2 - beta)(X^2 - beta^2) has 4 distinct roots
    A = MonomialSet(7, 2, [(0, 0), (2, 0), (4, 0)])
    cert = divisor_certificate(A)
    assert cert.weight == 21
    assert certified_min_distance(A).certificate == cert
    assert [(f.l, f.c) for f in cert.factors] == [(2, 2), (2, 4)]
    poly = cert.to_polynomial()
    assert set(poly) == {(0, 0), (2, 0), (4, 0)}


def test_divisor_where_chain_fits_but_box_does_not():
    A = MonomialSet(5, 2, [(0, 0), (2, 0)])
    cert = divisor_certificate(A)
    assert cert is not None and cert.weight == 15
    assert certified_min_distance(A).certificate == cert
    assert exhaustive_d(A) == 15


def test_divisor_zero_free_shape():
    # {X, X^4} over F_7: X * (X^3 - gamma) avoids exponent 0 entirely
    A = MonomialSet(7, 1, [(1,), (4,)])
    cert = divisor_certificate(A)
    assert cert is not None
    assert cert.weight == 3
    kinds = sorted(f.kind for f in cert.factors)
    assert kinds == ["binomial", "monomial"]
    assert exhaustive_d(A) == 3


def test_divisor_none_when_no_shape_matches():
    assert divisor_certificate(MonomialSet(7, 2, [(0, 0), (5, 0)])) is None


def test_divisor_multi_axis():
    A = MonomialSet(7, 2, [(0, 0), (3, 0), (0, 2), (3, 2)])
    cert = divisor_certificate(A)
    assert cert is not None
    assert cert.weight == footprint_bound(A) == 20
    assert certified_min_distance(A).certificate == cert
    assert exhaustive_d(A) == 20


# -------------------------------------------------------------- shifts


def test_shift_reduce_pulls_out_common_factor():
    B, s = shift_reduce(MonomialSet(5, 2, [(1, 0), (2, 1)]), 0)
    assert s == 1
    assert B.exponents == ((0, 0), (1, 1))


def test_shift_reduce_none_when_axis_touches_zero():
    assert shift_reduce(MonomialSet(5, 2, [(1, 0), (2, 1)]), 1) is None
    assert shift_reduce(MonomialSet(5, 2, [(0, 0)]), 0) is None


def test_shift_reduce_axis_out_of_range():
    with pytest.raises(RangeError):
        shift_reduce(MonomialSet(5, 2, [(1, 1)]), 2)


def test_single_monomial_distance():
    # X * Y^3 over F_5 vanishes exactly on the two axes
    res = certified_min_distance(MonomialSet(5, 2, [(1, 3)]))
    assert res.d == 16 and res.exact
    cert = res.certificate
    assert cert.kind == "shifted"
    assert cert.shift == (1, 3) and cert.alpha == (1, 3)
    assert cert.to_polynomial() == {(1, 3): 1}


def test_shift_changes_full_grid_distance():
    """The residual set's code has a different distance on the full grid;
    only the punctured grid count carries over."""
    A = MonomialSet(5, 2, [(1, 3)])
    B = MonomialSet(5, 2, [(0, 0)])
    assert exhaustive_d(A) == 16
    assert exhaustive_d(B) == 25
    assert punctured_min_weight(B, (True, True)) == 16


def test_shifted_box_certificate():
    A = MonomialSet(5, 2, [(1, 0), (1, 1), (2, 0), (2, 1)])  # X * box
    res = certified_min_distance(A)
    assert res.exact
    # punctured-grid argmin is (1,1): (4-1)*(5-1) = 12
    assert res.d == exhaustive_d(A) == 12
    assert res.certificate.kind == "shifted"


def test_shifted_divisor_certificate():
    # {X, X^3} over F_7: after the shift the chain X^2 - beta still applies
    A = MonomialSet(7, 2, [(1, 0), (3, 0)])
    res = certified_min_distance(A)
    assert res.exact and res.d == 28
    assert res.certificate.kind == "shifted"
    assert exhaustive_d(A) == 28


def test_unshifted_divisor_through_the_pipeline():
    A = MonomialSet(7, 2, [(0, 0), (2, 0), (4, 0)])
    res = certified_min_distance(A)
    assert res.exact and res.d == 21
    assert res.certificate.kind == "divisor"
    assert res.certificate == divisor_certificate(A)


def test_lower_bound_only_when_nothing_matches():
    A = MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)])
    res = certified_min_distance(A)
    assert not res.exact
    assert res.d == 12
    assert res.certificate.kind == "none"
    with pytest.raises(EmptySet):
        res.certificate.to_polynomial()
    assert exhaustive_d(A) >= res.d


def test_certificate_json_schema():
    cert = certified_min_distance(MonomialSet(5, 2, [(1, 3)])).certificate
    js = cert.to_json()
    assert set(js) == {"kind", "alpha", "shift", "factors", "weight"}
    assert js["alpha"] == [1, 3] and js["weight"] == 16
    box = box_certificate(reed_muller_set(11, 2, 6)).to_json()
    assert box["factors"] == [{"axis": 1, "kind": "linear", "roots": [0, 1, 2, 3, 4, 5]}]


def test_certify_validation():
    with pytest.raises(NotReduced):
        certified_min_distance(MonomialSet(5, 2, [(9, 0)]))
    with pytest.raises(EmptySet):
        certified_min_distance(MonomialSet(5, 2, []))


# ----------------------------------------------------- oracle cross-checks


def all_lower_sets_3x3():
    cells = list(itertools.product(range(3), repeat=2))
    out = []
    for mask in range(1, 1 << 9):
        chosen = {cells[i] for i in range(9) if mask >> i & 1}
        if all((x, y) in chosen for (a, b) in chosen for x in range(a + 1) for y in range(b + 1)):
            out.append(sorted(chosen))
    return out


def test_lower_sets_are_always_certified_exactly():
    for vecs in all_lower_sets_3x3():
        A = MonomialSet(3, 2, vecs)
        res = certified_min_distance(A)
        assert res.exact and res.certificate.kind == "box"
        assert res.certificate == box_certificate(A)
        assert res.d == footprint_bound(A) == exhaustive_d(A)


@st.composite
def lower_sets(draw, q, max_corner):
    seeds = draw(
        st.lists(
            st.tuples(st.integers(0, max_corner), st.integers(0, max_corner)),
            min_size=1,
            max_size=2,
        )
    )
    vecs = set()
    for s in seeds:
        vecs.update(itertools.product(range(s[0] + 1), range(s[1] + 1)))
    return MonomialSet(q, 2, sorted(vecs))


@given(lower_sets(4, 2))
@settings(max_examples=25, deadline=None)
def test_certified_equals_exhaustive_on_lower_sets_q4(A):
    res = certified_min_distance(A)
    assert res.exact and res.d == exhaustive_d(A)


@st.composite
def shifted_sets(draw, q):
    base = draw(lower_sets(q, 1))
    shift = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    vecs = [tuple(c + s for c, s in zip(v, shift)) for v in base]
    return MonomialSet(q, 2, vecs)


@given(shifted_sets(5))
@settings(max_examples=40, deadline=None)
def test_certified_equals_exhaustive_on_shifted_boxes(A):
    # shifted lower sets always reduce to a box over the punctured grid
    res = certified_min_distance(A)
    assert res.exact
    assert res.d == exhaustive_d(A)


@given(lower_sets(5, 2), st.tuples(st.booleans(), st.booleans()))
@settings(max_examples=20, deadline=None)
def test_punctured_weight_matches_shifted_distance(B, punctured):
    """d(C_{shift + B}) equals the minimum punctured-grid weight of C_B."""
    shift = tuple(2 if p else 0 for p in punctured)
    A = MonomialSet(5, 2, [tuple(c + s for c, s in zip(v, shift)) for v in B])
    assert exhaustive_d(A) == punctured_min_weight(B, punctured)
