"""The integer-grid kernels agree exactly with their scalar references.

Square supports, the four family constructors, the staircase, the footprint
bound, Algorithm 1, the lower-set test, set membership, the square-design
check, the box certificate and witness evaluation are computed over numpy
arrays; oracles.py keeps the point-by-point definitions.  Random
sets, lower and not, are drawn over q in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}
and m in 1..4; where a scalar reference would walk more than a few thousand
points per example, the ambient is capped (noted at each strategy).
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    algorithm1_violation_ref,
    box_fit_ref,
    evaluate_poly_ref,
    footprint_ref,
    half_hyperbolic_ref,
    hyperbolic_ref,
    is_lower_set_ref,
    linear_product_ref,
    reed_muller_ref,
    region_lattice_points_ref,
    square_design_violation_ref,
    square_support_pairwise,
    staircase_ref,
    weighted_rm_ref,
)
from squarecodes.bounds import footprint_argmins, footprint_bound, footprint_on_grid
from squarecodes.certify import WitnessFactor, box_certificate, certified_min_distance
from squarecodes.errors import BudgetExceeded
from squarecodes.evalcode import GENMAT_BUDGET, evaluate_poly, weight_of_witness
from squarecodes.expsets import MonomialSet, is_lower_set, member_mask, square_support
from squarecodes.families import (
    ConvexRegion,
    RationalHalfspace,
    algorithm1_violation,
    half_hyperbolic_set,
    hyperbolic_set,
    reed_muller_set,
    region_lattice_points,
    square_design_violation,
    weighted_rm_set,
    wrm_even_optimal_set,
)
from squarecodes.gf import POINT_BUDGET, field

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def ambients(max_box: int):
    """(q, m) with q in QS, m in 1..4 and side(q)^m <= max_box."""
    return st.sampled_from([(q, m) for q in QS for m in range(1, 5) if q**m <= max_box])


@st.composite
def lower_sets(draw, max_box=16**4):
    """Down-closures of one to three random corners, at most ~300 points."""
    q, m = draw(ambients(max_box))
    corners = []
    for _ in range(draw(st.integers(1, 3))):
        corner = []
        room = 100
        for _ in range(m):
            c = draw(st.integers(0, min(q - 1, room - 1)))
            corner.append(c)
            room = max(1, room // (c + 1))
        corners.append(corner)
    vecs = {
        v
        for corner in corners
        for v in product(*(range(c + 1) for c in corner))
    }
    return MonomialSet(q, m, vecs)


@st.composite
def scattered_sets(draw, max_box=16**4):
    """Up to 40 uniform points of the box: almost never lower sets."""
    q, m = draw(ambients(max_box))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m), min_size=1, max_size=40))
    return MonomialSet(q, m, vecs)


any_sets = st.one_of(lower_sets(), scattered_sets())


# --- square support ---------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(any_sets)
def test_square_support_matches_pairwise_sums(A):
    assert square_support(A).exponents == square_support_pairwise(A).exponents


@pytest.mark.parametrize(
    "A",
    [
        reed_muller_set(4, 8, 2),  # (2q-1)^m = 7^8 is over the budget, the sums grid 5^8 is not
        reed_muller_set(25, 4, 6),  # 49^4 over, 13^4 not
        MonomialSet(25, 4, [(0, 0, 0, 0), (22, 3, 0, 1), (5, 22, 22, 7), (1, 1, 22, 22)]),
        MonomialSet(2**11, 2, [(0, 0), (1, 1), (0, 3)]),
    ],
)
def test_square_support_of_small_coordinates_in_a_large_ambient(A):
    assert (2 * A.q - 1) ** A.m > POINT_BUDGET
    assert square_support(A).exponents == square_support_pairwise(A).exponents


def test_square_support_budget_is_checked_before_allocating():
    q = 2**11  # the sums grid (2q-1)^2 is over the budget, while q^2 alone would fit
    assert (2 * q - 1) ** 2 > POINT_BUDGET >= q**2
    with pytest.raises(BudgetExceeded):
        square_support(MonomialSet(q, 2, [(0, 0), (q - 1, q - 1)]))


# --- lower sets -------------------------------------------------------------------

@st.composite
def near_lower_sets(draw):
    """Lower sets with one member dropped or one point added, or neither."""
    A = draw(lower_sets())
    vecs = list(A)
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change == "drop":
        vecs.pop(draw(st.integers(0, len(vecs) - 1)))
    elif change == "add":
        vecs.append(draw(st.tuples(*[st.integers(0, A.q - 1)] * A.m)))
    return MonomialSet(A.q, A.m, vecs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(near_lower_sets(), scattered_sets()))
def test_is_lower_set_matches_reference(A):
    assert is_lower_set(A) == is_lower_set_ref(A)


def test_is_lower_set_with_coordinates_past_int64():
    # 250^8 linear keys do not fit int64; a coordinate of 2^65 does not fit at all
    axes = [(0,) * 8] + [tuple(i * (t == j) for t in range(8)) for j in range(8) for i in range(1, 250)]
    assert is_lower_set(MonomialSet(256, 8, axes))
    assert not is_lower_set(MonomialSet(256, 8, axes[:100] + axes[101:]))
    assert not is_lower_set(MonomialSet(2**70, 1, [(0,), (2**65,)]))


# --- membership -----------------------------------------------------------------

empty_sets = st.builds(MonomialSet, st.sampled_from(QS), st.integers(1, 4), st.just(()))


@settings(max_examples=60, deadline=None)
@given(st.one_of(any_sets, empty_sets), st.data())
def test_member_mask_matches_a_python_set(B, data):
    # queries run one past the ambient on each side, so many leave B's box
    anywhere = st.lists(st.tuples(*[st.integers(-1, B.q)] * B.m), max_size=30)
    members_only = st.lists(st.sampled_from(B.exponents or ((0,) * B.m,)), max_size=5)
    pts = data.draw(anywhere | members_only)
    members = set(B)
    expected = [v in members for v in pts]
    assert member_mask(B, np.array(pts, dtype=np.int64).reshape(-1, B.m)).tolist() == expected
    assert [v in B for v in pts] == expected


def test_member_mask_outside_the_box():
    # over B's box [0, 1]^2 the keys are 2 a_0 + a_1: (1, -1) and (0, 2) would
    # alias (0, 1) and (1, 0) if they were keyed at all
    B = MonomialSet(5, 2, [(0, 1), (1, 0)])
    pts = [(1, -1), (0, 2), (-1, 3), (2, -2), (0, 1), (1, 0), (1, 1)]
    assert member_mask(B, pts).tolist() == [False] * 4 + [True, True, False]


def test_member_mask_with_keys_past_int64():
    # 250^8 linear keys do not fit int64; a coordinate of 2^65 does not fit at all
    axes = [(0,) * 8] + [tuple(i * (t == j) for t in range(8)) for j in range(8) for i in range(1, 250)]
    B = MonomialSet(256, 8, axes[:100] + axes[101:])
    pts = [axes[99], axes[100], axes[-1], (249,) * 8, (250,) + (0,) * 7]
    assert member_mask(B, pts).tolist() == [True, False, True, False, False]
    huge = MonomialSet(2**70, 2, [(0, 1), (2**65, 3)])
    pts = np.array([(2**65, 3), (2**65, 2), (0, 1), (1, 0)], dtype=object)
    assert member_mask(huge, pts).tolist() == [True, False, True, False]


@settings(max_examples=80, deadline=None)
@given(any_sets, st.data())
def test_square_design_violation_matches_scalar_scan(A, data):
    B = data.draw(st.one_of(
        st.integers(1, A.q**A.m).map(lambda d: hyperbolic_set(A.q, A.m, d)),
        st.lists(st.tuples(*[st.integers(0, A.q - 1)] * A.m), max_size=60).map(
            lambda vecs: MonomialSet(A.q, A.m, vecs)
        ),
    ))
    assert square_design_violation(A, B) == square_design_violation_ref(A, B)


@settings(max_examples=80, deadline=None)
@given(st.one_of(lower_sets(), near_lower_sets().filter(len), scattered_sets()))
def test_box_certificate_matches_box_enumeration(A):
    cert = box_certificate(A)
    assert (None if cert is None else cert.alpha) == box_fit_ref(A)


# --- witness evaluation -------------------------------------------------------

@st.composite
def sparse_polys(draw):
    """Up to 12 terms with exponents up to 3q, zero coefficients included, so
    that terms fold onto each other and cancel."""
    q, m = draw(ambients(16**3))
    exps = st.tuples(*[st.integers(0, 3 * q)] * m)
    poly = draw(st.dictionaries(exps, st.integers(0, q - 1), max_size=12))
    return poly, q, m


@settings(max_examples=60, deadline=None)
@given(sparse_polys())
def test_evaluate_poly_matches_generator_matrix_route(case):
    poly, q, m = case
    got, ref = evaluate_poly(poly, q, m), evaluate_poly_ref(poly, q, m)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_linear_factor_products_match_scalar_products():
    for q in (4, 9, 16):
        F = field(q)
        for start in range(q):
            for stop in range(start, q + 1):
                roots = tuple(range(start, stop))
                factor = WitnessFactor(axis=0, kind="linear", roots=roots)
                assert factor.univariate(F) == linear_product_ref(F, roots)


def test_witness_budget_is_checked_first_at_the_generator_matrix_size():
    q, m = 256, 2  # q^m = 2^16 points, so 2^10 monomials fill the 2^26 entries
    at_cap = {(i, j): 1 for i in range(32) for j in range(32)}
    assert len(at_cap) * q**m == GENMAT_BUDGET
    assert evaluate_poly(at_cap, q, m).shape == (q**m,)
    over = {**at_cap, (32, 0): 1}
    with pytest.raises(BudgetExceeded):
        evaluate_poly(over, q, m)
    with pytest.raises(BudgetExceeded):  # before (32, 0) is found outside the set
        weight_of_witness(over, MonomialSet(q, m, at_cap))


def test_witness_budget_refuses_the_large_hyperbolic_box():
    # a box witness of 11025 monomials over 16^4 points: over 2^26 matrix entries
    with pytest.raises(BudgetExceeded):
        certified_min_distance(hyperbolic_set(16, 4, 81))


# --- family constructors ----------------------------------------------------

rationals = st.fractions(min_value=Fraction(1, 12), max_value=30, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(ambients(16**4), st.data())
def test_reed_muller_matches_reference(amb, data):
    q, m = amb
    s = data.draw(st.integers(0, m * (q - 1) + 2))
    assert reed_muller_set(q, m, s).exponents == reed_muller_ref(q, m, s).exponents


@settings(max_examples=40, deadline=None)
@given(ambients(9**4), st.data())  # the Fraction reference is slow past ~7000 points
def test_weighted_rm_matches_reference(amb, data):
    q, m = amb
    weights = data.draw(st.lists(rationals, min_size=m, max_size=m))
    top = int(sum(weights) * (q - 1)) + 1
    s = Fraction(data.draw(st.integers(-2, 12 * top)), data.draw(st.integers(1, 12)))
    got = weighted_rm_set(q, m, s, weights)
    assert got.exponents == weighted_rm_ref(q, m, s, weights).exponents


@settings(max_examples=40, deadline=None)
@given(ambients(16**4), st.data())
def test_hyperbolic_matches_reference(amb, data):
    q, m = amb
    d = data.draw(st.integers(1, q**m + 2))
    assert hyperbolic_set(q, m, d).exponents == hyperbolic_ref(q, m, d).exponents


@settings(max_examples=40, deadline=None)
@given(ambients(16**4), st.data())
def test_half_hyperbolic_matches_reference(amb, data):
    q, m = amb
    d = data.draw(st.integers(1, q**m - 1))
    assert half_hyperbolic_set(q, m, d).exponents == half_hyperbolic_ref(q, m, d).exponents


def test_staircase_matches_reference():
    for q in QS:
        for d in range(2, q, 2):
            for variant in ("b1", "b2"):
                got = wrm_even_optimal_set(q, d, variant)
                assert got.exponents == staircase_ref(q, d, variant).exponents


# --- exactness past int64 -----------------------------------------------------

def test_weighted_rm_past_int64_is_exact():
    # scaled by 10**19, the weighted degrees reach 6 * 10**19 > 2**63
    weights = (Fraction(1, 10**19), 1)
    got = weighted_rm_set(7, 2, 3, weights)
    assert got.exponents == weighted_rm_ref(7, 2, 3, weights).exponents
    assert (6, 2) in got and (0, 3) in got and (1, 3) not in got
    big = (Fraction(2**70 + 1, 3), Fraction(1, 2**64))
    assert weighted_rm_set(5, 2, 2**70, big).exponents == weighted_rm_ref(5, 2, 2**70, big).exponents


def test_huge_designed_distances_and_degrees_are_exact():
    for q, m in ((5, 2), (3, 3), (16, 1)):
        assert hyperbolic_set(q, m, 2**70).exponents == hyperbolic_ref(q, m, 2**70).exponents == ()
        assert len(reed_muller_set(q, m, 2**70)) == q**m


def test_footprint_past_int64_is_exact():
    q = 2**64 + 13  # ambient only: no field is built
    A = MonomialSet(q, 2, [(0, 5), (3, 0), (1, 1)])
    assert footprint_bound(A) == min(q * (q - 5), (q - 3) * q, (q - 1) ** 2)
    assert footprint_argmins(A) == footprint_ref(A, (q, q))[1]


def test_region_past_int64_is_exact():
    C = ConvexRegion(2, [RationalHalfspace((Fraction(1, 10**19), 1), 3)], box=(0, 6))
    assert region_lattice_points(C, 7) == region_lattice_points_ref(C, 7)
    B = hyperbolic_set(7, 2, 20)
    assert algorithm1_violation(C, B) == algorithm1_violation_ref(C, B)


# --- footprint bound ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(any_sets, st.data())
def test_footprint_on_grid_matches_reference(A, data):
    # punctured axes have one point fewer; every member must stay inside
    sizes = tuple(
        data.draw(st.integers(max(hi + 1, A.q - 1), A.q))
        for hi in (max(v[j] for v in A) for j in range(A.m))
    )
    assert footprint_on_grid(A, sizes) == footprint_ref(A, sizes)


# --- regions and Algorithm 1 ------------------------------------------------------

@st.composite
def regions(draw, m: int, q: int):
    halfspaces = []
    for _ in range(draw(st.integers(0, 2))):
        normal = draw(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=m, max_size=m)
            .filter(lambda n: any(n))
        )
        bound = draw(st.fractions(min_value=-2, max_value=3 * q, max_denominator=6))
        halfspaces.append(RationalHalfspace(normal, bound))
    box = draw(
        st.none()
        | st.tuples(
            st.fractions(min_value=-1, max_value=q, max_denominator=4),
            st.fractions(min_value=-1, max_value=q, max_denominator=4),
        )
    )
    product_bound = draw(st.none() | st.integers(1, q**m + 1))
    return ConvexRegion(m, halfspaces, box, product_bound)


@st.composite
def region_and_target(draw):
    """(2q-1)^m <= 5000: the scalar scan costs ~15 us per doubled point."""
    q, m = draw(st.sampled_from([(q, m) for q in QS for m in range(1, 5) if (2 * q - 1) ** m <= 5000]))
    C = draw(regions(m, q))
    if draw(st.booleans()):
        B = hyperbolic_set(q, m, draw(st.integers(1, q**m)))
    else:
        vecs = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m), max_size=3 * q**m // 4))
        B = MonomialSet(q, m, vecs)
    return C, B


@settings(max_examples=120, deadline=None)
@given(region_and_target())
def test_algorithm1_matches_scalar_scan(pair):
    C, B = pair
    assert algorithm1_violation(C, B) == algorithm1_violation_ref(C, B)


@settings(max_examples=60, deadline=None)
@given(region_and_target())
def test_region_lattice_points_match_reference(pair):
    C, B = pair
    assert region_lattice_points(C, B.q) == region_lattice_points_ref(C, B.q)


# --- budgets -------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: reed_muller_set(256, 3, 2),
        lambda: weighted_rm_set(256, 3, 2, (1, 1, 1)),
        lambda: hyperbolic_set(256, 3, 2),
        lambda: half_hyperbolic_set(512, 3, 2),  # half box 256^3
        lambda: region_lattice_points(ConvexRegion(3, box=(0, 1)), 256),
    ],
)
def test_constructors_refuse_boxes_over_the_budget(build):
    with pytest.raises(BudgetExceeded):
        build()


def test_half_hyperbolic_budget_counts_the_half_box():
    q = 2**11 + 1  # q^2 is over the budget, the half box (q-1)/2 + 1 squared is not
    assert q**2 > POINT_BUDGET >= ((q - 1) // 2 + 1) ** 2
    assert half_hyperbolic_set(q, 2, q * q - 1).exponents == ((0, 0),)
