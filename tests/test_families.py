"""Family constructors, the B_eps covering, and the convex-region designer."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from squarecodes.errors import (
    DimensionMismatch,
    InvalidOrder,
    NotReduced,
    ParityError,
    RangeError,
)
from squarecodes.expsets import MonomialSet, is_lower_set, square_support
from oracles import d_epsilon_points
from squarecodes.families import (
    ConvexRegion,
    RationalHalfspace,
    algorithm1_verify,
    algorithm1_violation,
    all_epsilons,
    all_weighted_rm_sets,
    b_epsilon_set,
    check_square_designed,
    half_hyperbolic_set,
    hyperbolic_set,
    necessary_condition_check,
    reed_muller_set,
    region_lattice_points,
    square_design_violation,
    weighted_rm_set,
    wrm_even_optimal_set,
    wrm_even_witness,
)


# --- constructors: frozen cardinalities and members -------------------------

def test_reed_muller_sizes():
    assert len(reed_muller_set(11, 2, 6)) == 28
    assert reed_muller_set(5, 2, 0).exponents == ((0, 0),)
    assert len(reed_muller_set(3, 2, 4)) == 9  # s = m(q-1): the full box


def test_weighted_rm_examples():
    assert len(weighted_rm_set(11, 2, 15, (5, 3))) == 13
    assert weighted_rm_set(7, 2, 5, (3, 2)).exponents == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
    )
    # unit weights with an integer bound degenerate to plain Reed-Muller
    assert weighted_rm_set(7, 2, 4, (1, 1)) == reed_muller_set(7, 2, 4)


def test_weighted_rm_validation():
    with pytest.raises(RangeError):
        weighted_rm_set(7, 2, 5, (0, 1))
    with pytest.raises(DimensionMismatch):
        weighted_rm_set(7, 2, 5, (1, 1, 1))


def test_hyperbolic_sizes():
    assert len(hyperbolic_set(11, 2, 6)) == 111
    assert len(hyperbolic_set(11, 2, 55)) == 30
    assert len(hyperbolic_set(5, 2, 1)) == 25
    with pytest.raises(RangeError):
        hyperbolic_set(5, 2, 0)


def test_half_hyperbolic_sizes():
    assert len(half_hyperbolic_set(11, 2, 6)) == 31
    assert len(half_hyperbolic_set(11, 2, 12)) == 24
    assert len(half_hyperbolic_set(11, 2, 1)) == 36
    with pytest.raises(InvalidOrder):
        half_hyperbolic_set(3, 2, 9)


def test_half_hyperbolic_doubles_into_hyperbolic():
    for q, d in [(5, 3), (7, 4), (11, 6), (11, 12), (8, 5)]:
        H = hyperbolic_set(q, 2, d)
        HH = half_hyperbolic_set(q, 2, d)
        half = (q - 1) // 2
        for a in product(range(half + 1), repeat=2):
            doubled = tuple(2 * c for c in a)
            assert (a in HH) == (doubled in H)


def test_wrm_even_optimal_set_counts():
    B1 = wrm_even_optimal_set(11, 6, "b1")
    B2 = wrm_even_optimal_set(11, 6, "b2")
    assert len(B1) == len(B2) == 39
    # the three surviving line points of B1 sit at i + j = 8, j <= 2
    for v in [(8, 0), (7, 1), (6, 2)]:
        assert v in B1
    assert (5, 3) not in B1
    assert (0, 8) in B2 and (3, 5) not in B2
    assert len(wrm_even_optimal_set(11, 4)) == 49


def test_wrm_even_validation():
    with pytest.raises(ParityError):
        wrm_even_optimal_set(11, 5)
    with pytest.raises(RangeError):
        wrm_even_optimal_set(11, 12)
    with pytest.raises(RangeError):
        wrm_even_witness(11, 6, "b3")


def test_wrm_even_witness_is_rational_and_tight():
    weights, bound = wrm_even_witness(11, 6, "b1")
    assert weights == (1, Fraction(17, 16))
    assert bound == Fraction(8) + Fraction(2, 16)


def test_every_family_is_a_lower_set():
    outputs = [
        reed_muller_set(7, 2, 4),
        weighted_rm_set(7, 2, 5, (3, 2)),
        hyperbolic_set(7, 2, 10),
        half_hyperbolic_set(7, 2, 4),
        wrm_even_optimal_set(11, 6),
        wrm_even_optimal_set(8, 4, "b2"),
        reed_muller_set(4, 3, 5),
        hyperbolic_set(9, 3, 40),
    ]
    assert all(is_lower_set(A) for A in outputs)


# --- B_eps covering ----------------------------------------------------------

def test_b_epsilon_basic():
    B = MonomialSet(11, 2, [(0, 0), (0, 3), (2, 1)])
    assert b_epsilon_set(B, (0, 0)) == B
    shifted = b_epsilon_set(B, (0, 1))
    assert (0, 13) in shifted and (2, 11) in shifted
    assert len(shifted) == 2  # (0,0) has no positive second coordinate
    assert len(b_epsilon_set(MonomialSet(5, 2, [(0, 0)]), (1, 1))) == 0


def test_b_epsilon_validation():
    B = MonomialSet(5, 2, [(0, 0)])
    with pytest.raises(DimensionMismatch):
        b_epsilon_set(B, (0,))
    with pytest.raises(RangeError):
        b_epsilon_set(B, (0, 2))
    with pytest.raises(NotReduced):
        b_epsilon_set(MonomialSet(5, 2, [(9, 0)]), (0, 0))


def test_necessary_condition_examples():
    A = MonomialSet(5, 2, [(0, 0)])
    assert necessary_condition_check(A, A)
    box = MonomialSet(5, 2, [(i, j) for i in range(4) for j in range(4)])
    assert not necessary_condition_check(MonomialSet(5, 2, [(2, 0)]), box)
    HH = half_hyperbolic_set(11, 2, 6)
    H = hyperbolic_set(11, 2, 6)
    assert necessary_condition_check(HH, H)


def test_square_design_examples():
    HH = half_hyperbolic_set(11, 2, 6)
    H = hyperbolic_set(11, 2, 6)
    assert check_square_designed(HH, H)
    assert check_square_designed(wrm_even_optimal_set(11, 6), H)
    # the hyperbolic set is too fat to control its own square
    v = square_design_violation(H, H)
    assert v is not None and v not in H
    assert check_square_designed(MonomialSet(11, 2, []), H)


@st.composite
def random_reduced_pairs(draw):
    q = draw(st.sampled_from([3, 4, 5, 7]))
    vecs_a = draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                 min_size=1, max_size=6)
    )
    vecs_b = draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                 min_size=1, max_size=20)
    )
    return MonomialSet(q, 2, vecs_a), MonomialSet(q, 2, vecs_b)


@given(random_reduced_pairs())
def test_containment_implies_necessary_condition(pair):
    A, B = pair
    if check_square_designed(A, B):
        assert necessary_condition_check(A, B)


@given(st.sampled_from([3, 4, 5, 7]), st.data())
def test_footprint_at_least_d_means_inside_hyperbolic(q, data):
    d = data.draw(st.integers(1, q * q))
    vecs = data.draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                 min_size=1, max_size=8)
    )
    A = MonomialSet(q, 2, vecs)
    fb = min(math.prod(q - c for c in v) for v in A)
    assert (fb >= d) == all(v in hyperbolic_set(q, 2, d) for v in A)


# --- convex regions ----------------------------------------------------------

def test_halfspace_region_matches_reed_muller():
    C = ConvexRegion(2, [RationalHalfspace((1, 1), 6)])
    assert region_lattice_points(C, 11) == reed_muller_set(11, 2, 6)


def test_product_region_matches_half_hyperbolic():
    C = ConvexRegion(2, product_bound=6)
    assert region_lattice_points(C, 11) == half_hyperbolic_set(11, 2, 6)


def test_empty_region():
    C = ConvexRegion(2, [RationalHalfspace((1, 0), -1)])
    assert len(region_lattice_points(C, 7)) == 0


def test_region_validation():
    with pytest.raises(RangeError):
        RationalHalfspace((0, 0), 3)
    with pytest.raises(DimensionMismatch):
        ConvexRegion(2, [RationalHalfspace((1,), 3)])
    with pytest.raises(RangeError):
        ConvexRegion(2, product_bound=6).contains((1, 1))  # q missing


def test_algorithm1_on_half_hyperbolic_region():
    B = hyperbolic_set(11, 2, 6)
    assert algorithm1_verify(ConvexRegion(2, product_bound=6), B)
    # the full box is not safe: c = (5, 5) doubles to (10, 10), product 1 < 6
    full = ConvexRegion(2, box=(0, 10))
    t = algorithm1_violation(full, B)
    assert t == (10, 10) or t is not None
    # ...and everything passes against the full box target
    box_target = MonomialSet(11, 2, [(i, j) for i in range(11) for j in range(11)])
    assert algorithm1_verify(full, box_target)


def test_algorithm1_on_wrm_even_witness_region():
    weights, bound = wrm_even_witness(11, 6, "b1")
    C = ConvexRegion(2, [RationalHalfspace(weights, bound)], box=(0, 10))
    assert region_lattice_points(C, 11) == wrm_even_optimal_set(11, 6)
    assert algorithm1_verify(C, hyperbolic_set(11, 2, 6))


@st.composite
def random_regions(draw):
    q = draw(st.sampled_from([5, 7]))
    nhs = draw(st.integers(1, 2))
    hs = []
    for _ in range(nhs):
        w1 = draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        w2 = draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        if w1 == 0 and w2 == 0:
            w1 = Fraction(1)
        b = draw(st.fractions(min_value=0, max_value=3 * (q - 1), max_denominator=4))
        hs.append(RationalHalfspace((w1, w2), b))
    return q, ConvexRegion(2, hs, box=(0, q - 1))


@settings(max_examples=60, deadline=None)
@given(random_regions(), st.data())
def test_algorithm1_is_sound(region, data):
    q, C = region
    d = data.draw(st.integers(1, q * q))
    B = hyperbolic_set(q, 2, d)
    if algorithm1_verify(C, B):
        A = region_lattice_points(C, q)
        assert check_square_designed(A, B)


@settings(max_examples=40, deadline=None)
@given(random_regions())
def test_halved_lattice_points_sum_back_into_region(region):
    # midpoint convexity at integer scale: if 2a and 2a' lie in the region,
    # a + a' = (2a + 2a')/2 does too
    q, C = region
    half_pts = [
        a for a in product(range(q), repeat=2) if C.contains((2 * a[0], 2 * a[1]), q)
    ]
    for a in half_pts:
        for b in half_pts:
            assert C.contains((a[0] + b[0], a[1] + b[1]), q)


# --- D_eps diagnostics --------------------------------------------------------

def test_d_epsilon_points():
    for eps in all_epsilons(2):
        assert d_epsilon_points(7, 2, 1, eps) == []
    pts = d_epsilon_points(11, 2, 6, (0, 0))
    assert (10, 10) in pts
    assert all(0 <= c <= 10 for t in pts for c in t)
    shifted = d_epsilon_points(11, 2, 6, (1, 0))
    assert all(11 <= t[0] <= 20 and 0 <= t[1] <= 10 for t in shifted)


def test_d_epsilon_union_is_algorithm1_bad_set():
    q, m, d = 7, 2, 5
    B = hyperbolic_set(q, m, d)
    from squarecodes.expsets import reduce_exponent

    bad = {
        t
        for t in product(range(2 * q - 1), repeat=m)
        if tuple(reduce_exponent(c, q) for c in t) not in B
    }
    union = set()
    for eps in all_epsilons(m):
        union.update(d_epsilon_points(q, m, d, eps))
    assert union == bad


# --- the staircase sweep --------------------------------------------------------

def test_sweep_outputs_are_weighted_rm_sets():
    for A, weights, bound in all_weighted_rm_sets(5):
        assert is_lower_set(A)
        assert A == weighted_rm_set(5, 2, bound, weights)


def test_sweep_contains_known_families():
    sweep = {A.exponents for A, _, _ in all_weighted_rm_sets(11)}
    for s in range(0, 21):
        assert reed_muller_set(11, 2, s).exponents in sweep
    assert wrm_even_optimal_set(11, 6, "b1").exponents in sweep
    assert wrm_even_optimal_set(11, 6, "b2").exponents in sweep
    assert weighted_rm_set(11, 2, 15, (5, 3)).exponents in sweep


def test_sweep_is_complete_against_denser_directions():
    # an independently denser direction family must find nothing new
    for q in (3, 4):
        sweep = {A.exponents for A, _, _ in all_weighted_rm_sets(q)}
        pts = list(product(range(q), repeat=2))
        from itertools import groupby

        for a in range(1, 41):
            for b in range(1, 41):
                if math.gcd(a, b) != 1:
                    continue
                keyed = sorted((a * x + b * y, (x, y)) for x, y in pts)
                prefix = []
                for _, grp in groupby(keyed, key=lambda kv: kv[0]):
                    prefix.extend(pt for _, pt in grp)
                    assert MonomialSet(q, 2, prefix).exponents in sweep
