"""Footprint bound, closed-form distances/dimensions, and the comparison
theorems, each checked against frozen values and the exhaustive oracle."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarecodes import evalcode
from squarecodes.bounds import (
    CSV_HEADER,
    ParamsReport,
    best_wrm_square_design,
    footprint_argmins,
    footprint_bound,
    halfhyp_dimension_formula,
    params_csv_row,
    params_report,
    rm_min_distance,
    rm_vs_hyp_comparison,
    wrm_beats_halfhyp,
)
from squarecodes.errors import BudgetExceeded, CrossCheckFailed, EmptySet, NotReduced, RangeError
from squarecodes.expsets import MonomialSet, square_support
from squarecodes.families import (
    all_weighted_rm_sets,
    half_hyperbolic_set,
    hyperbolic_set,
    reed_muller_set,
    weighted_rm_set,
    wrm_even_optimal_set,
)


def exhaustive_d(A):
    return evalcode.min_distance_exhaustive(evalcode.generator_matrix(A))


def all_lower_sets_3x3():
    """All nonempty downward-closed subsets of [0,2]^2 (there are 19)."""
    cells = list(itertools.product(range(3), repeat=2))
    out = []
    for mask in range(1, 1 << 9):
        chosen = {cells[i] for i in range(9) if mask >> i & 1}
        if all((x, y) in chosen for (a, b) in chosen for x in range(a + 1) for y in range(b + 1)):
            out.append(sorted(chosen))
    return out


# ---------------------------------------------------------------- footprint


def test_footprint_bound_frozen_values():
    assert footprint_bound(reed_muller_set(11, 2, 6)) == 55
    assert footprint_argmins(reed_muller_set(11, 2, 6)) == ((0, 6), (6, 0))
    assert footprint_bound(MonomialSet(7, 2, [(0, 0)])) == 49
    assert footprint_bound(weighted_rm_set(11, 2, 15, (5, 3))) == 66
    assert footprint_bound(MonomialSet(5, 2, [(2, 1)])) == 12
    assert footprint_bound(half_hyperbolic_set(11, 2, 6)) == 49


def test_footprint_bound_rejects_bad_input():
    with pytest.raises(EmptySet):
        footprint_bound(MonomialSet(5, 2, []))
    with pytest.raises(NotReduced):
        footprint_bound(MonomialSet(5, 2, [(7, 0)]))


def test_footprint_is_sharp_on_all_small_lower_sets():
    # every downward-closed set over q=3: the bound IS the distance
    for vecs in all_lower_sets_3x3():
        A = MonomialSet(3, 2, vecs)
        assert footprint_bound(A) == exhaustive_d(A)


@st.composite
def small_reduced_sets(draw):
    q = draw(st.sampled_from([3, 5]))
    vecs = draw(
        st.lists(
            st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    return MonomialSet(q, 2, vecs)


@given(small_reduced_sets())
@settings(max_examples=30, deadline=None)
def test_footprint_is_a_lower_bound(A):
    assert footprint_bound(A) <= exhaustive_d(A)


# ----------------------------------------------------- closed-form distances


@pytest.mark.parametrize(
    "q,m,s,d",
    [
        (11, 2, 6, 55),
        (11, 2, 15, 6),
        (11, 1, 4, 7),
        (3, 2, 0, 9),
        (3, 2, 3, 2),
        (3, 2, 4, 1),
        (5, 3, 11, 2),
        (5, 3, 12, 1),
    ],
)
def test_rm_min_distance_frozen(q, m, s, d):
    assert rm_min_distance(q, m, s) == d


def test_rm_min_distance_range_errors():
    with pytest.raises(RangeError):
        rm_min_distance(5, 2, -1)
    with pytest.raises(RangeError):
        rm_min_distance(5, 2, 9)


def test_rm_min_distance_matches_oracle_q3():
    for s in range(2 * 2 + 1):
        A = reed_muller_set(3, 2, s)
        assert rm_min_distance(3, 2, s) == exhaustive_d(A)


@pytest.mark.parametrize("q", [5, 7])
def test_rm_min_distance_reed_solomon(q):
    # m=1 is Reed-Solomon: d = q - s
    for s in range(q):
        assert rm_min_distance(q, 1, s) == q - s


# ------------------------------------------------- half-hyperbolic dimension


@pytest.mark.parametrize(
    "q,d,k",
    [(11, 6, 31), (11, 12, 24), (11, 1, 36), (11, 120, 1), (3, 1, 4), (3, 8, 1)],
)
def test_halfhyp_dimension_frozen(q, d, k):
    assert halfhyp_dimension_formula(q, d) == k


def test_halfhyp_dimension_range_errors():
    with pytest.raises(RangeError):
        halfhyp_dimension_formula(11, 0)
    with pytest.raises(RangeError):
        halfhyp_dimension_formula(11, 121)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_halfhyp_dimension_whole_range(q):
    # the formula self-checks against enumeration on every call; sweeping the
    # full range of d exercises every floor-division corner
    for d in range(1, q * q):
        assert halfhyp_dimension_formula(q, d) == len(half_hyperbolic_set(q, 2, d))


# ------------------------------------------------------------- RM vs Hyp


@pytest.mark.parametrize(
    "q,t,verdict",
    [
        (11, 6, "hyp_strictly_larger"),
        (11, 2, "equal"),
        (7, 9, "hyp_strictly_larger"),
        (5, 8, "equal"),
    ],
)
def test_rm_vs_hyp_frozen(q, t, verdict):
    assert rm_vs_hyp_comparison(q, t) == verdict


def test_rm_vs_hyp_range_errors():
    with pytest.raises(RangeError):
        rm_vs_hyp_comparison(11, -1)
    with pytest.raises(RangeError):
        rm_vs_hyp_comparison(11, 21)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_rm_vs_hyp_matches_direct_dimension_count(q):
    for t in range(2 * (q - 1) + 1):
        rm = reed_muller_set(q, 2, t)
        hyp = hyperbolic_set(q, 2, rm_min_distance(q, 2, t))
        assert len(hyp) >= len(rm)  # Hyp is dimension-maximal for its bound
        verdict = rm_vs_hyp_comparison(q, t)
        assert (verdict == "hyp_strictly_larger") == (len(hyp) > len(rm))


# ------------------------------------------------------- WRM square designs


def test_best_wrm_odd_is_plain_degree_set():
    A = best_wrm_square_design(11, 7)
    assert A.exponents == reed_muller_set(11, 2, 7).exponents
    assert len(A) == 36
    assert footprint_bound(square_support(A)) == 7


def test_best_wrm_even_is_tilted_staircase():
    A = best_wrm_square_design(11, 6)
    assert A.exponents == wrm_even_optimal_set(11, 6, "b1").exponents
    assert len(A) == 39
    assert footprint_bound(A) == 33
    assert footprint_bound(square_support(A)) >= 6


def test_best_wrm_distance_one_is_the_full_box():
    # any square clears a designed distance of 1, so the whole box wins
    assert len(best_wrm_square_design(5, 1)) == 25
    assert len(best_wrm_square_design(11, 1)) == 121


def test_best_wrm_range_errors():
    for bad in (0, 11, 22):
        with pytest.raises(RangeError):
            best_wrm_square_design(11, bad)


@pytest.mark.parametrize("q", [5, 7])
def test_best_wrm_is_optimal_among_all_staircases(q):
    """Exhaustive sweep over every distinct 2-variable staircase: nothing with
    a square footprint >= d has more monomials than the returned set."""
    candidates = []
    for A, _, _ in all_weighted_rm_sets(q):
        if len(A):
            candidates.append((len(A), footprint_bound(square_support(A))))
    for d in range(1, q):
        best = max(k for k, fbsq in candidates if fbsq >= d)
        assert len(best_wrm_square_design(q, d)) == best


# -------------------------------------------------- WRM vs half-hyperbolic


@pytest.mark.parametrize(
    "q,d,wins",
    [(11, 6, True), (11, 5, True), (11, 7, False), (11, 10, False), (7, 2, True)],
)
def test_wrm_beats_halfhyp_frozen(q, d, wins):
    assert wrm_beats_halfhyp(q, d) is wins


def test_wrm_beats_halfhyp_dimension_gap():
    assert len(best_wrm_square_design(11, 6)) == 39
    assert halfhyp_dimension_formula(11, 6) == 31
    assert len(best_wrm_square_design(11, 5)) == 45
    assert halfhyp_dimension_formula(11, 5) == 33


@pytest.mark.parametrize("q", [7, 11, 13])
def test_wrm_beats_halfhyp_threshold_is_exact(q):
    # integer test (2q-d)^2 > 2q^2 against the irrational threshold
    for d in range(1, q):
        assert wrm_beats_halfhyp(q, d) == (d < (2 - math.sqrt(2)) * q)


# ------------------------------------------------------------ param reports


def test_params_report_certified_lower_set():
    rep = params_report(hyperbolic_set(11, 2, 55), effort="certify")
    assert (rep.n, rep.k, rep.fb) == (121, 30, 55)
    assert rep.d_exact == 55 and rep.d_source == "certificate"
    assert rep.square is not None and rep.square.square is None
    assert rep.square.fb == 8


def test_params_report_single_constant():
    rep = params_report(MonomialSet(3, 1, [(0,)]), effort="certify")
    assert (rep.n, rep.k, rep.fb, rep.d_exact) == (3, 1, 3, 3)


def test_params_report_fb_only():
    rep = params_report(reed_muller_set(11, 2, 6), effort="fb_only")
    assert rep.fb == 55
    assert rep.d_exact is None and rep.d_source == "none"
    assert rep.square.d_exact is None


def test_params_report_falls_back_to_enumeration():
    # no witness shape matches this set, so the oracle has to finish the job
    A = MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)])
    rep = params_report(A, effort="exhaustive")
    assert rep.d_exact == 12 and rep.d_source == "exhaustive"
    # ... and on the square the footprint bound is visibly not sharp
    assert rep.square.fb == 3 and rep.square.d_exact == 8


def test_params_report_certify_leaves_gap_unresolved():
    A = MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)])
    rep = params_report(A, effort="certify")
    assert rep.d_exact is None and rep.d_source == "none"
    assert rep.fb == 12


def test_params_report_budget_propagates():
    A = MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)])
    with pytest.raises(BudgetExceeded):
        params_report(A, effort="exhaustive", budget=3)


def test_params_report_validation():
    with pytest.raises(RangeError):
        params_report(MonomialSet(3, 1, [(0,)]), effort="best_effort")
    with pytest.raises(NotReduced):
        params_report(MonomialSet(3, 1, [(5,)]))
    with pytest.raises(EmptySet):
        params_report(MonomialSet(3, 1, []))


def test_params_report_invariant_fb_at_most_d():
    with pytest.raises(CrossCheckFailed):
        ParamsReport(n=9, k=2, fb=5, d_exact=4, d_source="exhaustive")


def test_params_report_json_shape():
    rep = params_report(MonomialSet(3, 1, [(0,)]), effort="fb_only")
    js = rep.to_json()
    assert set(js) == {"n", "k", "fb", "d_exact", "d_source", "square"}
    assert set(js["square"]) == set(js)
    assert js["square"]["square"] is None


def test_params_csv_row_frozen():
    assert CSV_HEADER == "family,q,m,d_design,n,k,fb,d_exact,d_source,square_fb"
    rep = params_report(reed_muller_set(11, 2, 6), effort="certify")
    row = params_csv_row("rm", 11, 2, 55, rep)
    assert row == "rm,11,2,55,121,28,55,55,certificate,9"
    bare = params_csv_row("file", 11, 2, "", params_report(reed_muller_set(11, 2, 6), effort="fb_only"))
    assert bare == "file,11,2,,121,28,55,,none,9"
