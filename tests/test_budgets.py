"""The one budget policy: every cap admits its largest request and refuses
the next one up, and the class budget accepts only integers >= 1.

Caps are tested at their real values where the largest admitted request is
cheap to build; otherwise the cap is patched down, which moves the boundary
and keeps the comparison the same.
"""

import itertools
import random

import pytest

from squarecodes import evalcode, gf
from squarecodes.bounds import params_report
from squarecodes.errors import BudgetExceeded, RangeError
from squarecodes.evalcode import (
    GENMAT_BUDGET,
    exact_min_distance,
    generator_matrix,
    min_distance_exhaustive,
    schur_square_matrix,
    weight_distribution_exhaustive,
)
from squarecodes.expsets import MonomialSet, check_box
from squarecodes.families import reed_muller_set
from squarecodes.gf import (
    POINT_BUDGET,
    TABLE_LIMIT,
    FieldSpec,
    check_budget,
    enumerate_points,
    field,
)


def test_check_budget_names_the_size_and_the_cap():
    check_budget(10, 10, "ten things")
    with pytest.raises(BudgetExceeded, match="ten things: 11 exceeds the budget 10"):
        check_budget(11, 10, "ten things")


# --- grid points ----------------------------------------------------------------

def test_point_budget_edge():
    assert POINT_BUDGET == 2048**2
    check_box((2048, 2048), "a grid")
    for shape in [(POINT_BUDGET + 1,), (2048, 2049)]:
        with pytest.raises(BudgetExceeded):
            check_box(shape, "a grid")
    assert reed_muller_set(POINT_BUDGET, 1, 0).exponents == ((0,),)
    with pytest.raises(BudgetExceeded):
        reed_muller_set(POINT_BUDGET + 1, 1, 0)


def test_enumerate_points_edge(monkeypatch):
    monkeypatch.setattr(gf, "POINT_BUDGET", 5**3)
    assert enumerate_points(field(5), 3).shape == (125, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_points(field(5), 3 + 1)
    monkeypatch.setattr(gf, "POINT_BUDGET", 5**3 - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_points(field(5), 3)


# --- field tables ---------------------------------------------------------------

def test_table_limit_edge():
    assert FieldSpec(TABLE_LIMIT).tables().mul.shape == (TABLE_LIMIT, TABLE_LIMIT)
    with pytest.raises(BudgetExceeded):
        FieldSpec(1031).tables()  # the smallest field order past 2^10


# --- matrix entries -------------------------------------------------------------

def test_generator_matrix_edge():
    q, m = 256, 2  # 2^16 points, so 1024 rows are exactly 2^26 entries
    rows = [(i, j) for i in range(4) for j in range(q)]
    assert len(rows) * q**m == GENMAT_BUDGET
    assert generator_matrix(MonomialSet(q, m, rows)).k == 1024
    with pytest.raises(BudgetExceeded):
        generator_matrix(MonomialSet(q, m, rows + [(4, 0)]))


def test_schur_square_edge(monkeypatch):
    G = generator_matrix(MonomialSet(3, 2, [(0, 0), (1, 0), (0, 1)]))
    entries = 6 * 9  # 6 product rows of length 9
    monkeypatch.setattr(evalcode, "GENMAT_BUDGET", entries)
    assert schur_square_matrix(G).k == 6
    monkeypatch.setattr(evalcode, "GENMAT_BUDGET", entries - 1)
    with pytest.raises(BudgetExceeded):
        schur_square_matrix(G)


# --- message classes ------------------------------------------------------------

@pytest.mark.parametrize("walk", [min_distance_exhaustive, weight_distribution_exhaustive])
def test_class_budget_edge(walk):
    G = generator_matrix(MonomialSet(3, 2, [(0, 0), (1, 0), (0, 1)]))
    walk(G, budget=13)  # (3^3 - 1)/2 classes
    with pytest.raises(BudgetExceeded):
        walk(G, budget=12)


def test_exact_min_distance_routes_at_the_class_budget(monkeypatch):
    # q = 2, n = 16, k = 9: 511 classes in the code, 127 in its dual
    G = generator_matrix(MonomialSet(2, 4, list(itertools.product(range(2), repeat=4))[:9]))
    routes = []
    transform = evalcode.macwilliams_transform
    monkeypatch.setattr(
        evalcode, "macwilliams_transform", lambda *a: routes.append("dual") or transform(*a)
    )
    d = min_distance_exhaustive(G)
    for budget, route in [(511, []), (510, ["dual"]), (127, ["dual"])]:
        routes.clear()
        assert exact_min_distance(G, budget=budget) == d
        assert routes == route, budget
    with pytest.raises(BudgetExceeded):
        exact_min_distance(G, budget=126)


def test_params_report_refuses_before_any_row_reduction(monkeypatch):
    # a scattered q = 16, m = 3 set of 376 exponents has no exact certificate;
    # its rank is |A|, so the class budget is decided without a row reduction
    A = MonomialSet(16, 3, random.Random(376).sample(list(itertools.product(range(16), repeat=3)), 376))

    def no_rref(*args):
        raise AssertionError("rref ran before the class budget was decided")

    monkeypatch.setattr(evalcode, "rref", no_rref)
    with pytest.raises(BudgetExceeded, match=r"\(k = 376\) and of its dual \(n - k = 3720\)"):
        params_report(A, effort="exhaustive")


def test_params_report_refuses_with_the_message_of_exact_min_distance():
    A = MonomialSet(5, 2, [(0, 0), (1, 2), (2, 1)])
    with pytest.raises(BudgetExceeded) as direct:
        exact_min_distance(generator_matrix(A), budget=3)
    with pytest.raises(BudgetExceeded) as report:
        params_report(A, effort="exhaustive", budget=3)
    assert str(report.value) == str(direct.value)


# --- validation of the class budget -----------------------------------------------

BAD_BUDGETS = [0, -1, True, 2.5, "10"]


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
@pytest.mark.parametrize(
    "walk", [exact_min_distance, min_distance_exhaustive, weight_distribution_exhaustive]
)
def test_walks_refuse_bad_budgets(walk, budget):
    G = generator_matrix(MonomialSet(3, 2, [(0, 0), (1, 0)]))
    with pytest.raises(RangeError):
        walk(G, budget=budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
@pytest.mark.parametrize("effort", ["fb_only", "certify", "exhaustive"])
def test_params_report_refuses_bad_budgets_at_every_effort(effort, budget):
    with pytest.raises(RangeError):
        params_report(reed_muller_set(5, 2, 2), effort=effort, budget=budget)
