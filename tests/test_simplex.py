"""Exact LP solver: optima, duals, and infeasibility certificates."""

from fractions import Fraction

from bidfair import simplex
from bidfair.simplex import feasible_point, solve_lp, verify_farkas


def test_backend_names_the_rational_type_in_use():
    assert simplex.BACKEND in ("gmpy2.mpq", "fractions.Fraction")
    assert (simplex._rat is Fraction) == (simplex.BACKEND == "fractions.Fraction")


def test_simple_maximum_with_duals():
    # max x + y  s.t.  x <= 2, y <= 3
    res = solve_lp([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert res.status == "optimal"
    assert res.objective == 5
    assert res.x == [Fraction(2), Fraction(3)]
    assert res.duals == [Fraction(1), Fraction(1)]


def test_strong_duality_on_mixed_lp():
    # max 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6
    a = [[1, 1], [1, 3]]
    b = [4, 6]
    c = [3, 2]
    res = solve_lp(c, a_ub=a, b_ub=b)
    assert res.status == "optimal"
    assert res.objective == sum(y * bi for y, bi in zip(res.duals, b))
    for j in range(2):
        assert sum(res.duals[i] * a[i][j] for i in range(2)) >= c[j]
    assert all(y >= 0 for y in res.duals)


def test_equality_constraints():
    # max x  s.t.  x + y = 1
    res = solve_lp([1, 0], a_eq=[[1, 1]], b_eq=[1])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == [Fraction(1), Fraction(0)]


def test_minimize():
    # min x + y  s.t.  x + 2y >= 2  (as -x - 2y <= -2)
    res = solve_lp([1, 1], a_ub=[[-1, -2]], b_ub=[-2], maximize=False)
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == [Fraction(0), Fraction(1)]


def test_unbounded():
    res = solve_lp([1], a_ub=[[-1]], b_ub=[0])
    assert res.status == "unbounded"


def test_infeasible_with_verified_certificate():
    # x <= 1 and -x <= -3 cannot both hold
    a = [[1], [-1]]
    b = [1, -3]
    res = feasible_point(1, a_ub=a, b_ub=b)
    assert res.status == "infeasible"
    assert verify_farkas(res.farkas, a_ub=a, b_ub=b)


def test_infeasible_equality_system():
    # x + y = 1, x + y = 2
    a_eq = [[1, 1], [1, 1]]
    b_eq = [1, 2]
    res = feasible_point(2, a_eq=a_eq, b_eq=b_eq)
    assert res.status == "infeasible"
    assert verify_farkas(res.farkas, a_eq=a_eq, b_eq=b_eq)


def test_degenerate_lp_terminates():
    # classic cycling-prone data; Bland's rule must terminate
    c = [Fraction(3, 4), -150, Fraction(1, 50), -6]
    a = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = solve_lp(c, a_ub=a, b_ub=b)
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 20)


def test_exactness_no_drift():
    # tiny coefficients that would misbehave in floating point
    eps = Fraction(1, 10**12)
    res = solve_lp([1], a_ub=[[1]], b_ub=[eps])
    assert res.objective == eps


def test_rational_feasibility_roundtrip():
    # weights summing to one with per-item coverage caps
    a_eq = [[1, 1, 1]]
    b_eq = [1]
    a_ub = [[1, 1, 0], [0, 1, 1]]
    b_ub = [Fraction(1, 2), Fraction(1, 2)]
    res = feasible_point(3, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert res.status == "optimal"
    x = res.x
    assert sum(x) == 1
    assert x[0] + x[1] <= Fraction(1, 2)
    assert x[1] + x[2] <= Fraction(1, 2)
