"""Exact LP solver: optima, duals, and infeasibility certificates."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bidfair.simplex import feasible_point, solve_lp, verify_farkas


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


def test_minimize():
    # min x + y  s.t.  x + 2y >= 2, as  max -x - y  s.t.  -x - 2y <= -2
    res = solve_lp([-1, -1], a_ub=[[-1, -2]], b_ub=[-2])
    assert res.status == "optimal"
    assert res.objective == -1
    assert res.x == [Fraction(0), Fraction(1)]


def test_unbounded():
    res = solve_lp([1], a_ub=[[-1]], b_ub=[0])
    assert res.status == "unbounded"


def test_rows_and_right_hand_sides_must_match():
    with pytest.raises(ValueError, match="row count"):
        solve_lp([1], a_ub=[[1]], b_ub=[1, 2])
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1], a_ub=[[1, 1]], b_ub=[1])


def test_infeasible_with_verified_certificate():
    # x <= 1 and -x <= -3 cannot both hold
    a = [[1], [-1]]
    b = [1, -3]
    res = feasible_point(1, a_ub=a, b_ub=b)
    assert res.status == "infeasible"
    assert verify_farkas(res.farkas, a_ub=a, b_ub=b)


def test_artificial_pivoted_out_on_a_negative_entry():
    # phase 1 ends with the artificial of row 0 basic at zero, and the only
    # nonzero entry it can leave on is negative
    res = solve_lp([-1], a_ub=[[-1], [1]], b_ub=[-2, 2])
    assert res.status == "optimal"
    assert res.x == [Fraction(2)]
    assert res.objective == -2
    assert res.duals == [Fraction(1), Fraction(0)]


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
    # weights summing to one (two opposite rows) with per-item coverage caps
    a_ub = [[1, 1, 1], [-1, -1, -1], [1, 1, 0], [0, 1, 1]]
    b_ub = [1, -1, Fraction(1, 2), Fraction(1, 2)]
    res = feasible_point(3, a_ub=a_ub, b_ub=b_ub)
    assert res.status == "optimal"
    x = res.x
    assert sum(x) == 1
    assert x[0] + x[1] <= Fraction(1, 2)
    assert x[1] + x[2] <= Fraction(1, 2)


small_rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(small_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(small_rationals, min_size=m, max_size=m))
    c = draw(st.lists(small_rationals, min_size=n, max_size=n))
    return c, a, b


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_every_answer_carries_its_certificate(system):
    c, a, b = system
    res = solve_lp(c, a_ub=a, b_ub=b)
    if res.status == "optimal":
        x, y = res.x, res.duals
        assert all(v >= 0 for v in x)
        assert all(sum(aij * xj for aij, xj in zip(row, x)) <= bi for row, bi in zip(a, b))
        assert all(v >= 0 for v in y)
        for j, cj in enumerate(c):
            assert sum(yi * row[j] for yi, row in zip(y, a)) >= cj
        assert res.objective == sum(cj * xj for cj, xj in zip(c, x))
        assert res.objective == sum(yi * bi for yi, bi in zip(y, b))
    elif res.status == "infeasible":
        assert verify_farkas(res.farkas, a_ub=a, b_ub=b)
    else:
        assert res.status == "unbounded"


def pinned_family(seed, count):
    """Seeded (c, a, b) systems: mixed denominators, negative b, fractional costs."""
    rng = random.Random(seed)
    denominators = (1, 1, 1, 2, 3, 4, 6, 7)

    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice(denominators))

    for _ in range(count):
        n = rng.randint(1, 5)
        m = rng.randint(0, 5)
        sparse = rng.random() < 0.3
        a = [[0 if sparse and rng.random() < 0.4 else q(-6, 6) for _ in range(n)] for _ in range(m)]
        b = [q(-6, 6) for _ in range(m)]
        c = [q(-5, 5) for _ in range(n)]
        yield c, a, b


def canonical(res):
    def numbers(values):
        return None if values is None else " ".join(map(str, values))

    objective = None if res.objective is None else str(res.objective)
    return repr((res.status, numbers(res.x), objective, numbers(res.duals), numbers(res.farkas)))


def test_outputs_on_a_seeded_family_are_pinned():
    # two phase-1 artificials in this family are pivoted out on a negative entry
    results = [solve_lp(c, a_ub=a, b_ub=b) for c, a, b in pinned_family(2026, 2000)]
    assert Counter(res.status for res in results) == {
        "optimal": 503,
        "unbounded": 850,
        "infeasible": 647,
    }
    text = "\n".join(map(canonical, results))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e79c1043e088dd9ab24ebf88773c6f3abc236c5842bea9ab0c5e9c6d83802917"
    )
