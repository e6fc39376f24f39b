"""Exact rational linear programming via two-phase tableau simplex.

Solves   max/min c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
with exact rational arithmetic: gmpy2.mpq when gmpy2 is installed (the optional
``gmpy2`` extra), fractions.Fraction otherwise.  ``BACKEND`` names the one in use.
Bland's rule is used throughout, so the solver terminates on every input.

Beyond optima, the solver reports row multipliers: ``duals`` at optimality and
a ``farkas`` vector when the constraints are infeasible.  A farkas vector u
satisfies u >= 0 on the inequality rows, sum_i u_i * row_i >= 0 componentwise
over the (nonnegative) variables, and u.b < 0 - an explicit contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

try:
    from gmpy2 import mpq as _rat

    BACKEND = "gmpy2.mpq"
except ImportError:  # gmpy2 is optional; results are identical, pivots slower
    _rat = Fraction
    BACKEND = "fractions.Fraction"

_ZERO = _rat(0)
_ONE = _rat(1)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    duals: list[Fraction] | None = None
    farkas: list[Fraction] | None = None


def _to_fraction(value) -> Fraction:
    return Fraction(value.numerator, value.denominator)


class _Tableau:
    """Dense simplex tableau with an explicit identity column per row."""

    def __init__(self, a_ub, b_ub, a_eq, b_eq, n_vars: int):
        rows = []
        rhs = []
        self.signs = []  # sign applied to each input row during normalization
        self.is_eq = [False] * len(b_ub) + [True] * len(b_eq)
        for a, b in list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq)):
            a = [_rat(v) for v in a]
            b = _rat(b)
            if len(a) != n_vars:
                raise ValueError("row length mismatch")
            if b < 0:
                a = [-v for v in a]
                b = -b
                self.signs.append(-1)
            else:
                self.signs.append(1)
            rows.append(a)
            rhs.append(b)
        self.m = len(rows)
        self.n = n_vars

        # column layout: structural | slacks (ub rows) | artificials | rhs
        self.slack_col = {}
        col = n_vars
        n_ub = len(b_ub)
        for i in range(n_ub):
            self.slack_col[i] = col
            col += 1
        self.art_col = {}
        self.identity_col = {}
        for i in range(self.m):
            slack_ok = (not self.is_eq[i]) and self.signs[i] == 1
            if slack_ok:
                self.identity_col[i] = self.slack_col[i]
            else:
                self.art_col[i] = col
                self.identity_col[i] = col
                col += 1
        self.width = col + 1  # + rhs
        self.rhs_col = col

        self.rows = []
        for i in range(self.m):
            row = [_ZERO] * self.width
            for j, v in enumerate(rows[i]):
                row[j] = v
            if i in self.slack_col:
                row[self.slack_col[i]] = _rat(self.signs[i])
            if i in self.art_col:
                row[self.art_col[i]] = _ONE
            row[self.rhs_col] = rhs[i]
            self.rows.append(row)
        self.basis = [self.identity_col[i] for i in range(self.m)]

    def _pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        inv = _ONE / piv
        self.rows[row] = [v * inv for v in self.rows[row]]
        prow = self.rows[row]
        for r in range(self.m + 1):
            if r == row:
                continue
            factor = self.rows[r][col]
            if factor != 0:
                self.rows[r] = [v - factor * p for v, p in zip(self.rows[r], prow)]
        self.basis[row] = col

    def _run(self, allowed_cols) -> str:
        """Pivot to optimality (objective row = reduced costs z_j - c_j)."""
        obj = self.m  # index of the objective row
        while True:
            enter = -1
            for j in allowed_cols:
                if self.rows[obj][j] < 0:
                    enter = j
                    break  # Bland: smallest improving index
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(self.m):
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.rows[i][self.rhs_col] / coef
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def set_objective(self, costs: dict[int, object]) -> None:
        """Install objective row for max sum costs[j] * var_j (reduced costs)."""
        obj = [_ZERO] * self.width
        for j, c in costs.items():
            obj[j] = -_rat(c)
        self.rows = self.rows[: self.m] + [obj]
        # price out basic variables so reduced costs of the basis are zero
        for i in range(self.m):
            factor = self.rows[self.m][self.basis[i]]
            if factor != 0:
                self.rows[self.m] = [
                    v - factor * p for v, p in zip(self.rows[self.m], self.rows[i])
                ]

    def row_duals(self, identity_costs: dict[int, object]) -> list[Fraction]:
        """Multipliers of the original rows, read off the identity columns."""
        duals = []
        for i in range(self.m):
            col = self.identity_col[i]
            y = self.rows[self.m][col] + _rat(identity_costs.get(col, 0))
            duals.append(_to_fraction(_rat(self.signs[i]) * y))
        return duals


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    maximize: bool = True,
) -> LPResult:
    n_vars = len(objective)
    tab = _Tableau(a_ub, b_ub, a_eq, b_eq, n_vars)
    structural_and_slack = list(range(n_vars)) + [tab.slack_col[i] for i in tab.slack_col]

    # phase 1: drive artificials to zero
    if tab.art_col:
        phase1_costs = {col: -1 for col in tab.art_col.values()}
        tab.set_objective(phase1_costs)
        status = tab._run(structural_and_slack)
        assert status == "optimal"  # phase-1 objective is bounded by 0
        infeas = -tab.rows[tab.m][tab.rhs_col]
        if infeas > 0:
            identity_costs = {col: -1 for col in tab.art_col.values()}
            farkas = tab.row_duals(identity_costs)
            return LPResult(status="infeasible", farkas=farkas)
        # pivot basic artificials out where possible
        for i in range(tab.m):
            if tab.basis[i] in tab.art_col.values():
                for j in structural_and_slack:
                    if tab.rows[i][j] != 0:
                        tab._pivot(i, j)
                        break

    # phase 2
    sign = 1 if maximize else -1
    tab.set_objective({j: sign * _rat(objective[j]) for j in range(n_vars)})
    status = tab._run(structural_and_slack)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n_vars
    for i, col in enumerate(tab.basis):
        if col < n_vars:
            x[col] = _to_fraction(tab.rows[i][tab.rhs_col])
    value = _to_fraction(tab.rows[tab.m][tab.rhs_col])
    duals = tab.row_duals({})
    if not maximize:
        value = -value
        duals = [-d for d in duals]
    return LPResult(status="optimal", x=x, objective=value, duals=duals)


def feasible_point(
    n_vars: int,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    """Phase-1 style feasibility check for A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Public entry point that the package itself does not call; tests and
    perfbench/tracer.py look it up by name.
    """
    return solve_lp([0] * n_vars, a_ub, b_ub, a_eq, b_eq)


def verify_farkas(
    farkas: Sequence[Fraction],
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> bool:
    """Check a claimed infeasibility certificate by direct substitution."""
    rows = [list(map(Fraction, r)) for r in a_ub] + [list(map(Fraction, r)) for r in a_eq]
    rhs = [Fraction(v) for v in b_ub] + [Fraction(v) for v in b_eq]
    if len(farkas) != len(rows):
        return False
    n_ub = len(b_ub)
    if any(u < 0 for u in farkas[:n_ub]):
        return False
    n_vars = len(rows[0]) if rows else 0
    combined = [
        sum((u * row[j] for u, row in zip(farkas, rows)), Fraction(0)) for j in range(n_vars)
    ]
    constant = sum((u * b for u, b in zip(farkas, rhs)), Fraction(0))
    return all(c >= 0 for c in combined) and constant < 0
