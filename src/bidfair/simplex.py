"""Exact linear programming by two-phase tableau simplex in fractions.Fraction.

Solves   max c.x   subject to   A x <= b,  x >= 0.

A row with b < 0 is negated and given an artificial column, and phase 1 drives
the artificials to zero; when every b >= 0 the solver starts from the slack
basis and skips phase 1.  The columns are the structural variables, then one
slack per row, then one artificial per negated row, each in row order; Bland's
rule picks the smallest eligible column, so the solver terminates on every
input and the same input always takes the same pivots.

Beyond optima, the solver reports row multipliers: ``duals`` at optimality and
a ``farkas`` vector when the constraints are infeasible.  A farkas vector u
satisfies u >= 0, sum_i u_i * row_i >= 0 componentwise over the (nonnegative)
variables, and u.b < 0 - an explicit contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    duals: list[Fraction] | None = None
    farkas: list[Fraction] | None = None


class _Tableau:
    """Dense simplex tableau with an explicit identity column per row."""

    def __init__(self, a_ub, b_ub, n_vars: int):
        rhs = [Fraction(b) for b in b_ub]
        if len(a_ub) != len(rhs):
            raise ValueError("row count mismatch")
        self.m = len(rhs)
        first_artificial = n_vars + self.m
        self.artificials = range(first_artificial, first_artificial + sum(b < 0 for b in rhs))
        self.rhs_col = self.artificials.stop
        self.width = self.rhs_col + 1
        self.signs = []  # sign applied to each input row during normalization
        self.identity_col = []
        self.rows = []
        artificials = iter(self.artificials)
        for i, (a, b) in enumerate(zip(a_ub, rhs)):
            a = [Fraction(v) for v in a]
            if len(a) != n_vars:
                raise ValueError("row length mismatch")
            row = [_ZERO] * self.width
            if b < 0:  # negate the row; its artificial starts in the basis
                row[:n_vars] = [-v for v in a]
                row[n_vars + i] = -_ONE
                col = next(artificials)
                row[col] = _ONE
                b = -b
                self.signs.append(-1)
            else:
                row[:n_vars] = a
                col = n_vars + i
                row[col] = _ONE
                self.signs.append(1)
            row[self.rhs_col] = b
            self.rows.append(row)
            self.identity_col.append(col)
        self.basis = list(self.identity_col)

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
            obj[j] = -Fraction(c)
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
            y = self.rows[self.m][col] + identity_costs.get(col, 0)
            duals.append(self.signs[i] * y)
        return duals


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> LPResult:
    """Maximise objective.x subject to a_ub x <= b_ub and x >= 0."""
    n_vars = len(objective)
    tab = _Tableau(a_ub, b_ub, n_vars)
    structural_and_slack = range(n_vars + tab.m)

    # phase 1: drive artificials to zero
    if tab.artificials:
        phase1_costs = dict.fromkeys(tab.artificials, -1)
        tab.set_objective(phase1_costs)
        status = tab._run(structural_and_slack)
        assert status == "optimal"  # phase-1 objective is bounded by 0
        infeas = -tab.rows[tab.m][tab.rhs_col]
        if infeas > 0:
            return LPResult(status="infeasible", farkas=tab.row_duals(phase1_costs))
        # pivot basic artificials out where possible
        for i in range(tab.m):
            if tab.basis[i] in tab.artificials:
                for j in structural_and_slack:
                    if tab.rows[i][j] != 0:
                        tab._pivot(i, j)
                        break

    # phase 2
    tab.set_objective(dict(enumerate(objective)))
    status = tab._run(structural_and_slack)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [_ZERO] * n_vars
    for i, col in enumerate(tab.basis):
        if col < n_vars:
            x[col] = tab.rows[i][tab.rhs_col]
    value = tab.rows[tab.m][tab.rhs_col]
    return LPResult(status="optimal", x=x, objective=value, duals=tab.row_duals({}))


def feasible_point(
    n_vars: int,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> LPResult:
    """Phase-1 style feasibility check for a_ub x <= b_ub, x >= 0.

    Public entry point that the package itself does not call; tests and
    perfbench/tracer.py look it up by name.
    """
    return solve_lp([0] * n_vars, a_ub, b_ub)


def verify_farkas(
    farkas: Sequence[Fraction],
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> bool:
    """Check a claimed infeasibility certificate by direct substitution."""
    rows = [list(map(Fraction, r)) for r in a_ub]
    rhs = [Fraction(v) for v in b_ub]
    if len(farkas) != len(rows) or any(u < 0 for u in farkas):
        return False
    n_vars = len(rows[0]) if rows else 0
    combined = [
        sum((u * row[j] for u, row in zip(farkas, rows)), Fraction(0)) for j in range(n_vars)
    ]
    constant = sum((u * b for u, b in zip(farkas, rhs)), Fraction(0))
    return all(c >= 0 for c in combined) and constant < 0
