"""Exact linear programming by a two-phase, fraction-free tableau simplex.

Solves   max c.x   subject to   A x <= b,  x >= 0.

A row with b < 0 is negated and given an artificial column, and phase 1 drives
the artificials to zero; when every b >= 0 the solver starts from the slack
basis and skips phase 1.  The columns are the structural variables, then one
slack per row, then one artificial per negated row, each in row order; Bland's
rule picks the smallest eligible column, so the solver terminates on every
input and the same input always takes the same pivots.

The tableau holds Python ints over one common denominator d > 0, not
fractions.  Each input row is scaled to ints by ``valuations.integer_keys``
(a row of ints, right-hand side included, is taken as it is, at scale 1),
with its slack and artificial measured in units of one over that scale, so the
identity columns stay unit columns and d starts at 1.  A pivot on p keeps the
pivot row and maps every other row r to (M_r * p - M_r[s] * M_pivot) // d,
then sets d = p: the rule of Edmonds (1967) and Bareiss (1968), in which the
division is exact.  Scaling a row or a slack by a positive number keeps every
reduced cost's sign and every ratio's order, so the pivots are the ones a
rational tableau would take.  Inputs may be ints, ``Fraction``s or anything
``Fraction`` accepts, and results are returned as ``Fraction``s; only reading
the input and the results does rational arithmetic.

Beyond optima, the solver reports row multipliers: ``duals`` at optimality and
a ``farkas`` vector when the constraints are infeasible.  A farkas vector u
satisfies u >= 0, sum_i u_i * row_i >= 0 componentwise over the (nonnegative)
variables, and u.b < 0 - an explicit contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .valuations import integer_keys


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    duals: list[Fraction] | None = None
    farkas: list[Fraction] | None = None


def _rational(v) -> int | Fraction:
    """v as an exact rational: ints and Fractions as they are (both carry
    numerator and denominator), anything else through Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class _Tableau:
    """Dense integer tableau: row i stands for rows[i] / d, the objective row
    for rows[m] / (d * obj_scale), with an explicit identity column per row."""

    def __init__(self, a_ub, b_ub, n_vars: int):
        rhs = [_rational(b) for b in b_ub]
        if len(a_ub) != len(rhs):
            raise ValueError("row count mismatch")
        self.m = len(rhs)
        first_artificial = n_vars + self.m
        self.artificials = range(first_artificial, first_artificial + sum(b < 0 for b in rhs))
        self.rhs_col = self.artificials.stop
        self.width = self.rhs_col + 1
        self.d = 1
        self.signs = []  # sign applied to each input row during normalization
        self.scales = []  # the positive integer each normalized row is multiplied by
        self.identity_col = []
        self.rows = []
        artificials = iter(self.artificials)
        for i, (a, b) in enumerate(zip(a_ub, rhs)):
            if len(a) != n_vars:
                raise ValueError("row length mismatch")
            if type(b) is int and all(type(x) is int for x in a):
                keys, scale = [*a, b], 1  # an int row is its own keys
            else:
                keys, scale = integer_keys([*map(_rational, a), b])
            sign = -1 if b < 0 else 1  # a negated row's artificial starts in the basis
            row = [0] * self.width
            row[self.rhs_col] = sign * keys.pop()
            row[:n_vars] = keys if sign > 0 else [-k for k in keys]
            row[n_vars + i] = sign
            col = next(artificials) if b < 0 else n_vars + i
            row[col] = 1
            self.rows.append(row)
            self.signs.append(sign)
            self.scales.append(scale)
            self.identity_col.append(col)
        self.basis = list(self.identity_col)

    def _pivot(self, row: int, col: int) -> None:
        """Fraction-free pivot; the pivot row is kept and becomes the new d."""
        prow = self.rows[row]
        p, d = prow[col], self.d
        for r, other in enumerate(self.rows):
            if r == row:
                continue
            f = other[col]
            if f:
                self.rows[r] = [(v * p - f * q) // d for v, q in zip(other, prow)]
            elif p != d:
                self.rows[r] = [v * p // d for v in other]
        if p < 0:  # only a phase-1 artificial leaves on a negative entry
            self.rows = [[-v for v in other] for other in self.rows]
            p = -p
        self.d = p
        self.basis[row] = col

    def _run(self, allowed_cols) -> str:
        """Pivot to optimality (objective row = reduced costs z_j - c_j)."""
        obj = self.rows[self.m]
        rhs_col = self.rhs_col
        while True:
            enter = -1
            for j in allowed_cols:
                if obj[j] < 0:
                    enter = j
                    break  # Bland: smallest improving index
            if enter < 0:
                return "optimal"
            leave = -1
            for i in range(self.m):
                row = self.rows[i]
                coef = row[enter]
                if coef > 0:
                    if leave < 0:
                        leave, num, den = i, row[rhs_col], coef
                        continue
                    # ratio row[rhs] / coef against num / den, both denominators > 0
                    lhs, rhs = row[rhs_col] * den, num * coef
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[rhs_col], coef
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)
            obj = self.rows[self.m]

    def set_objective(self, costs: dict[int, int | Fraction]) -> None:
        """Install the objective row for max sum costs[j] * var_j, with each
        slack and artificial priced per scaled unit, and price out the basis."""
        keys, self.obj_scale = integer_keys(costs.values())
        self.costs = dict(zip(costs, keys))
        obj = [0] * self.width
        for j, c in self.costs.items():
            obj[j] = -c * self.d
        for i in range(self.m):
            c = self.costs.get(self.basis[i], 0)
            if c:
                obj = [o + c * v for o, v in zip(obj, self.rows[i])]
        self.rows = self.rows[: self.m] + [obj]

    def value(self, i: int) -> Fraction:
        """The right-hand side of row i; the objective's when i == m."""
        scale = self.obj_scale if i == self.m else 1
        return Fraction(self.rows[i][self.rhs_col], self.d * scale)

    def row_duals(self) -> list[Fraction]:
        """Multipliers of the original rows, read off the identity columns: the
        reduced cost plus the cost of row i's identity column, per unit of the
        input row (scale times per scaled unit), with the row's sign."""
        obj, d = self.rows[self.m], self.d
        den = d * self.obj_scale
        return [
            Fraction(sign * scale * (obj[col] + self.costs.get(col, 0) * d), den)
            for sign, scale, col in zip(self.signs, self.scales, self.identity_col)
        ]


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> LPResult:
    """Maximise objective.x subject to a_ub x <= b_ub and x >= 0."""
    n_vars = len(objective)
    tab = _Tableau(a_ub, b_ub, n_vars)
    structural_and_slack = range(n_vars + tab.m)

    # phase 1: drive artificials to zero; an artificial costs 1 per unit of
    # its input row, which is 1/scale per scaled unit
    if tab.artificials:
        tab.set_objective(
            {
                col: Fraction(-1, scale)
                for col, scale in zip(tab.identity_col, tab.scales)
                if col in tab.artificials
            }
        )
        status = tab._run(structural_and_slack)
        assert status == "optimal"  # phase-1 objective is bounded by 0
        if tab.value(tab.m) < 0:
            return LPResult(status="infeasible", farkas=tab.row_duals())
        # pivot basic artificials out where possible
        for i in range(tab.m):
            if tab.basis[i] in tab.artificials:
                for j in structural_and_slack:
                    if tab.rows[i][j] != 0:
                        tab._pivot(i, j)
                        break

    # phase 2
    tab.set_objective({j: _rational(c) for j, c in enumerate(objective)})
    status = tab._run(structural_and_slack)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [Fraction(0)] * n_vars
    for i, col in enumerate(tab.basis):
        if col < n_vars:
            x[col] = tab.value(i)
    return LPResult(status="optimal", x=x, objective=tab.value(tab.m), duals=tab.row_duals())


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
