"""Exact rational linear programming: one feasible-start simplex.

`simplex_standard` maximizes c.z over z >= 0 and rows coeffs.z <= rhs
with every rhs >= 0, so z = 0 is feasible and the slack basis is a
starting vertex: there is no phase 1.  Every LP in the package is
written in this form: the norm's ray LP (norm.ray_lp), the strict-cell LP
of the oracle's arrangement (pwl._strict_cell_point) and the
cell-assignment oracle (norm.norm_by_cell_assignment).  Bland's rule
makes termination unconditional, so optimal/unbounded is a total
classification; an optimal result carries its dual multipliers.

The arithmetic is on Python integers: a fraction-free tableau (Edmonds,
1967; the integer pivoting of Avis's lrs).  Row i, rhs included, is
multiplied by s_i, the lcm of its denominators, and the objective by s_0.
Row i's slack becomes u_i = s_i * slack_i, whose column is the unit
vector, so the start basis is still the identity.  The tableau is D times
the rational tableau of this scaled problem, D being the determinant of
the current basis: pivoting on p = T[r][e] keeps row r and replaces every
other row, the objective row included, by (p*row - row[e]*T[r]) / D, an
exact division, and then D = p.  Positive row and objective scales change
neither the signs of the reduced costs nor the order of the ratios, so
Bland's rule takes the pivots it would take on the unscaled rational
tableau.  At the end a basic z_j in row i is T[i][-1] / D, the value is
-T_obj[-1] / (D * s_0), and the dual of row i is
-T_obj[n+i] * s_i / (D * s_0): slack_i's column is s_i times u_i's.

The result keeps the optimum on the tableau's common divisor: the point
as the int numerators T[i][-1] over D, and the duals as the int weights
-T_obj[n+i] * s_i over D * s_0, D and s_0 being positive.  Only the value
is a Fraction, so a caller such as norm.ray_lp checks the duals and reads
the point's support on ints; LpResult.point and .duals build Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InternalFaultError
from .qmath import clear_denominators


class LpResult(
    namedtuple(
        "LpResult",
        "status value numerators divisor weights weight_divisor",
        defaults=(None,) * 5,
    )
):
    """status is "optimal" or "unbounded"; only an optimal result has the
    rest.  value is a rational; the optimal point and the duals stay on the
    tableau's ints: z_j = numerators[j] / divisor and
    y_i = weights[i] / weight_divisor, both divisors positive.  point and
    duals build them as Fractions."""

    __slots__ = ()

    @property
    def point(self) -> tuple[Fraction, ...] | None:
        if self.numerators is None:
            return None
        return tuple(Fraction(z, self.divisor) for z in self.numerators)

    @property
    def duals(self) -> tuple[Fraction, ...] | None:
        if self.weights is None:
            return None
        return tuple(Fraction(w, self.weight_divisor) for w in self.weights)


class _Tableau:
    """Fraction-free simplex tableau over the integers.

    Columns 0..ncols-1 are variables (structural, then slack); the last
    column is the rhs.  `basis[i]` is the variable occupying row i, and
    every entry is `divisor` times the entry of the rational tableau.
    """

    def __init__(self, rows: list[list[int]], obj: list[int], basis: list[int]):
        self.rows = rows
        self.obj = obj
        self.basis = basis
        self.ncols = len(obj) - 1
        self.divisor = 1

    def pivot(self, row: int, col: int) -> None:
        piv_row = self.rows[row]
        p = piv_row[col]
        d = self.divisor

        def eliminate(target: list[int]) -> list[int]:
            m = target[col]
            if m:
                new = [p * v - m * w for v, w in zip(target, piv_row)]
            else:
                new = [p * v for v in target]
            if d == 1:
                return new
            if any(x % d for x in new):
                raise InternalFaultError("fraction-free pivot left a remainder")
            return [x // d for x in new]

        self.rows = [
            target if target is piv_row else eliminate(target)
            for target in self.rows
        ]
        self.obj = eliminate(self.obj)
        self.divisor = p
        self.basis[row] = col

    def run(self) -> str:
        """Maximize until no reduced cost is positive (Bland's rule)."""
        while True:
            obj = self.obj
            enter = next((j for j in range(self.ncols) if obj[j] > 0), -1)
            if enter < 0:
                return "optimal"
            # min rhs/a over a > 0, compared by cross-multiplying (a, a' > 0)
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave >= 0:
                        left, right = row[-1] * best_a, best_rhs * a
                        if left > right or (
                            left == right and self.basis[i] > self.basis[leave]
                        ):
                            continue
                    leave, best_a, best_rhs = i, a, row[-1]
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def simplex_standard(c, rows) -> LpResult:
    """max c.z subject to rows (coeffs, rhs), meaning coeffs.z <= rhs, and z >= 0.

    Every rhs must be nonnegative.  An optimal result carries the duals:
    duals[i] >= 0 is the multiplier of row i, with Sum_i duals[i] * rhs_i
    equal to the value and Sum_i duals[i] * coeffs_i >= c columnwise.  The
    point and the duals are returned on ints over their divisors
    (LpResult).
    """
    obj, obj_scale = clear_denominators(c)
    n = len(obj)
    m = len(rows)
    int_rows = []
    row_scales = []
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        if rhs < 0:
            raise ValueError("a row's rhs must be nonnegative")
        scaled, s = clear_denominators([*coeffs, rhs])
        slack = [0] * m
        slack[i] = 1
        int_rows.append(scaled[:n] + slack + scaled[n:])
        row_scales.append(s)
    tab = _Tableau(int_rows, obj + [0] * (m + 1), list(range(n, n + m)))

    if tab.run() == "unbounded":
        return LpResult(status="unbounded")
    numerators = [0] * n
    for i, col in enumerate(tab.basis):
        if col < n:
            numerators[col] = tab.rows[i][-1]
    scale = tab.divisor * obj_scale
    return LpResult(
        status="optimal",
        value=Fraction(-tab.obj[-1], scale),
        numerators=tuple(numerators),
        divisor=tab.divisor,
        weights=tuple(-tab.obj[n + i] * s for i, s in enumerate(row_scales)),
        weight_divisor=scale,
    )
