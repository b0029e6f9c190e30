"""Exact rational linear programming: one feasible-start simplex.

`simplex_standard` maximizes c.z over z >= 0 and rows coeffs.z <= rhs
with every rhs >= 0, so z = 0 is feasible and the slack basis is a
starting vertex: there is no phase 1.  Every LP in the package (the cell
LP, the vertex LP and the cell-assignment oracle) is written in this
form.  Arithmetic is over Fraction, and Bland's rule makes termination
unconditional, so optimal/unbounded is a total classification; an optimal
result carries its dual multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


class _Tableau:
    """Dense simplex tableau over exact rationals.

    Columns 0..ncols-1 are variables (structural, then slack); the last
    column is the rhs.  `basis[i]` is the variable occupying row i.
    """

    def __init__(self, nrows: int, ncols: int):
        self.rows = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
        self.obj = [Fraction(0)] * (ncols + 1)
        self.basis = [-1] * nrows
        self.ncols = ncols

    def pivot(self, row: int, col: int) -> None:
        piv_row = self.rows[row]
        inv = 1 / piv_row[col]
        self.rows[row] = piv_row = [v * inv for v in piv_row]
        for target in self.rows:
            if target is piv_row:
                continue
            factor = target[col]
            if factor != 0:
                for j, pv in enumerate(piv_row):
                    if pv != 0:
                        target[j] -= factor * pv
        factor = self.obj[col]
        if factor != 0:
            for j, pv in enumerate(piv_row):
                if pv != 0:
                    self.obj[j] -= factor * pv
        self.basis[row] = col

    def run(self) -> str:
        """Maximize until no reduced cost is positive (Bland's rule)."""
        while True:
            enter = next((j for j in range(self.ncols) if self.obj[j] > 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def simplex_standard(c, rows) -> LpResult:
    """max c.z subject to rows (coeffs, rhs), meaning coeffs.z <= rhs, and z >= 0.

    Every rhs must be nonnegative.  An optimal result carries the duals:
    duals[i] >= 0 is the multiplier of row i, with Sum_i duals[i] * rhs_i
    equal to the value and Sum_i duals[i] * coeffs_i >= c columnwise.
    """
    c = [Fraction(v) for v in c]
    n = len(c)
    m = len(rows)
    tab = _Tableau(m, n + m)
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError("constraint width does not match objective")
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError("a row's rhs must be nonnegative")
        row = tab.rows[i]
        row[:n] = map(Fraction, coeffs)
        row[n + i] = Fraction(1)
        row[-1] = rhs
        tab.basis[i] = n + i
    tab.obj[:n] = c

    if tab.run() == "unbounded":
        return LpResult(status="unbounded")
    point = [Fraction(0)] * n
    for i, col in enumerate(tab.basis):
        if col < n:
            point[col] = tab.rows[i][-1]
    return LpResult(
        status="optimal",
        value=-tab.obj[-1],
        point=tuple(point),
        duals=tuple(-tab.obj[n + i] for i in range(m)),
    )
