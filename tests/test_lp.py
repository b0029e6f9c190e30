import random
from fractions import Fraction

import pytest

from latfree import lp
from latfree.errors import InternalFaultError
from latfree.lp import simplex_standard
from latfree.norm import norm_certificate, parse_space
from latfree.pwl import PwlFunction
from latfree.sampling import random_expr

F = Fraction


class TestSolveLp:
    """Small LPs whose optimal vertex or unboundedness is known by hand."""

    def test_bounded_maximum_attained_at_vertex(self):
        res = simplex_standard(
            (F(3), F(2)),
            [
                ((F(1), F(1)), F(4)),
                ((F(1), F(0)), F(2)),
                ((F(0), F(1)), F(3)),
            ],
        )
        assert res.status == "optimal"
        assert res.value == 10
        assert res.point == (F(2), F(2))

    def test_unbounded(self):
        res = simplex_standard((F(1),), [((F(-1),), F(0))])
        assert res.status == "unbounded"

    def test_exact_rational_vertex(self):
        res = simplex_standard(
            (F(1), F(1)),
            [
                ((F(3), F(1)), F(1)),
                ((F(1), F(3)), F(1)),
            ],
        )
        assert res.status == "optimal"
        assert res.point == (F(1, 4), F(1, 4))
        assert res.value == F(1, 2)


class TestSimplexStandard:
    def test_duals_certify_optimum(self):
        c = (F(5), F(4))
        rows = [
            ((F(6), F(4)), F(24)),
            ((F(1), F(2)), F(6)),
        ]
        res = simplex_standard(c, rows)
        assert res.status == "optimal"
        assert res.value == 21
        _assert_duals_certify(c, rows, res)

    def test_degenerate_problem_terminates(self):
        c = (F(1), F(1), F(1))
        rows = [
            ((F(1), F(1), F(0)), F(1)),
            ((F(1), F(0), F(1)), F(1)),
            ((F(0), F(1), F(1)), F(1)),
            ((F(1), F(1), F(1)), F(1)),
        ]
        res = simplex_standard(c, rows)
        assert res.status == "optimal"
        assert res.value == 1

    @pytest.mark.parametrize(
        "rows",
        [[((F(1),), F(-1))], [((F(1), F(1)), F(1))]],
        ids=["negative_rhs", "width_mismatch"],
    )
    def test_malformed_rows_are_refused(self, rows):
        with pytest.raises(ValueError):
            simplex_standard((F(1),), rows)


def _assert_duals_certify(c, rows, res):
    """y >= 0, y.b equals the optimum, and y^T A >= c columnwise."""
    y = res.duals
    assert y is not None and len(y) == len(rows)
    assert all(v >= 0 for v in y)
    assert sum(yi * r[1] for yi, r in zip(y, rows)) == res.value
    for j in range(len(c)):
        assert sum(yi * r[0][j] for yi, r in zip(y, rows)) >= c[j]


def _random_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    c = tuple(F(rng.randint(-4, 4)) for _ in range(n))
    rows = []
    for _ in range(m):
        coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        rows.append((coeffs, F(rng.randint(0, 6))))
    return c, rows


def test_differential_against_scipy():
    scipy = pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = random.Random(42)
    agreements = 0
    for _ in range(120):
        c, rows = _random_lp(rng)
        res = simplex_standard(c, rows)
        a_ub = [[float(v) for v in r[0]] for r in rows]
        b_ub = [float(r[1]) for r in rows]
        ref = linprog(
            [-float(v) for v in c],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * len(c),
            method="highs",
        )
        if res.status == "optimal":
            assert ref.status == 0
            assert abs(float(res.value) - (-ref.fun)) < 1e-7
            _assert_duals_certify(c, rows, res)
            agreements += 1
        elif res.status == "unbounded":
            # x = 0 is feasible for every sampled instance (b >= 0), but
            # HiGHS presolve reports dual infeasibility of an unbounded
            # primal as status 2, so accept either unbounded flavor here.
            assert ref.status in (2, 3)
        else:
            raise AssertionError(f"unexpected status {res.status}")
    assert agreements > 30  # the sampler produces plenty of bounded instances


# ---------------------------------------------------------------------------
# differential check against the rational tableau the integer one replaced
# ---------------------------------------------------------------------------


class _FractionTableau:
    """The dense Fraction tableau, kept here as the reference."""

    def __init__(self, nrows, ncols):
        self.rows = [[F(0)] * (ncols + 1) for _ in range(nrows)]
        self.obj = [F(0)] * (ncols + 1)
        self.basis = [-1] * nrows
        self.ncols = ncols
        self.pivots = []

    def pivot(self, row, col):
        self.pivots.append((row, col))
        piv_row = self.rows[row]
        inv = 1 / piv_row[col]
        self.rows[row] = piv_row = [v * inv for v in piv_row]
        for target in self.rows + [self.obj]:
            if target is piv_row:
                continue
            factor = target[col]
            if factor != 0:
                for j, pv in enumerate(piv_row):
                    if pv != 0:
                        target[j] -= factor * pv
        self.basis[row] = col

    def run(self):
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


def _fraction_simplex(c, rows):
    """((status, value, point, duals), pivots) from the reference tableau."""
    c = [F(v) for v in c]
    n, m = len(c), len(rows)
    tab = _FractionTableau(m, n + m)
    for i, (coeffs, rhs) in enumerate(rows):
        row = tab.rows[i]
        row[:n] = map(F, coeffs)
        row[n + i] = F(1)
        row[-1] = F(rhs)
        tab.basis[i] = n + i
    tab.obj[:n] = c
    if tab.run() == "unbounded":
        return ("unbounded", None, None, None), tab.pivots
    point = [F(0)] * n
    for i, col in enumerate(tab.basis):
        if col < n:
            point[col] = tab.rows[i][-1]
    duals = tuple(-tab.obj[n + i] for i in range(m))
    return ("optimal", -tab.obj[-1], tuple(point), duals), tab.pivots


@pytest.fixture
def integer_simplex(monkeypatch):
    """simplex_standard returning (LpResult, pivots) by recording _Tableau.pivot."""
    pivots = []
    original = lp._Tableau.pivot

    def recorded(self, row, col):
        pivots.append((row, col))
        return original(self, row, col)

    monkeypatch.setattr(lp._Tableau, "pivot", recorded)

    def solve(c, rows):
        pivots.clear()
        res = simplex_standard(c, rows)
        return res, list(pivots)

    return solve


def _fractional_lp(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)

    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.randint(1, 6))

    c = tuple(q(-7, 7) for _ in range(n))
    rows = [(tuple(q(-5, 5) for _ in range(n)), q(0, 9)) for _ in range(m)]
    return c, rows


def _degenerate_lp(rng):
    """Few distinct coefficients, many rhs-0 rows and repeated rows: ties."""
    n = rng.randint(1, 5)
    m = rng.randint(2, 6)
    c = tuple(F(rng.choice((-1, 0, 1, 1, 2))) for _ in range(n))
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
            continue
        coeffs = tuple(F(rng.choice((-1, 0, 1, 1, 2))) for _ in range(n))
        rows.append((coeffs, F(rng.choice((0, 0, 1, 2)))))
    return c, rows


def _edge_lp(rng, i):
    """m = 0 (optimal at 0 or unbounded) and n = 0 (optimal at the empty point)."""
    if i % 2:
        n = rng.randint(1, 3)
        return tuple(F(rng.randint(-3, 2), rng.randint(1, 3)) for _ in range(n)), []
    m = rng.randint(1, 3)
    return (), [((), F(rng.randint(0, 4), rng.randint(1, 3))) for _ in range(m)]


def _vertex_lps(monkeypatch):
    """(objective, rows) of the vertex LP of 60 seeded exact norms."""
    import latfree.norm as norm_module

    captured = []

    def capture(c, rows):
        captured.append((list(c), [(list(r), b) for r, b in rows]))
        return simplex_standard(c, rows)

    monkeypatch.setattr(norm_module, "simplex_standard", capture)
    rng = random.Random(8)
    for i in range(60):
        kind = ("fvl", "seq:1", "seq:inf")[i % 3]
        dim = 2 + i % 2
        space = parse_space(f"{kind}:{dim}")
        f = PwlFunction.from_expr(random_expr(rng, dim, max_pieces=3), dim)
        norm_certificate(f, space)
    monkeypatch.setattr(norm_module, "simplex_standard", simplex_standard)
    return captured


def test_integer_tableau_matches_the_fraction_tableau(integer_simplex, monkeypatch):
    rng = random.Random(2024)
    cases = [_fractional_lp(rng) for _ in range(120)]
    cases += [_degenerate_lp(rng) for _ in range(120)]
    cases += [_edge_lp(rng, i) for i in range(30)]
    vertex_lps = _vertex_lps(monkeypatch)
    assert len(vertex_lps) >= 55  # a zero element takes no LP
    cases += vertex_lps
    statuses = set()
    pivoted = 0
    for c, rows in cases:
        res, pivots = integer_simplex(c, rows)
        ref, ref_pivots = _fraction_simplex(c, rows)
        assert (res.status, res.value, res.point, res.duals) == ref
        # the point and the duals are ints over positive divisors
        if res.status == "optimal":
            assert res.divisor > 0 and res.weight_divisor > 0
            assert all(type(x) is int for x in res.numerators + res.weights)
        assert pivots == ref_pivots
        statuses.add(res.status)
        pivoted += bool(pivots)
    assert len(cases) >= 300
    assert statuses == {"optimal", "unbounded"}
    assert pivoted > 150


def test_a_remainder_is_an_internal_fault():
    # a divisor that is not the basis determinant leaves a remainder:
    # (2*[3, 0, 1, 1] - 3*[2, 1, 0, 1]) / 2 has -3/2 in column 1
    tab = lp._Tableau([[2, 1, 0, 1], [3, 0, 1, 1]], [1, 0, 0, 0], [1, 2])
    tab.divisor = 2
    with pytest.raises(InternalFaultError):
        tab.pivot(0, 0)
