import functools
import operator
import random
import time
from fractions import Fraction

import pytest

from latfree.errors import CapacityError, UnsupportedSpaceError
from latfree.norm import _climb
from latfree.pnorm import (
    _BITS,
    admissibility_upper,
    dual_exponent,
    fvl_space,
    iroot,
    norm_leq,
    norm_upper,
    operator_upper,
    root_upper,
    seq_space,
    sign_patterns,
)

F = Fraction


def _random_rationals(seed, count):
    rng = random.Random(seed)
    return [
        F(rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10**6))
        for _ in range(count)
    ]


def _random_points(rng, dim):
    return [
        tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
        for _ in range(rng.randint(1, 3))
    ]


def _mixed_points(rng):
    """1-3 points in dimension 1-3, with denominators of up to 64 bits."""

    def rational():
        den = rng.choice([1, 2, 3, 12, 10**6, 1 << 64, rng.getrandbits(64) | 1])
        return F(rng.randint(-3 * den, 3 * den), den)

    dim = rng.randint(1, 3)
    return [tuple(rational() for _ in range(dim)) for _ in range(rng.randint(1, 3))]


class TestRoots:
    # high degrees arise from exponents like 1000/999
    @pytest.mark.parametrize("k", [2, 3, 7, 999, 1000])
    def test_iroot_is_the_floor_root(self, k):
        powers = [2**k, 3**k, (10**19 + 7) ** k, (10**19 + 7) << (k * 64)]
        near = [m + e for m in powers for e in (-1, 0, 1)]
        for n in [0, 1, 2, 7, 8, 9, 26, 27, 28, 10**40, 10**401, 3**300] + near:
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k

    @pytest.mark.parametrize(
        "q,k,root",
        [
            (F(0), 2, F(0)),
            (F(1), 3, F(1)),
            (F(4, 9), 2, F(2, 3)),
            (F(8, 27), 3, F(2, 3)),
            (F(10**402), 2, F(10**201)),
            (F(10**402), 3, F(10**134)),
            (F(64, 729), 2, F(8, 27)),
            (F(64, 729), 3, F(4, 9)),
        ],
    )
    def test_exact_on_perfect_powers(self, q, k, root):
        assert root_upper(q, k) == root

    @pytest.mark.parametrize("k", [2, 3])
    def test_bracket_is_one_step_wide(self, k):
        step = F(1, 2**_BITS)
        extremes = [F(2), F(10**401), F(1, 3), F(10**401 + 1, 7), F(1, 10**300)]
        for q in _random_rationals(k, 200) + extremes:
            r = root_upper(q, k)
            if r**k == q:
                continue
            assert r**k > q > (r - step) ** k
            assert r.denominator <= 2**_BITS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            root_upper(F(-1), 2)


class TestTargetSpace:
    def test_norm_upper_for_each_p(self):
        assert norm_upper((F(3), F(-4)), F(1)) == 7
        assert norm_upper((F(3), F(-4)), "inf") == 4
        assert norm_upper((F(3), F(4)), F(2)) == 5
        assert norm_upper((F(3), F(4)), F(3)) == root_upper(F(91), 3)
        # |4|^(3/2) + |9|^(3/2) = 35, so the norm is 35^(2/3)
        assert norm_upper((F(4), F(-9)), F(3, 2)) == root_upper(F(35) ** 2, 3)

    def test_norm_upper_is_certified_and_tight(self):
        # for p = 3 the decision compares cubes exactly
        rng = random.Random(5)
        for _ in range(50):
            v = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            up = norm_upper(v, F(3))
            assert norm_leq(v, F(3), up)
            assert not norm_leq(v, F(3), up - F(1, 2**_BITS))

    def test_three_halves_norm_brackets_the_root_sum(self):
        # ||v||^(3/2) = Sum_j sqrt(|v_j|^3), bracketed at 200 bits
        rng = random.Random(6)
        step = F(1, 2**200)
        for _ in range(50):
            v = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            # floor(sqrt(|x|^3) * 2^200) / 2^200 per term
            cubes = [abs(x) ** 3 for x in v]
            lo = sum(
                F(iroot((c.numerator << 400) // c.denominator, 2), 2**200)
                for c in cubes
            )
            hi = lo + step * len(v)
            up = norm_upper(v, F(3, 2))
            assert up**3 >= lo**2
            assert (up - F(1, 2**40)) ** 3 < hi**2

    def test_unsupported_p(self):
        # numerators and denominators above 1000 are refused
        for p in [F(1, 2), F(1001, 1000), F(1000001, 1000000), F(5000)]:
            with pytest.raises(UnsupportedSpaceError):
                seq_space(p, 2)
        assert seq_space(F(1000, 999), 2).p == F(1000, 999)

    def test_dimension_cap(self):
        assert fvl_space(32).dim == seq_space(2, 32).dim == 32
        for make in (fvl_space, lambda d: seq_space("inf", d)):
            with pytest.raises(CapacityError, match="space dimension: 33 exceeds"):
                make(33)

    def test_norm_leq_near_the_boundary(self):
        assert norm_leq((F(3), F(4)), F(2), F(5))
        assert not norm_leq((F(3), F(4)), F(2), F(5) - F(1, 10**30))
        assert norm_leq((F(1), F(0)), F(3, 2), F(1))
        # ||(1, 1)||_{3/2} = 2^(2/3) = 1.5874010519681994...
        assert norm_leq((F(1), F(1)), F(3, 2), F(15874010519682, 10**13))
        assert not norm_leq((F(1), F(1)), F(3, 2), F(15874010519681, 10**13))
        assert not norm_leq((F(1),), F(2), F(-1))


def _signed_power(points, q):
    """max over signs s of ||Sum_i s_i x_i||_q ** q, for an integer q."""
    best = F(0)
    for s in sign_patterns(len(points)):
        combined = [
            sum(si * x[j] for si, x in zip(s, points)) for j in range(len(points[0]))
        ]
        best = max(best, sum(abs(c) ** q for c in combined))
    return best


class TestAdmissibility:
    def test_seq_inf_budget_directions_match_sign_patterns(self):
        rng = random.Random(11)
        space = seq_space("inf", 3)
        for _ in range(40):
            pts = _random_points(rng, 3)
            assert admissibility_upper(pts, space) == _signed_power(pts, 1)

    def test_fvl_is_the_column_budget(self):
        pts = [(F(1), F(-2)), (F(-3), F(1, 2))]
        assert admissibility_upper(pts, fvl_space(2)) == 4

    @pytest.mark.parametrize("p,q", [(F(2), 2), (F(3, 2), 3), (F(4, 3), 4)])
    def test_integer_dual_exponent_compares_powers(self, p, q):
        rng = random.Random(13)
        space = seq_space(p, 2)
        for _ in range(40):
            pts = _random_points(rng, 2)
            power = _signed_power(pts, q)
            up = admissibility_upper(pts, space)
            assert up == root_upper(power, q)
            # the rounded root is at most 1 exactly when the power is
            assert (up <= 1) == (power <= 1)
        # mixed denominators, and the sweep's copies scaled by a rounded
        # root, whose denominators have 64 bits
        rng = random.Random(f"mixed {q}")
        for _ in range(35):
            pts = _mixed_points(rng)
            space = seq_space(p, len(pts[0]))
            up = admissibility_upper(pts, space)
            scaled = [tuple(x / up for x in point) for point in pts] if up else pts
            for points in (pts, scaled):
                power = _signed_power(points, q)
                up = admissibility_upper(points, space)
                assert up == root_upper(power, q)
                assert (up <= 1) == (power <= 1)

    def test_non_integer_dual_exponent(self):
        # seq:3 budgets dual points in l_{3/2}
        space = seq_space(3, 2)
        assert admissibility_upper([(F(1), F(0))], space) == 1
        # ||(a, a)||_{3/2} = a * 2^(2/3) = a * 1.5874...
        assert admissibility_upper([(F(1, 2), F(1, 2))], space) < F(7938, 10000)
        assert admissibility_upper([(F(1, 2), F(1, 2))], space) > F(7937, 10000)
        # the fractional q keeps the max of the rounded-up q-norms
        rng = random.Random(3)
        for _ in range(10):
            pts = _mixed_points(rng)
            combined = [
                [sum(si * x[j] for si, x in zip(s, pts)) for j in range(len(pts[0]))]
                for s in sign_patterns(len(pts))
            ]
            assert admissibility_upper(pts, seq_space(3, len(pts[0]))) == max(
                norm_upper(c, F(3, 2)) for c in combined
            )

    @pytest.mark.parametrize(
        "space, points",
        [(seq_space("inf", 19), [(1,) * 19]), (seq_space(2, 2), [(1, 1)] * 19)],
        ids=["seq_inf_budget", "many_points"],
    )
    def test_sign_vectors_above_the_cap_are_refused(self, space, points):
        # 2^18 sign vectors, from the budget of seq:inf:19 or from the
        # signed sums of 19 points, are refused before any is built
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="sign vectors: 262144 exceeds"):
            admissibility_upper(points, space)
        assert time.perf_counter() - start < 1


def _left_fold(terms):
    return functools.reduce(operator.add, terms, 0)


def _whole_tuple_climb(value, q, start, steps):
    """The ascent's climb on given draws with the float budget of the whole
    tuple on every step, all sums from the left."""
    k = len(start)

    def budget(ps):
        combined = [
            [_left_fold(map(operator.mul, s, col)) for col in zip(*ps)]
            for s in sign_patterns(k)
        ]
        return max(_left_fold(abs(v) ** q for v in c) ** (1.0 / q) for c in combined)

    def score(ps):
        cn = budget(ps)
        return 0.0 if cn < 1e-12 else _left_fold(abs(value(x)) for x in ps) / max(1.0, cn)

    pts = [list(x) for x in start]
    try:
        best = score(pts)
    except OverflowError:
        return None
    step = 0.6
    for i, j, u in steps:
        cand = [list(x) for x in pts]
        cand[i][j] += step * u
        try:
            cn = budget(cand)
            if cn > 1e-12:
                cand = [[v / max(1.0, cn) for v in x] for x in cand]
            s = score(cand)
        except OverflowError:
            s = best
        if s > best:
            best, pts = s, cand
        else:
            step *= 0.985
    return pts


def _bent(x):
    return max(x) - 0.5 * min(x) + x[0]


class TestFloatAdmissibility:
    """The float budget the generated climb keeps as a table of columns,
    against a climb that takes the budget of the whole tuple on every
    step, on the same draws."""

    @pytest.mark.parametrize("p", [F(2), F(3, 2), F(3), F(7, 3)])
    def test_matches_the_whole_tuple_loop(self, p):
        rng = random.Random(f"columns {p}")
        q = float(dual_exponent(p))
        extremes = [0.0, -0.0, 1e100, -3e-200, 0.5]
        for d in (1, 2, 4):
            space = seq_space(p, d)
            for k in (1, 2, 3):
                climb = _climb(space, k)
                for trial in range(12):
                    start = [
                        [rng.choice(extremes) if trial % 3 == 0 else rng.uniform(-2, 2)
                         for _ in range(d)]
                        for _ in range(k)
                    ]
                    steps = [(rng.randrange(k), rng.randrange(d), rng.uniform(-1, 1))
                             for _ in range(40)]
                    got = climb(_bent, start, steps)
                    assert got is not None
                    assert got == _whole_tuple_climb(_bent, q, start, steps)
                assert _climb(space, k) is climb

    def test_a_power_past_the_float_range_raises(self):
        # at q = 1000, |2.0 + 0.5| ** q overflows: at the start the climb
        # returns None, and a step that reaches it is rejected
        climb = _climb(seq_space(F(1000, 999), 2), 2)
        assert climb(_bent, [[2.0, 1.0], [0.5, 0.0]], []) is None
        steps = [(0, 0, 1.0)] * 3
        start = [[1.9, 0.0], [0.0, 0.0]]
        assert _whole_tuple_climb(_bent, 1000.0, start, steps) == start
        assert climb(_bent, start, steps) == start


class TestOperatorUpper:
    def test_fvl_source_is_the_largest_column(self):
        m = ((F(3), F(0)), (F(0), F(-5)))
        assert operator_upper(m, fvl_space(2), seq_space("inf", 2)) == 5
        assert operator_upper(m, fvl_space(2), seq_space(1, 2)) == 5

    def test_seq_inf_source_takes_sign_vectors(self):
        m = ((F(1), F(1)), (F(1), F(-1)))
        assert operator_upper(m, seq_space("inf", 2), seq_space(1, 2)) == 2
        assert operator_upper(m, seq_space("inf", 2), seq_space("inf", 2)) == 2

    def test_riesz_thorin_bound_when_the_target_exponent_is_larger(self):
        ident = ((F(1), F(0)), (F(0), F(1)))
        assert operator_upper(ident, seq_space(2, 2), seq_space(2, 2)) == 1
        assert operator_upper(ident, seq_space(F(3, 2), 2), seq_space(3, 2)) == 1
        # diag(2, 1): Hoelder gives sqrt 5, Riesz-Thorin the true norm 2
        diag = ((F(2), F(0)), (F(0), F(1)))
        assert operator_upper(diag, seq_space(2, 2), seq_space(2, 2)) == 2

    def test_hoelder_bound_when_it_is_smaller(self):
        # [[1, 1], [0, 1]] on l2, given by its columns: Hoelder sqrt 3,
        # Riesz-Thorin 2
        m = ((F(1), F(0)), (F(1), F(1)))
        bound = operator_upper(m, seq_space(2, 2), seq_space(2, 2))
        assert bound == root_upper(F(3), 2)

    def test_hoelder_bound_alone_for_a_smaller_target_exponent(self):
        # the identity from l_{3/2} to l_1 has norm 2^(1/3)
        ident = ((F(1), F(0)), (F(0), F(1)))
        bound = operator_upper(ident, seq_space(F(3, 2), 2), seq_space(1, 2))
        assert bound == root_upper(F(2), 3)
        # x -> (x, x) from l_2 to l_1 has norm 2; its one column is (1, 1)
        assert operator_upper(((F(1), F(1)),), seq_space(2, 1), seq_space(1, 2)) == 2
