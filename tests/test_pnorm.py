import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.errors import CapacityError, UnsupportedSpaceError
from latfree.pnorm import (
    _BITS,
    _root_bracket,
    admissibility_upper,
    admissible,
    budget_directions,
    dual_exponent,
    fvl_space,
    iroot,
    norm_leq,
    norm_upper,
    operator_upper,
    parse_space,
    peak_point,
    root_upper,
    seq_space,
    sign_patterns,
    worst_signed_sum,
)
from latfree.qmath import dot, format_fraction

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
        with pytest.raises(ValueError):
            root_upper(F(-1), 1)

    def test_first_root_is_the_rational_itself(self):
        for q in _random_rationals(1, 50) + [F(0), 7, F(1, 1 << 200)]:
            r = root_upper(q, 1)
            assert r == q and type(r) is F


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


def _sphere_partner(x):
    """y, 300 bits below (1 - x^(3/2))^(2/3): (x, y) is then within
    2^-290 inside the unit sphere of l_{3/2}."""
    _, hi = _root_bracket(x**3, 2, 300)
    y, _ = _root_bracket((1 - hi) ** 2, 3, 300)
    return y


class TestExactDecisions:
    """norm_leq and admissible decide exactly on a fractional exponent,
    where norm_upper and admissibility_upper round a root up."""

    def test_a_tuple_just_inside_the_ball_is_admissible(self):
        # seq:3:2 budgets in l_{3/2}: (1/2, y) with y = (1 - (1/2)^(3/2))^(2/3)
        # is on the sphere; y - 10^-30 is inside by about 10^-30, far below
        # the 2^-64 steps of the rounded bound, which lands above 1
        space = seq_space(3, 2)
        y = _sphere_partner(F(1, 2)) - F(1, 10**30)
        assert admissibility_upper([(F(1, 2), y)], space) > 1
        assert admissible([(F(1, 2), y)], space)
        assert not admissible([(F(1, 2), y + F(2, 10**30))], space)
        assert not admissible([(F(1, 2), y), (F(0), F(1, 10**20))], space)

    def test_norm_leq_on_fractional_p_matches_the_powers(self):
        # ||v||_{3/2} <= r exactly when Sum_j |v_j|^3 <= r^3 ... per term:
        # compare Sum_j sqrt(|v_j|^3) with r^(3/2) through squares of
        # brackets 400 bits wide
        rng = random.Random(21)
        for _ in range(60):
            v = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            up = norm_upper(v, F(3, 2))
            for bound in (up, up - F(1, 2**70), up - F(1, 2**40), F(rng.randint(1, 40), 3)):
                terms = [_root_bracket(abs(x / bound) ** 3, 2, 400) for x in v]
                lo = sum(t[0] for t in terms)
                hi = sum(t[1] for t in terms)
                assert lo > 1 or hi <= 1, "the reference bracket is too wide"
                assert norm_leq(v, F(3, 2), bound) == (hi <= 1)

    def test_int_entries_and_bound_stay_exact(self):
        # int / int would be a float, which has no numerator to root
        assert norm_leq((1, 0), F(3, 2), 1)
        assert not norm_leq((1, 1), F(3, 2), 1)

    def test_a_rational_boundary_is_decided(self):
        # ||(1/4, 0)||_{3/2} = 1/4: each term |v_j / bound|^(3/2) is
        # rational, so the sum meets 1 exactly and brackets cannot split it
        assert norm_leq((F(1, 4), F(0)), F(3, 2), F(1, 4))
        assert not norm_leq((F(1, 4), F(0)), F(3, 2), F(1, 4) - F(1, 10**40))
        assert norm_leq((F(9, 16), F(0)), F(3), F(9, 16))
        assert norm_leq((F(0), F(0)), F(3, 2), F(0))
        assert not norm_leq((F(1, 10**50), F(0)), F(3, 2), F(0))

    @pytest.mark.parametrize("p", [F(2), F(3, 2), F(3), F(7, 3)])
    def test_worst_signed_sum_is_the_admissibility(self, p):
        # u is a positive multiple of a signed sum whose own bound is the
        # tuple's bound
        rng = random.Random(f"worst {p}")
        for _ in range(30):
            pts = _mixed_points(rng)
            space = seq_space(p, len(pts[0]))
            bound, u = worst_signed_sum(pts, space)
            assert bound == admissibility_upper(pts, space)
            if not any(u):
                assert bound == 0
                continue
            matches = []
            for s in sign_patterns(len(pts)):
                c = [sum(si * x[j] for si, x in zip(s, pts)) for j in range(len(pts[0]))]
                ratios = {F(a) / b if b else 0 for a, b in zip(u, c) if a or b}
                if len(ratios) == 1 and ratios.pop() > 0:
                    matches.append(c)
            assert any(admissibility_upper([c], space) == bound for c in matches)

    @pytest.mark.parametrize("p", [F(2), F(3, 2), F(3), F(7, 3)])
    def test_a_scale_divides_the_points(self, p):
        # int points over a scale give the bound and u of the Fraction
        # points, whatever factor the points and the scale share
        rng = random.Random(f"scale {p}")
        for _ in range(30):
            dim = rng.randint(1, 3)
            common = rng.choice([1, 2, 6])
            pts = [tuple(common * rng.randint(-9, 9) for _ in range(dim))
                   for _ in range(rng.randint(1, 3))]
            scale = common * rng.choice([1, 2, 5, 12, 1 << 64])
            space = seq_space(p, dim)
            fractions = [tuple(F(x, scale) for x in pt) for pt in pts]
            bound, u = worst_signed_sum(pts, space, scale)
            want, want_u = worst_signed_sum(fractions, space)
            assert (bound, list(u)) == (want, list(want_u))

    @pytest.mark.parametrize("p", [F(2), F(3, 2), F(3), F(7, 3)])
    def test_disjoint_supports_take_the_all_plus_sum(self, p):
        # no two points share a coordinate, so every signed sum has the
        # same |entries|: the bound and u are those of the full max over
        # the sign vectors, the all-plus sum being the first
        rng = random.Random(f"disjoint {p}")
        for _ in range(30):
            dim = rng.randint(2, 5)
            owner = [rng.randrange(4) for _ in range(dim)]
            pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) if owner[j] == i else F(0)
                         for j in range(dim)) for i in range(rng.randint(1, 4))]
            space = seq_space(p, dim)
            bound, u = None, None
            for s in sign_patterns(len(pts)):
                c = [sum(si * x[j] for si, x in zip(s, pts)) for j in range(dim)]
                if bound is None or admissibility_upper([c], space) > bound:
                    bound, u = admissibility_upper([c], space), c
            got, got_u = worst_signed_sum(pts, space)
            assert got == bound
            assert len({F(a) / b for a, b in zip(got_u, u) if b}) <= 1
            assert all(a * b > 0 for a, b in zip(got_u, u) if b)

    def test_a_basis_past_the_sign_vector_cap_takes_one_sum(self):
        # 2^19 sign vectors, were they enumerated: the bound is
        # ||(1, .., 1)||_q, sqrt(20) on seq:2, and on seq:7/4 (q = 7/3) the
        # exact decision reads the one sum too
        basis = [tuple(int(i == j) for j in range(20)) for i in range(20)]
        start = time.perf_counter()
        bound, u = worst_signed_sum(basis, seq_space(2, 20))
        assert (bound, list(u)) == (root_upper(20, 2), [1] * 20)
        assert not admissible(basis, seq_space(F(7, 4), 20))
        assert time.perf_counter() - start < 1


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


# ---------------------------------------------------------------------------
# the int paths against the Fraction formulas they replaced
# ---------------------------------------------------------------------------


def _fraction_bracket(q, k, bits):
    """The bracket on Fraction(q), as root_upper took it before its int path."""
    q = F(q)
    num, den = iroot(q.numerator, k), iroot(q.denominator, k)
    if num**k == q.numerator and den**k == q.denominator:
        return F(num, den), F(num, den)
    low = iroot((q.numerator << (k * bits)) // q.denominator, k)
    return F(low, 1 << bits), F(low + 1, 1 << bits)


def _fraction_root_upper(q, k):
    q = F(q)
    return q if k == 1 else _fraction_bracket(q, k, _BITS)[1]


def _fraction_norm_upper(v, p):
    """Each |v_j| ** p as a Fraction, summed from Fraction(0)."""
    if p == "inf":
        return max((abs(x) for x in v), default=F(0))
    if p == 1:
        return sum((abs(x) for x in v), F(0))
    a, b = p.numerator, p.denominator
    total = sum((_fraction_root_upper(abs(x) ** a, b) for x in v), F(0))
    return _fraction_root_upper(total**b, a)


def _fraction_peak_point(a, p):
    e = p - 1
    return tuple(
        (1 if c > 0 else -1) * _fraction_root_upper(abs(c) ** e.numerator, e.denominator)
        for c in a
    )


def _fraction_polyhedral_admissibility(points, space):
    return max(
        sum((abs(dot(x, b)) for x in points), F(0)) for b in budget_directions(space)
    )


EXPONENTS = [F(1), F(3, 2), F(2), F(5, 2), F(7, 3), F(1000, 999), "inf"]

_ints = st.integers(-10**4, 10**4)
_fractions = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4)


@st.composite
def _vectors(draw, dim=None):
    """An int vector, a Fraction vector (integral entries as Fractions too),
    a zero vector, or a vector of perfect powers and their negatives."""
    n = draw(st.integers(1, 4)) if dim is None else dim
    kind = draw(st.sampled_from(["int", "fraction", "zero", "powers"]))
    if kind == "int":
        return [draw(_ints) for _ in range(n)]
    if kind == "fraction":
        return [F(draw(st.one_of(_fractions, _ints))) for _ in range(n)]
    if kind == "zero":
        return [draw(st.sampled_from([0, F(0)])) for _ in range(n)]
    k = draw(st.sampled_from([2, 3]))
    return [
        draw(st.sampled_from([1, -1]))
        * F(draw(st.integers(0, 9)) ** k, draw(st.integers(1, 9)) ** k)
        for _ in range(n)
    ]


_rationals = st.one_of(
    st.integers(0, 10**40),
    st.fractions(min_value=0, max_value=10**12, max_denominator=10**12),
    st.builds(lambda n, d, k: F(n**k, d**k), st.integers(0, 10**6), st.integers(1, 10**6),
              st.sampled_from([2, 3, 7, 999])),
)


class TestIntPathsMatchTheFractionFormulas:
    """Each int path of this module gives the Fraction formula's number, on
    seeded inputs: ints, Fractions, zeros and perfect k-th powers."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_rationals, st.sampled_from([1, 2, 3, 7, 999]))
    def test_root_upper_and_bracket(self, q, k):
        r = root_upper(q, k)
        assert r == _fraction_root_upper(q, k) and type(r) is F
        for bits in (_BITS, 200):
            assert _root_bracket(q, k, bits) == _fraction_bracket(q, k, bits)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_vectors(), st.sampled_from(EXPONENTS))
    def test_norm_upper(self, v, p):
        got = norm_upper(v, p)
        assert got == _fraction_norm_upper(v, p)
        if p != "inf":
            assert type(got) is F

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_vectors(), st.sampled_from([e for e in EXPONENTS if e not in (1, "inf")]))
    def test_peak_point(self, a, p):
        peak = peak_point(a, p)
        assert peak == _fraction_peak_point(a, p)
        if (p - 1).denominator == 1 and all(type(c) is int for c in a):
            assert all(type(x) is int for x in peak)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data(), st.sampled_from(["fvl", "seq:1", "seq:inf"]), st.integers(1, 4))
    def test_polyhedral_admissibility(self, data, kind, dim):
        space = parse_space(f"{kind}:{dim}")
        points = data.draw(st.lists(_vectors(dim), min_size=1, max_size=3))
        got = admissibility_upper(points, space)
        assert got == _fraction_polyhedral_admissibility(points, space) and type(got) is F

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data(), st.sampled_from([F(2), F(3, 2), F(5, 4)]), st.integers(1, 3),
           st.integers(1, 10**6))
    def test_integral_q_signed_sums(self, data, p, dim, scale):
        # q = 2, 3, 5: the worst signed sum of the points / scale, its q-norm
        # taken on Fractions
        space = seq_space(p, dim)
        points = data.draw(st.lists(_vectors(dim), min_size=1, max_size=3))
        bound, u = worst_signed_sum(points, space, scale)
        q = dual_exponent(p)
        scaled = [[F(x) / scale for x in point] for point in points]
        sums = [
            [sum(si * x[j] for si, x in zip(s, scaled)) for j in range(dim)]
            for s in sign_patterns(len(points))
        ]
        norms = [_fraction_norm_upper(c, q) for c in sums]
        assert bound == max(norms) and type(bound) is F
        # u is a positive multiple of a sum of that norm
        assert any(
            norm == bound and len({F(a) / b for a, b in zip(u, c) if b}) <= 1
            and all((a > 0) == (b > 0) for a, b in zip(u, c))
            for norm, c in zip(norms, sums)
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(_ints, _fractions, st.integers(-10**40, 10**40)))
    def test_format_fraction(self, q):
        assert format_fraction(q) == str(F(q))

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter converts ints of any length to strings",
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_format_fraction_past_the_digit_limit(self, sign):
        limit = sys.get_int_max_str_digits()
        edge = 10**limit  # the first int of limit + 1 digits
        assert len(format_fraction(sign * (edge - 1))) == limit + (sign < 0)
        nines = "9" * (limit - 1)
        assert format_fraction(F(edge - 1, edge - 2)) == f"{nines}9/{nines}8"
        for q, digits in [
            (sign * edge, limit + 1),
            (sign * (10 * edge - 1), limit + 1),
            (sign * 10 * edge, limit + 2),
            (F(sign, edge), limit + 1),
            (F(sign * (edge + 1), 3), limit + 1),
            (F(sign * 7, 10**(3 * limit) + 1), 3 * limit + 1),
        ]:
            with pytest.raises(CapacityError) as exc:
                format_fraction(q)
            assert (exc.value.cap, exc.value.measured) == (limit, digits)
            assert str(exc.value).startswith(f"printed digits: {digits} exceeds the cap of {limit}")
