import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from latfree import lp
from latfree.errors import (
    CapacityError,
    DimensionError,
    InternalFaultError,
    UnsupportedSpaceError,
)
from latfree.expr import fold, parse
from latfree.lp import LpResult
from latfree.norm import (
    _MAX_RESTARTS,
    _ascent_draws,
    _ascent_restart,
    _ascent_tuples,
    _float_evaluator,
    _sweep_candidates,
    budget_directions,
    constraint_norm,
    evaluation_seminorm,
    functional_tuple,
    fvl_space,
    maximality_audit,
    norm_bounds,
    norm_by_cell_assignment,
    norm_certificate,
    norm_exact_polyhedral,
    parse_space,
    seq_space,
    tuple_admissible,
    tuple_seminorm_value,
)
from latfree.pnorm import dual_exponent
from latfree.pwl import PwlFunction, make_pwl, pieces_and_kinks, rays
from latfree.sampling import random_expr

F = Fraction


def pw(text: str, n: int) -> PwlFunction:
    return PwlFunction.from_expr(parse(text, n), n)


def fold_sum(terms):
    """0 + t_1 + t_2 + ..., summed from the left: Python 3.11's float sum,
    which 3.12's compensated builtin sum no longer gives."""
    return functools.reduce(operator.add, terms, 0)


def counting(calls, name, real):
    """real, counting each call in calls[name]."""

    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)

    return wrapper


class TestSpaceSpec:
    @pytest.mark.parametrize(
        "text", ["fvl:2", "seq:inf:3", "seq:2:2", "seq:3/2:2", "seq:1:1"]
    )
    def test_round_trip(self, text):
        assert str(parse_space(text)) == text

    def test_polyhedral_flags(self):
        assert parse_space("fvl:2").is_polyhedral
        assert parse_space("seq:1:4").is_polyhedral
        assert parse_space("seq:inf:3").is_polyhedral
        assert not parse_space("seq:2:2").is_polyhedral

    @pytest.mark.parametrize(
        "bad", ["fvl:0", "seq:0.5:2", "seq:1/2:2", "vl:2", "seq:2", "fvl:x", ""]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(UnsupportedSpaceError):
            parse_space(bad)


class TestConstraintNorm:
    def test_basis_tuple_in_fvl(self):
        assert constraint_norm(functional_tuple(fvl_space(2), [(1, 0), (0, 1)])) == 1

    def test_opposite_signs_add_up(self):
        assert constraint_norm(functional_tuple(fvl_space(1), [(1,), (-1,)])) == 2

    def test_seq_inf_budget_is_worst_sign_combination(self):
        tup = functional_tuple(seq_space("inf", 2), [(1, 0), (0, 1)])
        assert constraint_norm(tup) == 2

    def test_seq_2_single_point(self):
        assert constraint_norm(functional_tuple(seq_space(2, 2), [(1, 0)])) == 1

    def test_admissibility_predicate(self):
        space = fvl_space(2)
        assert tuple_admissible(functional_tuple(space, [(F(1, 2), 0), (0, F(1, 2))]))
        assert not tuple_admissible(functional_tuple(space, [(2, 0)]))


class TestTupleSeminorm:
    def test_sums_absolute_values(self):
        f = pw(r"t1 \/ t2", 2)
        tup = functional_tuple(fvl_space(2), [(1, 0), (0, 1)])
        assert tuple_seminorm_value(f, tup) == 2

    def test_zero_tuple_gives_zero(self):
        f = pw(r"t1 \/ t2", 2)
        assert tuple_seminorm_value(f, functional_tuple(fvl_space(2), [(0, 0)])) == 0


EXACT_CASES = [
    (r"t1 \/ t2", 2, F(2)),
    (r"t1 \/ t2 \/ t3", 3, F(3)),
    ("|t1| + |t2|", 2, F(2)),
    ("t1 - t2", 2, F(2)),
    ("|t1|", 1, F(1)),
]


class TestExactPolyhedralNorm:
    @pytest.mark.parametrize("text,n,expected", EXACT_CASES)
    def test_frozen_values(self, text, n, expected):
        f = pw(text, n)
        cert = norm_exact_polyhedral(f, fvl_space(n))
        assert cert.exact
        assert cert.lower == expected == cert.upper
        assert cert.upper_method == "exact_match"

    @pytest.mark.parametrize("text,n,expected", EXACT_CASES)
    def test_witness_rescoring(self, text, n, expected):
        f = pw(text, n)
        cert = norm_exact_polyhedral(f, fvl_space(n))
        assert tuple_admissible(cert.witness)
        assert tuple_seminorm_value(f, cert.witness) == expected

    @pytest.mark.parametrize("text,n,expected", EXACT_CASES)
    def test_independent_assignment_oracle_agrees(self, text, n, expected):
        assert norm_by_cell_assignment(pw(text, n), fvl_space(n)) == expected

    def test_join_witness_is_the_basis_pair(self):
        cert = norm_exact_polyhedral(pw(r"t1 \/ t2", 2), fvl_space(2))
        assert set(cert.witness.points) == {(F(1), F(0)), (F(0), F(1))}

    def test_running_example_norm(self):
        f = pw(r"t1 /\ t2 + t1 \/ (2*t3)", 3)
        cert = norm_exact_polyhedral(f, fvl_space(3))
        assert cert.exact and cert.lower == 4 == cert.upper
        assert norm_by_cell_assignment(f, fvl_space(3)) == 4

    def test_zero_function(self):
        cert = norm_exact_polyhedral(pw("0*t1", 2), fvl_space(2))
        assert cert.lower == 0 == cert.upper and cert.exact

    def test_seq_inf_join(self):
        cert = norm_exact_polyhedral(pw(r"t1 \/ t2", 2), seq_space("inf", 2))
        assert cert.exact and cert.lower == 1 == cert.upper

    def test_embedded_vector_recovers_its_norm(self):
        xhat = make_pwl(parse("t1", 1), [(2, -3)])
        assert norm_exact_polyhedral(xhat, seq_space("inf", 2)).lower == 3
        assert norm_exact_polyhedral(xhat, seq_space(1, 2)).lower == 5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            norm_exact_polyhedral(pw("t1", 1), fvl_space(2))

    def test_non_polyhedral_space_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            norm_exact_polyhedral(pw("t1", 2), seq_space(2, 2))


# (id, tamper, message): a tampered ray-LP answer and the fault it raises
_DUAL_TAMPERS = [
    ("unbounded", lambda r: LpResult(status="unbounded"), "ended unbounded"),
    ("value_negated", lambda r: r._replace(value=-r.value), "negative norm"),
    ("value_zeroed", lambda r: r._replace(value=0), "does not match"),
    ("duals_missing", lambda r: r._replace(duals=None), "no usable duals"),
    ("duals_halved", lambda r: r._replace(duals=tuple(y / 2 for y in r.duals)), "does not match"),
    ("dual_negative", lambda r: r._replace(duals=(-r.duals[0],) + r.duals[1:]), "negative LP dual"),
    ("column_uncovered", lambda r: r._replace(duals=r.duals[::-1]), "fails to dominate"),
]
_WITNESS_TAMPERS = [
    ("point_scaled_up", lambda r: r._replace(point=tuple(2 * z for z in r.point)), "not admissible"),
    ("point_scaled_down", lambda r: r._replace(point=tuple(z / 2 for z in r.point)), "does not reproduce"),
]


def _tampered(monkeypatch, tamper):
    import latfree.norm as norm_module

    real = norm_module.simplex_standard
    monkeypatch.setattr(
        norm_module, "simplex_standard", lambda c, rows: tamper(real(c, rows))
    )


class TestVertexLpCertificate:
    """Every part of the ray LP's answer is checked again: a tampered
    answer is an internal fault, never a reported norm or bound.  For
    2*t1 + t2 on fvl:2 the LP gives value 3, duals (2, 1) and the witness
    {e1, e2}; on seq:2:2 its rows are e1 and e2, each with N = 1, so the
    sandwich's LP has the same value and duals."""

    @pytest.mark.parametrize(
        "tamper,message",
        [t[1:] for t in _DUAL_TAMPERS + _WITNESS_TAMPERS],
        ids=[t[0] for t in _DUAL_TAMPERS + _WITNESS_TAMPERS],
    )
    def test_tampered_answer_is_a_fault(self, monkeypatch, tamper, message):
        _tampered(monkeypatch, tamper)
        with pytest.raises(InternalFaultError, match=message):
            norm_exact_polyhedral(pw("2*t1 + t2", 2), fvl_space(2))

    @pytest.mark.parametrize(
        "tamper,message",
        [t[1:] for t in _DUAL_TAMPERS],
        ids=[t[0] for t in _DUAL_TAMPERS],
    )
    def test_tampered_bounds_answer_is_a_fault(self, monkeypatch, tamper, message):
        _tampered(monkeypatch, tamper)
        with pytest.raises(InternalFaultError, match=message):
            norm_bounds(pw("2*t1 + t2", 2), seq_space(2, 2), restarts=1)

    def test_untampered_answer_passes(self, monkeypatch):
        import latfree.norm as norm_module

        answers = []
        real = norm_module.simplex_standard

        def recorded(c, rows):
            answers.append(real(c, rows))
            return answers[-1]

        monkeypatch.setattr(norm_module, "simplex_standard", recorded)
        cert = norm_exact_polyhedral(pw("2*t1 + t2", 2), fvl_space(2))
        assert cert.lower == 3 == cert.upper
        (res,) = answers
        assert res.value == 3 and res.duals == (2, 1)
        assert sorted(z for z in res.point if z) == [1, 1]


class TestVertexLpWork:
    """Bland's rule fixes the pivot sequence, so the vertex LP's pivot and
    column counts are deterministic; a changed count flags a regression."""

    COUNTS = {  # (space, expression): (pivots, columns)
        ("fvl:4", "|t1|+|t2|+|t3|+|t4|"): (4, 8),
        ("fvl:4", "|t1-t2| + |t2-2*t3| + |t3+t4| + |t1+t4|"): (10, 32),
        ("seq:inf:3", "|t1|+|t2|+|t3|"): (5, 18),
        ("fvl:6", "|t1|+|t2|+|t3|+|t4|+|t5|+|t6|"): (6, 12),
        ("seq:inf:5", "|t1-t2|+|t2-t3|+|t3-t4|+|t4-t5|"): (525, 450),
    }

    # about ten times the 1.75-2.0 s of the seq:inf:5 path-sum on a 2-core
    # x86 box with Python 3.11
    BUDGET_S = 20

    @pytest.mark.parametrize("space,text", list(COUNTS))
    def test_pivot_and_column_counts(self, monkeypatch, space, text):
        import latfree.norm as norm_module

        counted = []
        real_pivot = lp._Tableau.pivot
        real_simplex = norm_module.simplex_standard

        def pivot(self, row, col):
            counted.append(col)
            return real_pivot(self, row, col)

        lengths = []

        def simplex(c, rows):
            lengths.append(len(c))
            return real_simplex(c, rows)

        monkeypatch.setattr(lp._Tableau, "pivot", pivot)
        monkeypatch.setattr(norm_module, "simplex_standard", simplex)
        spec = parse_space(space)
        t0 = time.perf_counter()
        norm_exact_polyhedral(pw(text, spec.dim), spec)
        elapsed = time.perf_counter() - t0
        assert elapsed < self.BUDGET_S, f"{elapsed:.1f}s exceeded {self.BUDGET_S}s"
        pivots, columns = self.COUNTS[space, text]
        assert lengths == [columns]
        assert len(counted) == pivots


class TestSandwichWork:
    """A sandwich builds one ray table from one pieces-and-kinks fold, and
    reads its LP upper bound, the zero test and the sweep's single points
    off it."""

    ARGV = ["norm", "--space", "seq:2:3", "--restarts", "4", "--seed", "1", "--expr"]

    @pytest.mark.parametrize("text", [r"(1*t3) /\ (2*t2)", "t1 - t1"])
    def test_one_ray_table_per_cli_sandwich(self, monkeypatch, capsys, text):
        import latfree.norm as norm_module
        import latfree.pwl as pwl_module
        from latfree import cli

        calls = {}
        for module in (norm_module, pwl_module):
            for name in ("rays", "pieces_and_kinks"):
                monkeypatch.setattr(
                    module, name, counting(calls, name, getattr(pwl_module, name))
                )
        assert cli.main(self.ARGV + [text]) == 0
        capsys.readouterr()
        assert calls == {"pieces_and_kinks": 1, "rays": 1}

    def test_ascent_work_of_the_cli_sandwich(self, monkeypatch, capsys):
        # the climb evaluates a point only where its value is read, and an
        # accepted rescaled candidate keeps the values it was scored with;
        # only the 17 re-scored tuples whose exact total can still win get
        # an exact admissibility, of 28 when every tuple got one
        import latfree.norm as norm_module
        from latfree import cli

        calls = {}
        real_evaluator = norm_module._float_evaluator

        def evaluator(f):
            return counting(calls, "value", real_evaluator(f))

        monkeypatch.setattr(norm_module, "_float_evaluator", evaluator)
        monkeypatch.setattr(
            norm_module, "admissibility_upper",
            counting(calls, "admissibility", norm_module.admissibility_upper),
        )
        assert cli.main(self.ARGV + [r"(1*t3) /\ (2*t2)"]) == 0
        capsys.readouterr()
        assert calls == {"value": 1463, "admissibility": 17}

    def test_one_value_kernel_per_cli_sandwich(self, monkeypatch, capsys):
        # the float kernel is built once and shared by the four restarts
        import latfree.norm as norm_module
        from latfree import cli

        calls = {}
        monkeypatch.setattr(
            norm_module, "_float_evaluator",
            counting(calls, "kernel", norm_module._float_evaluator),
        )
        monkeypatch.setattr(
            norm_module, "_ascent_restart",
            counting(calls, "restart", norm_module._ascent_restart),
        )
        assert cli.main(self.ARGV + [r"(1*t3) /\ (2*t2)"]) == 0
        capsys.readouterr()
        assert calls == {"kernel": 1, "restart": 4}


class TestCellAssignment:
    def test_duplicate_slots_never_improve(self):
        f = pw(r"t1 \/ t2", 2)
        base = norm_by_cell_assignment(f, fvl_space(2))
        for slot in range(4):
            assert norm_by_cell_assignment(f, fvl_space(2), duplicate_slot=slot) == base


class TestBudgetDirections:
    def test_fvl_budget_is_standard_basis(self):
        dirs = budget_directions(fvl_space(2))
        assert set(dirs) == {(F(1), F(0)), (F(0), F(1))}

    def test_seq_inf_budget_has_half_the_cube(self):
        dirs = budget_directions(seq_space("inf", 3))
        assert len(dirs) == 4
        assert all(d[0] == 1 for d in dirs)

    def test_float_p_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            budget_directions(seq_space(2, 2))


class TestRayLpUpper:
    """The sandwich's upper bound is the ray LP over the rows f reads."""

    def test_join_is_bounded_by_its_two_rows(self):
        # the duals (1, 1) on |t1| and |t2| are optimal: the bound is 2
        assert norm_bounds(pw(r"t1 \/ t2", 2), seq_space(2, 2), restarts=1).upper == 2

    def test_scaled_function_is_exact(self):
        cert = norm_bounds(pw("3*t1", 1), seq_space(2, 1), restarts=1)
        assert (cert.lower, cert.upper) == (3, 3)

    def test_abs_of_a_coordinate_is_exact(self):
        # |t1| <= |t1| on every ray: the one dual 1 on the row e1
        cert = norm_bounds(pw("|t1|", 2), seq_space(2, 2), restarts=1)
        assert (cert.lower, cert.upper) == (1, 1)

    def test_unread_rows_stay_out_of_the_upper_bound(self):
        # t1 reads row 1 only, so the LP has the one row (e_1, 1) and the
        # upper bound is 1, not the sum of all four rows' norms
        cert = norm_bounds(pw("t1", 4), seq_space(2, 4), restarts=2)
        assert (cert.lower, cert.upper) == (1, 1)


class TestNormBounds:
    def test_exact_on_polyhedral_space(self):
        # a polyhedral norm is exact: norm_bounds refuses it and names
        # norm_certificate, which returns it
        f = pw(r"t1 \/ t2", 2)
        for spec in (fvl_space(2), seq_space(1, 2), seq_space("inf", 2)):
            with pytest.raises(UnsupportedSpaceError, match="norm_certificate"):
                norm_bounds(f, spec, restarts=8, seed=7)
            cert = norm_certificate(f, spec, restarts=8, seed=7)
            assert cert.exact and cert.upper_method == "exact_match"

    def test_euclidean_pythagorean_vector_is_exact(self):
        xhat = make_pwl(parse("t1", 1), [(3, 4)])
        cert = norm_bounds(xhat, seq_space(2, 2), restarts=4, seed=1)
        assert cert.exact and cert.lower == 5 == cert.upper

    def test_euclidean_irrational_sandwich(self):
        xhat = make_pwl(parse("t1", 1), [(1, 1)])
        cert = norm_bounds(xhat, seq_space(2, 2), restarts=4, seed=1)
        assert not cert.exact
        assert cert.lower <= cert.upper
        assert abs(float(cert.lower) - math.sqrt(2)) < 1e-9
        assert float(cert.upper - cert.lower) < 1e-9

    def test_zero_function(self):
        cert = norm_bounds(pw("0*t1", 2), seq_space(2, 2))
        assert cert.lower == 0 == cert.upper and cert.exact

    @pytest.mark.parametrize("space", ["seq:3/2:2"])
    def test_zero_element_gets_the_zero_certificate(self, space):
        # kinks but no value: the LP value 0 is the zero test
        spec = parse_space(space)
        cert = norm_bounds(pw(r"t1 \/ t2 - t2 \/ t1", 2), spec, restarts=2)
        assert cert.lower == 0 == cert.upper and cert.upper_method == "ray_lp_dual"
        assert cert.witness.points == ((F(0), F(0)),)

    def test_nondegeneracy_of_small_elements(self):
        cert = norm_bounds(pw(r"1/7*(t1 /\ t2)", 2), seq_space(2, 2), restarts=4, seed=2)
        assert cert.lower > 0

    def test_witness_rescoring_matches_lower(self):
        f = pw(r"t1 - 2*t2", 2)
        cert = norm_bounds(f, seq_space(2, 2), restarts=4, seed=5)
        assert tuple_seminorm_value(f, cert.witness) == cert.lower

    def test_seq_three_halves_is_certified(self):
        # (1, 1) in l_{3/2} has norm 2^(2/3); lower and upper are rationals
        cert = norm_bounds(make_pwl(parse("t1", 1), [(1, 1)]), seq_space(F(3, 2), 2))
        assert cert.lower**3 <= 4 <= cert.upper**3
        assert not cert.exact

    @pytest.mark.parametrize(
        "settings", [{"restarts": -3}, {"restarts": -1}]
    )
    def test_invalid_search_settings_are_refused(self, settings):
        with pytest.raises(ValueError):
            norm_bounds(pw("t1 - t2", 2), seq_space(2, 2), **settings)

    def test_restarts_above_the_cap_are_refused(self):
        with pytest.raises(CapacityError, match="ascent restarts: 1025 exceeds the cap of 1024"):
            norm_bounds(pw("t1 - t2", 2), seq_space(2, 2), restarts=_MAX_RESTARTS + 1)

    def test_crossed_bounds_are_a_fault(self, monkeypatch):
        import latfree.norm as norm_module

        real = norm_module.ray_lp

        def halved(f, columns, rows):
            value, point = real(f, columns, rows)
            return value / 2, point

        monkeypatch.setattr(norm_module, "ray_lp", halved)
        with pytest.raises(InternalFaultError):
            norm_bounds(pw("t1 + t2", 2), seq_space(F(3, 2), 2), restarts=2)


def _reference_float_evaluator(f):
    """The one-point float evaluator the batched fold replaced, kept here
    as the reference."""
    comp = [[float(v) for v in row] for row in f.comp]

    def value(x):
        ys = [fold_sum(c * xi for c, xi in zip(row, x)) for row in comp]
        return fold(f.program, lambda i: ys[i - 1], lambda c, v: float(c) * v,
                    operator.add, max, min)

    return value


def _reference_admissibility_float(space):
    q = float(dual_exponent(space.exponent))

    def norm(c):
        return fold_sum(abs(v) ** q for v in c) ** (1.0 / q)

    def signed_sums(points):
        columns = list(zip(*points))
        for rest in itertools.product((1, -1), repeat=len(points) - 1):
            s = (1,) + rest
            yield tuple(fold_sum(si * v for si, v in zip(s, col)) for col in columns)

    return lambda points: max(map(norm, signed_sums(points)))


def _reference_ascent_restart(f, space, seed, r):
    """The hill-climb as it ran before, with a second budget on every step."""
    rng = random.Random((seed * 1_000_003 + r) & 0xFFFFFFFF)
    d = space.dim
    k = 1 + r % 3
    budget = _reference_admissibility_float(space)

    def score(ps):
        cn = budget(ps)
        if cn < 1e-12:
            return 0.0
        return fold_sum(abs(value(x)) for x in ps) / max(1.0, cn)

    pts = [[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(k)]
    try:
        value = _reference_float_evaluator(f)
        best = score(pts)
    except OverflowError:
        return None
    step = 0.6
    for _ in range(240):
        i = rng.randrange(k)
        j = rng.randrange(d)
        cand = [list(x) for x in pts]
        cand[i][j] += step * (2.0 * rng.random() - 1.0)
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


# every dual exponent q in {2, 3, 3/2, 7/4} and dimensions 1 to 8: the
# generated climb writes out each coordinate, so its code grows with d
ASCENT_SPACES = [
    "seq:2:1", "seq:2:2", "seq:3/2:2", "seq:2:3", "seq:3:2", "seq:7/3:3",
    "seq:7/3:4", "seq:2:6", "seq:3/2:8",
]


class TestAscentRestart:
    @pytest.mark.parametrize("text", ASCENT_SPACES)
    def test_points_equal_the_reference(self, text):
        space = parse_space(text)
        d = space.dim
        rng = random.Random(text)
        functions = [PwlFunction.from_expr(random_expr(rng, d, lattice_ops=3), d)]
        for _ in range(3):
            # fractional composition rows next to one coordinate row
            arity = rng.randint(1, 3)
            rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                    for _ in range(arity - 1)]
            rows.append([F(int(j == 0)) for j in range(d)])
            functions.append(make_pwl(random_expr(rng, arity, lattice_ops=2), rows))
        for f in functions:
            for seed in (0, 1):
                for r in range(6):
                    got = _ascent_restart(_float_evaluator(f), space, seed, r)
                    assert got is not None
                    assert got == _reference_ascent_restart(f, space, seed, r)

    @pytest.mark.parametrize(
        "text, expr, fits",
        [
            ("seq:2:2", "1" + "0" * 400 + "*t2", False),
            ("seq:2:2", r"t1 \/ 1" + "0" * 200 + "*t2", True),
            # the budget raises sums to the power q = 1000, past the float range
            ("seq:1000/999:2", r"t1 \/ 2*t2 - t1", True),
        ],
    )
    def test_overflow_matches_the_reference(self, text, expr, fits):
        # a coefficient past the float range fails the kernel's build, and
        # norm_bounds then runs no restart
        space, f = parse_space(text), pw(expr, 2)
        expected = [_reference_ascent_restart(f, space, 1, r) for r in range(6)]
        if fits:
            value = _float_evaluator(f)
            assert [_ascent_restart(value, space, 1, r) for r in range(6)] == expected
            assert None not in expected
        else:
            with pytest.raises(OverflowError):
                _float_evaluator(f)
            assert expected == [None] * 6

    def test_an_overflowing_start_returns_none(self):
        # at q = 1000 the three start points of restart 5 already overflow
        # the budget, so that restart returns None before its first step
        space, f = parse_space("seq:1000/999:3"), pw(r"t1 \/ 2*t2 - t3", 3)
        expected = [_reference_ascent_restart(f, space, 1, r) for r in range(6)]
        value = _float_evaluator(f)
        assert [_ascent_restart(value, space, 1, r) for r in range(6)] == expected
        assert [r for r, pts in enumerate(expected) if pts is None] == [5]

    def test_cold_and_warm_draws_give_the_same_points(self):
        # one (seed, r) in two dimensions: the draws are keyed by d as well
        cases = [
            (pw(r"t1 \/ 2*t2 - t1", 2), parse_space("seq:2:2")),
            (pw(r"(1*t3) /\ (2*t2)", 3), parse_space("seq:2:3")),
            (pw(r"(1*t3) /\ (2*t2)", 3), parse_space("seq:3/2:3")),
        ]
        kernels = [(_float_evaluator(f), space) for f, space in cases]
        for r in range(4):
            _ascent_draws.cache_clear()
            cold = [_ascent_restart(value, space, 1, r) for value, space in kernels]
            warm = [_ascent_restart(value, space, 1, r) for value, space in kernels]
            assert cold == warm == [
                _reference_ascent_restart(f, space, 1, r) for f, space in cases
            ]
            # dealt once per (seed, r, d): two misses, then four hits
            assert _ascent_draws.cache_info()[:2] == (4, 2)


def _full_rescore(f, space, restarts, seed):
    """(lower, witness, ties) of a full re-score: every sweep tuple and every
    ascent tuple scored by tuple_seminorm_value, the best kept by value,
    then by smaller points; ties counts the tuples that won on points."""
    pieces, bends = pieces_and_kinks(f)
    table = rays(f.dim, [*bends, *f.comp])
    best_value, best_witness, ties = F(0), functional_tuple(space, [[0] * f.dim]), 0
    sweep = _sweep_candidates(f, space, pieces, table)
    for tup in itertools.chain(sweep, _ascent_tuples(f, space, restarts, seed)):
        value = tuple_seminorm_value(f, tup)
        if value > best_value or (value == best_value and tup.points < best_witness.points):
            ties += value == best_value
            best_value, best_witness = value, tup
    return best_value, best_witness, ties


class TestPrunedRescore:
    """norm_bounds skips the admissibility of a tuple whose exact total
    cannot win; its certificate is the full re-score's."""

    @pytest.mark.parametrize("p", ["2", "3/2", "3", "7/3"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_full_rescore(self, p, d):
        space = parse_space(f"seq:{p}:{d}")
        rng = random.Random(f"rescore {p} {d}")
        functions = [PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)
                     for _ in range(5)]
        functions += [make_pwl(parse("t1", 1), [[F(rng.randint(-4, 4)) for _ in range(d)]])
                      for _ in range(3)]
        for n, f in enumerate(functions):
            seed = rng.randrange(100)
            cert = norm_bounds(f, space, restarts=n % 4 + 1, seed=seed)
            if cert.upper == 0:
                continue
            lower, witness, _ = _full_rescore(f, space, n % 4 + 1, seed)
            assert (cert.lower, cert.witness) == (lower, witness)

    @pytest.mark.parametrize(
        "text, expr",
        [("seq:2:1", "-2*t1"), ("seq:3:1", "-2*t1"), ("seq:2:2", r"t1 \/ t2"),
         ("seq:3/2:2", "t1 - t2"), ("seq:7/3:3", "t1 - t2")],
    )
    def test_tied_values_keep_the_smaller_witness(self, text, expr):
        # a later tuple of the same value and smaller points wins the tie
        space = parse_space(text)
        f = pw(expr, space.dim)
        lower, witness, ties = _full_rescore(f, space, 4, 1)
        assert ties > 0
        cert = norm_bounds(f, space, restarts=4, seed=1)
        assert (cert.lower, cert.witness) == (lower, witness)


class TestNormCertificateDispatch:
    def test_polyhedral_goes_exact(self):
        cert = norm_certificate(pw(r"t1 \/ t2", 2), fvl_space(2))
        assert cert.upper_method == "exact_match"

    def test_non_polyhedral_goes_bounds(self):
        cert = norm_certificate(
            make_pwl(parse("t1", 1), [(3, 4)]), seq_space(2, 2), restarts=4, seed=1
        )
        assert cert.upper_method == "ray_lp_dual"

    def test_search_settings_checked_on_polyhedral_spaces(self):
        with pytest.raises(ValueError):
            norm_certificate(pw("t1", 1), fvl_space(1), restarts=-1)
        with pytest.raises(CapacityError):
            norm_certificate(pw("t1", 1), fvl_space(1), restarts=_MAX_RESTARTS + 1)
        assert norm_certificate(pw("t1", 1), fvl_space(1), restarts=_MAX_RESTARTS).exact


class TestMaximalityAudit:
    def test_admissible_seminorms_stay_below_certificate(self):
        f = pw(r"t1 \/ t2", 2)
        space = fvl_space(2)
        cert = norm_exact_polyhedral(f, space)
        family = [
            evaluation_seminorm(functional_tuple(space, [(1, 1)]), "all_ones"),
            evaluation_seminorm(
                functional_tuple(space, [(F(1, 2), F(-1, 2))]), "half_diff"
            ),
        ]
        report = maximality_audit(f, space, family, cert)
        assert report.passed
        assert [e.name for e in report.entries] == ["all_ones", "half_diff"]
        assert report.violations == ()

    def test_evaluation_seminorms_self_normalize(self):
        # oversized tuples are scaled down by their constraint norm, so the
        # induced seminorm is always admissible and never beats the norm
        f = pw(r"t1 \/ t2", 2)
        tup = functional_tuple(fvl_space(2), [(3, 0), (0, 3)])
        assert tuple_seminorm_value(f, tup) == 2

    def test_violation_is_reported(self):
        from latfree.norm import SeminormHandle

        f = pw(r"t1 \/ t2", 2)
        space = fvl_space(2)
        cert = norm_exact_polyhedral(f, space)
        broken = SeminormHandle(
            name="broken",
            leq=lambda func, bound: False,
            display=lambda func: "99",
        )
        report = maximality_audit(f, space, [broken], cert)
        assert not report.passed
        assert len(report.violations) == 1
        assert report.violations[0].name == "broken"
