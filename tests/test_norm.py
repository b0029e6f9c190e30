import collections
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree import lp
from latfree.cli import _MAX_RESTARTS, _check_restarts
from latfree.errors import (
    CapacityError,
    DimensionError,
    InternalFaultError,
    UnsupportedSpaceError,
)
from latfree.expr import Scale, parse
from latfree.lp import LpResult
from latfree.norm import (
    FunctionalTuple,
    _sweep_candidates,
    _tuple_total,
    _Values,
    budget_directions,
    constraint_norm,
    evaluation_seminorm,
    functional_tuple,
    fvl_space,
    maximality_audit,
    norm_by_cell_assignment,
    norm_certificate,
    parse_space,
    seq_space,
    tuple_admissible,
    tuple_seminorm_value,
)
from latfree.pnorm import MAX_SIGNS, admissibility_upper, norm_upper, sign_patterns
from latfree.pwl import PwlFunction, kinks, make_pwl, pieces_and_kinks, rays
from latfree.qmath import clear_denominators, dot, vec_scale, zero_vec
from latfree.sampling import random_expr

F = Fraction


def pw(text: str, n: int) -> PwlFunction:
    return PwlFunction.from_expr(parse(text, n), n)


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
        cert = norm_certificate(f, fvl_space(n))
        assert cert.exact
        assert cert.lower == expected == cert.upper
        assert cert.upper_method == "exact_match"

    @pytest.mark.parametrize("text,n,expected", EXACT_CASES)
    def test_witness_rescoring(self, text, n, expected):
        f = pw(text, n)
        cert = norm_certificate(f, fvl_space(n))
        assert tuple_admissible(cert.witness)
        assert tuple_seminorm_value(f, cert.witness) == expected

    @pytest.mark.parametrize("text,n,expected", EXACT_CASES)
    def test_independent_assignment_oracle_agrees(self, text, n, expected):
        assert norm_by_cell_assignment(pw(text, n), fvl_space(n)) == expected

    def test_join_witness_is_the_basis_pair(self):
        cert = norm_certificate(pw(r"t1 \/ t2", 2), fvl_space(2))
        assert set(cert.witness.points) == {(F(1), F(0)), (F(0), F(1))}

    def test_running_example_norm(self):
        f = pw(r"t1 /\ t2 + t1 \/ (2*t3)", 3)
        cert = norm_certificate(f, fvl_space(3))
        assert cert.exact and cert.lower == 4 == cert.upper
        assert norm_by_cell_assignment(f, fvl_space(3)) == 4

    def test_zero_function(self):
        cert = norm_certificate(pw("0*t1", 2), fvl_space(2))
        assert cert.lower == 0 == cert.upper and cert.exact

    def test_seq_inf_join(self):
        cert = norm_certificate(pw(r"t1 \/ t2", 2), seq_space("inf", 2))
        assert cert.exact and cert.lower == 1 == cert.upper

    def test_embedded_vector_recovers_its_norm(self):
        xhat = make_pwl(parse("t1", 1), [(2, -3)])
        assert norm_certificate(xhat, seq_space("inf", 2)).lower == 3
        assert norm_certificate(xhat, seq_space(1, 2)).lower == 5

    # the polyhedral spaces and the sandwich's, each in dimension 2
    @pytest.mark.parametrize("space", ["fvl:2", "seq:1:2", "seq:inf:2", "seq:2:2", "seq:3/2:2"])
    def test_dimension_mismatch(self, space):
        with pytest.raises(DimensionError, match="function dimension does not match"):
            norm_certificate(pw("t1", 1), parse_space(space))


# (id, tamper, message): a tampered ray-LP answer and the fault it raises.
# The duals are int weights over weight_divisor, the point int numerators
# over divisor.
_DUAL_TAMPERS = [
    ("unbounded", lambda r: LpResult(status="unbounded"), "ended unbounded"),
    ("value_negated", lambda r: r._replace(value=-r.value), "negative norm"),
    ("value_zeroed", lambda r: r._replace(value=0), "does not match"),
    ("duals_missing", lambda r: r._replace(weights=None), "no usable duals"),
    ("duals_halved", lambda r: r._replace(weight_divisor=2 * r.weight_divisor), "does not match"),
    ("dual_negative", lambda r: r._replace(weights=(-r.weights[0],) + r.weights[1:]), "negative LP dual"),
    ("column_uncovered", lambda r: r._replace(weights=r.weights[::-1]), "fails to dominate"),
]
# a cut round's rows have unequal rhs, so reversed duals break the dual
# sum first; duals swapped between the rows e1 and e2 (rhs 1 each) keep it
_ROUND_TAMPERS = _DUAL_TAMPERS[:-1] + [
    ("column_uncovered", lambda r: r._replace(weights=r.weights[1::-1] + r.weights[2:]), "fails to dominate"),
]
_WITNESS_TAMPERS = [
    ("point_scaled_up", lambda r: r._replace(numerators=tuple(2 * z for z in r.numerators)), "not admissible"),
    ("point_scaled_down", lambda r: r._replace(divisor=2 * r.divisor), "does not reproduce"),
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
            norm_certificate(pw("2*t1 + t2", 2), fvl_space(2))

    @pytest.mark.parametrize(
        "tamper,message",
        [t[1:] for t in _DUAL_TAMPERS],
        ids=[t[0] for t in _DUAL_TAMPERS],
    )
    def test_tampered_bounds_answer_is_a_fault(self, monkeypatch, tamper, message):
        _tampered(monkeypatch, tamper)
        with pytest.raises(InternalFaultError, match=message):
            norm_certificate(pw("2*t1 + t2", 2), seq_space(2, 2))

    @pytest.mark.parametrize(
        "tamper,message",
        [t[1:] for t in _ROUND_TAMPERS],
        ids=[t[0] for t in _ROUND_TAMPERS],
    )
    @pytest.mark.parametrize("call", [1, 2])
    def test_tampered_cut_round_answer_is_a_fault(self, monkeypatch, tamper, message, call):
        # the LP of cut round `call`, after untampered earlier LPs: on
        # seq:2:2, 2*t1 + t2 runs two rounds, with 3 and 4 rows
        import latfree.norm as norm_module

        real, calls = norm_module.simplex_standard, []

        def simplex(c, rows):
            calls.append(len(rows))
            res = real(c, rows)
            return tamper(res) if len(calls) == call + 1 else res

        monkeypatch.setattr(norm_module, "simplex_standard", simplex)
        with pytest.raises(InternalFaultError, match=message):
            norm_certificate(pw("2*t1 + t2", 2), seq_space(2, 2))
        assert calls == [2, 3, 4][: call + 1]

    def test_untampered_answer_passes(self, monkeypatch):
        import latfree.norm as norm_module

        answers = []
        real = norm_module.simplex_standard

        def recorded(c, rows):
            answers.append(real(c, rows))
            return answers[-1]

        monkeypatch.setattr(norm_module, "simplex_standard", recorded)
        cert = norm_certificate(pw("2*t1 + t2", 2), fvl_space(2))
        assert cert.lower == 3 == cert.upper
        (res,) = answers
        assert res.value == 3 and res.duals == (2, 1)
        assert sorted(z for z in res.point if z) == [1, 1]


class TestVertexLpWork:
    """Bland's rule fixes the pivot sequence, so the vertex LP's pivot and
    column counts are deterministic; a changed count flags a regression.
    The LP has one column per ray pair v, -v: half the rays."""

    COUNTS = {  # (space, expression): (norm, pivots, columns)
        ("fvl:4", "|t1|+|t2|+|t3|+|t4|"): (4, 4, 4),
        ("fvl:4", "|t1-t2| + |t2-2*t3| + |t3+t4| + |t1+t4|"): (9, 6, 16),
        ("seq:inf:3", "|t1|+|t2|+|t3|"): (2, 5, 9),
        ("fvl:6", "|t1|+|t2|+|t3|+|t4|+|t5|+|t6|"): (6, 6, 6),
        ("seq:inf:5", "|t1-t2|+|t2-t3|+|t3-t4|+|t4-t5|"): (4, 42, 225),
        ("seq:inf:5", "|t1-2*t2| + |t2-3*t3| + |t3+t4| + |t4-t5| + |t1+t5|"): (6, 110, 650),
    }

    # about ten times the 0.37-0.55 s of the seq:inf:5 five-abs, the
    # slowest case, on a 2-core x86 box with Python 3.11 (it took 11.6-14.6 s
    # with both rays of each pair as columns)
    BUDGET_S = 5

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
        cert = norm_certificate(pw(text, spec.dim), spec)
        elapsed = time.perf_counter() - t0
        assert elapsed < self.BUDGET_S, f"{elapsed:.1f}s exceeded {self.BUDGET_S}s"
        value, pivots, columns = self.COUNTS[space, text]
        assert cert.lower == value == cert.upper
        assert lengths == [columns]
        assert len(counted) == pivots


def _both_signs_lp_norm(f, space):
    """The exact norm's LP with both rays of each pair v, -v as columns."""
    budget = budget_directions(space)
    columns = rays(f.dim, [*kinks(f), *budget])
    objective = [abs(v) for v in f.eval_many(columns)]
    rows = [([abs(dot(v, b)) for v in columns], 1) for b in budget]
    res = lp.simplex_standard(objective, rows)
    assert res.status == "optimal"
    return res.value


class TestHalvedExactLp:
    """One column per ray pair gives the norm of the LP with both."""

    def test_values_match_the_both_signs_lp(self):
        rng = random.Random(2701)
        nonzero = 0
        for i in range(72):
            d = 2 + i % 3
            space = parse_space(("fvl:{}", "seq:1:{}", "seq:inf:{}")[i // 3 % 3].format(d))
            if i % 2:
                f = PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)
            else:
                # fractional composition rows, so some values are Fractions
                arity = rng.randint(1, 3)
                rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                        for _ in range(arity)]
                f = make_pwl(random_expr(rng, arity, lattice_ops=2), rows)
            cert = norm_certificate(f, space)
            assert cert.lower == _both_signs_lp_norm(f, space) == cert.upper, (f, space)
            assert tuple_admissible(cert.witness)
            assert tuple_seminorm_value(f, cert.witness) == cert.lower
            nonzero += cert.lower > 0
        assert nonzero >= 60


class TestSandwichWork:
    """A sandwich builds one ray table from one pieces-and-kinks fold, and
    reads its first LP upper bound, the zero test and the sweep's single
    points off it; each cut round then adds the rays of one plane and
    solves one LP."""

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
        # the lower bound's search, once a float ascent, is the sweep and
        # the LP witnesses.  The sweep's 5 admissibilities are one per
        # distinct |x| of its single points and one per basis; its scaled
        # copies are scored by homogeneity (q = 2), and each of the three
        # LP witnesses gets one worst signed sum.  The winner alone is
        # scored again: one total and one admissibility
        import latfree.norm as norm_module
        from latfree import cli

        calls = {}
        for name, key in [("admissibility_upper", "admissibility"),
                          ("worst_signed_sum", "worst"), ("_tuple_total", "total")]:
            monkeypatch.setattr(
                norm_module, name, counting(calls, key, getattr(norm_module, name))
            )
        assert cli.main(self.ARGV + [r"(1*t3) /\ (2*t2)"]) == 0
        capsys.readouterr()
        assert calls == {"admissibility": 1, "worst": 8, "total": 1}

    def test_each_ray_is_evaluated_once(self, monkeypatch, capsys):
        # f's values at the rays are kept: every ray of the final table is
        # evaluated once, by the LPs, the halving and the sweep together
        import latfree.norm as norm_module
        import latfree.pwl as pwl_module
        from latfree import cli

        evaluated, tables = [], []
        real_fold = pwl_module.PwlFunction.fold_many

        def fold_many(self, points):
            # eval_many folds through here too
            evaluated.extend(map(tuple, points))
            return real_fold(self, points)

        def recorded(real, table):
            def wrapper(*args):
                out = real(*args)
                tables.append(table(out))
                return out
            return wrapper

        monkeypatch.setattr(pwl_module.PwlFunction, "fold_many", fold_many)
        # rays returns a table, rays_with a table and its planes
        monkeypatch.setattr(norm_module, "rays", recorded(norm_module.rays, lambda t: t))
        monkeypatch.setattr(
            norm_module, "rays_with", recorded(norm_module.rays_with, operator.itemgetter(0))
        )
        assert cli.main(self.ARGV + [r"(1*t3) /\ (2*t2)"]) == 0
        capsys.readouterr()
        final = set(tables[-1])
        assert len(tables) == 3 and len(final) > len(tables[0])
        counts = collections.Counter(x for x in evaluated if x in final)
        assert counts == dict.fromkeys(final, 1)

    def test_rounds_of_the_cli_sandwich(self, monkeypatch, capsys):
        # the first LP and two cut rounds, each round's rays from its new
        # plane alone
        import latfree.norm as norm_module
        from latfree import cli

        calls = {}
        for name in ("ray_lp", "rays_with"):
            monkeypatch.setattr(
                norm_module, name, counting(calls, name, getattr(norm_module, name))
            )
        assert cli.main(self.ARGV + [r"(1*t3) /\ (2*t2)"]) == 0
        capsys.readouterr()
        assert calls == {"ray_lp": 3, "rays_with": 2}


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

    def test_join_is_bounded_by_its_two_rows(self, monkeypatch):
        # the duals (1, 1) on |t1| and |t2| are optimal in the first LP:
        # its bound is 2.  The two cut rounds add the rows (16, 16) and
        # (16, -16), each with rhs 16 * sqrt(2) rounded up to 2^-16, and
        # take the bound down to sqrt(2) + 6e-7; the norm is sqrt(2)
        import latfree.norm as norm_module

        values = []
        real = norm_module.ray_lp

        def recorded(f, columns, rows):
            out = real(f, columns, rows)
            values.append(out[0])
            return out

        monkeypatch.setattr(norm_module, "ray_lp", recorded)
        cert = norm_certificate(pw(r"t1 \/ t2", 2), seq_space(2, 2))
        assert values == [2, F(3580063, 2097152), F(1482911, 1048576)]
        assert cert.upper == F(1482911, 1048576)
        assert cert.lower**2 <= 2 <= cert.upper**2

    def test_scaled_function_is_exact(self):
        cert = norm_certificate(pw("3*t1", 1), seq_space(2, 1))
        assert (cert.lower, cert.upper) == (3, 3)

    def test_abs_of_a_coordinate_is_exact(self):
        # |t1| <= |t1| on every ray: the one dual 1 on the row e1
        cert = norm_certificate(pw("|t1|", 2), seq_space(2, 2))
        assert (cert.lower, cert.upper) == (1, 1)

    def test_unread_rows_stay_out_of_the_upper_bound(self):
        # t1 reads row 1 only, so the LP has the one row (e_1, 1) and the
        # upper bound is 1, not the sum of all four rows' norms
        cert = norm_certificate(pw("t1", 4), seq_space(2, 4))
        assert (cert.lower, cert.upper) == (1, 1)


class TestNormBounds:
    def test_exact_on_polyhedral_space(self):
        f = pw(r"t1 \/ t2", 2)
        for spec in (fvl_space(2), seq_space(1, 2), seq_space("inf", 2)):
            cert = norm_certificate(f, spec)
            assert cert.exact and cert.upper_method == "exact_match"

    def test_euclidean_pythagorean_vector_is_exact(self):
        xhat = make_pwl(parse("t1", 1), [(3, 4)])
        cert = norm_certificate(xhat, seq_space(2, 2))
        assert cert.exact and cert.lower == 5 == cert.upper

    def test_euclidean_irrational_sandwich(self):
        xhat = make_pwl(parse("t1", 1), [(1, 1)])
        cert = norm_certificate(xhat, seq_space(2, 2))
        assert not cert.exact
        assert cert.lower <= cert.upper
        assert abs(float(cert.lower) - math.sqrt(2)) < 1e-9
        assert float(cert.upper - cert.lower) < 1e-9

    def test_zero_function(self):
        cert = norm_certificate(pw("0*t1", 2), seq_space(2, 2))
        assert cert.lower == 0 == cert.upper and cert.exact

    @pytest.mark.parametrize("space", ["seq:3/2:2"])
    def test_zero_element_gets_the_zero_certificate(self, space):
        # kinks but no value: the LP value 0 is the zero test
        spec = parse_space(space)
        cert = norm_certificate(pw(r"t1 \/ t2 - t2 \/ t1", 2), spec)
        assert cert.lower == 0 == cert.upper and cert.upper_method == "ray_lp_dual"
        assert cert.witness.points == ((F(0), F(0)),)

    def test_nondegeneracy_of_small_elements(self):
        cert = norm_certificate(pw(r"1/7*(t1 /\ t2)", 2), seq_space(2, 2))
        assert cert.lower > 0

    def test_witness_rescoring_matches_lower(self):
        f = pw(r"t1 - 2*t2", 2)
        cert = norm_certificate(f, seq_space(2, 2))
        assert tuple_seminorm_value(f, cert.witness) == cert.lower

    def test_seq_three_halves_is_certified(self):
        # (1, 1) in l_{3/2} has norm 2^(2/3); lower and upper are rationals
        cert = norm_certificate(make_pwl(parse("t1", 1), [(1, 1)]), seq_space(F(3, 2), 2))
        assert cert.lower**3 <= 4 <= cert.upper**3
        assert not cert.exact

    # norm_certificate takes no search settings; the CLI still range-checks
    # --restarts, which it accepts and no longer reads
    @pytest.mark.parametrize(
        "settings", [{"restarts": -3}, {"restarts": -1}]
    )
    def test_invalid_search_settings_are_refused(self, settings):
        with pytest.raises(ValueError):
            _check_restarts(**settings)
        with pytest.raises(TypeError):
            norm_certificate(pw("t1 - t2", 2), seq_space(2, 2), **settings)

    def test_restarts_above_the_cap_are_refused(self):
        with pytest.raises(CapacityError, match="ascent restarts: 1025 exceeds the cap of 1024"):
            _check_restarts(_MAX_RESTARTS + 1)
        _check_restarts(_MAX_RESTARTS)

    def test_a_derived_sweep_score_that_disagrees_is_a_fault(self, monkeypatch):
        # (t1 + t2) / 3 on seq:2:2 is won by the basis scaled by 1 / cn, a
        # copy scored by homogeneity alone.  A basis bound 1% too small
        # raises that score, and the winner's exact re-score catches it
        # ahead of the crossed bounds
        import latfree.norm as norm_module

        f, space = make_pwl(parse("t1", 1), [(F(1, 3), F(1, 3))]), seq_space(2, 2)
        basis = ((1, 0), (0, 1))
        scale = 1 / constraint_norm(functional_tuple(space, basis))
        assert norm_certificate(f, space).witness.points == ((scale, 0), (0, scale))
        real = norm_module.worst_signed_sum

        def shrunk(points, space, *scale):
            bound, u = real(points, space, *scale)
            return (bound * F(99, 100) if points == basis else bound), u

        monkeypatch.setattr(norm_module, "worst_signed_sum", shrunk)
        with pytest.raises(InternalFaultError, match="does not reproduce its score"):
            norm_certificate(f, space)

    def test_an_int_total_over_a_unit_bound_stays_a_fraction(self):
        # t1 on seq:2:2: the sweep's rays +-e1 have the int total 1 and the
        # admissibility 1, where max(1, cn) is the int 1 and int / int a
        # float; the certificate holds Fractions only
        cert = norm_certificate(pw("t1", 2), seq_space(2, 2))
        assert (cert.lower, cert.upper) == (1, 1)
        assert type(cert.lower) is F and type(cert.upper) is F
        assert cert.witness.points and all(
            type(x) is F for point in cert.witness.points for x in point
        )

    def test_crossed_bounds_are_a_fault(self, monkeypatch):
        import latfree.norm as norm_module

        real = norm_module.ray_lp

        def halved(f, columns, rows):
            value, witness = real(f, columns, rows)
            return value / 2, witness

        monkeypatch.setattr(norm_module, "ray_lp", halved)
        with pytest.raises(InternalFaultError):
            norm_certificate(pw("t1 + t2", 2), seq_space(F(3, 2), 2))


def _sweep_tuples(f, space, pieces, table):
    """The sweep's tuples built in full: each of _sweep_candidates' tuples
    once, first seen first, each followed by its copy scaled by
    1 / constraint_norm when that is neither 0 nor 1."""
    tuples = {}
    for points in _sweep_candidates(f, space, pieces, table, _Values()):
        cn = constraint_norm(tuples.setdefault(points, FunctionalTuple(space, points)))
        if cn > 0 and cn != 1:
            scaled = tuple(vec_scale(1 / cn, x) for x in points)
            tuples.setdefault(scaled, FunctionalTuple(space, scaled))
    return list(tuples.values())


def _full_rescore(monkeypatch, f, space):
    """(certificate, lower, witness, ties): norm_certificate's certificate, and a
    full re-score of every sweep tuple and every LP witness it made, each
    scored by tuple_seminorm_value, the best kept by value, then by smaller
    points; ties counts the tuples that won on points."""
    import latfree.norm as norm_module

    witnesses = []
    real = norm_module.ray_lp

    def recorded(f, columns, rows):
        value, (points, den) = real(f, columns, rows)
        witnesses.append([vec_scale(F(1, den), x) for x in points])
        return value, (points, den)

    with monkeypatch.context() as m:
        m.setattr(norm_module, "ray_lp", recorded)
        cert = norm_certificate(f, space)
    pieces, bends = pieces_and_kinks(f)
    table = rays(f.dim, [*bends, *f.comp])
    best_value, best_witness, ties = F(0), functional_tuple(space, [[0] * f.dim]), 0
    sweep = _sweep_tuples(f, space, pieces, table)
    for tup in itertools.chain(sweep, (functional_tuple(space, w) for w in witnesses if w)):
        value = tuple_seminorm_value(f, tup)
        if value > best_value or (value == best_value and tup.points < best_witness.points):
            ties += value == best_value
            best_value, best_witness = value, tup
    return cert, best_value, best_witness, ties


class TestPrunedRescore:
    """norm_certificate scores the sweep's scaled copies by homogeneity and
    re-scores only the winner; its certificate is the full re-score's."""

    @pytest.mark.parametrize("p", ["2", "3/2", "3", "7/3"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_full_rescore(self, monkeypatch, p, d):
        space = parse_space(f"seq:{p}:{d}")
        rng = random.Random(f"rescore {p} {d}")
        functions = [PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)
                     for _ in range(5)]
        functions += [make_pwl(parse("t1", 1), [[F(rng.randint(-4, 4)) for _ in range(d)]])
                      for _ in range(3)]
        for f in functions:
            cert, lower, witness, _ = _full_rescore(monkeypatch, f, space)
            if cert.upper == 0:
                continue
            assert (cert.lower, cert.witness) == (lower, witness)

    @pytest.mark.parametrize(
        "text, expr",
        [("seq:2:1", "-2*t1"), ("seq:3:1", "-2*t1"), ("seq:2:2", r"t1 \/ t2"),
         ("seq:3/2:2", "t1 - t2"), ("seq:7/3:3", "t1 - t2")],
    )
    def test_tied_values_keep_the_smaller_witness(self, monkeypatch, text, expr):
        # a later tuple of the same value and smaller points wins the tie
        space = parse_space(text)
        f = pw(expr, space.dim)
        cert, lower, witness, ties = _full_rescore(monkeypatch, f, space)
        assert ties > 0
        assert (cert.lower, cert.witness) == (lower, witness)


class TestSweepWithoutSignVectors:
    """The sweep scores no sign vector: putting the 2^(d-1) sign vectors
    (+-1, .., +-1) back as single points changes no bound and no
    witness."""

    @pytest.mark.parametrize("p", ["2", "3/2", "3", "7/3", "5/2"])
    def test_sign_vectors_change_no_certificate(self, monkeypatch, p):
        import latfree.norm as norm_module

        real = norm_module._sweep_candidates

        def with_signs(f, space, pieces, singles, values):
            signs = [(s,) for s in sign_patterns(space.dim)]
            out = real(f, space, pieces, singles, values)
            values.add(f, [s for (s,) in signs])
            return list(dict.fromkeys(out + signs))

        rng = random.Random(f"sign vectors {p}")
        nonzero = 0
        for d in range(1, 5):
            space = seq_space(F(p), d)
            for i in range(16):
                if i % 2:
                    f = PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)
                else:
                    # an embedded vector with fractional entries
                    a = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                    f = make_pwl(parse("t1", 1), [a])
                cert = norm_certificate(f, space)
                with monkeypatch.context() as m:
                    m.setattr(norm_module, "_sweep_candidates", with_signs)
                    ref = norm_certificate(f, space)
                assert (cert.lower, cert.upper, cert.witness) == (
                    ref.lower, ref.upper, ref.witness
                ), (f.expr, f.comp, space)
                nonzero += cert.upper > 0
        assert nonzero >= 48


def _closed_form_inputs():
    """200 seeded (f, space, (N^r, r)) with a known norm N: embedded vectors
    on seq:2 (N^2 = Sum_j a_j^2) and on seq:3/2 with entries +-s_j^2
    (N^3 = (Sum_j |s_j|^3)^2), and generators (N = 1)."""
    rng = random.Random(4711)
    for i in range(200):
        d = rng.randint(1, 4)
        if i % 4 == 3:
            space = seq_space((2, F(3, 2))[i % 8 // 4], d)
            k = rng.randrange(d)
            e = [int(j == k) for j in range(d)]
            yield make_pwl(parse("t1", 1), [e]), space, (1, 1)
        elif i % 2 == 0:
            a = [rng.randint(-5, 5) for _ in range(d)]
            a[rng.randrange(d)] = rng.choice((-3, 1, 2))
            yield make_pwl(parse("t1", 1), [a]), seq_space(2, d), (sum(x * x for x in a), 2)
        else:
            roots = [rng.randint(-3, 3) for _ in range(d)]
            roots[rng.randrange(d)] = rng.choice((-2, 1, 3))
            a = [r * abs(r) for r in roots]
            power = sum(abs(r) ** 3 for r in roots) ** 2
            yield make_pwl(parse("t1", 1), [a]), seq_space(F(3, 2), d), (power, 3)


class TestCutRounds:
    """The cut rounds keep the sandwich sound: each LP's ray table holds
    the planes of all its rows, and the bounds bracket every known norm."""

    def test_bounds_bracket_the_closed_forms(self):
        exact = 0
        for f, space, (power, r) in _closed_form_inputs():
            cert = norm_certificate(f, space)
            assert cert.lower**r <= power <= cert.upper**r, (f.comp, space)
            assert tuple_seminorm_value(f, cert.witness) == cert.lower
            exact += cert.exact
        assert exact >= 90

    def test_every_lp_holds_the_planes_of_its_rows(self, monkeypatch):
        # a table without a cut's plane leaves |<., c>| bent inside a cell,
        # and the LP's duals would then certify nothing
        import latfree.norm as norm_module

        real, tables = norm_module.ray_lp, []

        def recorded(f, columns, rows):
            tables.append((set(columns), [b for b, _ in rows]))
            return real(f, columns, rows)

        monkeypatch.setattr(norm_module, "ray_lp", recorded)
        rng = random.Random(77)
        rounds = 0
        for i in range(40):
            d = 2 + i % 3
            space = seq_space((2, F(3, 2), 3)[i % 3], d)
            f = PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)
            tables.clear()
            norm_certificate(f, space)
            bends = kinks(f)
            for columns, rows in tables:
                full = rays(d, [*bends, *f.comp, *rows])
                # one ray of each pair v, -v, and every pair present
                assert len(columns) * 2 == len(full)
                assert {max(v, tuple(-x for x in v)) for v in columns} == {
                    max(v, tuple(-x for x in v)) for v in full
                }
            rounds += len(tables) - 1
        assert rounds >= 40

    def test_a_round_past_the_ray_caps_keeps_its_bound(self, monkeypatch, capsys):
        # rays_with refusing the first cut's plane ends the rounds: the
        # certificate is the first LP's, and the command still exits 0
        import latfree.norm as norm_module
        from latfree import cli

        def refused(dim, normals, table, normal):
            raise CapacityError("ray subsets", 1, 2)

        monkeypatch.setattr(norm_module, "rays_with", refused)
        cert = norm_certificate(pw(r"t1 \/ t2", 2), seq_space(2, 2))
        assert cert.upper == 2
        assert cli.main(["norm", "--space", "seq:2:2", "--expr", r"t1 \/ t2"]) == 0
        assert '"upper": "2"' in capsys.readouterr().out


def _reference_rounds(f, space):
    """(witnesses, certificate) of norm_certificate computed another way: every
    LP's table rebuilt by rays of all its planes, each pair v, -v halved by
    evaluating both, the worst signed sum the first of largest bound in a
    loop over sign_patterns, and every tuple scored by
    tuple_seminorm_value.  witnesses holds each LP's witness points."""
    import latfree.norm as norm_module

    pieces, bends = pieces_and_kinks(f)
    planes = [*bends, *f.comp]
    rows = []
    for row in norm_module.read_rows(f):
        b, s = clear_denominators(row)
        rows.append((tuple(b), s * norm_upper(row, space.exponent)))

    def solve():
        # the LP solved here, its point read as Fractions (LpResult.point)
        table = rays(f.dim, planes)
        columns = []
        for v in table:
            if next(x for x in v if x) > 0:
                w = tuple(-x for x in v)
                columns.append(w if abs(f.eval(w)) > abs(f.eval(v)) else v)
        objective = [abs(f.eval(v)) for v in columns]
        res = lp.simplex_standard(
            objective, [([abs(dot(v, b)) for v in columns], n) for b, n in rows]
        )
        return table, columns, (res.value, res.point)

    table, columns, (upper, point) = solve()
    if upper == 0:
        return [], (F(0), F(0), (zero_vec(f.dim),))
    scored = [functional_tuple(space, [zero_vec(f.dim)])]
    scored += _sweep_tuples(f, space, pieces, table)
    witnesses = []
    for rounds_left in range(norm_module._CUT_ROUNDS, -1, -1):
        points = sorted(vec_scale(lam, v) for lam, v in zip(point, columns) if lam > 0)
        witnesses.append(points)
        if 2 ** (len(points) - 1) > MAX_SIGNS:
            break
        scored.append(functional_tuple(space, points))
        bound, u = F(-1), None
        for s in sign_patterns(len(points)):
            c = [sum(si * x[j] for si, x in zip(s, points)) for j in range(f.dim)]
            if admissibility_upper([c], space) > bound:
                bound, u = admissibility_upper([c], space), c
        if not rounds_left or bound <= 1:
            break
        c, n = norm_module._cut(u, space)
        if c in {b for b, _ in rows} | {tuple(-x for x in b) for b, _ in rows}:
            break
        planes.append(c)
        rows.append((c, n))
        table, columns, (upper, point) = solve()
    best = min(scored, key=lambda t: (-tuple_seminorm_value(f, t), t.points))
    return witnesses, (tuple_seminorm_value(f, best), upper, best.points)


def _rounds(monkeypatch, f, space):
    """(witnesses, certificate) of norm_certificate, each LP's witness points
    recorded."""
    import latfree.norm as norm_module

    witnesses = []
    real = norm_module.ray_lp

    def recorded(f, columns, rows):
        value, (points, den) = real(f, columns, rows)
        witnesses.append([vec_scale(F(1, den), x) for x in points])
        return value, (points, den)

    with monkeypatch.context() as m:
        m.setattr(norm_module, "ray_lp", recorded)
        cert = norm_certificate(f, space)
    if cert.upper == 0:
        witnesses = []
    return witnesses, (cert.lower, cert.upper, cert.witness.points)


def _fits_a_float(f):
    """Whether every coefficient of f converts to a float."""
    coefficients = [x for row in f.comp for x in row]
    coefficients += [a for kind, a, _ in f.program.slots if kind is Scale]
    try:
        [float(x) for x in coefficients]
    except OverflowError:
        return False
    return True


# dual exponents q in {2, 3, 3/2, 7/4} and dimensions 1 to 8
ASCENT_SPACES = [
    "seq:2:1", "seq:2:2", "seq:3/2:2", "seq:2:3", "seq:3:2", "seq:7/3:3",
    "seq:7/3:4", "seq:2:6", "seq:3/2:8",
]


class TestAscentRestart:
    """The lower bound's search, which was a float ascent with seeded
    restarts, is now the LP witnesses of the cut rounds.  Their points
    and the certificate equal a reference that rebuilds every ray table in
    full and finds each worst signed sum by a loop, also past the float
    range."""

    @pytest.mark.parametrize("text", ASCENT_SPACES)
    def test_points_equal_the_reference(self, monkeypatch, text):
        space = parse_space(text)
        d = space.dim
        rng = random.Random(text)
        functions = [PwlFunction.from_expr(random_expr(rng, d, lattice_ops=2), d)]
        for _ in range(3):
            # fractional composition rows next to one coordinate row
            arity = rng.randint(1, 3)
            rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                    for _ in range(arity - 1)]
            rows.append([F(int(j == 0)) for j in range(d)])
            functions.append(make_pwl(random_expr(rng, arity, lattice_ops=2), rows))
        lps = 0
        for f in functions:
            got = _rounds(monkeypatch, f, space)
            assert got == _reference_rounds(f, space), (f.expr, f.comp)
            lps += len(got[0])
        # above dimension 1 some witness is not admissible and gets a cut
        assert lps > len(functions) or d == 1

    @pytest.mark.parametrize(
        "text, expr, fits",
        [
            ("seq:2:2", "1" + "0" * 400 + "*t2", False),
            ("seq:2:2", r"t1 \/ 1" + "0" * 200 + "*t2", True),
            # the dual exponent q = 1000 raises sums past the float range
            ("seq:1000/999:2", r"t1 \/ 2*t2 - t1", True),
        ],
    )
    def test_overflow_matches_the_reference(self, monkeypatch, text, expr, fits):
        space, f = parse_space(text), pw(expr, 2)
        assert _fits_a_float(f) == fits
        got = _rounds(monkeypatch, f, space)
        assert got == _reference_rounds(f, space)
        lower, upper, _ = got[1]
        assert 0 < lower <= upper


class TestNormCertificateDispatch:
    def test_polyhedral_goes_exact(self):
        cert = norm_certificate(pw(r"t1 \/ t2", 2), fvl_space(2))
        assert cert.upper_method == "exact_match"

    def test_non_polyhedral_goes_bounds(self):
        cert = norm_certificate(make_pwl(parse("t1", 1), [(3, 4)]), seq_space(2, 2))
        assert cert.upper_method == "ray_lp_dual"

    def test_search_settings_checked_on_polyhedral_spaces(self, capsys):
        # the CLI checks --restarts on every space, though no norm reads it
        from latfree import cli

        argv = ["norm", "--space", "fvl:1", "--expr", "t1", "--restarts"]
        assert cli.main(argv + ["-1"]) == 1
        assert cli.main(argv + [str(_MAX_RESTARTS + 1)]) == 4
        capsys.readouterr()
        assert cli.main(argv + [str(_MAX_RESTARTS)]) == 0
        assert '"exact": true' in capsys.readouterr().out


class TestMaximalityAudit:
    def test_admissible_seminorms_stay_below_certificate(self):
        f = pw(r"t1 \/ t2", 2)
        space = fvl_space(2)
        cert = norm_certificate(f, space)
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
        cert = norm_certificate(f, space)
        broken = SeminormHandle(
            name="broken",
            leq=lambda func, bound: False,
            display=lambda func: "99",
        )
        report = maximality_audit(f, space, [broken], cert)
        assert not report.passed
        assert len(report.violations) == 1
        assert report.violations[0].name == "broken"


# ---------------------------------------------------------------------------
# the int certificate paths against the Fraction formulas they replaced
# ---------------------------------------------------------------------------


def _fraction_total(f, tup):
    """Sum_i |f(x_i)| of the Fraction values at the points themselves."""
    return sum((abs(v) for v in f.eval_many(tup.points)), F(0))


def _fraction_ray_lp(f, columns, rows):
    """ray_lp's checks made on the Fraction duals (LpResult.duals), and its
    witness read from the Fraction point (LpResult.point)."""
    objective = [abs(v) for v in f.eval_many(columns)]
    matrix = [[abs(dot(v, b)) for v in columns] for b, _ in rows]
    res = lp.simplex_standard(objective, [(m, n) for m, (_, n) in zip(matrix, rows)])
    assert res.status == "optimal" and res.value >= 0
    duals = res.duals
    assert all(y >= 0 for y in duals)
    assert sum((y * n for y, (_, n) in zip(duals, rows)), F(0)) == res.value
    for c, column in zip(objective, zip(*matrix)):
        assert sum((y * a for y, a in zip(duals, column)), F(0)) >= c
    witness = sorted(vec_scale(lam, v) for lam, v in zip(res.point, columns) if lam > 0)
    return res.value, witness


def _points(rng, dim, count):
    """count points of ints, Fractions and zeros."""
    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return F(rng.randint(-9, 9), rng.randint(1, 12))
        return rng.choice([0, F(0)])
    return [tuple(entry() for _ in range(dim)) for _ in range(count)]


def _fractional_function(rng, dim):
    """A random element over random Fraction composition rows."""
    n = rng.randint(1, 3)
    rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)] for _ in range(n)]
    return make_pwl(random_expr(rng, n), rows)


SANDWICH_SPACES = ["seq:2:2", "seq:3/2:2", "seq:2:3", "seq:5/2:3", "seq:7/3:2",
                   "seq:1000/999:2", "fvl:2", "seq:1:3", "seq:inf:2"]


class TestIntCertificatePaths:
    """_tuple_total folds f on the int points s x_i and divides once, and
    ray_lp checks the duals and reads the witness on the LP's ints: both
    give the numbers of the Fraction formulas they replaced."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9), st.integers(1, 3), st.integers(1, 4), st.booleans())
    def test_tuple_total(self, seed, dim, count, fractional):
        rng = random.Random(seed)
        if fractional:
            f = _fractional_function(rng, dim)
        else:
            f = PwlFunction.from_expr(random_expr(rng, dim), dim)
        tup = FunctionalTuple(seq_space(2, dim), tuple(_points(rng, dim, count)))
        total = _tuple_total(f, tup)
        assert total == _fraction_total(f, tup) and type(total) is F

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9), st.sampled_from(SANDWICH_SPACES), st.booleans())
    def test_ray_lp_matches_the_fraction_duals(self, seed, space, fractional):
        import latfree.norm as norm_module

        spec = parse_space(space)
        rng = random.Random(seed)
        if fractional:
            f = _fractional_function(rng, spec.dim)
        else:
            f = PwlFunction.from_expr(random_expr(rng, spec.dim), spec.dim)
        calls = []
        real = norm_module.ray_lp

        def recorded(values, columns, rows):
            out = real(values, columns, rows)
            calls.append((dict(values), list(columns), list(rows), out))
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(norm_module, "ray_lp", recorded)
            norm_certificate(f, spec)
        assert calls
        for values, columns, rows, (value, (points, den)) in calls:
            ref_value, ref_witness = _fraction_ray_lp(_Values(values), columns, rows)
            assert value == ref_value
            assert [vec_scale(F(1, den), x) for x in points] == ref_witness
            assert all(type(x) is int for x in itertools.chain(*points)) and den >= 1

    # 2*t1 + t2 on fvl:2 has the nonzero duals (2, 1); the seq:2:3 join's
    # first LP has two nonzero duals too
    @pytest.mark.parametrize("space,text", [("fvl:2", "2*t1 + t2"), ("seq:2:3", r"(1*t3) /\ (2*t2)")])
    def test_each_dual_weight_is_sign_checked(self, monkeypatch, space, text):
        import latfree.norm as norm_module

        spec = parse_space(space)
        real = norm_module.simplex_standard
        res = []
        monkeypatch.setattr(norm_module, "simplex_standard", lambda c, rows: res.append(real(c, rows)) or res[-1])
        norm_certificate(pw(text, spec.dim), spec)
        nonzero = [i for i, w in enumerate(res[0].weights) if w]
        assert len(nonzero) >= 2
        for i in nonzero:
            def flipped(c, rows, i=i):
                r = real(c, rows)
                return r._replace(weights=r.weights[:i] + (-r.weights[i],) + r.weights[i + 1:])
            monkeypatch.setattr(norm_module, "simplex_standard", flipped)
            with pytest.raises(InternalFaultError, match="negative LP dual"):
                norm_certificate(pw(text, spec.dim), spec)

    @pytest.mark.parametrize("space,text", [("fvl:2", r"|t1 - t2| + t1 \/ 2*t2"), ("seq:2:3", r"(1*t3) /\ (2*t2)")])
    def test_each_column_is_domination_checked(self, monkeypatch, space, text):
        # the LP answer of the true objective, checked against an objective
        # whose one column j is raised past what the duals cover: only
        # column j's domination check can see it
        import latfree.norm as norm_module

        spec = parse_space(space)
        f = pw(text, spec.dim)
        calls = []
        real = norm_module.ray_lp
        monkeypatch.setattr(
            norm_module, "ray_lp",
            lambda values, columns, rows: calls.append((_Values(values), columns, rows)) or real(values, columns, rows),
        )
        norm_certificate(f, spec)
        values, columns, rows = calls[0]
        assert len(columns) >= 3
        answer = lp.simplex_standard([abs(values[v]) for v in columns],
                                     [([abs(dot(v, b)) for v in columns], n) for b, n in rows])
        monkeypatch.setattr(norm_module, "simplex_standard", lambda c, rows: answer)
        for j, v in enumerate(columns):
            raised = _Values(values)
            raised[v] = 10**9
            with pytest.raises(InternalFaultError, match="fails to dominate"):
                real(raised, columns, rows)
