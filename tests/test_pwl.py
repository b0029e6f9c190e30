import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.errors import DimensionError
from latfree.expr import Scale, Var, eval_program, parse, substitute
from latfree.pwl import (
    PwlFunction,
    active_piece,
    arrangement_for,
    build_arrangement,
    canonical_normals,
    equivalent,
    is_zero,
    kinks,
    linear_pieces,
    make_pwl,
    pwl_abs,
    pwl_add,
    pwl_inf,
    pwl_scale,
    pwl_sup,
    rays,
    zero_pwl,
)
from latfree.qmath import dot, vec
from latfree.sampling import random_expr, random_pair

F = Fraction


def pw(text: str, n: int) -> PwlFunction:
    return PwlFunction.from_expr(parse(text, n), n)


def signs_at(arr, x) -> tuple[int, ...]:
    return tuple((v > 0) - (v < 0) for v in (dot(h, vec(x)) for h in arr.hyperplanes))


RUNNING = r"t1 /\ t2 + t1 \/ (2*t3)"


class TestPwlFunction:
    def test_eval_uses_composition_rows(self):
        f = make_pwl(parse("t1 - t2", 2), [(1, 0, 1), (0, 1, 0)])
        assert f.dim == 3
        assert f.eval((2, 5, 1)) == -2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            make_pwl(parse("t2", 2), [(1, 0)])  # t2 has no composition row
        with pytest.raises(DimensionError):
            make_pwl(parse("t1", 1), [(1, 0), (0, 1, 1)])  # ragged rows
        f = pw("t1", 2)
        with pytest.raises(DimensionError):
            f.eval((1,))

    def test_unused_rows_are_allowed(self):
        f = make_pwl(parse("t1", 1), [(1, 0), (0, 1)])
        assert f.arity == 2
        assert f.eval((4, 9)) == 4

    def test_identity_composition(self):
        f = pw(r"t1 \/ t2", 2)
        assert f.comp == ((F(1), F(0)), (F(0), F(1)))

    def test_fields_can_be_neither_set_nor_deleted(self):
        f = pw(r"t1 \/ t2", 2)
        for field in ("dim", "expr", "comp"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(f, field, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(f, field)
        with pytest.raises(AttributeError):
            f.other = 1
        assert f == pw(r"t1 \/ t2", 2)

    def test_equality_hash_and_repr_are_those_of_the_fields(self):
        f = make_pwl(parse("2*t1", 1), [(1, 0)])
        assert hash(f) == hash((f.dim, f.expr, f.comp))
        assert f == make_pwl(parse("2*t1", 1), [(1, 0)])
        assert f != make_pwl(parse("2*t1", 1), [(0, 1)])
        assert f != (f.dim, f.expr, f.comp)
        assert repr(f) == (
            "PwlFunction(dim=2, expr=<Scale 2*t1>, "
            "comp=((Fraction(1, 1), Fraction(0, 1)),))"
        )

    def test_arrangement_and_cells_are_immutable(self):
        arr = arrangement_for(pw(r"t1 \/ t2", 2))
        cell = arr.cells[0]
        for obj in (arr, cell):
            for field in obj._fields:
                with pytest.raises(AttributeError):
                    setattr(obj, field, ())
                with pytest.raises(AttributeError):
                    delattr(obj, field)
            with pytest.raises(AttributeError):
                obj.other = 1
        assert hash(cell) == hash((cell.signs, cell.interior))
        assert repr(cell).startswith("Cell(signs=(")
        assert repr(arr).startswith("Arrangement(dim=2, hyperplanes=((")


def _rational_pwl(rng, arity, dim):
    """A random expression with non-integral coefficients, composed with
    rows that mix integral and non-integral entries."""
    images = [
        Scale(F(rng.randint(-5, 5), rng.randint(1, 4)), Var(i + 1)) for i in range(arity)
    ]
    coeff = F(rng.randint(1, 7), rng.randint(1, 3))
    expr = Scale(coeff, substitute(random_expr(rng, arity), images))
    comp = [
        tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2, 5))) for _ in range(dim))
        for _ in range(arity)
    ]
    return make_pwl(expr, comp)


def _mixed_point(rng, dim):
    return tuple(
        rng.randint(-9, 9) if rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(dim)
    )


class TestEvalMany:
    def test_matches_the_fraction_program(self):
        rng = random.Random(31)
        for _ in range(150):
            dim = rng.randint(1, 4)
            f = _rational_pwl(rng, rng.randint(1, 3), dim)
            points = [_mixed_point(rng, dim) for _ in range(rng.randint(0, 12))]
            got = f.eval_many(points)
            assert all(type(v) is Fraction for v in got)
            assert got == [
                eval_program(f.program, tuple(dot(row, vec(x)) for row in f.comp))
                for x in points
            ]
            if points:
                assert f.eval(points[0]) == got[0]

    def test_wrong_length_point(self):
        f = pw(r"t1 \/ t2", 2)
        with pytest.raises(DimensionError):
            f.eval_many([(1, 2), (1, 2, 3)])
        with pytest.raises(DimensionError):
            f.eval((F(1, 2),))

    def test_equivalent_returns_the_first_differing_point(self):
        def reference(f, g):
            for r in rays(f.dim, kinks(f) | kinks(g)):
                if f.eval(r) != g.eval(r):
                    return False, r
            return True, None

        rng = random.Random(32)
        for _ in range(60):
            dim = rng.randint(1, 3)
            fe, ge, _ = random_pair(rng, dim)
            f, g = PwlFunction.from_expr(fe, dim), PwlFunction.from_expr(ge, dim)
            assert equivalent(f, g) == reference(f, g)
        # the bump lives on a thin cone; the witness is its first ray
        f = pw(r"2*t1 \/ 3*t2", 2)
        g = pw(r"2*t1 \/ 3*t2 + ((t1 - 6*t2) /\ (7*t2 - t1))^+", 2)
        assert equivalent(f, g) == reference(f, g) == (False, (F(13), F(2)))


class TestLinearPieces:
    def test_running_example_pieces(self):
        f = pw(RUNNING, 3)
        assert linear_pieces(f) == {
            (F(2), F(0), F(0)),
            (F(1), F(0), F(2)),
            (F(1), F(1), F(0)),
            (F(0), F(1), F(2)),
        }

    def test_linear_function_single_piece(self):
        f = pw("t1 + 2*t2", 2)
        assert linear_pieces(f) == {(F(1), F(2))}

    def test_pieces_cover_every_point(self):
        rng = random.Random(5)
        f = pw(r"|t1| \/ (t2 - t1) /\ 2*t2", 2)
        pieces = linear_pieces(f)
        for _ in range(300):
            x = tuple(F(rng.randint(-30, 30)) for _ in range(2))
            assert any(dot(p, x) == f.eval(x) for p in pieces)


class TestArrangement:
    def test_canonical_normals_dedupe_sign_and_scale(self):
        normals = canonical_normals([(2, -2), (-1, 1), (1, -1), (0, 0)])
        assert list(normals) == [(F(1), F(-1))]

    def test_running_example_arrangement(self):
        f = pw(RUNNING, 3)
        arr = arrangement_for(f)
        hp = arr.hyperplanes
        assert len(hp) == 4
        assert (F(1), F(-1), F(0)) in hp
        assert (F(1), F(0), F(-2)) in hp
        assert len(arr.cells) == 8

    def test_cell_interiors_realize_their_sign_vectors(self):
        f = pw(RUNNING, 3)
        arr = arrangement_for(f)
        for cell in arr.cells:
            assert signs_at(arr, cell.interior) == cell.signs
            assert 0 not in cell.signs

    def test_grid_points_realize_only_enumerated_cells(self):
        f = pw(RUNNING, 3)
        arr = arrangement_for(f)
        hp = arr.hyperplanes
        enum = {c.signs for c in arr.cells}
        rng = random.Random(20260814)
        realized = set()
        for _ in range(4000):
            x = tuple(F(rng.randint(-50, 50)) for _ in range(3))
            s = tuple(
                0 if (v := sum(c * xi for c, xi in zip(h, x))) == 0
                else (1 if v > 0 else -1)
                for h in hp
            )
            if 0 not in s:
                realized.add(s)
        assert realized == enum

    def test_empty_arrangement_single_cell(self):
        arr = build_arrangement(2, ())
        assert len(arr.cells) == 1
        assert arr.cells[0].signs == ()


class TestActivePiece:
    def test_running_example_cell_of_2_3_0(self):
        f = pw(RUNNING, 3)
        arr = arrangement_for(f)
        signs = signs_at(arr, (2, 3, 0))
        assert 0 not in signs
        cell = next(c for c in arr.cells if c.signs == signs)
        assert active_piece(f, cell) == (F(2), F(0), F(0))
        assert f.eval((2, 3, 0)) == 4

    def test_two_cells_of_a_join(self):
        g = pw(r"t1 \/ t2", 2)
        arr = arrangement_for(g)
        assert len(arr.cells) == 2
        pos = next(c for c in arr.cells if g.eval(c.interior) == c.interior[0])
        assert active_piece(g, pos) == (F(1), F(0))

    def test_abs_negative_side(self):
        h = pw("|t1|", 1)
        arr = arrangement_for(h)
        neg = next(c for c in arr.cells if c.interior[0] < 0)
        assert active_piece(h, neg) == (F(-1),)


class TestEquivalent:
    def test_add_distributes_over_join(self):
        a = pw(r"t1 + (t2 \/ t3)", 3)
        b = pw(r"(t1 + t2) \/ (t1 + t3)", 3)
        eq, witness = equivalent(a, b)
        assert eq and witness is None

    def test_join_vs_meet_witnessed(self):
        a = pw(r"t1 \/ t2", 2)
        b = pw(r"t1 /\ t2", 2)
        eq, witness = equivalent(a, b)
        assert not eq
        assert a.eval(witness) != b.eval(witness)

    def test_abs_decomposition(self):
        eq, _ = equivalent(pw("|t1|", 2), pw("t1^+ + t1^-", 2))
        assert eq

    def test_jordan_decomposition(self):
        eq, _ = equivalent(pw("t1", 2), pw("t1^+ - t1^-", 2))
        assert eq

    def test_different_compositions_same_function(self):
        f = make_pwl(parse("t1 + t2", 2), [(1, 0), (0, 1)])
        g = make_pwl(parse("t1", 1), [(1, 1)])
        eq, _ = equivalent(f, g)
        assert eq

    def test_scaling_meets(self):
        a = pw(r"2*(t1 /\ t2)", 2)
        b = pw(r"(2*t1) /\ (2*t2)", 2)
        eq, _ = equivalent(a, b)
        assert eq

    def test_negative_scaling_swaps_join_to_meet(self):
        a = pw(r"-1*(t1 \/ t2)", 2)
        b = pw(r"(-1*t1) /\ (-1*t2)", 2)
        eq, _ = equivalent(a, b)
        assert eq

    def test_is_zero(self):
        assert is_zero(zero_pwl(3))
        j = pw(r"t1 \/ t2", 2)
        assert is_zero(pwl_add(j, pwl_scale(F(-1), j)))
        assert not is_zero(j)


class TestCombinators:
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.fractions(min_value=-6, max_value=6, max_denominator=5)] * 2)
    )
    def test_pointwise_algebra(self, x):
        f = pw(r"t1 /\ 2*t2", 2)
        g = pw("|t2 - t1|", 2)
        assert pwl_add(f, g).eval(x) == f.eval(x) + g.eval(x)
        assert pwl_sup(f, g).eval(x) == max(f.eval(x), g.eval(x))
        assert pwl_inf(f, g).eval(x) == min(f.eval(x), g.eval(x))
        assert pwl_abs(f).eval(x) == abs(f.eval(x))
        assert pwl_scale(F(-3, 2), f).eval(x) == F(-3, 2) * f.eval(x)
