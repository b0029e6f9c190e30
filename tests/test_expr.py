import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfree.errors import ArityError, CapacityError, DimensionError, ExprSyntaxError
from latfree.expr import (
    Add,
    Inf,
    Scale,
    Sup,
    Var,
    compile_expr,
    eval_expr,
    parse,
    print_expr,
    substitute,
)
from latfree.free import LatticeMap, extend_hom
from latfree.norm import fvl_space, seq_space
from latfree.pwl import PwlFunction, linear_pieces
from latfree.sampling import equivalent_variant, random_expr
from latfree.selftest import _mc_eval

F = Fraction


class TestParse:
    def test_variable(self):
        assert parse("t1", 1) == Var(1)
        assert parse(" t12 ", 12) == Var(12)

    def test_precedence_inf_tighter_than_sup(self):
        e = parse(r"t1 \/ t2 /\ t3", 3)
        assert e == Sup(Var(1), Inf(Var(2), Var(3)))

    def test_precedence_lattice_tighter_than_add(self):
        e = parse(r"t1 + t2 \/ t3", 3)
        assert e == Add(Var(1), Sup(Var(2), Var(3)))

    def test_left_associativity(self):
        assert parse("t1 + t2 + t3", 3) == Add(Add(Var(1), Var(2)), Var(3))
        assert parse(r"t1 \/ t2 \/ t3", 3) == Sup(Sup(Var(1), Var(2)), Var(3))

    def test_coefficients(self):
        assert parse("2*t1", 1) == Scale(F(2), Var(1))
        assert parse("2/3*t1", 1) == Scale(F(2, 3), Var(1))
        assert parse("-1*t1", 1) == Scale(F(-1), Var(1))
        assert parse("-5/7*(t1 + t2)", 2) == Scale(F(-5, 7), Add(Var(1), Var(2)))

    def test_sugar_expands_to_core(self):
        assert parse("|t1|", 1) == Sup(Var(1), Scale(F(-1), Var(1)))
        assert parse("t1^+", 1) == Sup(Var(1), Scale(F(0), Var(1)))
        assert parse("t1^-", 1) == Sup(Scale(F(-1), Var(1)), Scale(F(0), Var(1)))
        assert parse("t1 - t2", 2) == Add(Var(1), Scale(F(-1), Var(2)))

    def test_nested_abs(self):
        e = parse("||t1| - t2|", 2)
        assert eval_expr(e, (3, 5)) == 2
        assert eval_expr(e, (-3, 1)) == 2

    def test_parentheses_override(self):
        e = parse(r"(t1 + t2) \/ t3", 3)
        assert e == Sup(Add(Var(1), Var(2)), Var(3))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "t",
            "t0",
            "(t1",
            "t1 +",
            "2 t1",
            "t1 ^ +",
            "1/0*t1",
            "t1 & t2",
            "|t1",
            "2*",
            "t1 t2",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse(bad, 3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("t1 + %", 2)
        assert exc.value.position == 5

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("t²", 0, "'t' must be followed by a variable index"),
            ("2³*t1", 1, "unexpected character '³'"),
        ],
    )
    def test_non_decimal_digits_are_syntax_errors(self, text, position, message):
        # str.isdigit holds for superscripts, which int() does not read
        with pytest.raises(ExprSyntaxError, match=message) as exc:
            parse(text, 1)
        assert exc.value.position == position

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            parse("t3", 2)
        with pytest.raises(ArityError):
            parse("t1", 0)

    def test_arity_cap(self):
        assert parse("t32", 32) == Var(32)
        with pytest.raises(CapacityError, match="arity: 33 exceeds the cap of 32"):
            parse("t1", 33)

    def test_nesting_cap(self):
        assert parse("(" * 100 + "t1" + ")" * 100, 1) == Var(1)
        with pytest.raises(ExprSyntaxError) as exc:
            parse("(" * 101 + "t1" + ")" * 101, 1)
        assert exc.value.position == 100
        for deep in ("|" * 101 + "t1" + "|" * 101, "2*" * 101 + "t1"):
            with pytest.raises(ExprSyntaxError):
                parse(deep, 1)

    def test_numeric_literal_requires_star(self):
        with pytest.raises(ExprSyntaxError):
            parse("2", 1)
        with pytest.raises(ExprSyntaxError):
            parse("t1 + 2", 1)


class TestEval:
    def test_running_example_value(self):
        e = parse(r"t1 /\ t2 + t1 \/ (2*t3)", 3)
        assert eval_expr(e, (1, 2, 3)) == 7

    def test_rational_arithmetic(self):
        e = parse(r"1/2*t1 \/ t2", 2)
        assert eval_expr(e, (F(1, 3), F(1, 7))) == F(1, 6)

    def test_short_vector_rejected(self):
        with pytest.raises(DimensionError):
            eval_expr(parse("t2", 2), (1,))

    def test_coordinatewise_lattice_ops(self):
        # the extension along generator images acts coordinatewise in R^2
        el = PwlFunction.from_expr(parse(r"t1 \/ t2", 2), 2)
        phi = LatticeMap(fvl_space(2), seq_space(1, 2), images=((1, 0), (0, 2)))
        assert extend_hom(phi, el) == (F(1), F(2))

    def test_coordinatewise_dimension_check(self):
        with pytest.raises(DimensionError):
            LatticeMap(fvl_space(1), seq_space(1, 3), images=((1, 2),))
        phi = LatticeMap(fvl_space(2), seq_space(1, 3), images=((1, 2, 3), (4, 5, 6)))
        with pytest.raises(DimensionError):
            extend_hom(phi, PwlFunction.from_expr(parse("t1", 1), 1))


class TestStructure:
    def test_max_var_index(self):
        e = parse(r"t2 + t5 /\ t1", 5)
        assert e.program.max_var == 5

    def test_substitute(self):
        e = parse(r"t1 \/ t2", 2)
        out = substitute(e, [parse("t3", 3), parse("2*t1", 3)])
        assert out == Sup(Var(3), Scale(F(2), Var(1)))
        with pytest.raises(ArityError):
            substitute(e, [Var(1)])


class TestPrint:
    def test_sugar_prints_as_sugar(self):
        assert print_expr(parse("|t1|", 1)) == "|t1|"
        assert print_expr(parse("t1^+", 1)) == "(t1)^+"
        assert print_expr(parse("t1^-", 1)) == "(t1)^-"
        assert print_expr(parse("||t1| - t2| + 2*|t2|", 2)) == "||t1| - t2| + (2*|t2|)"

    def test_core_forms_print_as_before(self):
        assert print_expr(parse(r"t1 - t2 + -2*t1", 2)) == "t1 - t2 + (-2*t1)"
        text = r"(t1 \/ t2) /\ t1 \/ t2"
        assert print_expr(parse(text, 2)) == r"((t1 \/ t2) /\ t1) \/ t2"

    def test_deep_abs_stays_linear(self):
        text = "|" * 40 + "t1" + "|" * 40
        e = parse(text, 1)
        prog = compile_expr(e)
        assert len(prog.slots) == 81
        printed = print_expr(e)
        assert len(printed) < 10 * len(text)
        # compare programs: == on the shared 40-deep tree walks 2**40 paths
        assert compile_expr(parse(printed, 1)) == prog


class TestCompile:
    def test_equal_subterms_share_a_slot(self):
        e = Add(Sup(Var(1), Var(2)), Sup(Var(1), Var(2)))
        prog = compile_expr(e)
        assert len(prog.slots) == 4
        assert prog.max_var == 2
        assert prog == compile_expr(Add(*[Sup(Var(1), Var(2))] * 2))

    def test_coefficients_are_normalised(self):
        assert compile_expr(Scale(2, Var(1))) == compile_expr(Scale(F(2), Var(1)))

    def test_integral_coefficients_compile_to_ints(self):
        two, int_two = compile_expr(Scale(F(2), Var(1))), compile_expr(Scale(2, Var(1)))
        assert two == int_two and hash(two) == hash(int_two)
        assert [type(c) for kind, c, _ in two.slots if kind is Scale] == [int]
        half = compile_expr(parse(r"1/2*t1 \/ 4/2*t2", 2))
        assert [type(c) for kind, c, _ in half.slots if kind is Scale] == [Fraction, int]

    def test_fractional_coefficients_round_trip(self):
        assert print_expr(parse(r"1/2*t1 \/ -3/4*t2", 2)) == r"(1/2*t1) \/ (-3/4*t2)"
        rng = random.Random(37)
        for _ in range(100):
            arity = rng.randint(1, 3)
            images = [
                Scale(F(rng.randint(-9, 9), rng.randint(1, 5)), Var(i + 1))
                for i in range(arity)
            ]
            e = Scale(F(rng.choice((1, -3)), 4), substitute(random_expr(rng, arity), images))
            assert parse(print_expr(e), arity) == e

    def test_equality_hash_and_repr_go_through_the_program(self):
        assert Sup(Var(1), Var(2)) == parse(r"t1 \/ t2", 2)
        assert Sup(Var(1), Var(2)) != Sup(Var(2), Var(1))
        assert hash(Scale(2, Var(1))) == hash(Scale(F(2), Var(1)))
        assert repr(parse("|t1|", 1)) == "<Sup |t1|>"

    def test_equality_hash_and_repr_are_linear(self):
        t0 = time.perf_counter()
        long_sum = " + ".join(["t1"] * 3000)
        f = PwlFunction.from_expr(parse(long_sum, 1), 1)
        g = PwlFunction.from_expr(parse(long_sum, 1), 1)
        assert f == g and hash(f) == hash(g)
        assert repr(f).count("t1") == 3000
        deep = "|" * 24 + "t1" + "|" * 24
        assert parse(deep, 1) == parse(deep, 1)
        assert parse(deep, 1) != parse("|" + deep + " + t1|", 1)
        assert time.perf_counter() - t0 < 1.0


class TestImmutable:
    NODES = [
        (Var(1), "index"),
        (Scale(F(2), Var(1)), "coeff"),
        (Scale(F(2), Var(1)), "child"),
        (Add(Var(1), Var(2)), "left"),
        (Sup(Var(1), Var(2)), "right"),
        (Inf(Var(1), Var(2)), "left"),
    ]

    @pytest.mark.parametrize("node, field", NODES, ids=repr)
    def test_a_node_field_can_be_neither_set_nor_deleted(self, node, field):
        before = getattr(node, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(node, field, Var(3))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.other = 1
        assert getattr(node, field) is before

    def test_program_can_be_neither_set_nor_deleted(self):
        prog = parse(r"t1 \/ 2*t2", 2).program
        for field in ("slots", "max_var"):
            with pytest.raises(AttributeError):
                setattr(prog, field, ())
            with pytest.raises(AttributeError):
                delattr(prog, field)
        with pytest.raises(AttributeError):
            prog.other = 1
        assert hash(prog) == hash((prog.slots, prog.max_var))
        assert repr(prog).startswith("Program(slots=((<class 'latfree.expr.Var'>, 1, None), ")

    def test_nodes_match_positionally_and_by_keyword(self):
        match parse(r"2*t1 + t2 /\ t3", 3):
            case Add(Scale(c, Var(i)), Inf(left=Var(index=j), right=Var(k))):
                assert (c, i, j, k) == (2, 1, 2, 3)
            case _:
                pytest.fail("no match")


# The recursive walkers that compile_expr and fold replaced, kept as the
# independent reference for the differential tests below.


def ref_eval(node, xs):
    match node:
        case Var(index=i):
            return xs[i - 1]
        case Scale(coeff=c, child=ch):
            return F(c) * ref_eval(ch, xs)
        case Add(left=l, right=r):
            return ref_eval(l, xs) + ref_eval(r, xs)
        case Sup(left=l, right=r):
            return max(ref_eval(l, xs), ref_eval(r, xs))
        case Inf(left=l, right=r):
            return min(ref_eval(l, xs), ref_eval(r, xs))
    raise TypeError(node)


def ref_pieces(node, rows):
    match node:
        case Var(index=i):
            return {tuple(rows[i - 1])}
        case Scale(coeff=c, child=ch):
            return {tuple(F(c) * v for v in t) for t in ref_pieces(ch, rows)}
        case Add(left=l, right=r):
            return {
                tuple(a + b for a, b in zip(ta, tb))
                for ta in ref_pieces(l, rows)
                for tb in ref_pieces(r, rows)
            }
        case Sup(left=l, right=r) | Inf(left=l, right=r):
            return ref_pieces(l, rows) | ref_pieces(r, rows)
    raise TypeError(node)


def _differential_inputs():
    rng = random.Random(2024)
    for i in range(100):
        n = 2 + i % 2
        e = random_expr(rng, n, lattice_ops=3, max_pieces=8)
        yield n, e
        yield n, equivalent_variant(rng, e)


def test_fold_matches_recursive_reference():
    rng = random.Random(7)
    checked = 0
    for n, e in _differential_inputs():
        f = PwlFunction.from_expr(e, n)
        points = [tuple(F(rng.randint(-6, 6)) for _ in range(n)) for _ in range(4)]
        mc = _mc_eval(f, np.array([[float(v) for v in x] for x in points]))
        for x, mc_value in zip(points, mc):
            expected = ref_eval(e, x)
            assert eval_expr(e, x) == expected
            assert f.eval(x) == expected
            assert mc_value == float(expected)
        vectors = [tuple(x[j] for x in points) for j in range(n)]
        phi = LatticeMap(fvl_space(n), seq_space(1, len(points)), images=vectors)
        assert extend_hom(phi, f) == tuple(ref_eval(e, x) for x in points)
        images = [random_expr(rng, 2, lattice_ops=1) for _ in range(n)]
        out = substitute(e, images)
        y = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        assert ref_eval(out, y) == ref_eval(e, [ref_eval(img, y) for img in images])
        assert substitute(e, [Var(i + 1) for i in range(n)]) == e
        rows = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        assert linear_pieces(f) == ref_pieces(e, rows)
        checked += 1
    assert checked == 200


def test_substitute_keeps_sharing():
    out = substitute(parse("|t1 - t2|", 2), [Var(2), Var(1)])
    assert out.right.child is out.left


@pytest.mark.parametrize(
    "text, arity",
    [
        (" + ".join(f"{i % 7 - 3 or 1}*t{i % 3 + 1}" for i in range(10_000)), 3),
        ("|" * 40 + "t1" + "|" * 40, 1),
    ],
    ids=["10k-term sum", "40-deep abs"],
)
def test_large_inputs_run_in_linear_time(text, arity):
    t0 = time.perf_counter()
    e = parse(text, arity)
    x = tuple(F(j + 2, 3) for j in range(arity))
    value = eval_expr(e, x)
    printed = print_expr(e)
    pieces = linear_pieces(PwlFunction.from_expr(e, arity))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    assert eval_expr(parse(printed, arity), x) == value
    assert 1 <= len(pieces) <= 3


def _exprs(arity: int):
    rationals = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda q: q != 0)
    base = st.integers(1, arity).map(Var)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(rationals, inner).map(lambda t: Scale(t[0], t[1])),
            st.tuples(inner, inner).map(lambda t: Add(*t)),
            st.tuples(inner, inner).map(lambda t: Sup(*t)),
            st.tuples(inner, inner).map(lambda t: Inf(*t)),
        ),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_exprs(3))
def test_print_parse_round_trip(e):
    assert parse(print_expr(e), 3) == e


@settings(max_examples=80, deadline=None)
@given(
    _exprs(3),
    st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=4)] * 3),
    st.fractions(min_value=0, max_value=3, max_denominator=2),
)
def test_positive_homogeneity(e, x, lam):
    scaled = tuple(lam * v for v in x)
    assert eval_expr(e, scaled) == lam * eval_expr(e, x)
