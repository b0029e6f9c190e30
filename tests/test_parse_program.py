"""`parse` interns the program while it reads the text.  These tests hold it
to a copy of the recursive-descent parser it replaced, which built a node
tree for `compile_expr` to intern: the two must give the same slots, the
same max_var and the same errors."""

import random
import sys
from fractions import Fraction

import pytest

from latfree import expr
from latfree.errors import ExprSyntaxError
from latfree.expr import (
    Add,
    Inf,
    Scale,
    Sup,
    Var,
    compile_expr,
    parse,
    print_expr,
)
from latfree.pwl import PwlFunction, equivalent
from latfree.sampling import random_expr

F = Fraction


# ---------------------------------------------------------------------------
# the reference: a tree-building recursive-descent parser, then compile_expr
# ---------------------------------------------------------------------------


class _TreeParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_sup()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.next()[0]
            right = self.parse_sup()
            node = Add(node, right if op == "PLUS" else Scale(F(-1), right))
        return node

    def parse_sup(self):
        node = self.parse_inf()
        while self.peek()[0] == "SUP":
            self.next()
            node = Sup(node, self.parse_inf())
        return node

    def parse_inf(self):
        node = self.parse_factor()
        while self.peek()[0] == "INF":
            self.next()
            node = Inf(node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_primary()
        while self.peek()[0] in ("POSPART", "NEGPART"):
            if self.next()[0] == "POSPART":
                node = Sup(node, Scale(F(0), node))
            else:
                node = Sup(Scale(F(-1), node), Scale(F(0), node))
        return node

    def parse_rational(self, negative):
        tok = self.expect("INT", "an integer")
        num = -tok[1] if negative else tok[1]
        if self.peek()[0] == "SLASH":
            self.next()
            den_tok = self.expect("INT", "a positive denominator")
            if den_tok[1] == 0:
                raise ExprSyntaxError("zero denominator", den_tok[2])
            return F(num, den_tok[1])
        return F(num)

    def nested(self, parse_inner, at):
        if self.depth == 100:
            raise ExprSyntaxError("nesting deeper than 100 levels", at)
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse_primary(self):
        kind, value, at = self.peek()
        if kind == "VAR":
            self.next()
            return Var(value)
        if kind in ("INT", "MINUS"):
            negative = kind == "MINUS"
            if negative:
                self.next()
            coeff = self.parse_rational(negative)
            self.expect("STAR", "'*' after a coefficient")
            return Scale(coeff, self.nested(self.parse_factor, at))
        if kind == "PIPE":
            self.next()
            inner = self.nested(self.parse_expr, at)
            self.expect("PIPE", "a closing '|'")
            return Sup(inner, Scale(F(-1), inner))
        if kind == "LPAREN":
            self.next()
            inner = self.nested(self.parse_expr, at)
            self.expect("RPAREN", "a closing ')'")
            return inner
        raise ExprSyntaxError("expected a variable, coefficient, '|', or '('", at)


def reference_tree(text):
    parser = _TreeParser(expr._tokenize(text))
    tree = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "EOF":
        raise ExprSyntaxError("unexpected trailing input", at)
    return tree


def reference_program(text):
    return compile_expr(reference_tree(text))


def _typed(prog):
    """The slots with each operand's type, so 2 and Fraction(2) differ."""
    return [(kind, a, type(a), b) for kind, a, b in prog.slots], prog.max_var


def mismatches(texts, arity):
    """The texts whose parsed program differs from the reference's."""
    return [
        text for text in texts
        if _typed(parse(text, arity).program) != _typed(reference_program(text))
    ]


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

SUGAR = [
    "|t1|", "t1^+", "t1^-", "t1 - t2", "t1 - t1",
    "(t1 - t2)^-", "|t1 - t2|^+^-", "t1^-^+", "t1^-^-", "|t1|^-",
    "-1*t1 - t1", "t1 - -1*t1", "|t1| - t1^-", r"(-1*t1) \/ t1^-",
    r"0*t1 + t1^-", r"t1^- \/ (-1*t1 \/ 0*t1)", "||t1| - |t2||",
    "|t1 - t2| - |t2 - t1|", "2*t1^-", "-1/2*|t1|^+", "(t1^+)^-",
    "|(t1 - t2)^-| - (t2 - t1)^+", "t1^+ - t1^- - |t1|",
]

CHAINS = [
    r"t1 + t2 \/ t3 /\ t1 - t2",
    r"t1 /\ t2 \/ t3 + t1 /\ t2 - t3 \/ t1",
    "t1 - t2 - t3 + t1",
    r"t1 \/ t2 - t3 /\ t1 + t2",
    r"t1 /\ t2 /\ t3 \/ t1 \/ t2",
    r"(t1 + t2) /\ (t2 - t3) \/ t1",
    r"t1 - (t2 - (t3 - t1)) \/ -2/3*t2 /\ 4/2*t3",
    r"t1 \/ t1 + t1 /\ t1 - t1",
]


def _random_chain(rng, depth=0):
    """Factors of every form joined by random binary operators."""
    parts = []
    for i in range(rng.randint(1, 5)):
        if i:
            parts.append(rng.choice([" + ", " - ", r" \/ ", r" /\ "]))
        roll = rng.randrange(5 if depth < 3 else 2)
        if roll <= 1:
            factor = f"t{rng.randint(1, 3)}"
        elif roll == 2:
            factor = f"({_random_chain(rng, depth + 1)})"
        elif roll == 3:
            factor = f"|{_random_chain(rng, depth + 1)}|"
        else:
            c = rng.choice(["2", "-1", "0", "1/2", "-3/4", "6/3"])
            factor = f"{c}*({_random_chain(rng, depth + 1)})"
        parts.append(factor + rng.choice(["", "", "^+", "^-", "^+^-"]))
    return "".join(parts)


def _sampled_texts():
    rng = random.Random(32)
    return [
        print_expr(random_expr(rng, 3, lattice_ops=rng.randint(1, 4), max_pieces=12))
        for _ in range(60)
    ]


def _long_sum(rng, terms):
    signs = [" + ", " - "]
    parts = [f"{rng.choice([-3, -2, -1, 1, 2, 3])}*t{rng.randint(1, 3)}" for _ in range(terms)]
    parts[rng.randrange(terms)] = f"|t{rng.randint(1, 3)}|"
    return parts[0] + "".join(rng.choice(signs) + p for p in parts[1:])


def _nested_abs(rng, depth):
    text = "t1"
    for level in range(depth):
        c = rng.choice([-2, -1, 2])
        text = f"|{text} + {c}*t2|" if level < 2 else f"|{c}*{text}|"
    return text


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestSameProgramAsTheTreeParser:
    def test_sugar_forms(self):
        assert mismatches(SUGAR, 2) == []

    def test_mixed_precedence_chains(self):
        rng = random.Random(7)
        texts = CHAINS + [_random_chain(rng) for _ in range(300)]
        assert mismatches(texts, 3) == []

    def test_printed_sampled_expressions(self):
        assert mismatches(_sampled_texts(), 3) == []

    def test_long_sums_and_deep_abs(self):
        rng = random.Random(250)
        texts = [_long_sum(rng, 250) for _ in range(4)]
        texts += [_nested_abs(rng, 7) for _ in range(4)]
        texts.append("|" * 7 + "t1" + "|" * 7)
        assert mismatches(texts, 3) == []

    def test_printed_form_is_unchanged(self):
        rng = random.Random(11)
        texts = SUGAR + CHAINS + [_random_chain(rng) for _ in range(50)]
        for text in texts:
            assert print_expr(parse(text, 3)) == print_expr(reference_tree(text))

    def test_the_root_carries_its_program(self):
        e = parse("|t1 - t2| + t1^-", 2)
        assert "program" in e.__dict__
        assert e.program == compile_expr(e)

    def test_swapping_the_scales_of_a_negative_part_is_caught(self, monkeypatch):
        def swapped(self, e):
            zero = self.intern(Scale, 0, e)
            return self.intern(Sup, self.intern(Scale, -1, e), zero)

        monkeypatch.setattr(expr._Parser, "neg_part", swapped)
        assert "t1^-" in mismatches(SUGAR, 2)


MALFORMED = [
    "", "t", "t0", "1/0*t1", "2 t1", "t1 ^ +", "t1 \\ t2", "\\", "|t1",
    "(t1", "t1 +", "t1 & t2", "2*", "t1 t2", "t1 + 2", "2", "t1))",
    "|t1|)", "3/*t1", "-t1", "t1 ^-^", r"t1 \/", r"t1 /\ /\ t2", "t1 - - t2",
    "|t1 + |t2|", "(t1 | t2)", "1/-2*t1", "2**t1", r"t1 \/ (t2 /\ )",
    "(" * 101 + "t1" + ")" * 101,
    "|" * 101 + "t1" + "|" * 101,
    "2*" * 101 + "t1",
    "(" * 50 + "|" * 51 + "t1" + "|" * 51 + ")" * 50,
    "(" * 100 + "t1" + ")" * 99,
]


class TestSameErrorsAsTheTreeParser:
    @pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
    def test_message_and_position(self, text):
        with pytest.raises(ExprSyntaxError) as ref:
            reference_program(text)
        with pytest.raises(ExprSyntaxError) as new:
            parse(text, 3)
        assert str(new.value) == str(ref.value)
        assert new.value.position == ref.value.position

    @pytest.mark.parametrize(
        "text",
        ["(" * 100 + "t1" + ")" * 100, "|" * 100 + "t1" + "|" * 100, "2*" * 100 + "t1",
         "(" * 50 + "|" * 50 + "t1" + "|" * 50 + ")" * 50],
        ids=["parens", "abs", "scale", "mixed"],
    )
    def test_nesting_at_the_cap_is_read(self, text):
        assert mismatches([text], 1) == []

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="the interpreter reads a 5000-digit literal",
    )
    def test_an_overlong_literal_is_a_syntax_error_at_its_position(self):
        digits = "9" * 5000
        with pytest.raises(ExprSyntaxError) as exc:
            parse(f"t1 + {digits}*t1", 1)
        assert exc.value.position == 5
        assert "integer literal of 5000 digits" in str(exc.value)
        with pytest.raises(ExprSyntaxError) as exc:
            parse(f"t1 + t{digits}", 1)
        assert exc.value.position == 5


class TestParsedTextIsNotCompiledAgain:
    def test_work_runs_on_the_parsed_program(self, monkeypatch):
        def refuse(e):
            raise AssertionError("compile_expr called on parsed text")

        monkeypatch.setattr(expr, "compile_expr", refuse)
        f = PwlFunction.from_expr(parse("|t1 - t2| + t1^-", 2), 2)
        g = PwlFunction.from_expr(parse(r"((t1 - t2) \/ (t2 - t1)) + (-1*t1 \/ 0*t1)", 2), 2)
        h = PwlFunction.from_expr(parse("t1 + t2", 2), 2)
        assert print_expr(f.expr) == "|t1 - t2| + (t1)^-"
        assert equivalent(f, g) == (True, None)
        assert equivalent(f, h)[0] is False
        assert f.eval((3, 5)) == 2
