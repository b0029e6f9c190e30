"""Lattice-linear expressions: AST, parser, printer, compiled form.

An expression is built from positional variables t1..tn with rational
scaling, addition, and the binary lattice joins/meets.  Absolute value,
positive/negative part, and subtraction are surface syntax only; the
parser expands them, so the core AST has exactly five node kinds.  |e|,
e^+ and e^- use e twice, so an AST is a DAG.  Every walk over it is a
`fold` over the `Program` that `compile_expr` interns from it, one slot
per distinct subterm, so no walk recurses or repeats a shared subterm.

Grammar (whitespace-insensitive)::

    expr     := term (("+" | "-") term)*
    term     := meetchain ("\\/" meetchain)*
    meetchain:= factor ("/\\" factor)*
    factor   := rational "*" factor | "|" expr "|" | factor "^+"
              | factor "^-" | "(" expr ")" | var
    var      := "t" positive-integer
    rational := ["-"] integer | ["-"] integer "/" positive-integer

"/\\" binds tighter than "\\/"; both bind tighter than "+"/"-"; all are
left-associative.  The leading "-" on a rational is accepted so that
printed negative coefficients round-trip.  "(", "|" and "c*" may nest at
most 100 deep; deeper input is an ExprSyntaxError.  The printer writes a
join back as |x|, (x)^+ or (x)^- when it is that expansion.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import ArityError, CapacityError, DimensionError, ExprSyntaxError
from .qmath import MAX_DIM, to_fraction


class Frozen:
    """Immutable instances: assigning or deleting an attribute raises
    AttributeError, so an __init__ writes its fields to the instance dict."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Node(Frozen):
    """Equality, hash and repr of a node through its compiled program, so
    that none of them walks the shared DAG path by path or recurses."""

    @cached_property
    def program(self) -> "Program":
        return compile_expr(self)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self.program == other.program

    def __hash__(self):
        return hash(self.program)

    def __repr__(self):
        return f"<{type(self).__name__} {print_expr(self)}>"


class Var(_Node):
    """Positional variable t<index>, 1-based."""

    __match_args__ = ("index",)

    def __init__(self, index: int):
        self.__dict__["index"] = index


class Scale(_Node):
    """Rational multiple of a subexpression."""

    __match_args__ = ("coeff", "child")

    def __init__(self, coeff: Fraction, child: Expr):
        fields = self.__dict__
        fields["coeff"] = coeff
        fields["child"] = child


class _Pair(_Node):
    """A node of two subexpressions."""

    __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right


class Add(_Pair):
    """Sum of two subexpressions."""


class Sup(_Pair):
    """Pointwise maximum (lattice join)."""


class Inf(_Pair):
    """Pointwise minimum (lattice meet)."""


Expr = Var | Scale | Add | Sup | Inf


def abs_expr(e: Expr) -> Expr:
    """|e| as core syntax: e join (-1)*e."""
    return Sup(e, Scale(Fraction(-1), e))


def pos_part(e: Expr) -> Expr:
    """e^+ as core syntax: e join 0*e."""
    return Sup(e, Scale(Fraction(0), e))


def neg_part(e: Expr) -> Expr:
    """e^- as core syntax: (-1)*e join 0*e."""
    return Sup(Scale(Fraction(-1), e), Scale(Fraction(0), e))


def sub_expr(left: Expr, right: Expr) -> Expr:
    """left - right as core syntax: left + (-1)*right."""
    return Add(left, Scale(Fraction(-1), right))


# ---------------------------------------------------------------------------
# compiled form: one interned program, one fold
# ---------------------------------------------------------------------------

_NODE_TYPES = (Var, Scale, Add, Sup, Inf)


class Program(namedtuple("Program", "slots max_var")):
    """Interned slots (kind, a, b) in topological order, the root last:
    (Var, i, None) reads t_i, (Scale, c, s) is c times slot s, and
    (Add | Sup | Inf, s, u) combines slots s and u.  No two slots are
    equal, so equal expressions compile to equal programs.  max_var is
    the highest variable index."""

    __slots__ = ()


def compile_expr(e: Expr) -> Program:
    """Intern e bottom-up, visiting each node object once, without recursion."""
    interned: dict[tuple, int] = {}  # slot -> its index, in slot order
    slot_of: dict[int, int] = {}  # id(node) -> index of its slot
    stack = [e]
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind not in _NODE_TYPES:
            raise TypeError(f"not an expression node: {node!r}")
        if kind is Var:
            key = (Var, node.index, None)
        else:
            kids = (node.child,) if kind is Scale else (node.left, node.right)
            todo = [k for k in kids if id(k) not in slot_of]
            if todo:
                stack.extend(reversed(todo))
                continue
            a, b = slot_of[id(kids[0])], slot_of[id(kids[-1])]
            key = (Scale, to_fraction(node.coeff), a) if kind is Scale else (kind, a, b)
        stack.pop()
        slot_of[id(node)] = interned.setdefault(key, len(interned))
    slots = tuple(interned)
    return Program(slots, max(a for kind, a, _ in slots if kind is Var))


def fold(prog: Program, var, scale, add, sup, inf):
    """The root's value, computing each slot once from its operands' values:
    var(i) is the value of t_i, scale(c, v) that of c times v, and
    add/sup/inf combine two values."""
    combine = {Add: add, Sup: sup, Inf: inf}
    vals: list = []
    for kind, a, b in prog.slots:
        if kind is Var:
            vals.append(var(a))
        elif kind is Scale:
            vals.append(scale(a, vals[b]))
        else:
            vals.append(combine[kind](vals[a], vals[b]))
    return vals[-1]


def eval_program(prog: Program, xs: tuple[Fraction, ...]) -> Fraction:
    """Exact value of a compiled expression at the rational vector xs."""
    if prog.max_var > len(xs):
        raise DimensionError(
            f"variable t{prog.max_var} needs a vector of length >= {prog.max_var}, "
            f"got {len(xs)}"
        )
    return fold(prog, lambda i: xs[i - 1], operator.mul, operator.add, max, min)


def eval_expr(e: Expr, x) -> Fraction:
    """Evaluate at a rational vector; length must cover every variable."""
    return eval_program(e.program, tuple(to_fraction(v) for v in x))


def substitute(e: Expr, images) -> Expr:
    """Replace t_i by images[i-1]; the result ranges over the images' arity.

    Equal subterms of e become one shared node of the result.
    """
    imgs = tuple(images)
    prog = e.program
    if prog.max_var > len(imgs):
        raise ArityError(
            f"variable t{prog.max_var} has no image among {len(imgs)} expressions"
        )
    return fold(prog, lambda i: imgs[i - 1], Scale, Add, Sup, Inf)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_SIMPLE_TOKENS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "|": "PIPE",
                  "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SIMPLE_TOKENS:
            tokens.append((_SIMPLE_TOKENS[ch], None, i))
            i += 1
            continue
        if ch == "\\":
            if text.startswith("\\/", i):
                tokens.append(("SUP", None, i))
                i += 2
                continue
            raise ExprSyntaxError("stray backslash", i)
        if ch == "/":
            if text.startswith("/\\", i):
                tokens.append(("INF", None, i))
                i += 2
                continue
            tokens.append(("SLASH", None, i))
            i += 1
            continue
        if ch == "^":
            if text.startswith("^+", i):
                tokens.append(("POSPART", None, i))
                i += 2
                continue
            if text.startswith("^-", i):
                tokens.append(("NEGPART", None, i))
                i += 2
                continue
            raise ExprSyntaxError("'^' must be followed by '+' or '-'", i)
        if ch == "t":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("'t' must be followed by a variable index", i)
            index = int(text[i + 1 : j])
            if index < 1:
                raise ExprSyntaxError("variable indices start at t1", i)
            tokens.append(("VAR", index, i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


# Each "(", "|" or "c*" prefix costs a few Python frames of the descent.
_MAX_NESTING = 100


class _Parser:
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

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_sup()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.next()[0]
            right = self.parse_sup()
            node = Add(node, right) if op == "PLUS" else sub_expr(node, right)
        return node

    def parse_sup(self) -> Expr:
        node = self.parse_inf()
        while self.peek()[0] == "SUP":
            self.next()
            node = Sup(node, self.parse_inf())
        return node

    def parse_inf(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[0] == "INF":
            self.next()
            node = Inf(node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_primary()
        while self.peek()[0] in ("POSPART", "NEGPART"):
            kind = self.next()[0]
            node = pos_part(node) if kind == "POSPART" else neg_part(node)
        return node

    def parse_rational(self, negative: bool) -> Fraction:
        tok = self.expect("INT", "an integer")
        num = -tok[1] if negative else tok[1]
        if self.peek()[0] == "SLASH":
            self.next()
            den_tok = self.expect("INT", "a positive denominator")
            if den_tok[1] == 0:
                raise ExprSyntaxError("zero denominator", den_tok[2])
            return Fraction(num, den_tok[1])
        return Fraction(num)

    def nested(self, parse, at: int) -> Expr:
        """parse() one nesting level deeper; past _MAX_NESTING levels, fail at `at`."""
        if self.depth == _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", at)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_primary(self) -> Expr:
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
            return abs_expr(inner)
        if kind == "LPAREN":
            self.next()
            inner = self.nested(self.parse_expr, at)
            self.expect("RPAREN", "a closing ')'")
            return inner
        raise ExprSyntaxError("expected a variable, coefficient, '|', or '('", at)


def parse(text: str, arity: int) -> Expr:
    """Parse expression text; every variable index must be <= arity."""
    if arity < 1:
        raise ArityError("arity must be at least 1")
    if arity > MAX_DIM:
        raise CapacityError("arity", MAX_DIM, arity)
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    node = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "EOF":
        raise ExprSyntaxError("unexpected trailing input", at)
    highest = max(tok[1] for tok in tokens if tok[0] == "VAR")
    if highest > arity:
        raise ArityError(
            f"variable t{highest} exceeds declared arity {arity}"
        )
    return node


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def _flatten(rope) -> str:
    """Join a text rope: a str, or a tuple of ropes, possibly shared."""
    out, stack = [], [rope]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            stack.extend(reversed(part))
    return "".join(out)


def print_expr(e: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) == e.

    The parser's expansions of |x|, (x)^+ and (x)^- print as that sugar,
    so the text stays linear in the program.  A folded value is
    (form, rope[, coeff, operand]); the form says how the text binds.
    """

    def wrap(v):
        return v[1] if v[0] in ("var", "atom") else ("(", v[1], ")")

    def spine(v, form):
        return v[1] if v[0] == form else wrap(v)

    def scale(c, v):
        return ("scale", (str(c), "*", wrap(v)), c, v)

    def add(u, v):
        if v[0] == "scale" and v[2] == -1:
            return ("add", (spine(u, "add"), " - ", wrap(v[3])))
        return ("add", (spine(u, "add"), " + ", wrap(v)))

    def sup(u, v):
        if v[0] == "scale" and v[3] is u and v[2] in (-1, 0):
            return ("atom", ("|", u[1], "|") if v[2] else ("(", u[1], ")^+"))
        if u[0] == v[0] == "scale" and u[3] is v[3] and (u[2], v[2]) == (-1, 0):
            return ("atom", ("(", u[3][1], ")^-"))
        return ("sup", (spine(u, "sup"), " \\/ ", wrap(v)))

    def inf(u, v):
        return ("inf", (spine(u, "inf"), " /\\ ", wrap(v)))

    text = fold(e.program, lambda i: ("var", f"t{i}"), scale, add, sup, inf)
    return _flatten(text[1])
