"""Lattice-linear expressions: AST, parser, printer, compiled form.

An expression is built from positional variables t1..tn with rational
scaling, addition, and the binary lattice joins/meets.  Absolute value,
positive/negative part, and subtraction are surface syntax only; the
parser expands them, so the core AST has exactly five node kinds.  |e|,
e^+ and e^- use e twice, so an AST is a DAG.  Every walk over it is a
`fold` over its `Program`, one interned slot per distinct subterm, so no
walk recurses or repeats a shared subterm.  `parse` interns the slots
while it reads the text and returns the program's fold into nodes;
`compile_expr` interns the program of a tree built with the constructors,
and gives the same slots for the tree that the text spells out.

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
most 100 deep; deeper input is an ExprSyntaxError, and so is an integer
literal longer than the interpreter converts from a string.  The printer
writes a join back as |x|, (x)^+ or (x)^- when it is that expansion.
"""

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import ArityError, CapacityError, DimensionError, ExprSyntaxError
from .qmath import MAX_DIM, int_or_fraction, to_fraction


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


# ---------------------------------------------------------------------------
# compiled form: one interned program, one fold
# ---------------------------------------------------------------------------

_NODE_TYPES = (Var, Scale, Add, Sup, Inf)


class Program(namedtuple("Program", "slots max_var")):
    """Interned slots (kind, a, b) in topological order, the root last:
    (Var, i, None) reads t_i, (Scale, c, s) is c times slot s, with c an
    int where integral, and (Add | Sup | Inf, s, u) combines slots s and u.
    No two slots are equal, so equal expressions compile to equal programs.
    max_var is the highest variable index."""

    __slots__ = ()


def compile_expr(e: Expr) -> Program:
    """Intern e bottom-up, visiting each node object once, without recursion;
    a coefficient is interned as an int where it is integral."""
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
            key = (Scale, int_or_fraction(node.coeff), a) if kind is Scale else (kind, a, b)
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


def _int_literal(text: str, i: int, j: int, at: int) -> int:
    """The int written in text[i:j]; decimal digits past the interpreter's
    limit on int-string conversion are an ExprSyntaxError at `at`."""
    try:
        return int(text[i:j])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ExprSyntaxError(
            f"integer literal of {j - i} digits exceeds the limit of {limit}", at
        ) from None


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
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("'t' must be followed by a variable index", i)
            index = _int_literal(text, i + 1, j, i)
            if index < 1:
                raise ExprSyntaxError("variable indices start at t1", i)
            tokens.append(("VAR", index, i))
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", _int_literal(text, i, j, i), i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


# Each "(", "|" or "c*" prefix costs a few Python frames of the descent.
_MAX_NESTING = 100

# binding power of each binary operator: "/\" over "\/" over "+" and "-"
_BINDING = {"PLUS": 1, "MINUS": 1, "SUP": 2, "INF": 3}
_BINARY_KIND = {"PLUS": Add, "MINUS": Add, "SUP": Sup, "INF": Inf}


class _Parser:
    """Recursive descent that interns each slot (kind, a, b) of the program
    as its subterm is read, so a parse method returns a slot index.  The
    sugar expands in the post-order in which compile_expr visits its
    expansion, so the slots come out as compile_expr would intern them."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.slots: dict[tuple, int] = {}  # slot -> its index, in slot order

    def intern(self, kind, a, b=None) -> int:
        slots = self.slots
        return slots.setdefault((kind, a, b), len(slots))

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, kind: str, what: str):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self) -> int:
        """Factors joined by + - \\/ /\\, by precedence climbing: `pending`
        holds (operand, operator) pairs of strictly rising binding power,
        and an operator first combines those that bind at least as tight."""
        pending = []
        node = self.parse_factor()
        while True:
            op = self.peek()[0]
            power = _BINDING.get(op, 0)
            while pending and _BINDING[pending[-1][1]] >= power:
                left, left_op = pending.pop()
                if left_op == "MINUS":
                    node = self.intern(Scale, -1, node)
                node = self.intern(_BINARY_KIND[left_op], left, node)
            if not power:
                return node
            self.pos += 1
            pending.append((node, op))
            node = self.parse_factor()

    def neg_part(self, e: int) -> int:
        """e^-: (-1)*e join 0*e, interning (-1)*e first."""
        neg = self.intern(Scale, -1, e)
        return self.intern(Sup, neg, self.intern(Scale, 0, e))

    def parse_factor(self) -> int:
        node = self.parse_primary()
        while (kind := self.peek()[0]) in ("POSPART", "NEGPART"):
            self.pos += 1
            if kind == "POSPART":  # e^+: e join 0*e
                node = self.intern(Sup, node, self.intern(Scale, 0, node))
            else:
                node = self.neg_part(node)
        return node

    def parse_rational(self, negative: bool) -> int | Fraction:
        """The coefficient as compile_expr interns it: an int where integral."""
        tok = self.expect("INT", "an integer")
        num = -tok[1] if negative else tok[1]
        if self.peek()[0] == "SLASH":
            self.pos += 1
            den_tok = self.expect("INT", "a positive denominator")
            if den_tok[1] == 0:
                raise ExprSyntaxError("zero denominator", den_tok[2])
            return int_or_fraction(Fraction(num, den_tok[1]))
        return num

    def nested(self, parse, at: int) -> int:
        """parse() one nesting level deeper; past _MAX_NESTING levels, fail at `at`."""
        if self.depth == _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", at)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse_primary(self) -> int:
        kind, value, at = self.peek()
        if kind == "VAR":
            self.pos += 1
            return self.intern(Var, value)
        if kind in ("INT", "MINUS"):
            negative = kind == "MINUS"
            self.pos += negative  # past the sign
            coeff = self.parse_rational(negative)
            self.expect("STAR", "'*' after a coefficient")
            return self.intern(Scale, coeff, self.nested(self.parse_factor, at))
        if kind == "PIPE":  # |e|: e join (-1)*e
            self.pos += 1
            inner = self.nested(self.parse_expr, at)
            self.expect("PIPE", "a closing '|'")
            return self.intern(Sup, inner, self.intern(Scale, -1, inner))
        if kind == "LPAREN":
            self.pos += 1
            inner = self.nested(self.parse_expr, at)
            self.expect("RPAREN", "a closing ')'")
            return inner
        raise ExprSyntaxError("expected a variable, coefficient, '|', or '('", at)


def parse(text: str, arity: int) -> Expr:
    """Parse expression text; every variable index must be <= arity.

    The text is read straight into its program, and the result is that
    program's fold into nodes, one per slot, with the program already
    cached on the root: nothing compiles the text a second time.
    """
    if arity < 1:
        raise ArityError("arity must be at least 1")
    if arity > MAX_DIM:
        raise CapacityError("arity", MAX_DIM, arity)
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "EOF":
        raise ExprSyntaxError("unexpected trailing input", at)
    highest = max(tok[1] for tok in tokens if tok[0] == "VAR")
    if highest > arity:
        raise ArityError(
            f"variable t{highest} exceeds declared arity {arity}"
        )
    prog = Program(tuple(parser.slots), highest)
    root = fold(prog, Var, Scale, Add, Sup, Inf)
    root.__dict__["program"] = prog
    return root


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
