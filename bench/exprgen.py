"""The benchmark's own expressions: a seeded generator, a printer and an
exact evaluator.

Nothing here imports latfree.  Expressions are nested tuples:

    ("var", i)            t_i, 1-based
    ("scale", c, e)       c * e, c a Fraction
    ("sum", (e1, ..., en))
    ("sup", a, b)  ("inf", a, b)
    ("abs", e)  ("pos", e)  ("neg", e)

Generated inputs reach the program only as the printed text, so the
evaluator here is an independent reference for every answer the benchmark
checks.  Both the printer and the evaluator are iterative, so sums of
hundreds of terms and deep nesting cost no Python recursion.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction


def var(i: int):
    return ("var", i)


def scale(c, e):
    return ("scale", F(c), e)


def add(*terms):
    return ("sum", tuple(terms))


def sup(a, b):
    return ("sup", a, b)


def inf(a, b):
    return ("inf", a, b)


def absv(e):
    return ("abs", e)


def pos(e):
    return ("pos", e)


def neg(e):
    return ("neg", e)


def sub(a, b):
    return add(a, scale(-1, b))


def linear(coeffs):
    """sum_i coeffs[i] * t_{i+1} over the nonzero coefficients."""
    terms = [scale(c, var(i + 1)) for i, c in enumerate(coeffs) if c != 0]
    if not terms:
        return scale(0, var(1))
    return terms[0] if len(terms) == 1 else add(*terms)


def _children(node):
    kind = node[0]
    if kind == "var":
        return ()
    if kind in ("scale",):
        return (node[2],)
    if kind == "sum":
        return node[1]
    if kind in ("sup", "inf"):
        return (node[1], node[2])
    if kind in ("abs", "pos", "neg"):
        return (node[1],)
    raise TypeError(f"not an expression node: {node!r}")


def _postorder(root):
    """Distinct nodes (by identity), every child before its parent."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for ch in reversed(_children(node)):
            if id(ch) not in seen:
                stack.append((ch, False))
    return order


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render(root) -> str:
    """Fully parenthesised text in latfree's expression syntax."""
    text = {}
    for node in _postorder(root):
        kind = node[0]
        if kind == "var":
            s = f"t{node[1]}"
        elif kind == "scale":
            s = f"({_coeff_text(node[1])}*{text[id(node[2])]})"
        elif kind == "sum":
            s = "(" + " + ".join(text[id(ch)] for ch in node[1]) + ")"
        elif kind == "sup":
            s = f"({text[id(node[1])]} \\/ {text[id(node[2])]})"
        elif kind == "inf":
            s = f"({text[id(node[1])]} /\\ {text[id(node[2])]})"
        elif kind == "abs":
            s = f"|{text[id(node[1])]}|"
        elif kind == "pos":
            s = f"{text[id(node[1])]}^+"
        else:
            s = f"{text[id(node[1])]}^-"
        text[id(node)] = s
    out = text[id(root)]
    # the outermost parentheses are redundant
    if out.startswith("(") and root[0] in ("sum", "scale", "sup", "inf"):
        out = out[1:-1]
    return out


def evaluate(root, x) -> Fraction:
    """Exact value at the rational point x (x[i-1] is t_i)."""
    xs = [F(v) for v in x]
    val = {}
    for node in _postorder(root):
        kind = node[0]
        if kind == "var":
            v = xs[node[1] - 1]
        elif kind == "scale":
            v = node[1] * val[id(node[2])]
        elif kind == "sum":
            v = sum((val[id(ch)] for ch in node[1]), F(0))
        elif kind == "sup":
            v = max(val[id(node[1])], val[id(node[2])])
        elif kind == "inf":
            v = min(val[id(node[1])], val[id(node[2])])
        elif kind == "abs":
            v = abs(val[id(node[1])])
        elif kind == "pos":
            v = max(val[id(node[1])], F(0))
        else:
            v = max(-val[id(node[1])], F(0))
        val[id(node)] = v
    return val[id(root)]


def lipschitz_l1(root) -> Fraction:
    """L with |e(x)| <= L * ||x||_1 for every x (a structural bound)."""
    bound = {}
    for node in _postorder(root):
        kind = node[0]
        if kind == "var":
            b = F(1)
        elif kind == "scale":
            b = abs(node[1]) * bound[id(node[2])]
        elif kind == "sum":
            b = sum((bound[id(ch)] for ch in node[1]), F(0))
        elif kind in ("sup", "inf"):
            b = max(bound[id(node[1])], bound[id(node[2])])
        else:
            b = bound[id(node[1])]
        bound[id(node)] = b
    return bound[id(root)]


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

COEFFS = (-3, -2, -1, 1, 2, 3)


def random_term(rng: random.Random, dim: int):
    """A nonzero small multiple of one variable."""
    return scale(rng.choice(COEFFS), var(rng.randint(1, dim)))


def lattice_expr(rng: random.Random, dim: int, leaves: int):
    """A join/meet tree of fixed shape over `leaves` terms c*t_v.

    The shape is a left spine, ((x o x) o x) o x, each o a random join or
    meet.  The variables cycle through a shuffled order, so all of them
    occur, and the magnitudes |c| are distinct, so no two kink planes
    coincide by accident.  Fixing the shape keeps an op's cost close to
    the same from seed to seed; the seed moves variables, signs,
    magnitudes and joins.
    """
    order = rng.sample(range(1, dim + 1), dim)
    mags = rng.sample(range(1, max(3, leaves) + 1), leaves)
    terms = [
        scale(m * rng.choice((-1, 1)), var(order[i % dim])) for i, m in enumerate(mags)
    ]
    out = terms[0]
    for t in terms[1:]:
        out = (sup if rng.random() < 0.5 else inf)(out, t)
    return out


def rewrite(rng: random.Random, root):
    """An expression equal to root as a function, written differently.

    Every rule is a lattice-ordered-group identity, so the answer stays
    known by construction:
      a \\/ b = b \\/ a                 a /\\ b = b /\\ a
      a \\/ b = a + (b - a)^+           a /\\ b = a - (a - b)^+
      a \\/ b = -((-a) /\\ (-b))
      |a| = a^+ + a^-                  c*(a \\/ b) = c*a \\/ c*b  (c > 0)
      a + (b \\/ c) = (a + b) \\/ (a + c)
    """
    out = {}
    for node in _postorder(root):
        kind = node[0]
        if kind == "var":
            new = node
        elif kind == "scale":
            ch = out[id(node[2])]
            c = node[1]
            if c > 0 and ch[0] in ("sup", "inf") and rng.random() < 0.5:
                new = (ch[0], scale(c, ch[1]), scale(c, ch[2]))
            else:
                new = ("scale", c, ch)
        elif kind == "sum":
            terms = [out[id(ch)] for ch in node[1]]
            rng.shuffle(terms)
            lat = next((t for t in terms if t[0] in ("sup", "inf")), None)
            if lat is not None and len(terms) == 2 and rng.random() < 0.5:
                other = terms[0] if terms[1] is lat else terms[1]
                new = (lat[0], add(other, lat[1]), add(other, lat[2]))
            else:
                new = add(*terms)
        elif kind in ("sup", "inf"):
            a, b = out[id(node[1])], out[id(node[2])]
            roll = rng.random()
            if roll < 0.3:
                new = (kind, b, a)
            elif roll < 0.6:
                new = add(a, pos(sub(b, a))) if kind == "sup" else sub(a, pos(sub(a, b)))
            elif roll < 0.8:
                other = "inf" if kind == "sup" else "sup"
                new = scale(-1, (other, scale(-1, a), scale(-1, b)))
            else:
                new = (kind, a, b)
        elif kind == "abs":
            a = out[id(node[1])]
            new = add(pos(a), neg(a)) if rng.random() < 0.5 else sup(a, scale(-1, a))
        else:
            new = (kind, out[id(node[1])])
        out[id(node)] = new
    return out[id(root)]
