"""Seeded random inputs for property tests and the self-test suite.

Everything here is a pure function of the supplied random.Random instance,
so a fixed seed reproduces the exact same objects.  Expression sizes are
capped by candidate-piece count to keep downstream LPs at desk scale.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .expr import Add, Expr, Inf, Scale, Sup, Var
from .free import LatticeMap
from .norm import FunctionalTuple, SpaceSpec, constraint_norm
from .pwl import PwlFunction, linear_pieces
from .qmath import Vec


def random_linear_term(rng: random.Random, arity: int) -> Expr:
    """A nonzero integer multiple of a variable, coefficients in -3..3."""
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    v = Var(rng.randint(1, arity))
    return v if c == 1 else Scale(Fraction(c), v)


def _build_expr(rng: random.Random, arity: int, lattice_budget: int) -> Expr:
    if lattice_budget <= 0:
        left = random_linear_term(rng, arity)
        if rng.random() < 0.4:
            return Add(left, random_linear_term(rng, arity))
        return left
    roll = rng.random()
    if roll < 0.55:
        node = Sup if rng.random() < 0.5 else Inf
        split = rng.randint(0, lattice_budget - 1)
        return node(
            _build_expr(rng, arity, split),
            _build_expr(rng, arity, lattice_budget - 1 - split),
        )
    if roll < 0.8:
        split = rng.randint(0, lattice_budget)
        return Add(
            _build_expr(rng, arity, split),
            _build_expr(rng, arity, lattice_budget - split),
        )
    return Scale(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
        _build_expr(rng, arity, lattice_budget),
    )


def random_expr(
    rng: random.Random,
    arity: int,
    *,
    lattice_ops: int = 2,
    max_pieces: int = 4,
) -> Expr:
    """Random lattice-linear expression with a bounded candidate-piece set."""
    for _ in range(64):
        e = _build_expr(rng, arity, lattice_ops)
        f = PwlFunction.from_expr(e, arity)
        if len(linear_pieces(f)) <= max_pieces:
            return e
    return random_linear_term(rng, arity)


# ---------------------------------------------------------------------------
# meaning-preserving rewrites
# ---------------------------------------------------------------------------


def _rewrite_once(rng: random.Random, e: Expr) -> Expr:
    """Apply one random identity at this node (always value-preserving)."""
    roll = rng.randrange(6)
    if roll == 0 and isinstance(e, Add) and isinstance(e.right, (Sup, Inf)):
        node = type(e.right)
        return node(Add(e.left, e.right.left), Add(e.left, e.right.right))
    if roll == 1 and isinstance(e, (Sup, Inf)):
        dual = Inf if isinstance(e, Sup) else Sup
        return Scale(
            Fraction(-1),
            dual(Scale(Fraction(-1), e.left), Scale(Fraction(-1), e.right)),
        )
    if roll == 2 and isinstance(e, (Sup, Inf, Add)):
        return type(e)(e.right, e.left)
    if roll == 3 and isinstance(e, Scale) and isinstance(e.child, (Sup, Inf)):
        if e.coeff > 0:
            node = type(e.child)
        elif e.coeff < 0:
            node = Inf if isinstance(e.child, Sup) else Sup
        else:
            return e
        return node(Scale(e.coeff, e.child.left), Scale(e.coeff, e.child.right))
    if roll == 4:
        return Sup(e, e)
    return Scale(Fraction(1), e)


def _rewrite_somewhere(rng: random.Random, e: Expr) -> Expr:
    if rng.random() < 0.45:
        return _rewrite_once(rng, e)
    match e:
        case Scale(coeff=c, child=ch):
            return Scale(c, _rewrite_somewhere(rng, ch))
        case Add(left=l, right=r) | Sup(left=l, right=r) | Inf(left=l, right=r):
            if rng.random() < 0.5:
                return type(e)(_rewrite_somewhere(rng, l), r)
            return type(e)(l, _rewrite_somewhere(rng, r))
        case _:
            return _rewrite_once(rng, e)


def equivalent_variant(rng: random.Random, e: Expr) -> Expr:
    """A syntactically different expression denoting the same function."""
    out = e
    for _ in range(3):
        out = _rewrite_somewhere(rng, out)
    return out


def random_pair(rng: random.Random, arity: int):
    """(f, g, surely_equal): equal by construction, or independently drawn."""
    f = random_expr(rng, arity)
    if rng.random() < 0.5:
        return f, equivalent_variant(rng, f), True
    return f, random_expr(rng, arity), False


def thin_cone_pair(rng: random.Random, arity: int):
    """(f, f + c*((u - k*w) /\\ ((k+1)*w - u))^+), u, w = +-t_i, +-t_j, k in 5..9:
    they differ only on a thin cone, seen only on its meet's kink 2u = (2k+1)w."""
    f = random_expr(rng, arity)
    i, j = rng.sample(range(1, arity + 1), 2)
    u, w = (Scale(Fraction(rng.choice((1, -1))), Var(t)) for t in (i, j))
    k = Fraction(rng.randint(5, 9))
    meet = Inf(Add(u, Scale(-k, w)), Add(Scale(k + 1, w), Scale(Fraction(-1), u)))
    bump = Sup(meet, Scale(Fraction(0), meet))  # meet^+
    return f, Add(f, Scale(Fraction(rng.choice((1, 2, 3))), bump))


# ---------------------------------------------------------------------------
# vectors, tuples, maps
# ---------------------------------------------------------------------------


def random_vector(rng: random.Random, dim: int) -> Vec:
    return tuple(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)
    )


def random_admissible_tuple(
    rng: random.Random, space: SpaceSpec, k: int
) -> FunctionalTuple:
    """k random points rescaled so the admissibility value is at most 1."""
    points = []
    for _ in range(k):
        x = random_vector(rng, space.dim)
        points.append(x)
    tup = FunctionalTuple(space=space, points=tuple(points))
    cn = constraint_norm(tup)
    if cn > 1:
        tup = FunctionalTuple(
            space=space,
            points=tuple(tuple(v / cn for v in x) for x in tup.points),
        )
    return tup


def random_admissible_map(
    rng: random.Random, source: SpaceSpec, target: SpaceSpec
) -> LatticeMap:
    """Map with random generator images rescaled to admissibility scale <= 1."""
    images = tuple(random_vector(rng, target.dim) for _ in range(source.dim))
    lat_map = LatticeMap(source=source, target=target, images=images)
    scale = lat_map.admissibility_scale()
    if scale <= 1:
        return lat_map
    images = tuple(tuple(v / scale for v in y) for y in images)
    return LatticeMap(source=source, target=target, images=images)
