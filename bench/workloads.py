"""Seeded op lists for the four workloads.

An op is one `latfree` CLI call (its argv) plus what the benchmark knows
about the right answer.  Ops come in decks: every deck of a workload has
the same number of ops of each cost class, shuffled, so any run of whole
decks has the same class mix on every seed.  Only the flags that the
project keeps stable are used: --space --expr --arity --seed --restarts
--target --vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exprgen as eg

F = Fraction


@dataclass
class Op:
    cls: str  # cost class, for the deck mix and the report
    argv: list[str]
    expect: dict = field(default_factory=dict)


def _split_space(space: str):
    parts = space.split(":")
    if parts[0] == "fvl":
        return "fvl", None, int(parts[1])
    return "seq", parts[1], int(parts[2])


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------


def _equiv_op(cls, dim, f, g, equal):
    return Op(
        cls,
        ["equiv", "--arity", str(dim), "--expr=" + eg.render(f), "--expr=" + eg.render(g)],
        {"dim": dim, "f": f, "g": g, "equal": equal},
    )


def equiv_sampled_unequal(rng):
    """Differs wherever t_i != 0, so the 48-point sample catches it."""
    dim = rng.choice((2, 3))
    f = eg.lattice_expr(rng, dim, 3)
    bump = eg.scale(rng.choice((1, 2, 3)), eg.absv(eg.var(rng.randint(1, dim))))
    return _equiv_op("sampled_unequal", dim, f, eg.add(eg.rewrite(rng, f), bump), False)


def equiv_rewrite(rng, dim):
    f = eg.add(eg.lattice_expr(rng, dim, 3), eg.random_term(rng, dim))
    return _equiv_op(f"rewrite_d{dim}", dim, f, eg.rewrite(rng, f), True)


def _two_piece(rng):
    """(+-2*t1) \\/ (+-3*t2) or the meet, the magnitudes in either order.

    Distinct magnitudes keep the arrangement, and so the op's cost, about
    the same from instance to instance.
    """
    mags = rng.sample((2, 3), 2)
    a, b = (eg.scale(m * rng.choice((-1, 1)), eg.var(i)) for m, i in zip(mags, (1, 2)))
    return (eg.sup if rng.random() < 0.5 else eg.inf)(a, b)


def equiv_thin_cone(rng, k):
    """A bump on the cone k*t_j < t_i < (k+1)*t_j, which holds no sample point.

    Every sample point is integer with coordinates in [-9, 9]; inside the
    cone t_j >= 1, and t_j = 1 leaves no integer t_i while t_j >= 2 needs
    t_i >= 2k + 1 > 9 for k >= 5.  So the verdict needs the full
    arrangement.
    """
    dim = 2
    i, j = rng.sample(range(1, dim + 1), 2)
    ti, tj = eg.var(i), eg.var(j)
    bump = eg.pos(eg.inf(eg.sub(ti, eg.scale(k, tj)), eg.sub(eg.scale(k + 1, tj), ti)))
    f = _two_piece(rng)
    return _equiv_op("thin_cone", dim, f, eg.add(eg.rewrite(rng, f), bump), False)


def equiv_domination(rng):
    """(|f|) \\/ (L*(|t1|+|t2|)) equals L*(|t1|+|t2|) when L bounds f."""
    dim = 2
    f = _two_piece(rng)
    lip = eg.lipschitz_l1(f)
    rhs = eg.scale(lip, eg.add(eg.absv(eg.var(1)), eg.absv(eg.var(2))))
    return _equiv_op("domination", dim, eg.sup(eg.absv(f), rhs), rhs, True)


def equiv_abs_sum3(rng):
    """|t1|+|t2|+|t3| against a rewrite of itself."""
    f = eg.add(*(eg.absv(eg.var(i)) for i in (1, 2, 3)))
    terms = [
        rng.choice((eg.absv(t), eg.sup(t, eg.scale(-1, t)), eg.sup(eg.scale(-1, t), t)))
        for t in (eg.var(i) for i in (1, 2, 3))
    ]
    rng.shuffle(terms)
    return _equiv_op("abs_sum3", 3, f, eg.add(*terms), True)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _norm_op(cls, space, f, restarts=None, closed=None):
    argv = ["norm", "--space", space, "--expr=" + eg.render(f)]
    if restarts is not None:
        argv += ["--restarts", str(restarts), "--seed", "1"]
    kind, p, dim = _split_space(space)
    return Op(
        cls,
        argv,
        {"space": space, "kind": kind, "p": p, "dim": dim, "f": f, "closed": closed},
    )


def _random_linear(rng, dim, values):
    coeffs = [rng.choice(values) for _ in range(dim)]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(dim)] = values[-1]
    return coeffs


def norm_random(rng, space):
    dim = _split_space(space)[2]
    return _norm_op(f"random_{space}", space, eg.lattice_expr(rng, dim, 3))


def norm_generator(rng, space):
    dim = _split_space(space)[2]
    return _norm_op("generator", space, eg.var(rng.randint(1, dim)), closed=("generator",))


def norm_abs_sum(space):
    dim = _split_space(space)[2]
    f = eg.add(*(eg.absv(eg.var(i)) for i in range(1, dim + 1)))
    return _norm_op("abs_sum", space, f, closed=("abs_sum", dim))


def norm_linear(rng, space, restarts=None, values=(-3, -2, -1, 0, 1, 2, 3)):
    """An embedded vector a: its norm is the dual-space norm ||a||_p."""
    dim = _split_space(space)[2]
    coeffs = _random_linear(rng, dim, values)
    return _norm_op(
        "embedded", space, eg.linear(coeffs), restarts,
        closed=("embedded", tuple(F(c) for c in coeffs)),
    )


SANDWICH_SPACES = ("seq:2:2", "seq:3/2:2", "seq:2:3")
SANDWICH_RESTARTS = 4
# squares, so that |a_j|^(3/2) is an integer and the seq:3/2 check is exact
_SQUARE_COEFFS = (-4, -1, 0, 1, 4)


def sandwich_random(rng, space):
    dim = _split_space(space)[2]
    return _norm_op(
        f"random_{space}", space, eg.lattice_expr(rng, dim, 2), SANDWICH_RESTARTS
    )


def sandwich_embedded(rng, space):
    return norm_linear(rng, space, SANDWICH_RESTARTS, _SQUARE_COEFFS)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _extend_op(cls, rng, dim, target, f):
    tdim = int(target.split(":")[2])
    vectors = [
        tuple(F(rng.randint(-4, 4)) for _ in range(tdim)) for _ in range(dim)
    ]
    argv = ["extend", "--space", f"fvl:{dim}", "--target", target, "--expr=" + eg.render(f)]
    for v in vectors:
        argv.append("--vector=" + ",".join(str(c) for c in v))
    return Op(cls, argv, {"f": f, "vectors": vectors, "target": target})


def nested_abs(rng, dim, depth):
    """|c*|...|c*||t_i + c*t_j| + c*t_i|...||: `depth` nested |.|, the two
    innermost around a sum, so the walks double per level while the
    pieces stay few."""
    first, second = rng.sample(range(1, dim + 1), 2)
    e = eg.var(first)
    for level in range(depth):
        # the two inner sums add the other variable, so neither collapses
        term = eg.scale(rng.choice((-2, -1, 1, 2)), eg.var(second if level == 0 else first))
        if level < 2:
            e = eg.absv(eg.add(e, term))
        else:
            e = eg.absv(eg.scale(rng.choice((-2, -1, 2)), e))
    return e


EXTEND_TARGETS = ("seq:1:3", "seq:inf:3")


def extend_nested(rng, depth, target):
    dim = 2
    return _extend_op(f"nested_{depth}", rng, dim, target, nested_abs(rng, dim, depth))


def extend_long_sum(rng, terms, target):
    dim = 3
    parts = [eg.random_term(rng, dim) for _ in range(terms)]
    parts[rng.randrange(terms)] = eg.absv(eg.var(rng.randint(1, dim)))
    return _extend_op("long_sum", rng, dim, target, eg.add(*parts))


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------


def _deck(rng, makers):
    ops = [make(rng) for make in makers]
    rng.shuffle(ops)
    return ops


# the thin cones' cost grows with k, so every deck holds the same ks
THIN_CONE_KS = (6, 7, 8, 9)


def equiv_deck(rng):
    """70 ops.  By cost: sampled-unequal 29% | rewrites 57% | thin cones 11%
    | domination 1% | |t1|+|t2|+|t3| 1%, so the median falls inside the
    rewrites and the 90th percentile inside the thin cones.  The cheap
    classes are many so that the median rests on many ops: one deck holds
    40 rewrites, and together they take a tenth of its time."""
    makers = (
        [equiv_sampled_unequal] * 20
        + [lambda r: equiv_rewrite(r, 2)] * 28
        + [lambda r: equiv_rewrite(r, 3)] * 12
        + [lambda r, k=k: equiv_thin_cone(r, k) for k in THIN_CONE_KS * 2]
        + [equiv_domination, equiv_abs_sum3]
    )
    return _deck(rng, makers)


def norm_exact_deck(rng):
    """20 ops.  By cost: dimension 2 and the cheap anchors (35%) |
    fvl:3, seq:1:3 and an embedded vector on seq:inf:3 (45%) | seq:inf:3
    and |t1|+|t2|+|t3| (20%), so the median falls inside the middle group
    and the 90th percentile inside the top one."""
    makers = [
        lambda r: norm_random(r, "fvl:2"),
        lambda r: norm_random(r, "seq:inf:2"),
        lambda r: norm_random(r, "seq:inf:2"),
        lambda r: norm_generator(r, "fvl:2"),
        lambda r: norm_linear(r, "seq:inf:2"),
        lambda r: norm_generator(r, "fvl:3"),
        lambda r: norm_linear(r, "seq:1:3"),
    ]
    makers += [lambda r, s=s: norm_random(r, s) for s in ("fvl:3", "seq:1:3")] * 4
    makers += [lambda r: norm_linear(r, "seq:inf:3")]
    makers += [lambda r: norm_random(r, "seq:inf:3")] * 3
    makers += [lambda r: norm_abs_sum(r.choice(("fvl:3", "seq:1:3")))]
    return _deck(rng, makers)


def norm_sandwich_deck(rng):
    """9 ops: two random expressions and one embedded vector per space."""
    makers = [lambda r, s=s: sandwich_random(r, s) for s in SANDWICH_SPACES] * 2
    makers += [lambda r, s=s: sandwich_embedded(r, s) for s in SANDWICH_SPACES]
    return _deck(rng, makers)


def extend_deck(rng):
    """36 ops, each class split evenly between the two targets.  By cost:
    depth 3-4 (39%) | depth 5 (28%) | depth 6 (11%) | two 250-term sums
    (6%) | depth 7 (17%), so the median falls 40% into depth 5 and the
    90th percentile 40% into depth 7, both well inside the class."""
    makers = [
        lambda r, d=d, t=t: extend_nested(r, d, t)
        for d, n in ((3, 8), (4, 6), (5, 10), (6, 4), (7, 6))
        for t in EXTEND_TARGETS
        for _ in range(n // 2)
    ]
    makers += [lambda r, t=t: extend_long_sum(r, 250, t) for t in EXTEND_TARGETS]
    return _deck(rng, makers)


DECKS = {
    "equiv": equiv_deck,
    "norm_exact": norm_exact_deck,
    "norm_sandwich": norm_sandwich_deck,
    "extend": extend_deck,
}


def make_decks(workload: str, seed: int, count: int) -> list[list[Op]]:
    """`count` decks for the workload; the same seed gives the same decks."""
    rng = random.Random(f"{workload}:{seed}")
    deal = DECKS[workload]
    return [deal(rng) for _ in range(count)]
