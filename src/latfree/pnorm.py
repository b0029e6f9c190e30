"""The l_p spaces and the l_p quantities on them: vector norms, the
admissibility value of a tuple of dual points, operator norms.

Each is an exact rational or a certified rational upper bound, computed
with `int` and `Fraction` only: p = 1 and p = inf need no root, other
rational p round k-th roots up (`root_upper`).  `admissibility_columns`,
the ascent heuristic's budget on the non-polyhedral spaces, is the one
float function.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedSpaceError
from .qmath import (
    Vec,
    clear_denominators,
    dot,
    format_fraction,
    identity,
    to_fraction,
    transpose,
    vec,
)

INF_P = "inf"

# rounded roots are within 2**-_BITS above the true root
_BITS = 64

# largest numerator or denominator of a seq exponent: a root of degree k
# works on integers of about k * _BITS bits
MAX_EXPONENT_TERM = 1000


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Either fvl:n (n free generators) or seq:p:m (R^m with the l_p norm)."""

    kind: str
    dim: int
    p: Fraction | str | None = None

    def __post_init__(self):
        if self.kind not in ("fvl", "seq"):
            raise UnsupportedSpaceError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise UnsupportedSpaceError("space dimension must be at least 1")
        if self.kind == "fvl":
            if self.p is not None:
                raise UnsupportedSpaceError("fvl spaces carry no exponent")
        else:
            if self.p != INF_P:
                if not isinstance(self.p, Fraction):
                    raise UnsupportedSpaceError("seq exponent must be rational or inf")
                if self.p < 1:
                    raise UnsupportedSpaceError("seq exponent must satisfy p >= 1")
                if max(self.p.numerator, self.p.denominator) > MAX_EXPONENT_TERM:
                    raise UnsupportedSpaceError(
                        f"seq exponent {format_fraction(self.p)} has a numerator "
                        f"or denominator above {MAX_EXPONENT_TERM}"
                    )

    def __str__(self) -> str:
        if self.kind == "fvl":
            return f"fvl:{self.dim}"
        p = self.p if self.p == INF_P else format_fraction(self.p)
        return f"seq:{p}:{self.dim}"

    @property
    def exponent(self) -> Fraction | str:
        """p of the norm on the space; fvl is normed like l_1."""
        return Fraction(1) if self.kind == "fvl" else self.p

    @property
    def is_polyhedral(self) -> bool:
        """The admissible-tuple region is a polyhedron (exact path applies)."""
        return self.exponent in (Fraction(1), INF_P)

    @property
    def coordinate_budget(self) -> bool:
        """Admissibility bounds each coordinate's Sum_i |x_ij| (fvl, seq:1)."""
        return self.exponent == Fraction(1)


def fvl_space(n: int) -> SpaceSpec:
    return SpaceSpec(kind="fvl", dim=n)


def seq_space(p, m: int) -> SpaceSpec:
    pp = INF_P if p in (INF_P, "oo", "infinity") else to_fraction(p)
    return SpaceSpec(kind="seq", dim=m, p=pp)


def parse_space(text: str) -> SpaceSpec:
    parts = text.strip().lower().split(":")
    try:
        if parts[0] == "fvl" and len(parts) == 2:
            return fvl_space(int(parts[1]))
        if parts[0] == "seq" and len(parts) == 3:
            return seq_space(parts[1], int(parts[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedSpaceError(f"cannot parse space {text!r}: {exc}") from exc
    raise UnsupportedSpaceError(
        f"cannot parse space {text!r}; expected fvl:N or seq:P:M"
    )


def dual_exponent(p: Fraction | str) -> Fraction | str:
    """q with 1/p + 1/q = 1."""
    if p == INF_P:
        return Fraction(1)
    if p == 1:
        return INF_P
    return p / (p - 1)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for an int n >= 0, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    bits = -(-n.bit_length() // k)  # the root is below 2**bits
    if bits == 1:
        return 1
    # the root of n's top digits, shifted back, is above the root by a
    # factor of at most 1 + 2**(half + 1 - bits); Newton steps fall to the floor
    half = bits // 2
    x = (iroot(n >> (k * half), k) + 1) << half
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_upper(q, k: int) -> Fraction:
    """Rational r >= q ** (1/k): the root itself when the numerator and the
    denominator of q are perfect k-th powers, else the next multiple of
    2**-_BITS above it, so that r**k > q > (r - 2**-_BITS)**k."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("root of a negative rational")
    num, den = iroot(q.numerator, k), iroot(q.denominator, k)
    if num**k == q.numerator and den**k == q.denominator:
        return Fraction(num, den)
    scaled = (q.numerator << (k * _BITS)) // q.denominator
    return Fraction(iroot(scaled, k) + 1, 1 << _BITS)


# ---------------------------------------------------------------------------
# vector norms
# ---------------------------------------------------------------------------


def norm_upper(v, p: Fraction | str) -> Fraction:
    """Certified upper bound on ||v||_p; exact for p in {1, inf}, and for
    integer p whenever the norm is rational."""
    if p == INF_P:
        return max((abs(x) for x in v), default=Fraction(0))
    if p == 1:
        return sum((abs(x) for x in v), Fraction(0))
    a, b = p.numerator, p.denominator
    # Sum_j |v_j| ** (a/b), each term rounded up, then its (b/a)-th power
    total = sum((root_upper(abs(x) ** a, b) for x in v), Fraction(0))
    return root_upper(total**b, a)


def norm_leq(v, p: Fraction | str, bound) -> bool:
    """Certified decision ||v||_p <= bound: exact for p = inf and integer p,
    which compare p-th powers (squares for p = 2); other p compare
    norm_upper, so they may answer False within 2**-_BITS of the bound."""
    if bound < 0:
        return False
    if p == INF_P or p.denominator > 1:
        return norm_upper(v, p) <= bound
    return sum((abs(x) ** p.numerator for x in v), Fraction(0)) <= bound**p.numerator


# ---------------------------------------------------------------------------
# admissibility of a tuple of dual points
# ---------------------------------------------------------------------------


@functools.cache
def sign_patterns(k: int) -> tuple[tuple[int, ...], ...]:
    """Representatives of {+-1}^k modulo global sign (first entry +1)."""
    return tuple((1,) + rest for rest in itertools.product((1, -1), repeat=k - 1))


def _signed_sums(points):
    """Sum_i s_i x_i for every sign pattern s, summed from the left."""
    columns = list(zip(*points))
    for s in sign_patterns(len(points)):
        yield [sum(map(operator.mul, s, col)) for col in columns]


def budget_directions(space: SpaceSpec) -> tuple[Vec, ...]:
    """Finite directions b with admissibility == (Sum_i |<x_i, b>| <= 1 for all b).

    These are the extreme points (up to sign) of the space's unit ball.
    """
    d = space.dim
    if space.coordinate_budget:
        return identity(d)
    if space.exponent == INF_P:
        return tuple(
            (Fraction(1),) + tuple(Fraction(s) for s in rest)
            for rest in itertools.product((1, -1), repeat=d - 1)
        )
    raise UnsupportedSpaceError(
        f"space {space} has a non-polyhedral unit ball; use norm_bounds"
    )


def admissibility_upper(points, space: SpaceSpec) -> Fraction:
    """Certified upper bound on the admissibility value of a tuple, the sup
    over the unit ball of the space of Sum_i |x_i(v)|.

    Polyhedral spaces take the exact max over budget directions b of
    Sum_i |<x_i, b>|.  Elsewhere the value is max_s ||Sum_i s_i x_i||_q for
    q dual to p; for integer q the max of the q-th powers is exact and only
    its root is rounded up, so the bound is at most 1 exactly when the
    value is.
    """
    if space.is_polyhedral:
        return max(
            sum((abs(dot(x, b)) for x in points), Fraction(0))
            for b in budget_directions(space)
        )
    q = dual_exponent(space.exponent)
    if q.denominator == 1:
        # on ints: the points times the lcm s of their denominators
        k, d = q.numerator, len(points[0])
        flat, s = clear_denominators([x for point in points for x in point])
        scaled = [flat[h : h + d] for h in range(0, len(flat), d)]
        power = max(
            sum(abs(c) ** k for c in combined) for combined in _signed_sums(scaled)
        )
        return root_upper(Fraction(power, s**k), k)
    return max(norm_upper(combined, q) for combined in _signed_sums(points))


def admissibility_columns(space: SpaceSpec, k: int):
    """(column, budget) for the float admissibility value of k points, the
    ascent heuristic's budget, kept as a table of one row per coordinate.
    The ascent runs on the non-polyhedral spaces only, so the dual exponent
    q is a finite rational above 1.

    column(xs), for the coordinate column xs = (x_1j, .., x_kj), gives the
    terms |Sum_i s_i x_ij| ** q, one per sign pattern s; budget(table) is
    max_s ||Sum_i s_i x_i||_q from the d columns' terms.  A step that moves
    one coordinate recomputes one column.  Bit-identical by rule: every
    term and norm is the same float expression, summed in the same order,
    as on the whole tuple at once.
    """
    patterns = sign_patterns(k)
    q = float(dual_exponent(space.exponent))

    def column(xs):
        return [abs(sum(map(operator.mul, s, xs))) ** q for s in patterns]

    def budget(table):
        return max(sum(terms) ** (1.0 / q) for terms in zip(*table))

    return column, budget


def peak_point(a: Vec, space: SpaceSpec) -> Vec:
    """A dual point where |<a, .>| peaks on the dual unit ball, up to scale.

    Hoelder's equality case: x_j = sign(a_j) |a_j| ** (p-1), so
    <a, x> = ||a||_p ||x||_q; for p = 2 this is a itself.  Non-polyhedral
    spaces only; roots are rounded up, which keeps x a candidate.
    """
    e = space.exponent - 1
    return tuple(
        (1 if c > 0 else -1) * root_upper(abs(c) ** e.numerator, e.denominator)
        for c in a
    )


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def operator_upper(columns, source: SpaceSpec, target: SpaceSpec) -> Fraction:
    """Certified upper bound on ||M|| from source to target, M given by its
    columns M e_j, one per source coordinate.

    A seq:inf source takes the exact max of ||M s|| over sign vectors s, the
    vertices of its unit ball.  Every other source takes the Hoelder bound
    ||(||c_j||)_j||_q over the columns c_j, q dual to the source's p; at
    p = 1 that is the largest column norm, which is ||M|| itself.  When the
    target's exponent is at least p, the Riesz-Thorin bound
    ||M||_1 ** (1/p) ||M||_inf ** (1 - 1/p) on l_p -> l_p also holds, and
    the smaller of the two is returned (at p = 2 the identity gets 1).
    """
    columns = [vec(c) for c in columns]
    p, r = source.exponent, target.exponent
    if p == INF_P:
        return max(norm_upper(combined, r) for combined in _signed_sums(columns))
    bound = norm_upper([norm_upper(c, r) for c in columns], dual_exponent(p))
    if r == INF_P or r >= p:
        col = max(norm_upper(c, Fraction(1)) for c in columns)
        row = max(norm_upper(w, Fraction(1)) for w in transpose(columns))
        a, b = p.numerator, p.denominator
        bound = min(bound, root_upper(col**b * row ** (a - b), a))
    return bound
