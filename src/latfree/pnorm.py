"""The l_p spaces and the l_p quantities on them: vector norms, the
admissibility value of a tuple of dual points, operator norms.

Each is an exact rational or a certified rational upper bound, computed
with `int` and `Fraction` only: p = 1 and p = inf need no root, other
rational p round k-th roots up (`root_upper`).  No float enters this
module.

The arithmetic stays on ints where the exponent allows.  A vector's or a
tuple's denominators are cleared once (`qmath.clear_denominators`), and
integral powers, the polyhedral budget sums and the signed sums of an
integral q are taken on those ints.  A root reads the numerator and the
denominator it is given, and a Fraction is built once, for the bound it
returns.  A Hoelder peak of an integral exponent takes no root, so int
coefficients give an int peak.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import CapacityError, UnsupportedSpaceError
from .qmath import (
    MAX_DIM,
    Vec,
    clear_denominators,
    clear_point_denominators,
    format_fraction,
    identity,
    to_fraction,
    transpose,
    vec,
)

INF_P = "inf"
_ONE = Fraction(1)

# rounded roots are within 2**-_BITS above the true root
_BITS = 64

# largest numerator or denominator of a seq exponent: a root of degree k
# works on integers of about k * _BITS bits
MAX_EXPONENT_TERM = 1000


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


class SpaceSpec(namedtuple("SpaceSpec", "kind dim p")):
    """Either fvl:n (n free generators) or seq:p:m (R^m with the l_p norm)."""

    __slots__ = ()

    def __new__(cls, kind: str, dim: int, p: Fraction | str | None = None):
        if kind not in ("fvl", "seq"):
            raise UnsupportedSpaceError(f"unknown space kind {kind!r}")
        if dim < 1:
            raise UnsupportedSpaceError("space dimension must be at least 1")
        if dim > MAX_DIM:
            raise CapacityError("space dimension", MAX_DIM, dim)
        if kind == "fvl":
            if p is not None:
                raise UnsupportedSpaceError("fvl spaces carry no exponent")
        elif p != INF_P:
            if not isinstance(p, Fraction):
                raise UnsupportedSpaceError("seq exponent must be rational or inf")
            if p < 1:
                raise UnsupportedSpaceError("seq exponent must satisfy p >= 1")
            if max(p.numerator, p.denominator) > MAX_EXPONENT_TERM:
                raise UnsupportedSpaceError(
                    f"seq exponent {format_fraction(p)} has a numerator "
                    f"or denominator above {MAX_EXPONENT_TERM}"
                )
        return super().__new__(cls, kind, dim, p)

    def __str__(self) -> str:
        if self.kind == "fvl":
            return f"fvl:{self.dim}"
        p = self.p if self.p == INF_P else format_fraction(self.p)
        return f"seq:{p}:{self.dim}"

    @property
    def exponent(self) -> Fraction | str:
        """p of the norm on the space; fvl is normed like l_1."""
        return _ONE if self.p is None else self.p

    @property
    def is_polyhedral(self) -> bool:
        """The admissible-tuple region is a polyhedron (exact path applies)."""
        return self.p in (None, 1, INF_P)

    @property
    def coordinate_budget(self) -> bool:
        """Admissibility bounds each coordinate's Sum_i |x_ij| (fvl, seq:1)."""
        return self.p in (None, 1)


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


@functools.cache
def dual_exponent(p: Fraction | str) -> Fraction | str:
    """q with 1/p + 1/q = 1, computed once per exponent."""
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


def _bracket(n: int, d: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo / den <= (n / d) ** (1/k) <= hi / den for ints
    n >= 0 and d >= 1: lo = hi = the root of n and den = the root of d when
    both are perfect k-th powers, else hi = lo + 1 and den = 2**bits.

    When d is a perfect k-th power, n / d need not be in lowest terms: the
    root of n / d is rational exactly when n is a perfect k-th power, and
    floor(n * 2**(k*bits) / d) depends only on the ratio."""
    num, den = iroot(n, k), iroot(d, k)
    if num**k == n and den**k == d:
        return num, num, den
    low = iroot((n << (k * bits)) // d, k)
    return low, low + 1, 1 << bits


def _root_bracket(q, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= q ** (1/k) <= hi for a rational q >= 0, an int or
    a Fraction: both the root itself when the numerator and the denominator
    of q are perfect k-th powers, else adjacent multiples of 2**-bits."""
    lo, hi, den = _bracket(q.numerator, q.denominator, k, bits)
    return Fraction(lo, den), Fraction(hi, den)


def _root_up(n: int, d: int, k: int) -> Fraction:
    """root_upper(n / d, k) for ints n >= 0 and d >= 1, n / d in lowest
    terms or d a perfect k-th power (_bracket)."""
    _, hi, den = _bracket(n, d, k, _BITS)
    return Fraction(hi, den)


def root_upper(q, k: int) -> Fraction:
    """Rational r >= q ** (1/k) for an int or a Fraction q >= 0: the root
    itself when the numerator and the denominator of q are perfect k-th
    powers (q itself when k = 1), else the next multiple of 2**-_BITS above
    it, so that r**k > q > (r - 2**-_BITS)**k."""
    if q < 0:
        raise ValueError("root of a negative rational")
    return _root_up(q.numerator, q.denominator, k)


# ---------------------------------------------------------------------------
# vector norms
# ---------------------------------------------------------------------------


def norm_upper(v, p: Fraction | str) -> Fraction:
    """Certified upper bound on ||v||_p; exact for p in {1, inf}, and for
    integer p whenever the norm is rational."""
    if p == INF_P:
        return max((abs(x) for x in v), default=Fraction(0))
    a, b = p.numerator, p.denominator
    if b == 1:
        # Sum_j |s v_j| ** a on ints, s the lcm of the denominators, over s ** a
        ints, s = clear_denominators(v)
        return _root_up(sum(abs(x) ** a for x in ints), s**a, a)
    # Sum_j |v_j| ** (a/b), each term rounded up, then its (b/a)-th power
    total = sum((root_upper(abs(x) ** a, b) for x in v), Fraction(0))
    return root_upper(total**b, a)


def norm_leq(v, p: Fraction | str, bound) -> bool:
    """Exact decision ||v||_p <= bound on every p.

    p = inf and integer p compare p-th powers (squares for p = 2).  Any
    other p = a/b compares Sum_j |v_j / bound| ** (a/b) with 1, each term
    bracketed between rationals 2**-bits apart, the bits doubling until the
    sum's bracket lies on one side of 1.  That ends: positive real roots of
    rationals whose ratios are irrational are linearly independent over Q
    (Besicovitch 1940), so the sum is 1 only when every term is rational,
    and a rational term's bracket is the term itself.
    """
    if bound < 0:
        return False
    if p == INF_P:
        return norm_upper(v, p) <= bound
    a, b = p.numerator, p.denominator
    if b == 1:
        return sum((abs(x) ** a for x in v), Fraction(0)) <= bound**a
    if bound == 0:
        return not any(v)
    powers = [(abs(x) / Fraction(bound)) ** a for x in v]  # no float from int / int
    bits = _BITS
    while True:
        brackets = [_root_bracket(t, b, bits) for t in powers]
        if sum((hi for _, hi in brackets), Fraction(0)) <= 1:
            return True
        if sum((lo for lo, _ in brackets), Fraction(0)) > 1:
            return False
        bits *= 2


# ---------------------------------------------------------------------------
# admissibility of a tuple of dual points
# ---------------------------------------------------------------------------


# sign vectors (+-1, .., +-1) modulo sign, 2**(k-1): a seq:inf source's
# operator bound and the seq:inf budget take a max over them, and so does
# the admissibility of a k-point tuple off the polyhedral spaces, unless no
# two of its points share a coordinate.  Measured on a 2-core x86 box with
# Python 3.11: the cap admits `extend` from seq:inf:18, which takes 5.5 s.
MAX_SIGNS = 1 << 17


@functools.cache
def sign_patterns(k: int) -> tuple[tuple[int, ...], ...]:
    """Representatives of {+-1}^k modulo global sign (first entry +1);
    CapacityError above MAX_SIGNS of them, before any is built."""
    signs = 2 ** (k - 1)
    if signs > MAX_SIGNS:
        raise CapacityError("sign vectors", MAX_SIGNS, signs)
    return tuple((1,) + rest for rest in itertools.product((1, -1), repeat=k - 1))


def _signed_sums(points):
    """Sum_i s_i x_i for every sign pattern s, summed from the left.  Where
    no two points share a nonzero coordinate (one point among them), every
    sum has the same |entries| as the first, s = (1, .., 1), which then
    stands for all of them."""
    if len(points) == 1:
        return points
    columns = list(zip(*points))
    if all(sum(1 for x in col if x) <= 1 for col in columns):
        return [[sum(col) for col in columns]]
    return ([sum(map(operator.mul, s, col)) for col in columns]
            for s in sign_patterns(len(points)))


def budget_directions(space: SpaceSpec) -> tuple[Vec, ...]:
    """Finite directions b with admissibility == (Sum_i |<x_i, b>| <= 1 for all b).

    These are the extreme points (up to sign) of the space's unit ball.
    """
    d = space.dim
    if space.coordinate_budget:
        return identity(d)
    if space.exponent == INF_P:
        return sign_patterns(d)
    raise UnsupportedSpaceError(
        f"space {space} has a non-polyhedral unit ball; use norm_certificate"
    )


def admissibility_upper(points, space: SpaceSpec) -> Fraction:
    """Certified upper bound on the admissibility value of a tuple, the sup
    over the unit ball of the space of Sum_i |x_i(v)|.

    Polyhedral spaces take the exact max over budget directions b of
    Sum_i |<x_i, b>|.  Elsewhere the value is max_s ||Sum_i s_i x_i||_q for
    q dual to p (worst_signed_sum); for integer q the max of the q-th powers
    is exact and only its root is rounded up, so the bound is at most 1
    exactly when the value is.
    """
    if space.is_polyhedral:
        # Sum_i |<s x_i, b>| on ints, s the lcm of the tuple's denominators
        ints, s = clear_point_denominators(points)
        return Fraction(max(
            sum(abs(sum(map(operator.mul, x, b))) for x in ints)
            for b in budget_directions(space)
        ), s)
    return worst_signed_sum(points, space)[0]


def worst_signed_sum(points, space: SpaceSpec, scale: int = 1) -> tuple[Fraction, list]:
    """(admissibility_upper(points / scale, space), u) on a non-polyhedral
    space, for an int scale >= 1: u is a positive multiple of the signed
    sum Sum_i s_i x_i whose q-norm the bound is, the first such s in
    sign_patterns order.  u and the bound do not depend on how the tuple
    is split between the points and the scale."""
    q = dual_exponent(space.exponent)
    if q.denominator == 1:
        # on ints: the points / scale times the lcm s of their denominators
        k = q.numerator
        scaled, s = clear_point_denominators(points)
        if scale != 1:
            # s and the gcd of the entries are coprime, so this is the lcm again
            g = math.gcd(scale, *(x for point in scaled for x in point))
            scaled, s = [[x // g for x in point] for point in scaled], s * scale // g
        power, u = max(
            ((sum(abs(c) ** k for c in combined), combined)
             for combined in _signed_sums(scaled)),
            key=operator.itemgetter(0),
        )
        return _root_up(power, s**k, k), u
    if scale != 1:
        points = [[Fraction(x, scale) for x in point] for point in points]
    return max(
        ((norm_upper(combined, q), combined) for combined in _signed_sums(points)),
        key=operator.itemgetter(0),
    )


def admissible(points, space: SpaceSpec, upper=None) -> bool:
    """Whether the admissibility value of a tuple is at most 1, decided
    exactly on every space; upper, when given, is admissibility_upper.

    A bound at most 1 decides it.  Only a fractional q rounds the bound
    up, so only there is a bound above 1 decided again, each signed sum's
    q-norm by norm_leq.
    """
    if upper is None:
        upper = admissibility_upper(points, space)
    if upper <= 1:
        return True
    if space.is_polyhedral:
        return False
    q = dual_exponent(space.exponent)
    return q.denominator > 1 and all(
        norm_leq(combined, q, 1) for combined in _signed_sums(points)
    )


def peak_point(a, p: Fraction) -> Vec:
    """A point where |<a, .>| peaks on the l_q unit ball, up to scale.

    Hoelder's equality case, q dual to a rational p > 1:
    x_j = sign(a_j) |a_j| ** (p-1), so <a, x> = ||a||_p ||x||_q; for p = 2
    this is a itself.  Roots are rounded up, which keeps x a candidate.
    An integral exponent takes no root: int entries of a give ints.
    """
    e = p - 1

    def power(c):
        m = abs(c) ** e.numerator
        return m if e.denominator == 1 else root_upper(m, e.denominator)

    return tuple(power(c) if c > 0 else -power(c) for c in a)


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
