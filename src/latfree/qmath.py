"""Exact rational helpers: vectors and exact linear algebra."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CapacityError


Vec = tuple[Fraction, ...]

# the largest dimension of a space and arity of an expression, checked
# before any vector of that length is built.  Measured on a 2-core x86 box
# with Python 3.11.7: the norm of t1 \/ t2 on fvl:32 takes 0.09 s and, past
# this cap and the ray work cap, on fvl:64 1.8 s, walking C(d+1, d-1) ray
# subsets; the cap admits seq:2:30, where t1 - t1 has norm 0.
MAX_DIM = 32


def to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def int_or_fraction(x) -> int | Fraction:
    """to_fraction(x), as an int when it is integral."""
    if type(x) is int:
        return x
    q = to_fraction(x)
    return q.numerator if q.denominator == 1 else q


def clear_denominators(values) -> tuple[list[int], int]:
    """([s * v for each value v], s) with s the lcm of the denominators, so
    every s * v is an int."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    s = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def clear_point_denominators(points) -> tuple[list[list[int]], int]:
    """([s * x for each point x], s) for points of one length, s the lcm
    of every entry's denominator, so every s * x is a list of ints."""
    flat, s = clear_denominators([c for x in points for c in x])
    d = len(points[0])
    return [flat[h : h + d] for h in range(0, len(flat), d)], s


def vec(values) -> Vec:
    return tuple(to_fraction(v) for v in values)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def identity(dim: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors of Q^dim, the rows of the identity matrix, as ints."""
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive_normal(a: Vec) -> tuple[int, ...]:
    """Scale to an int tuple with gcd 1 and first nonzero entry positive.

    The zero vector maps to zeros.  Used to canonicalize hyperplane normals
    so that a plane and its negation collapse to one representative.
    """
    ints, _ = clear_denominators(a)
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def format_fraction(q: int | Fraction) -> str:
    """q, an int or a Fraction, as "n" or "n/d".  A numerator or denominator
    with more digits than the interpreter converts to a string is a
    CapacityError that names the longer one's digit count."""
    try:
        return str(q)
    except ValueError:
        longest = max(abs(q.numerator), q.denominator)
        digits = (longest.bit_length() - 1) * 30102 // 100000  # <= log10(longest)
        while 10**digits <= longest:
            digits += 1
        raise CapacityError("printed digits", sys.get_int_max_str_digits(), digits) from None


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def transpose(rows) -> tuple[Vec, ...]:
    rows = [vec(r) for r in rows]
    if not rows:
        return ()
    return tuple(tuple(r[j] for r in rows) for j in range(len(rows[0])))
