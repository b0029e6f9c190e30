"""Exact rational helpers: vectors and exact linear algebra."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CapacityError, InternalFaultError


Vec = tuple[Fraction, ...]

# the largest dimension of a space and arity of an expression, checked
# before any vector of that length is built.  Measured on a 2-core x86 box
# with Python 3.11: at 32 the norm of t1 \/ t2 on fvl:32 takes 0.7 s and
# on fvl:64 takes 22 s, each of its C(d+1, d-1) ray subsets being a d x d
# elimination; the cap admits seq:2:30, where t1 - t1 has norm 0.
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


def null_line(rows, dim: int) -> tuple[int, ...] | None:
    """Primitive generator of {x in Q^dim : Mx = 0} when it is a line, else None.

    M has integer rows.  Fraction-free Gauss-Jordan elimination (Bareiss,
    1968): each step replaces every other row r by (p*r - m*pivot_row) / p',
    where p is the new pivot, m is r's entry in the pivot column and p' the
    previous pivot.  Every entry stays a minor of M, so each division is
    exact (a remainder is an InternalFaultError), and at the end each pivot
    row holds the last pivot D in its own pivot column and 0 in the others.
    With one free column f, x_f = D and x_c = -row[f] for the pivot row of
    each pivot column c then solve Mx = 0.  The generator has gcd 1 and its
    first nonzero entry positive.
    """
    a = [list(r) for r in rows]
    pivot_cols: list[int] = []
    free = None
    prev = 1
    for col in range(dim):
        top = len(pivot_cols)
        piv = next((i for i in range(top, len(a)) if a[i][col]), None)
        if piv is None:
            if free is not None:
                return None
            free = col
            continue
        a[top], a[piv] = a[piv], a[top]
        prow = a[top]
        p = prow[col]
        # pivot columns are never read again (their entries are known), so
        # only the free column and the columns right of this one are updated
        live = range(col + 1, dim) if free is None else (free, *range(col + 1, dim))
        for i, row in enumerate(a):
            if i == top:
                continue
            m = row[col]
            for j in live:
                row[j], rem = divmod(p * row[j] - m * prow[j], prev)
                if rem:
                    raise InternalFaultError("fraction-free elimination left a remainder")
        pivot_cols.append(col)
        prev = p
    if free is None:
        return None
    x = [0] * dim
    x[free] = prev
    for row, c in zip(a, pivot_cols):
        x[c] = -row[free]
    g = math.gcd(*x)
    if next(v for v in x if v) < 0:
        g = -g
    return tuple(v // g for v in x)
