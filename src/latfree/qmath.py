"""Exact rational helpers: vectors, square-root bounds, rationalization."""

from __future__ import annotations

import math
from fractions import Fraction


Vec = tuple[Fraction, ...]


def to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def vec(values) -> Vec:
    return tuple(to_fraction(v) for v in values)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def l1_norm(a: Vec) -> Fraction:
    return sum((abs(x) for x in a), Fraction(0))


def linf_norm(a: Vec) -> Fraction:
    return max((abs(x) for x in a), default=Fraction(0))


def l2_norm_sq(a: Vec) -> Fraction:
    return sum((x * x for x in a), Fraction(0))


def primitive_normal(a: Vec) -> Vec:
    """Scale to integer entries with gcd 1 and first nonzero entry positive.

    The zero vector maps to itself.  Used to canonicalize hyperplane normals
    so that a plane and its negation collapse to one representative.
    """
    if is_zero_vec(a):
        return a
    denom = math.lcm(*(x.denominator for x in a))
    ints = [int(x * denom) for x in a]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact rational square root of q, or None when irrational."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    if is_perfect_square(q.numerator) and is_perfect_square(q.denominator):
        return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return None


def sqrt_upper(q: Fraction, tol: Fraction = Fraction(1, 10**15)) -> Fraction:
    """Rational r with sqrt(q) <= r < sqrt(q) + tol.

    Newton iteration from above converges monotonically, so every iterate
    is a certified upper bound; we stop once the bracket (r - q/r) is
    tighter than tol.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Fraction(0)
    exact = sqrt_exact(q)
    if exact is not None:
        return exact
    r = Fraction(math.sqrt(float(q))) * Fraction(1000001, 1000000) + tol
    if r * r < q:
        r = max(q, Fraction(1))
    while r - q / r > tol:
        r = (r + q / r) / 2
        # keep the bracket from accumulating huge denominators
        r = r.limit_denominator(10**30) + tol / 4
    return r


def rationalize(x: float, max_den: int = 10**6) -> Fraction:
    """Nearest rational with bounded denominator (continued fractions)."""
    if not math.isfinite(x):
        raise ValueError("cannot rationalize a non-finite float")
    return Fraction(x).limit_denominator(max_den)


def rationalize_vec(xs, max_den: int = 10**6) -> Vec:
    return tuple(rationalize(float(x), max_den) for x in xs)


def format_fraction(q: Fraction) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def transpose(rows) -> tuple[Vec, ...]:
    rows = [vec(r) for r in rows]
    if not rows:
        return ()
    return tuple(tuple(r[j] for r in rows) for j in range(len(rows[0])))


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(vec(r)) for r in rows]
    pivots: list[int] = []
    if not a:
        return a, pivots
    ncols = len(a[0])
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return a, pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def null_space_basis(rows) -> list[Vec]:
    """Basis of {x : Mx = 0}, one vector per free column of the RREF."""
    rows = [vec(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -reduced[r][fc]
        basis.append(tuple(x))
    return basis
