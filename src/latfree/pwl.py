"""Piecewise-linear function engine.

A PwlFunction pairs a lattice-linear expression with a rational matrix of
composition rows; its value at x is the expression evaluated at the row
products.  Such functions are positively homogeneous and piecewise linear,
with linear candidate pieces obtained structurally from the expression.

f can bend only where a join node switches operands, so its kinks are read
off the program in the same fold as its pieces: at each Sup or Inf node, the
differences of a piece of one operand and a piece of the other.  Add the
coordinate normals to the kinks, and every closed cell of the arrangement is
a pointed cone on which f is linear, generated by its extreme rays.  `rays`
returns that finite ray set; equality and every extremum that is linear or
linear-fractional per cell are decided on it, with no sampling.

`build_arrangement` enumerates the full-dimensional cells with one
feasible-start LP per probed sign vector, and `arrangement_for` takes the
differences of all pairs of pieces.  That arrangement serves only the
cell-assignment norm oracle (`norm.norm_by_cell_assignment`), which reads
no ray, so the oracle and `rays` check each other.

The exact kernel runs on Python ints: `PwlFunction.fold_many` evaluates a
whole batch of points in one fold with integral values as int, and the
rays come from one depth-first walk over the plane subsets, each prefix
carrying an int basis of its null space (`_solved_lines`).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import comb, gcd

from .errors import CapacityError, DimensionError, InternalFaultError
from .expr import (
    Add,
    Expr,
    Frozen,
    Inf,
    Program,
    Scale,
    Sup,
    Var,
    fold,
    substitute,
)
from .qmath import (
    Vec,
    dot,
    identity,
    int_or_fraction,
    is_zero_vec,
    primitive_normal,
    to_fraction,
    vec,
    zero_vec,
)

_MAX_PIECES = 256
_MAX_CELLS = 8192


class PwlFunction(Frozen):
    """expr composed with rational rows: f(x) = expr(row_1.x, ..., row_n.x).

    Immutable; equal and hashed as the tuple (dim, expr, comp).
    """

    __match_args__ = ("dim", "expr", "comp")

    def __init__(self, dim: int, expr: Expr, comp: tuple[Vec, ...]):
        fields = self.__dict__
        fields["dim"] = dim
        fields["expr"] = expr
        fields["comp"] = comp
        if self.dim < 1:
            raise DimensionError("ambient dimension must be at least 1")
        if not self.comp:
            raise DimensionError("composition matrix needs at least one row")
        for row in self.comp:
            if len(row) != self.dim:
                raise DimensionError(
                    f"composition row of length {len(row)} in ambient dimension {self.dim}"
                )
        if self.program.max_var > len(self.comp):
            raise DimensionError(
                f"expression uses t{self.program.max_var} but only "
                f"{len(self.comp)} composition rows are given"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.expr, self.comp) == (other.dim, other.expr, other.comp)

    def __hash__(self):
        return hash((self.dim, self.expr, self.comp))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(dim={self.dim!r}, expr={self.expr!r}, "
            f"comp={self.comp!r})"
        )

    @property
    def program(self) -> Program:
        return self.expr.program

    @property
    def arity(self) -> int:
        return len(self.comp)

    @cached_property
    def _sparse_comp(self) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
        """Each composition row as its (column, entry) pairs with entry != 0."""
        return tuple(
            tuple((j, int_or_fraction(c)) for j, c in enumerate(row) if c)
            for row in self.comp
        )

    def eval(self, x) -> Fraction:
        return self.eval_many([x])[0]

    def eval_many(self, points) -> list[Fraction]:
        """f at each point, as Fractions."""
        return [v if type(v) is Fraction else Fraction(v) for v in self.fold_many(points)]

    def fold_many(self, points) -> list[int | Fraction]:
        """f at each point, in one fold over the whole batch: an int where
        every entry the value reads is integral, else a Fraction.

        A slot's value is the list of its values at the points.  Integral
        coordinates and composition entries are read as int, as the program
        holds integral coefficients, so a Fraction (and its gcd) appears
        only where an entry is not integral.
        """
        xs = [tuple(map(int_or_fraction, x)) for x in points]
        for x in xs:
            if len(x) != self.dim:
                raise DimensionError(f"expected a point of length {self.dim}, got {len(x)}")

        def column(i):
            row = self._sparse_comp[i - 1]
            if len(row) == 1 and row[0][1] == 1:  # a coordinate, as from_expr builds
                j = row[0][0]
                return [x[j] for x in xs]
            return [sum(c * x[j] for j, c in row) for x in xs]

        return fold(
            self.program,
            column,
            lambda c, v: [c * u for u in v],
            lambda u, v: list(map(operator.add, u, v)),
            lambda u, v: [a if a >= b else b for a, b in zip(u, v)],
            lambda u, v: [a if a <= b else b for a, b in zip(u, v)],
        )

    @classmethod
    def from_expr(cls, expr: Expr, n: int) -> "PwlFunction":
        """Expression over the standard coordinates of Q^n (identity rows)."""
        return cls(dim=n, expr=expr, comp=identity(n))


def make_pwl(expr: Expr, rows) -> PwlFunction:
    comp = tuple(vec(r) for r in rows)
    if not comp:
        raise DimensionError("composition matrix needs at least one row")
    return PwlFunction(dim=len(comp[0]), expr=expr, comp=comp)


def zero_pwl(dim: int) -> PwlFunction:
    return PwlFunction(dim=dim, expr=Scale(Fraction(0), Var(1)), comp=(zero_vec(dim),))


def _shift_vars(e: Expr, offset: int, arity: int) -> Expr:
    return substitute(e, [Var(i + 1 + offset) for i in range(arity)])


def _combine(f: PwlFunction, g: PwlFunction, node) -> PwlFunction:
    if f.dim != g.dim:
        raise DimensionError("combining functions over different ambient dimensions")
    shifted = _shift_vars(g.expr, len(f.comp), len(g.comp))
    return PwlFunction(dim=f.dim, expr=node(f.expr, shifted), comp=f.comp + g.comp)


def pwl_add(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    return _combine(f, g, Add)


def pwl_sup(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    return _combine(f, g, Sup)


def pwl_inf(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    return _combine(f, g, Inf)


def pwl_scale(c, f: PwlFunction) -> PwlFunction:
    return PwlFunction(dim=f.dim, expr=Scale(to_fraction(c), f.expr), comp=f.comp)


def pwl_abs(f: PwlFunction) -> PwlFunction:
    """|f|, as the parser expands it: f join (-1)*f."""
    e = f.expr
    return PwlFunction(dim=f.dim, expr=Sup(e, Scale(Fraction(-1), e)), comp=f.comp)


# ---------------------------------------------------------------------------
# candidate pieces
# ---------------------------------------------------------------------------


def pieces_and_kinks(f: PwlFunction) -> tuple[frozenset[Vec], frozenset[Vec]]:
    """f's candidate pieces, as coefficient vectors with int entries where
    integral, and its kinks, from one fold over its program.

    A slot carries (pieces, kinks).  A Sup or Inf node adds the primitive
    normals of p - q for p a piece of its left operand and q a piece of its
    right operand; Var, Scale and Add add no kinks.  On each closed cell of
    the kinks, both operands of every join are linear and the sign of p - q
    is fixed, so by induction f is linear on the cell and equals one of its
    pieces there.
    """

    def add(left, right):
        out = frozenset(
            tuple(a + b for a, b in zip(ta, tb)) for ta in left[0] for tb in right[0]
        )
        if len(out) > _MAX_PIECES:
            raise CapacityError("candidate pieces", _MAX_PIECES, len(out))
        return out, left[1] | right[1]

    def join(left, right):
        bends = {
            primitive_normal(tuple(a - b for a, b in zip(p, q)))
            for p in left[0]
            for q in right[0]
            if p != q
        }
        return left[0] | right[0], left[1] | right[1] | bends

    return fold(
        f.program,
        lambda i: (frozenset((tuple(map(int_or_fraction, f.comp[i - 1])),)), frozenset()),
        lambda c, s: (frozenset(tuple(c * v for v in t) for t in s[0]), s[1]),
        add,
        join,
        join,
    )


def linear_pieces(f: PwlFunction) -> frozenset[Vec]:
    """Closure of candidate linear pieces; f agrees with one on every cell."""
    return pieces_and_kinks(f)[0]


def kinks(f: PwlFunction) -> frozenset[Vec]:
    """Normals of the hyperplanes where f may bend (see pieces_and_kinks)."""
    return pieces_and_kinks(f)[1]


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------


class Cell(namedtuple("Cell", "signs interior")):
    """Full-dimensional cell given by strict signs against the hyperplanes,
    with a rational point of its interior."""

    __slots__ = ()


class Arrangement(namedtuple("Arrangement", "dim hyperplanes cells")):
    """A central arrangement's normals and its cells, sorted by sign vector."""

    __slots__ = ()


def canonical_normals(vectors) -> list[tuple[int, ...]]:
    """Canonicalize, drop zeros, dedupe, and sort hyperplane normals."""
    seen = set()
    for v in vectors:
        n = primitive_normal(v)
        if not is_zero_vec(n):
            seen.add(n)
    return sorted(seen)


def difference_normals(pieces) -> list[Vec]:
    plist = list(pieces)
    diffs = []
    for i in range(len(plist)):
        for j in range(i + 1, len(plist)):
            diffs.append(tuple(a - b for a, b in zip(plist[i], plist[j])))
    return diffs


# (dim-1)-subsets of planes `rays` may walk.  Measured on a 2-core x86 box
# with Python 3.11.7: the walk takes about 10 us a subset in dimensions 4
# and 5 (1.3 s for the 125,580 subsets of 92 random planes in dimension 4,
# 1.4 s for the 148,995 of 45 in dimension 5), and a whole equivalence
# check about 7 us a subset in dimension 4, so the cap admits a second or
# two of either.  The cap does not bound the exact norm's ray LP, which
# costs its ray columns times its pivots: on the same box its integer
# simplex took 0.21 s for the 650 columns, 16 rows and 110 pivots of the
# seq:inf:5 norm of |t1-2*t2| + |t2-3*t3| + |t3+t4| + |t4-t5| + |t1+t5|.
_MAX_RAY_SUBSETS = 150_000
# Subsets times dim^2, the work of a d x d elimination per subset, kept so
# that the same inputs are answered: on the same box, equivalence of
# t1 \/ t2 \/ t3 with t3 \/ t2 \/ t1 takes 0.07 s at arity 16, 0.23 s at
# arity 20 (8,855 subsets) and, past this cap, 4.1 s at arity 32 (52,360).
# Up to dimension 5 the subset cap is the tighter one.
_MAX_RAY_WORK = 25 * _MAX_RAY_SUBSETS


def ray_planes(dim: int, normals) -> list[tuple[int, ...]]:
    """The planes of rays(dim, normals): the canonical `normals` plus the
    coordinate normals."""
    planes = canonical_normals(list(normals) + list(identity(dim)))
    if any(len(n) != dim for n in planes):
        raise DimensionError("hyperplane normal has wrong length")
    return planes


def check_ray_caps(count: int, dim: int) -> None:
    """CapacityError when `count` subsets in dimension dim pass a ray cap."""
    if count > _MAX_RAY_SUBSETS:
        raise CapacityError("ray subsets", _MAX_RAY_SUBSETS, count)
    work = count * dim * dim
    if work > _MAX_RAY_WORK:
        raise CapacityError("ray work", _MAX_RAY_WORK, work)


def _restrict(basis, plane) -> list[tuple[int, ...]] | None:
    """An int basis of the vectors of span(basis) on `plane`, one vector
    shorter than `basis`, or None when the plane holds the whole span.

    With p = <plane, b_k> != 0 for the first such b_k, every other b_i
    becomes p*b_i - <plane, b_i>*b_k over its gcd, which lies on the plane
    and is never 0 since the b_i are independent; a b_i already on the
    plane is kept.  So a primitive basis stays primitive.
    """
    dots = [sum(map(operator.mul, plane, b)) for b in basis]
    k = next((i for i, m in enumerate(dots) if m), None)
    if k is None:
        return None
    p, pivot = dots[k], basis[k]
    out = []
    for i, (b, m) in enumerate(zip(basis, dots)):
        if i == k:
            continue
        if m:
            v = [p * x - m * y for x, y in zip(b, pivot)]
            g = gcd(*v)
            b = tuple(x // g for x in v)
        out.append(b)
    return out


def _solved_lines(dim: int, planes, new=None) -> set[tuple[int, ...]]:
    """Both signs of the primitive generator of every line where dim - 1
    of `planes` meet, or, given `new`, where `new` and dim - 2 of them
    meet; CapacityError before any restriction when those subsets or their
    work pass the ray caps.

    The subsets are walked depth first in index order, each prefix
    carrying an int basis of its null space (`_restrict`).  A plane that
    holds the whole of it ends the branch, every subset through it being
    rank-deficient, and the one vector left at a leaf spans the line.
    """
    size = dim - 1 if new is None else dim - 2
    check_ray_caps(comb(len(planes), size), dim)
    lines = set()

    def walk(start, basis):
        if len(basis) == 1:
            lines.add(basis[0])
            lines.add(tuple(-x for x in basis[0]))
            return
        # a prefix with m basis vectors needs m - 1 more planes
        for j in range(start, len(planes) - len(basis) + 2):
            restricted = _restrict(basis, planes[j])
            if restricted is not None:
                walk(j + 1, restricted)

    basis = identity(dim)
    walk(0, basis if new is None else _restrict(basis, new))
    return lines


def ray_table(dim: int, planes) -> tuple[tuple[int, ...], ...]:
    """rays(dim, normals) read from its planes, planes = ray_planes(dim,
    normals), so a caller that keeps the planes canonicalizes them once."""
    return tuple(sorted(_solved_lines(dim, planes)))


def rays(dim: int, normals) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the cells of a central arrangement.

    The hyperplanes are the canonical `normals` plus the coordinate
    normals.  Every closed cell is then a pointed cone, the conic hull of
    its extreme rays, and the extreme rays of all cells are the rays on the
    lines where dim - 1 independent hyperplanes meet.  So each
    (dim - 1)-subset whose null space is a line gives two of them.  The
    subsets are walked depth first (`_solved_lines`): a subset's null space
    is its prefix's, restricted to one more plane on Python ints, so no
    subset is solved from scratch.  Returns the primitive integer rays as
    int tuples, closed under sign, sorted.
    """
    return ray_table(dim, ray_planes(dim, normals))


def rays_with(
    dim: int, planes, table, normal
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, ...]]]:
    """(rays(dim, [*planes, normal]), its planes), given table =
    rays(dim, planes) and planes = ray_planes(dim, normals).

    The planes come canonical and go on canonical, the new one appended,
    so a loop that adds one plane per round canonicalizes each plane once.
    A line of the new arrangement that is not a line of the old one lies
    on the new plane, so it is where the new plane meets dim - 2 old ones:
    the walk starts from the new plane's null space and takes C(H, dim - 2)
    subsets of the H old planes, not C(H + 1, dim - 1).  A plane that is
    already there adds nothing.  The caps of `rays` apply to the subsets
    walked here.
    """
    plane = primitive_normal(normal)
    if len(plane) != dim:
        raise DimensionError("hyperplane normal has wrong length")
    if is_zero_vec(plane) or plane in planes:
        return tuple(table), planes
    lines = _solved_lines(dim, planes, plane)
    return tuple(sorted(lines.union(table))), [*planes, plane]


def _strict_cell_point(normals: list[Vec], signs, dim: int):
    """Rational x with signs[i]*normals[i](x) >= 1, or None when empty.

    The LP is max t subject to t <= s_i n_i.x and t <= 1, with x = u - w
    and u, w, t >= 0; it is feasible at 0.  By homogeneity of the cone the
    optimum is 1 exactly when the open cell is nonempty, and 0 otherwise.
    """
    from .lp import simplex_standard  # the oracle's LP alone loads lp

    rows = [
        (tuple(-s * c for c in n) + tuple(s * c for c in n) + (1,), 0)
        for n, s in zip(normals, signs)
    ]
    rows.append(((0,) * (2 * dim) + (1,), 1))
    res = simplex_standard((0,) * (2 * dim) + (1,), rows)
    if res.value != 1:
        return None
    return tuple(u - w for u, w in zip(res.point[:dim], res.point[dim : 2 * dim]))


def build_arrangement(dim: int, normals) -> Arrangement:
    """Enumerate full-dimensional cells of a central hyperplane arrangement.

    normals are coefficient vectors; they are canonicalized
    and deduplicated first.  With no (nonzero) normals the whole space is
    the single cell.  Cells come out sorted by sign vector.
    """
    canon = canonical_normals(normals)
    for n in canon:
        if len(n) != dim:
            raise DimensionError("hyperplane normal has wrong length")
    states: list[tuple[tuple[int, ...], Vec]] = [((), zero_vec(dim))]
    prefix: list[Vec] = []
    for h in canon:
        prefix.append(h)
        next_states: list[tuple[tuple[int, ...], Vec]] = []
        for signs, point in states:
            val = dot(h, point)
            reuse_sign = 0 if val == 0 else (1 if val > 0 else -1)
            for s in (1, -1):
                if s == reuse_sign:
                    next_states.append((signs + (s,), point))
                    continue
                found = _strict_cell_point(prefix, signs + (s,), dim)
                if found is not None:
                    next_states.append((signs + (s,), found))
        states = next_states
        if len(states) > _MAX_CELLS:
            raise CapacityError("arrangement cells", _MAX_CELLS, len(states))
    states.sort(key=lambda sp: sp[0])
    cells = tuple(Cell(signs=s, interior=p) for s, p in states)
    return Arrangement(dim=dim, hyperplanes=tuple(canon), cells=cells)


def arrangement_for(f: PwlFunction) -> Arrangement:
    return build_arrangement(f.dim, difference_normals(linear_pieces(f)))


# ---------------------------------------------------------------------------
# active pieces
# ---------------------------------------------------------------------------


def active_piece(f: PwlFunction, cell: Cell, candidates=None) -> Vec:
    """The unique candidate piece equal to f on the closed cell, a cell of
    an arrangement that holds every pairwise difference of the candidates
    (as `arrangement_for` does).

    No two candidates agree at the cell's interior point, and f equals one
    of them at every point, so the value there picks it.  The candidates
    stay distinct on the whole open cell, so f, being continuous, equals
    that piece on the cell and on its closure.
    """
    cands = linear_pieces(f) if candidates is None else candidates
    value = f.eval(cell.interior)
    matches = [c for c in cands if dot(c, cell.interior) == value]
    if len(matches) != 1:
        raise InternalFaultError(
            f"expected exactly one active piece on cell {cell.signs}, "
            f"found {len(matches)}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def equivalent(f: PwlFunction, g: PwlFunction):
    """Decide pointwise equality; returns (True, None) or (False, witness).

    Both functions are linear on every closed cell of the arrangement of
    their kinks and the coordinate normals, so they agree everywhere exactly
    when they agree on its extreme rays; the witness is the first ray where
    they differ.  The values are compared exactly as fold_many leaves them.
    """
    if f.dim != g.dim:
        raise DimensionError("cannot compare functions over different dimensions")
    points = rays(f.dim, kinks(f) | kinks(g))
    pairs = zip(points, f.fold_many(points), g.fold_many(points))
    witness = next((p for p, a, b in pairs if a != b), None)
    return witness is None, witness


def is_zero(f: PwlFunction) -> bool:
    eq, _ = equivalent(f, zero_pwl(f.dim))
    return eq
