"""Free-lattice norms as certified lower/upper sandwiches.

The norm of a piecewise-linear element is the supremum of Sum_i |f(x_i)|
over finite tuples of dual points whose admissibility value
(constraint_norm) is at most 1.  norm_certificate computes it on every
space with one LP (ray_lp): its columns are the extreme rays (pwl.rays)
of an arrangement on which f and each row's |<., b>| are linear cell by
cell, its rows bound Sum_i |<x_i, b>| <= N for unit-ball points b / N,
and its exact duals are checked.  Only the rows change with the space.
For the polyhedral spaces they are the budget directions, so the value
is the exact norm and the LP's optimal point its witness.  For the
remaining spaces they are the composition rows f reads, scaled into the
unit ball, on one ray table of f's own: the rays of its kinks, its
composition rows and the coordinate normals.  The value is a certified
upper bound, 0 exactly when f vanishes, and cutting planes at the LP's
inadmissible witnesses (Kelley 1960) lower it; the lower bound comes
from the sweep and the LP witnesses.  Every l_p quantity comes from
pnorm as a rational, so no float enters the norm path on any space.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import (
    CapacityError,
    DimensionError,
    InternalFaultError,
    UnsupportedSpaceError,
)
from .expr import Var
from .lp import simplex_standard
from .pnorm import (  # the space constructors are re-exported from here
    SpaceSpec,
    admissibility_upper,
    admissible,
    budget_directions,
    dual_exponent,
    fvl_space,
    norm_upper,
    parse_space,
    peak_point,
    seq_space,
    worst_signed_sum,
)
from .pwl import (
    PwlFunction,
    active_piece,
    arrangement_for,
    check_ray_caps,
    linear_pieces,
    pieces_and_kinks,
    ray_planes,
    ray_table,
    rays_with,
)
from .qmath import (
    Vec,
    clear_denominators,
    clear_point_denominators,
    format_fraction,
    identity,
    vec,
    vec_scale,
    zero_vec,
)


# ---------------------------------------------------------------------------
# tuples and certificates
# ---------------------------------------------------------------------------


class FunctionalTuple(namedtuple("FunctionalTuple", "space points")):
    """Finite tuple of dual points inducing the seminorm Sum_i |f(x_i)|.

    No __slots__ = (): the instance dict holds the cached admissibility.
    """

    def __new__(cls, space: SpaceSpec, points: tuple[Vec, ...]):
        if not points:
            raise DimensionError("a functional tuple needs at least one point")
        for x in points:
            if len(x) != space.dim:
                raise DimensionError(f"tuple point of length {len(x)} in space {space}")
        return super().__new__(cls, space, points)

    @cached_property
    def _admissibility(self) -> Fraction:
        return admissibility_upper(self.points, self.space)


def functional_tuple(space: SpaceSpec, points) -> FunctionalTuple:
    return FunctionalTuple(space=space, points=tuple(vec(x) for x in points))


class NormCertificate(
    namedtuple("NormCertificate", "lower upper witness upper_method")
):
    """Sandwich lower <= norm <= upper with a reproducible witness tuple;
    upper_method is "exact_match" or "ray_lp_dual"."""

    __slots__ = ()

    def __new__(cls, lower, upper, witness, upper_method):
        if lower > upper:
            raise InternalFaultError(
                f"certificate violates lower <= upper: {lower} > {upper}"
            )
        return super().__new__(cls, lower, upper, witness, upper_method)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def constraint_norm(tup: FunctionalTuple) -> Fraction:
    """sup over the unit ball of the space of Sum_i |x_i(v)|, as pnorm's
    certified upper bound (exact on polyhedral spaces), computed once per
    tuple."""
    return tup._admissibility


def tuple_admissible(tup: FunctionalTuple) -> bool:
    """Whether the admissibility value is at most 1, decided exactly on
    every space, also where constraint_norm rounds a root up (pnorm's
    admissible)."""
    return admissible(tup.points, tup.space, constraint_norm(tup))


def _tuple_total(f: PwlFunction, tup: FunctionalTuple) -> Fraction:
    """Sum_i |f(x_i)|, exactly: f is positively homogeneous, so it is folded
    on the int points s x_i, s the lcm of the tuple's denominators, and the
    sum is divided by s once."""
    ints, s = clear_point_denominators(tup.points)
    return Fraction(sum(abs(v) for v in f.fold_many(ints)), s)


def tuple_seminorm_value(f: PwlFunction, tup: FunctionalTuple) -> Fraction:
    """Sum_i |f(x_i)| normalized by max(1, constraint_norm) — a sound lower bound."""
    if f.dim != tup.space.dim:
        raise DimensionError("function and tuple live in different dimensions")
    return _tuple_total(f, tup) / max(Fraction(1), constraint_norm(tup))


# ---------------------------------------------------------------------------
# the ray LP
# ---------------------------------------------------------------------------


class _Values(dict):
    """f's exact value at each point evaluated so far, as fold_many leaves
    it (an int where the entries it reads are); ray_lp takes the map in
    place of f, through its eval_many."""

    def add(self, f: PwlFunction, points) -> None:
        """Evaluate f, in one batch, at the points it has no value at yet."""
        new = [x for x in dict.fromkeys(points) if x not in self]
        self.update(zip(new, f.fold_many(new)))

    def eval_many(self, points) -> list:
        return [self[x] for x in points]


def _halved(table, values: _Values):
    """The rays of a table closed under sign, one of each pair v, -v: the
    one where |f| is larger, v itself on a tie (v with its first nonzero
    entry positive).  The two have the same column |<v, b>| in every row,
    so the one kept dominates the other in the LP and in its dual check."""
    canon = [v for v in table if next(x for x in v if x) > 0]
    neg = [tuple(-x for x in v) for v in canon]
    return [w if abs(values[w]) > abs(values[v]) else v for v, w in zip(canon, neg)]


def ray_lp(f: PwlFunction, columns, rows):
    """(value, (points, den)) of max { Sum_v lam_v |f(v)| :
    Sum_v lam_v |<v, b>| <= N for every row (b, N) } over the int ray
    columns v, b a vector of ints and N >= 0, with its exact duals checked.
    The optimal lam is returned as its witness {lam_v v : lam_v > 0}: the
    sorted int points z_v v over den, lam_v = z_v / den.

    The duals y must be >= 0 with Sum_b y_b N_b = value and must dominate
    every column, Sum_b y_b |<v, b>| >= |f(v)|.  simplex_standard returns
    y as int weights over one divisor, so both checks, and the witness,
    are made on ints.  When
    the columns are the rays of an arrangement that holds f's kinks and
    every row's plane, f is one linear piece and every |<., b>| is linear
    on each closed cell.  Splitting a point x over its cell's rays,
    x = Sum_v mu_v v with mu >= 0, gives
    |f(x)| <= Sum_v mu_v |f(v)| <= Sum_b y_b |<x, b>|, so for any tuple with
    Sum_i |<x_i, b>| <= N_b on every row, Sum_i |f(x_i)| <= value.  The
    columns may be one ray of each pair v, -v (_halved): -v has the same
    column |<v, b>| in every row and no larger |f|, so it adds nothing to
    the LP, and the duals that dominate v dominate it too.  f may be a
    _Values map, whose int values keep the objective on ints.
    """
    objective = [abs(v) for v in f.eval_many(columns)]
    # rays and row vectors are int tuples, so |<v,b>| is taken on ints
    matrix = [[abs(sum(map(operator.mul, v, b))) for v in columns] for b, _ in rows]
    res = simplex_standard(objective, [(m, n) for m, (_, n) in zip(matrix, rows)])
    if res.status != "optimal":
        raise InternalFaultError(f"ray LP ended {res.status}, expected optimal")
    value = res.value
    if value < 0:
        raise InternalFaultError("ray LP returned a negative norm")

    # y_b = weights[b] / common
    weights, common = res.weights, res.weight_divisor
    if weights is None or len(weights) != len(rows):
        raise InternalFaultError("ray LP returned no usable duals")
    if common < 1 or any(w < 0 for w in weights):
        raise InternalFaultError("negative LP dual on a <= row")
    # Sum_b y_b N_b = value, with N_b = rhs[b] / t
    rhs, t = clear_denominators(n for _, n in rows)
    if sum(map(operator.mul, weights, rhs)) * value.denominator != value.numerator * common * t:
        raise InternalFaultError("LP dual value does not match the optimum")
    for c, column in zip(objective, zip(*matrix)):
        covered = sum(map(operator.mul, weights, column))
        if covered * c.denominator < c.numerator * common:
            raise InternalFaultError("LP dual fails to dominate a ray column")

    # lam_v = numerators[v] / divisor; den is the lcm of the lam_v's denominators
    support = [(z, v) for z, v in zip(res.numerators, columns) if z > 0]
    g = math.gcd(res.divisor, *(z for z, _ in support))
    points = sorted(tuple(z // g * x for x in v) for z, v in support)
    return value, (tuple(points), res.divisor // g)


# ---------------------------------------------------------------------------
# independent oracle: one LP slot per (cell, sign)
# ---------------------------------------------------------------------------


def norm_by_cell_assignment(
    f: PwlFunction, space: SpaceSpec, duplicate_slot: int | None = None
) -> Fraction:
    """Exact norm via one tuple slot per (cell, sign) pair of f's arrangement.

    Two admissible points in the same cell whose values carry the same sign
    merge by addition without losing objective or admissibility, so one
    slot per (cell, sign) suffices; duplicate_slot adds a redundant copy of
    the given slot, which must never improve the optimum.  Only for spaces
    whose budget is per-coordinate (fvl / seq:1), where |x_ij| splits as
    u + w with x = u - w.
    """
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    if not space.coordinate_budget:
        raise UnsupportedSpaceError(
            "cell-assignment oracle requires a per-coordinate budget"
        )
    d = f.dim
    arr = arrangement_for(f)
    pieces = linear_pieces(f)
    slots = []
    for cell in arr.cells:
        act = active_piece(f, cell, pieces)
        for sign in (1, -1):
            slots.append((cell, act, sign))
    if duplicate_slot is not None:
        slots.append(slots[duplicate_slot])

    nvars = 2 * d * len(slots)

    def var_index(slot: int, coord: int, positive: bool) -> int:
        return 2 * d * slot + coord + (0 if positive else d)

    objective = [Fraction(0)] * nvars
    rows = []
    for s, (cell, act, sign) in enumerate(slots):
        for i, c in enumerate(act):
            objective[var_index(s, i, True)] = sign * c
            objective[var_index(s, i, False)] = -sign * c
        constraints = [
            (h, -chi) for h, chi in zip(arr.hyperplanes, cell.signs)
        ] + [(act, -sign)]
        for coeffs, factor in constraints:
            row = [Fraction(0)] * nvars
            for i, c in enumerate(coeffs):
                row[var_index(s, i, True)] = factor * c
                row[var_index(s, i, False)] = -factor * c
            rows.append((row, 0))
    for j in range(d):
        row = [Fraction(0)] * nvars
        for s in range(len(slots)):
            row[var_index(s, j, True)] = Fraction(1)
            row[var_index(s, j, False)] = Fraction(1)
        rows.append((row, 1))

    res = simplex_standard(objective, rows)
    if res.status != "optimal":
        raise InternalFaultError(f"cell-assignment LP ended {res.status}")
    return res.value


# ---------------------------------------------------------------------------
# the norm certificate on every space
# ---------------------------------------------------------------------------


def read_rows(f: PwlFunction) -> list[Vec]:
    """The composition rows that f's program reads, each once: a Var slot
    names its row, and no two slots are equal."""
    return [f.comp[a - 1] for kind, a, _ in f.program.slots if kind is Var]


def _sweep_candidates(
    f: PwlFunction, space: SpaceSpec, pieces, singles, values: _Values
) -> list[tuple[Vec, ...]]:
    """The sweep's distinct tuples on a non-polyhedral space, first seen
    first: each ray of `singles` (f's ray table) alone, the Hoelder peaks
    of f's pieces, and two bases.  f is evaluated at every point that
    `values` lacks in one batch."""
    out: list[tuple[Vec, ...]] = [(r,) for r in singles]
    # |piece| peaks on the dual ball where Hoelder's inequality is tight
    for piece in sorted(pieces):
        peak = peak_point(piece, space.exponent)
        out.extend(((peak,), (vec_scale(-1, peak),)))

    basis = identity(space.dim)
    negated = tuple(vec_scale(-1, e) for e in basis)
    values.add(f, [x for (x,) in out] + [*basis, *negated])
    out.append(tuple(
        e if abs(values[e]) >= abs(values[n]) else n for e, n in zip(basis, negated)
    ))
    out.append(basis)
    return list(dict.fromkeys(out))


# the cut rounds that follow the first LP, each adding one row.  On the
# 1,080 norm_sandwich deck reports of seeds 1-3, one round left 293 lower
# bounds below the float ascent this replaced and two left 71; a third
# left the same 71, and the 360 seed-1 ops took 0.89-0.90 s in process
# against 0.77-0.81 s with two (2-core x86 box, Python 3.11)
_CUT_ROUNDS = 2
# a cut's integer shape has max |c_j| = _CUT_SCALE, and its rhs is
# norm_upper(c) rounded up to a multiple of 2**-_CUT_BITS, which keeps the
# LP's rationals short
_CUT_SCALE = 16
_CUT_BITS = 16


def _cut(u, space: SpaceSpec) -> tuple[tuple[int, ...], Fraction]:
    """The row (c, N) whose point c / N peaks against the signed sum u on
    the unit ball.

    Hoelder's equality case puts the peak of <u, .> at
    sign(u_j) |u_j| ** (q - 1), q dual to p (peak_point, roots rounded
    up), rounded to the int shape c with max |c_j| = _CUT_SCALE (half to
    even, which is symmetric in sign) and sign up to a global one;
    N >= ||c||_p, so c / N lies in the unit ball.
    """
    ints, _ = clear_denominators(u)
    peak = peak_point(ints, dual_exponent(space.exponent))
    top = max(map(abs, peak))
    # a Fraction: the peak of an integral exponent is ints, and int / int a float
    c = [round(Fraction(_CUT_SCALE * w, top)) for w in peak]
    if next(x for x in c if x) < 0:
        c = [-x for x in c]
    scale = 1 << _CUT_BITS
    return tuple(c), Fraction(math.ceil(norm_upper(c, space.exponent) * scale), scale)


def norm_certificate(f: PwlFunction, space: SpaceSpec) -> NormCertificate:
    """Exact norm on a polyhedral space (fvl, seq:1, seq:inf), a certified
    sandwich on every other space, both from one ray-LP pipeline.

    One pieces_and_kinks fold gives f's kinks, and the ray table is that of
    the kinks and a set of planes (rays).  f is evaluated once at each ray
    (_Values), and the first ray LP (ray_lp) takes one column per ray pair
    (_halved).  Its checked duals bound Sum_i |f(x_i)| on every admissible
    tuple, because each row (b, N) has b / N in the unit ball.  The planes
    and the rows depend on the space:
    - polyhedral: the planes are the budget directions b and the rows are
      (b, 1).  On seq:inf, 2**(d-1) directions that would pass the ray
      subset cap are refused before the fold.  Splitting a tuple point
      over its cell's rays keeps every budget row and cannot lower the
      objective, so the LP value is the norm, and the LP's optimal point
      gives the witness {lam_v v}, checked admissible and to reproduce it
      ("exact_match").
    - otherwise: the planes are f's composition rows, and there is one row
      (s_j x_j, s_j ||x_j||) per composition row x_j that f reads
      (read_rows), s_j the lcm of x_j's denominators and ||x_j|| pnorm's
      certified norm_upper ("ray_lp_dual").  The value is 0 exactly when
      f vanishes: a ray where f is nonzero has some <x_j, r> nonzero, since
      f reads x only through the <x_j, x>.
    A value of 0 is answered with the zero tuple, ahead of the sweep.

    Off the polyhedral spaces the table's rays are the sweep's single
    points, and up to _CUT_ROUNDS rounds follow.  The LP's witness
    {lam_v v : lam_v > 0} is scored; if it is not admissible, its worst
    signed sum u (worst_signed_sum) gives the cut (c, N) of _cut, a row
    that the witness breaks and every admissible tuple keeps.  The ray
    table gains the rays on c's plane (rays_with), so f and every row stay
    linear on each cell, and the LP is solved again.  Each LP's value
    bounds the norm, and none rises: a new ray splits over the rays of its
    old cell, on which f and every old row are linear, so it adds nothing
    the old columns lacked, and the new row only cuts.  The rounds end
    early when the witness is admissible (its total is then the norm),
    when the cut is already a row, when the rays on its plane would pass
    the ray caps, or when the witness's admissibility would pass the
    sign-vector cap (worst_signed_sum).

    The lower bound is the best value, total / max(1, admissibility), over
    the sweep's tuples, each also scaled by 1 / admissibility, and every LP
    witness, ties going to the lexicographically smaller witness.  Both
    sides are positively homogeneous: a tuple of total T and admissibility
    cn, scaled by 1 / cn, has total T / cn and, on integer q (dual to p),
    admissibility at most 1, the q-th power being exact, so its value is
    T / cn.  A fractional q rounds the terms up, so there the copy's
    admissibility is computed.  An LP witness's total is its LP value, and
    its admissibility is taken on the int points z_v v over den, the lcm
    of the lam_v's denominators (worst_signed_sum's scale).  A single
    point's admissibility, its q-norm, is computed once per |x|.  Points
    are built as Fractions only for the tied winners, and the winner alone
    is scored again (tuple_seminorm_value); a score it does not reproduce
    is an InternalFaultError.
    """
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    polyhedral = space.is_polyhedral
    if polyhedral and not space.coordinate_budget:
        # seq:inf: the 2**(d-1) budget directions and the d coordinate
        # normals are distinct planes, so rays would solve at least this
        # many subsets; refuse before the directions are built
        d = space.dim
        check_ray_caps(math.comb(2 ** (d - 1) + d, d - 1), d)
    pieces, bends = pieces_and_kinks(f)
    planes = budget_directions(space) if polyhedral else f.comp
    normals = ray_planes(f.dim, [*bends, *planes])
    table = ray_table(f.dim, normals)
    values = _Values()
    values.add(f, table)
    if polyhedral:
        rows = [(b, 1) for b in planes]
    else:
        rows = []
        for row in read_rows(f):
            b, s = clear_denominators(row)
            rows.append((tuple(b), s * norm_upper(row, space.exponent)))
    method = "exact_match" if polyhedral else "ray_lp_dual"
    upper, (support, den) = ray_lp(values, _halved(table, values), rows)
    if upper == 0:
        zero = functional_tuple(space, (zero_vec(space.dim),))
        return NormCertificate(Fraction(0), Fraction(0), zero, method)
    if polyhedral:
        witness = FunctionalTuple(
            space, tuple(tuple(Fraction(x, den) for x in p) for p in support)
        )
        if not tuple_admissible(witness):
            raise InternalFaultError("witness tuple is not admissible")
        if tuple_seminorm_value(f, witness) != upper:
            raise InternalFaultError("witness does not reproduce the exact norm")
        return NormCertificate(upper, upper, witness, method)

    # the best value so far, and each (points, scale) that reaches it
    best, tied = Fraction(0), []

    def score(value, points, scale=Fraction(1)):
        nonlocal best, tied
        if value > best:
            best, tied = value, [(points, scale)]
        elif value == best:
            tied.append((points, scale))

    integral = dual_exponent(space.exponent).denominator == 1
    bounds = {}  # admissibility by tuple, of a single point by |x|
    for points in _sweep_candidates(f, space, pieces, table, values):
        # a Fraction: an int total over max(1, cn) == 1 would be a float
        total = Fraction(sum(abs(values[x]) for x in points))
        if not total:
            continue  # it and its copy score 0
        key = tuple(map(abs, points[0])) if len(points) == 1 else points
        if key not in bounds:
            bounds[key] = worst_signed_sum(points, space)[0]
        cn = bounds[key]
        score(total / max(1, cn), points)
        value = total / cn
        if cn != 1 and (integral or value >= best):
            # a fractional q rounds each term up, so the copy's bound can pass 1
            if not integral:
                scaled = [vec_scale(1 / cn, x) for x in points]
                value /= max(1, admissibility_upper(scaled, space))
            score(value, points, 1 / cn)

    seen = {b for b, _ in rows} | {tuple(-x for x in b) for b, _ in rows}
    for rounds_left in range(_CUT_ROUNDS, -1, -1):
        # the LP witness {lam_v v : lam_v > 0} is the int points over den
        try:
            cn, u = worst_signed_sum(support, space, den)
        except CapacityError:
            break  # its admissibility would pass the sign-vector cap
        score(upper / max(1, cn), support, Fraction(1, den))
        if not rounds_left or cn <= 1:
            break
        c, n = _cut(u, space)
        if c in seen:
            break
        try:
            table, normals = rays_with(f.dim, normals, table, c)
        except CapacityError:
            break
        values.add(f, table)
        rows.append((c, n))
        seen |= {c, tuple(-x for x in c)}
        upper, (support, den) = ray_lp(values, _halved(table, values), rows)

    witness = FunctionalTuple(
        space, min(tuple(vec_scale(s, x) for x in p) for p, s in tied)
    )
    if tuple_seminorm_value(f, witness) != best:
        raise InternalFaultError("the best witness does not reproduce its score")
    return NormCertificate(
        lower=best,
        upper=upper,
        witness=witness,
        upper_method=method,
    )


# ---------------------------------------------------------------------------
# maximality audit
# ---------------------------------------------------------------------------


class SeminormHandle(namedtuple("SeminormHandle", "name leq display")):
    """A lattice seminorm with certified comparison against rational bounds.

    leq(f, bound) decides nu(f) <= bound exactly (for l2-valued seminorms
    the comparison is made on squares, avoiding square roots); display(f)
    is for reports only and may round.
    """

    __slots__ = ()


def evaluation_seminorm(tup: FunctionalTuple, name: str | None = None) -> SeminormHandle:
    label = name or f"eval[{len(tup.points)}pt]"
    return SeminormHandle(
        name=label,
        leq=lambda f, bound: tuple_seminorm_value(f, tup) <= bound,
        display=lambda f: format_fraction(tuple_seminorm_value(f, tup)),
    )


AuditEntry = namedtuple("AuditEntry", "name ok observed bound")


class AuditReport(namedtuple("AuditReport", "entries")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def violations(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def maximality_audit(
    f: PwlFunction,
    space: SpaceSpec,
    family,
    cert: NormCertificate,
) -> AuditReport:
    """Check nu(f) <= cert.upper for every sampled admissible seminorm nu."""
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    entries = []
    for handle in family:
        ok = handle.leq(f, cert.upper)
        entries.append(
            AuditEntry(
                name=handle.name,
                ok=ok,
                observed=handle.display(f),
                bound=format_fraction(cert.upper),
            )
        )
    return AuditReport(entries=tuple(entries))
