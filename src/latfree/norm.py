"""Free-lattice norms as certified lower/upper sandwiches.

The norm of a piecewise-linear element is the supremum of Sum_i |f(x_i)|
over finite tuples of dual points whose admissibility value
(constraint_norm) is at most 1.  For the polyhedral spaces the supremum
is an exact rational, computed by one LP whose columns are the extreme
rays (pwl.rays) of f's kink and budget arrangement; the LP duals certify
optimality.  For the remaining spaces certified lower/upper bounds are
produced instead from one ray table of f's own: the rays of its kinks,
its composition rows and the coordinate normals.  The exact unit factor
behind the upper bound is a maximum over that table, it vanishes exactly
when f does, and the table's rays are the sweep's single points.  Every
l_p quantity comes from pnorm as a rational, so no float enters a
certificate on any space.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from .errors import (
    CapacityError,
    DimensionError,
    InternalFaultError,
    UnsupportedSpaceError,
)
from .expr import Program, Scale, fold
from .lp import simplex_standard
from .pnorm import (  # the space constructors are re-exported from here
    SpaceSpec,
    admissibility_columns,
    admissibility_upper,
    budget_directions,
    fvl_space,
    norm_upper,
    parse_space,
    peak_point,
    seq_space,
    sign_patterns,
)
from .pwl import (
    PwlFunction,
    active_piece,
    arrangement_for,
    is_zero,
    kinks,
    linear_pieces,
    pieces_and_kinks,
    rays,
)
from .qmath import (
    Vec,
    clear_denominators,
    dot,
    format_fraction,
    identity,
    vec,
    vec_scale,
    zero_vec,
)


# ---------------------------------------------------------------------------
# tuples and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalTuple:
    """Finite tuple of dual points inducing the seminorm Sum_i |f(x_i)|."""

    space: SpaceSpec
    points: tuple[Vec, ...]

    def __post_init__(self):
        if not self.points:
            raise DimensionError("a functional tuple needs at least one point")
        for x in self.points:
            if len(x) != self.space.dim:
                raise DimensionError(
                    f"tuple point of length {len(x)} in space {self.space}"
                )

    @cached_property
    def _admissibility(self) -> Fraction:
        return admissibility_upper(self.points, self.space)


def functional_tuple(space: SpaceSpec, points) -> FunctionalTuple:
    return FunctionalTuple(space=space, points=tuple(vec(x) for x in points))


@dataclass(frozen=True)
class NormCertificate:
    """Sandwich lower <= norm <= upper with a reproducible witness tuple."""

    lower: Fraction
    upper: Fraction
    witness: FunctionalTuple
    upper_method: str  # "exact_match" | "strong_unit_lambda_n"
    lam: Fraction | None = None
    unit_support: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise InternalFaultError(
                f"certificate violates lower <= upper: {self.lower} > {self.upper}"
            )

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
    """constraint_norm(tup) <= 1: exact unless the dual exponent q is
    fractional (p = 3, say), where it may answer False just below 1."""
    return constraint_norm(tup) <= 1


def tuple_seminorm_value(f: PwlFunction, tup: FunctionalTuple) -> Fraction:
    """Sum_i |f(x_i)| normalized by max(1, constraint_norm) — a sound lower bound."""
    if f.dim != tup.space.dim:
        raise DimensionError("function and tuple live in different dimensions")
    total = sum((abs(v) for v in f.eval_many(tup.points)), Fraction(0))
    return total / max(Fraction(1), constraint_norm(tup))


# ---------------------------------------------------------------------------
# exact norm on polyhedral spaces
# ---------------------------------------------------------------------------


def _zero_certificate(space: SpaceSpec, method: str) -> NormCertificate:
    return NormCertificate(
        lower=Fraction(0),
        upper=Fraction(0),
        witness=functional_tuple(space, (zero_vec(space.dim),)),
        upper_method=method,
        lam=Fraction(0) if method == "strong_unit_lambda_n" else None,
    )


def norm_exact_polyhedral(f: PwlFunction, space: SpaceSpec) -> NormCertificate:
    """Exact norm for fvl / seq:1 / seq:inf, with an LP-dual optimality proof.

    On each closed cell of the arrangement of f's kinks (from its join
    nodes) and the budget directions b, f equals one linear piece and every
    |<., b>| is linear.  Split a tuple point x of a cell over the cell's
    extreme rays, x = Sum_v mu_v v with mu >= 0: every budget row keeps its
    value, and |f(x)| <= Sum_v mu_v |f(v)| by the triangle inequality, so
    the objective cannot fall.  Hence the supremum equals

        max { Sum_v lam_v |f(v)| : Sum_v lam_v |<v,b>| <= 1 for all b }

    over the finite set of rays v.  The optimal basis gives the witness
    tuple {lam_v * v}.  The exact dual y gives Sum_b y_b |<v,b>| >= |f(v)|
    on every ray, and on the same split Sum_b y_b |<x,b>| =
    Sum_v mu_v Sum_b y_b |<v,b>| >= Sum_v mu_v |f(v)| >= |f(x)| at every x,
    so value = Sum_b y_b is also an upper bound.  The zero element needs no
    separate test: its LP has value 0, and duals summing to 0 certify
    |f| <= 0 on every ray.
    """
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    if not space.is_polyhedral:
        raise UnsupportedSpaceError(
            f"space {space} is not polyhedral; use norm_bounds"
        )
    budget = budget_directions(space)
    columns = rays(f.dim, [*kinks(f), *budget])
    objective = [abs(v) for v in f.eval_many(columns)]
    # rays and budget directions are integral, so |<v,b>| is taken on ints
    int_columns = [[x.numerator for x in v] for v in columns]
    int_budget = [[x.numerator for x in b] for b in budget]
    matrix = [
        [abs(sum(map(operator.mul, v, b))) for v in int_columns] for b in int_budget
    ]
    rows = [(row, 1) for row in matrix]
    res = simplex_standard(objective, rows)
    if res.status != "optimal":
        raise InternalFaultError(f"vertex LP ended {res.status}, expected optimal")
    value = res.value
    if value < 0:
        raise InternalFaultError("vertex LP returned a negative norm")

    duals = res.duals
    if duals is None or len(duals) != len(budget):
        raise InternalFaultError("vertex LP returned no usable duals")
    if any(y < 0 for y in duals):
        raise InternalFaultError("negative LP dual on a <= row")
    if sum(duals, Fraction(0)) != value:
        raise InternalFaultError("LP dual value does not match the optimum")
    # Sum_b y_b |<v,b>| >= |f(v)| on ints: y_b = weights[b] / common
    weights, common = clear_denominators(duals)
    for c, column in zip(objective, zip(*matrix)):
        covered = sum(map(operator.mul, weights, column))
        if covered * c.denominator < c.numerator * common:
            raise InternalFaultError("LP dual fails to dominate a ray column")
    if value == 0:
        return _zero_certificate(space, "exact_match")

    points = sorted(
        vec_scale(lam, v)
        for lam, v in zip(res.point, columns)
        if lam > 0
    )
    witness = functional_tuple(space, points)
    if not tuple_admissible(witness):
        raise InternalFaultError("witness tuple is not admissible")
    if tuple_seminorm_value(f, witness) != value:
        raise InternalFaultError("witness does not reproduce the exact norm")
    return NormCertificate(
        lower=value,
        upper=value,
        witness=witness,
        upper_method="exact_match",
    )


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
    if is_zero(f):
        return Fraction(0)
    d = f.dim
    arr = arrangement_for(f)
    pieces = linear_pieces(f)
    slots = []
    for cell in arr.cells:
        act = active_piece(f, arr, cell, pieces)
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
        for i, c in enumerate(act.coeffs):
            objective[var_index(s, i, True)] = sign * c
            objective[var_index(s, i, False)] = -sign * c
        constraints = [
            (h.coeffs, -chi) for h, chi in zip(arr.hyperplanes, cell.signs)
        ] + [(act.coeffs, -sign)]
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
# certified bounds for every space
# ---------------------------------------------------------------------------


def strong_unit_factor(f: PwlFunction, table: tuple[Vec, ...] | None = None):
    """(lam, unit_rows) with |f| <= lam * Sum_j |<x_j, .>| everywhere.

    lam is the exact max of |f(r)| / Sum_j |<x_j, r>| over the rays r of
    `table` where some <x_j, r> is nonzero.  The table is f's ray table:
    the rays of the arrangement of f's kinks, its composition rows x_j and
    the coordinate normals, built here unless the caller has it.  On each
    closed cell of that arrangement the numerator and the denominator are
    linear, so splitting x over the cell's rays bounds the ratio at x by
    its largest value on a ray.  A ray where every <x_j, r> vanishes adds
    nothing: f reads x only through the <x_j, x>, so f(r) = 0 there.
    Hence lam is tight, and lam = 0 exactly when f vanishes.
    """
    if table is None:
        table = rays(f.dim, [*kinks(f), *f.comp])
    lam = Fraction(0)
    for r, v in zip(table, f.eval_many(table)):
        weight = sum(abs(dot(row, r)) for row in f.comp)
        if weight:
            lam = max(lam, abs(v) / weight)
    return lam, tuple(f.comp)


def _float_evaluator(f: PwlFunction) -> Callable[[list], float]:
    """x -> f(x) in floats, one fold; a float row e_j reads x_j, any other
    row sums c * x_j from the left."""

    def reader(row):
        if row.count(0.0) == len(row) - 1 and 1.0 in row:
            return operator.itemgetter(row.index(1.0))
        return lambda x: sum(map(operator.mul, row, x))

    readers = [reader([float(v) for v in row]) for row in f.comp]
    slots = tuple((t, float(a) if t is Scale else a, b) for t, a, b in f.program.slots)
    program = Program(slots, f.program.max_var)
    return lambda x: fold(
        program, lambda i: readers[i - 1](x), operator.mul, operator.add, max, min
    )


# sign vectors (+-1, .., +-1) modulo sign, 2**(d-1), that the sweep scores.
# Measured on a 2-core x86 box with Python 3.11: each costs 0.3-0.5 ms (two
# exact admissibilities and two exact re-scores), so the cap admits
# seq:2:18, whose norm of t1 takes about a minute; seq:2:16 takes 10 s.
_MAX_SWEEP_SIGNS = 1 << 17


def _sweep_candidates(
    f: PwlFunction, space: SpaceSpec, pieces, singles
) -> list[FunctionalTuple]:
    """The sweep's deterministic tuples on a non-polyhedral space: each ray
    of `singles` (f's ray table) alone, the Hoelder peaks of f's pieces,
    the sign vectors, and two bases; each also scaled to admissibility
    about 1."""
    d = space.dim
    out: list[tuple[Vec, ...]] = [(r,) for r in singles]
    # |piece| peaks on the dual ball where Hoelder's inequality is tight
    for piece in sorted(pieces, key=lambda p: p.coeffs):
        peak = peak_point(piece.coeffs, space)
        out.extend(((peak,), (vec_scale(-1, peak),)))

    for s in sign_patterns(d):
        out.append((vec(s),))

    basis = identity(d)
    negated = tuple(vec_scale(-1, e) for e in basis)
    size = [abs(v) for v in f.eval_many(basis + negated)]
    out.append(tuple(e if size[i] >= size[d + i] else negated[i] for i, e in enumerate(basis)))
    out.append(tuple(basis))

    # each distinct tuple once, first seen first, plus a copy scaled to admissibility ~1
    tuples: dict[tuple[Vec, ...], FunctionalTuple] = {}
    for points in out:
        cn = constraint_norm(tuples.setdefault(points, FunctionalTuple(space, points)))
        if cn > 0 and cn != 1:
            scaled = tuple(vec_scale(1 / cn, x) for x in points)
            tuples.setdefault(scaled, FunctionalTuple(space, scaled))
    return list(tuples.values())


# the denominator cap when the ascent's float points are rationalized
_MAX_DENOMINATOR = 10**6


# the restarts' draws kept per process: an entry of at most 3 start points
# and 240 steps takes about 24 KB, and 64 entries (1.5 MB) hold the default
# 16 restarts in four dimensions
@lru_cache(maxsize=64)
def _ascent_draws(seed: int, r: int, d: int):
    """The draws of restart r in dimension d, made once: the k = 1 + r % 3
    start points, then (i, j, u) per step with i = randrange(k),
    j = randrange(d) and u = 2.0 * random() - 1.0, in the order the climb
    reads them."""
    rng = random.Random((seed * 1_000_003 + r) & 0xFFFFFFFF)
    k = 1 + r % 3
    start = tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(d)) for _ in range(k))
    steps = tuple(
        (rng.randrange(k), rng.randrange(d), 2.0 * rng.random() - 1.0)
        for _ in range(240)
    )
    return start, steps


def _ascent_restart(f: PwlFunction, space: SpaceSpec, seed: int, r: int):
    """One deterministic hill-climbing run: float points, or None when f's
    coefficients or the starting budget overflow a float (an overflowing
    step counts as no better).  Bit-identical by rule: a rewrite keeps the
    draws and the float expression of every value, each in its order, and
    returns == points.

    The run keeps the points' admissibility_columns table and their values.
    A step moves one coordinate x_ij, so its budget needs column j only,
    and a candidate inside the ball needs the value at point i only; a
    candidate rescaled onto the ball needs all its values, and its table
    only when those can beat the best score."""
    start, steps = _ascent_draws(seed, r, space.dim)
    column, budget = admissibility_columns(space, len(start))

    def score(total, cn) -> float:
        return 0.0 if cn < 1e-12 else total / max(1.0, cn)

    pts = [list(x) for x in start]
    try:
        value = _float_evaluator(f)
        table = [column(xs) for xs in zip(*pts)]
        vals = list(map(value, pts))
        best = score(sum(map(abs, vals)), budget(table))
    except OverflowError:
        return None
    step = 0.6
    for i, j, u in steps:
        cand = pts.copy()
        cand[i] = moved = pts[i].copy()
        moved[j] += step * u
        try:
            cand_table = table.copy()
            cand_table[j] = column([x[j] for x in cand])
            cn = budget(cand_table)
            if cn > 1:
                cand = [[v / cn for v in x] for x in cand]
                cand_vals = list(map(value, cand))
                s = sum(map(abs, cand_vals))
                # The score is 0.0 or s / max(1.0, cn'), and a float divided
                # by a value >= 1 never rounds above it, so s <= best already
                # rejects the candidate and its table would go unread.  The
                # values cannot raise; an OverflowError in the table still
                # rejects below.
                if s > best:
                    cand_table = [column(xs) for xs in zip(*cand)]
                    s = score(s, budget(cand_table))
            else:  # at cn <= 1, dividing by max(1.0, cn) changes nothing
                cand_vals = vals.copy()
                cand_vals[i] = value(moved)
                s = score(sum(map(abs, cand_vals)), cn)
        except OverflowError:  # a q-th power past the float range
            s = best
        if s > best:
            best, pts, table, vals = s, cand, cand_table, cand_vals
        else:
            step *= 0.985
    return pts


# restarts of the ascent one sandwich may run, 64 times the default 16.
# Measured on a 2-core x86 box with Python 3.11: a restart and its exact
# re-score take 2.4 ms on seq:2:3 to 9 ms on seq:2:16, so the cap adds 2.5
# to 9 s to a sandwich.
_MAX_RESTARTS = 1024


def check_search_settings(restarts: int) -> None:
    """Raise ValueError unless restarts >= 0, and CapacityError above
    _MAX_RESTARTS."""
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    if restarts > _MAX_RESTARTS:
        raise CapacityError("ascent restarts", _MAX_RESTARTS, restarts)


def norm_bounds(
    f: PwlFunction,
    space: SpaceSpec,
    *,
    restarts: int = 16,
    seed: int = 0,
) -> NormCertificate:
    """Certified sandwich for a non-polyhedral space: sweep + ascent lower,
    strong-unit upper.  A polyhedral space raises UnsupportedSpaceError:
    its norm is exact, from norm_certificate.

    One pieces_and_kinks fold and one ray table (see strong_unit_factor)
    serve the whole op: the table gives lam, the zero test (lam = 0 exactly
    when f vanishes, checked ahead of the sweep's cap) and the sweep's
    single points.  The lower bound is the best exact re-score over the
    sweep's tuples and the rationalized hill-climbing results (restarts
    are keyed by (seed, index) and merged by value then lexicographic
    witness, so a fixed seed gives the same certificate).  The upper bound
    is lam * Sum_j ||x_j|| over the composition rows.
    """
    check_search_settings(restarts)
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    if space.is_polyhedral:
        raise UnsupportedSpaceError(
            f"space {space} is polyhedral; its exact norm comes from norm_certificate"
        )
    pieces, bends = pieces_and_kinks(f)
    table = rays(f.dim, [*bends, *f.comp])
    lam, unit_rows = strong_unit_factor(f, table)
    if lam == 0:
        return _zero_certificate(space, "strong_unit_lambda_n")
    signs = 2 ** (space.dim - 1)
    if signs > _MAX_SWEEP_SIGNS:
        raise CapacityError("sweep sign vectors", _MAX_SWEEP_SIGNS, signs)
    unit_sum = sum(norm_upper(row, space.exponent) for row in unit_rows)
    upper = lam * unit_sum

    def ascent_tuples():
        for r in range(restarts):
            float_pts = _ascent_restart(f, space, seed, r)
            if float_pts is not None:
                points = tuple(
                    tuple(Fraction(v).limit_denominator(_MAX_DENOMINATOR) for v in x)
                    for x in float_pts
                )
                yield FunctionalTuple(space=space, points=points)

    best_value = Fraction(0)
    best_witness = functional_tuple(space, (zero_vec(space.dim),))
    sweep = _sweep_candidates(f, space, pieces, table)
    for tup in itertools.chain(sweep, ascent_tuples()):
        value = tuple_seminorm_value(f, tup)
        if value > best_value or (
            value == best_value and tup.points < best_witness.points
        ):
            best_value, best_witness = value, tup

    if best_value > upper:
        raise InternalFaultError(
            f"sound bounds crossed: lower {best_value} > upper {upper}"
        )
    return NormCertificate(
        lower=best_value,
        upper=upper,
        witness=best_witness,
        upper_method="strong_unit_lambda_n",
        lam=lam,
        unit_support=unit_rows,
    )


def norm_certificate(
    f: PwlFunction,
    space: SpaceSpec,
    *,
    restarts: int = 16,
    seed: int = 0,
) -> NormCertificate:
    """Exact norm when the space is polyhedral, else certified bounds.

    The search settings are checked on every space, though only
    norm_bounds reads them.
    """
    check_search_settings(restarts)
    if space.is_polyhedral:
        return norm_exact_polyhedral(f, space)
    return norm_bounds(f, space, restarts=restarts, seed=seed)


# ---------------------------------------------------------------------------
# maximality audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormHandle:
    """A lattice seminorm with certified comparison against rational bounds.

    leq(f, bound) decides nu(f) <= bound exactly (for l2-valued seminorms
    the comparison is made on squares, avoiding square roots); display(f)
    is for reports only and may round.
    """

    name: str
    leq: Callable[[PwlFunction, Fraction], bool]
    display: Callable[[PwlFunction], str]


def evaluation_seminorm(tup: FunctionalTuple, name: str | None = None) -> SeminormHandle:
    label = name or f"eval[{len(tup.points)}pt]"
    return SeminormHandle(
        name=label,
        leq=lambda f, bound: tuple_seminorm_value(f, tup) <= bound,
        display=lambda f: format_fraction(tuple_seminorm_value(f, tup)),
    )


@dataclass(frozen=True)
class AuditEntry:
    name: str
    ok: bool
    observed: str
    bound: str


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

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
