"""Free-lattice norms as certified lower/upper sandwiches.

The norm of a piecewise-linear element is the supremum of Sum_i |f(x_i)|
over finite tuples of dual points whose admissibility value
(constraint_norm) is at most 1.  One LP certifies every upper bound
(ray_lp): its columns are the extreme rays (pwl.rays) of an arrangement
on which f and each row's |<., b>| are linear cell by cell, its rows bound
Sum_i |<x_i, b>| <= N for unit-ball points b / N, and its exact duals are
checked.  For the polyhedral spaces the rows are the budget directions,
so the value is the exact norm and the LP's optimal point its witness.
For the remaining spaces the rows are the composition rows f reads,
scaled into the unit ball, on one ray table of f's own: the rays of its
kinks, its composition rows and the coordinate normals; the value is a
certified upper bound, 0 exactly when f vanishes, and the lower bound
comes from the sweep and the ascent.  Every l_p quantity comes from pnorm
as a rational, so no float enters a certificate on any space.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .errors import (
    CapacityError,
    DimensionError,
    InternalFaultError,
    UnsupportedSpaceError,
)
from .expr import Add, Inf, Scale, Sup, Var
from .lp import simplex_standard
from .pnorm import (  # the space constructors are re-exported from here
    SpaceSpec,
    admissibility_upper,
    budget_directions,
    dual_exponent,
    fvl_space,
    norm_upper,
    parse_space,
    peak_point,
    seq_space,
    sign_patterns,
)
from .pwl import (
    _MAX_RAY_SUBSETS,
    PwlFunction,
    active_piece,
    arrangement_for,
    kinks,
    linear_pieces,
    pieces_and_kinks,
    rays,
)
from .qmath import (
    Vec,
    clear_denominators,
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
    """constraint_norm(tup) <= 1: exact unless the dual exponent q is
    fractional (p = 3, say), where it may answer False just below 1."""
    return constraint_norm(tup) <= 1


def _tuple_total(f: PwlFunction, tup: FunctionalTuple) -> Fraction:
    """Sum_i |f(x_i)|, exactly."""
    return sum((abs(v) for v in f.eval_many(tup.points)), Fraction(0))


def tuple_seminorm_value(f: PwlFunction, tup: FunctionalTuple) -> Fraction:
    """Sum_i |f(x_i)| normalized by max(1, constraint_norm) — a sound lower bound."""
    if f.dim != tup.space.dim:
        raise DimensionError("function and tuple live in different dimensions")
    return _tuple_total(f, tup) / max(Fraction(1), constraint_norm(tup))


# ---------------------------------------------------------------------------
# exact norm on polyhedral spaces
# ---------------------------------------------------------------------------


def _zero_certificate(space: SpaceSpec, method: str) -> NormCertificate:
    return NormCertificate(
        lower=Fraction(0),
        upper=Fraction(0),
        witness=functional_tuple(space, (zero_vec(space.dim),)),
        upper_method=method,
    )


def ray_lp(f: PwlFunction, columns, rows):
    """(value, point) of max { Sum_v lam_v |f(v)| : Sum_v lam_v |<v, b>| <= N
    for every row (b, N) } over the int ray columns v, b a vector of ints
    and N >= 0, with its exact duals checked.

    The duals y must be >= 0 with Sum_b y_b N_b = value and must dominate
    every column, Sum_b y_b |<v, b>| >= |f(v)|.  When the columns are the
    rays of an arrangement that holds f's kinks and every row's plane, f is
    one linear piece and every |<., b>| is linear on each closed cell.  Splitting a point x over
    its cell's rays, x = Sum_v mu_v v with mu >= 0, gives
    |f(x)| <= Sum_v mu_v |f(v)| <= Sum_b y_b |<x, b>|, so for any tuple with
    Sum_i |<x_i, b>| <= N_b on every row, Sum_i |f(x_i)| <= value.
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

    duals = res.duals
    if duals is None or len(duals) != len(rows):
        raise InternalFaultError("ray LP returned no usable duals")
    if any(y < 0 for y in duals):
        raise InternalFaultError("negative LP dual on a <= row")
    if sum((y * n for y, (_, n) in zip(duals, rows)), Fraction(0)) != value:
        raise InternalFaultError("LP dual value does not match the optimum")
    # Sum_b y_b |<v,b>| >= |f(v)| on ints: y_b = weights[b] / common
    weights, common = clear_denominators(duals)
    for c, column in zip(objective, zip(*matrix)):
        covered = sum(map(operator.mul, weights, column))
        if covered * c.denominator < c.numerator * common:
            raise InternalFaultError("LP dual fails to dominate a ray column")
    return value, res.point


def norm_exact_polyhedral(f: PwlFunction, space: SpaceSpec) -> NormCertificate:
    """Exact norm for fvl / seq:1 / seq:inf, with an LP-dual optimality proof.

    The columns are the rays of the arrangement of f's kinks (from its join
    nodes) and the budget directions b, and the rows are (b, 1): the ray LP
    (ray_lp).  Its dual bound holds for every admissible tuple.  Conversely,
    splitting a tuple point over its cell's rays keeps every budget row's
    value and cannot lower the objective, so the supremum is the LP value,
    and the optimal basis gives the witness tuple {lam_v * v}.  The zero
    element needs no separate test: its LP has value 0, and duals summing
    to 0 certify |f| <= 0 on every ray.
    """
    if f.dim != space.dim:
        raise DimensionError("function dimension does not match the space")
    if not space.is_polyhedral:
        raise UnsupportedSpaceError(
            f"space {space} is not polyhedral; use norm_bounds"
        )
    if not space.coordinate_budget:
        # seq:inf: the 2**(d-1) budget directions and the d coordinate
        # normals are distinct planes, so rays would solve at least this
        # many subsets; refuse before the directions are built
        d = space.dim
        least = comb(2 ** (d - 1) + d, d - 1)
        if least > _MAX_RAY_SUBSETS:
            raise CapacityError("ray subsets", _MAX_RAY_SUBSETS, least)
    budget = budget_directions(space)
    columns = rays(f.dim, [*kinks(f), *budget])
    value, point = ray_lp(f, columns, [(b, 1) for b in budget])
    if value == 0:
        return _zero_certificate(space, "exact_match")

    points = sorted(
        vec_scale(lam, v)
        for lam, v in zip(point, columns)
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
# certified bounds for every space
# ---------------------------------------------------------------------------


def read_rows(f: PwlFunction) -> list[Vec]:
    """The composition rows that f's program reads, each once: a Var slot
    names its row, and no two slots are equal."""
    return [f.comp[a - 1] for kind, a, _ in f.program.slots if kind is Var]


def float_kernel(name: str, params: str, body: list[str]):
    """The function `def name(params)` with the given body lines, compiled
    once.  Callers build the lines from reprs of finite floats, integer
    indices and fixed operators only, so no input text reaches exec."""
    namespace: dict = {}
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<latfree {name}>", "exec"), namespace)
    return namespace[name]


def left_sum(terms) -> str:
    """Source of 0 + t_1 + t_2 + ..., summed from the left as written."""
    return " + ".join(["0", *terms])


# the generated statement of a program slot that combines slots a and b
_SLOT_TEXT = {Add: "s{a} + s{b}", Sup: "max(s{a}, s{b})", Inf: "min(s{a}, s{b})"}


def _float_evaluator(f: PwlFunction):
    """x -> f(x) in floats, one generated straight-line function with a
    statement per program slot: a Var slot reads x_j for a float row e_j
    and else sums its row's c * x_j from the left, starting at 0; the other
    slots are c * s, s + u, max(s, u) and min(s, u).  Raises OverflowError
    when a coefficient is past the float range."""
    reads = []
    for row in ([float(v) for v in row] for row in f.comp):
        if row.count(0.0) == len(row) - 1 and 1.0 in row:
            reads.append(f"x[{row.index(1.0)}]")
        else:
            reads.append(left_sum(f"({c!r}) * x[{j}]" for j, c in enumerate(row)))
    body = []
    for n, (kind, a, b) in enumerate(f.program.slots):
        if kind is Var:
            rhs = reads[a - 1]
        elif kind is Scale:
            rhs = f"({float(a)!r}) * s{b}"
        else:
            rhs = _SLOT_TEXT[kind].format(a=a, b=b)
        body.append(f"s{n} = {rhs}")
    return float_kernel("value", "x", [*body, f"return s{len(body) - 1}"])


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
    for piece in sorted(pieces):
        peak = peak_point(piece, space)
        out.extend(((peak,), (vec_scale(-1, peak),)))

    for s in sign_patterns(d):
        out.append((s,))

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


# the restarts' draws kept per process: an entry of 3 start points and 240
# steps in four dimensions takes 24 KB (tracemalloc, Python 3.11), and 64
# entries (1.5 MB) hold the default 16 restarts in four dimensions
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


# an entry is one generated function, 18 KB for k = 3 in four dimensions and
# 42 KB in sixteen (tracemalloc, Python 3.11); a space asks for k = 1..3
@lru_cache(maxsize=64)
def _climb(space: SpaceSpec, k: int):
    """climb(value, start, steps): the hill-climb of k points on a
    non-polyhedral space, one straight-line function generated once per
    (space, k) and run on the draws of _ascent_draws and the value kernel
    of _float_evaluator.  It returns the float points, or None when the
    starting budget overflows a float; an overflowing step is rejected.

    The points p0..p(k-1), their float values V and their budget table are
    kept in place: the table holds T_s[j] = |Sum_i s_i x_ij| ** q for each
    sign pattern s and coordinate j (q dual to p), and the budget is
    max_s (Sum_j T_s[j]) ** (1/q).  A step moves one coordinate x_ij, so it
    rewrites the entries of column j, and a rejected step restores every
    entry it touched.  A candidate inside the ball needs the value at point
    i only.  A candidate rescaled onto the ball by its budget cn gets all
    its values first, and its own table only when the sum S of their
    absolute values beats the best score: that score is 0 or
    S / max(1, cn'), and a float divided by a value >= 1 never rounds
    above S.  Accepted, it keeps the values it was scored with.

    Every sum is written out as a left fold from 0, and every float is the
    expression of the loop this replaced, in its order, so the climb gives
    the same points on every Python from 3.10 on.
    """
    d, patterns = space.dim, range(len(sign_patterns(k)))
    q = float(dual_exponent(space.exponent))
    points = [f"p{i}" for i in range(k)]

    def terms(column):  # |Sum_i s_i x_i| ** q per sign pattern s
        return [
            f"abs({left_sum(x if s > 0 else f'-{x}' for s, x in zip(signs, column))})"
            f" ** {q!r}"
            for signs in sign_patterns(k)
        ]

    def table(rows, name):  # the lists name_s of every column's terms
        columns = [terms([f"{x}[{j}]" for x in rows]) for j in range(d)]
        return [f"{name}{s} = [{', '.join(c[s] for c in columns)}]" for s in patterns]

    def budget(name):  # max over s of the table's q-norms; max(a, b) == max([a, b])
        norms = [
            f"({left_sum(f'{name}{s}[{j}]' for j in range(d))}) ** {1.0 / q!r}"
            for s in patterns
        ]
        return norms[0] if len(norms) == 1 else f"max({', '.join(norms)})"

    def total(values):
        return left_sum(f"abs({v})" for v in values)

    def each(texts):
        return ", ".join(texts)

    saved, fresh = [f"o{s}" for s in patterns], [f"w{i}" for i in range(k)]
    body = [
        f"{each(points)}, = map(list, start)",
        "try:",
        *(f"    {line}" for line in table(points, "T")),
        f"    V = [{each(f'value({x})' for x in points)}]",
        f"    cn = {budget('T')}",
        "except OverflowError:",
        "    return None",
        f"best = 0.0 if cn < 1e-12 else ({total(f'V[{i}]' for i in range(k))}) / max(1.0, cn)",
        f"P = [{each(points)}]",
        "step = 0.6",
        "for i, j, u in steps:",
        "    p = P[i]",
        "    old = p[j]",
        f"    {each(saved)}, = {each(f'T{s}[j]' for s in patterns)},",
        "    p[j] = old + step * u",
        "    try:",
        f"        {each(f'a{i}' for i in range(k))}, = {each(f'{x}[j]' for x in points)},",
        *(f"        T{s}[j] = {t}" for s, t in enumerate(terms([f"a{i}" for i in range(k)]))),
        f"        cn = {budget('T')}",
        "        if cn > 1:",
        *(f"            c{i} = [{each(f'{x}[{j}] / cn' for j in range(d))}]"
          for i, x in enumerate(points)),
        *(f"            {w} = value(c{i})" for i, w in enumerate(fresh)),
        f"            s = {total(fresh)}",
        "            if s > best:",
        *(f"                {line}" for line in table([f"c{i}" for i in range(k)], "N")),
        f"                cn = {budget('N')}",
        "                s = 0.0 if cn < 1e-12 else s / max(1.0, cn)",
        "                if s > best:",
        f"                    best, {each(points)} = s, {each(f'c{i}' for i in range(k))}",
        f"                    P, V = [{each(points)}], [{each(fresh)}]",
        f"                    {each(f'T{s}' for s in patterns)}, = "
        f"{each(f'N{s}' for s in patterns)},",
        "                    continue",
        "        else:",
        "            w = V[i]",
        "            V[i] = value(p)",
        # at cn <= 1 the old score's division by max(1.0, cn) is by 1.0, exact
        f"            s = 0.0 if cn < 1e-12 else {total(f'V[{i}]' for i in range(k))}",
        "            if s > best:",
        "                best = s",
        "                continue",
        "            V[i] = w",
        "    except OverflowError:  # a q-th power past the float range",
        "        pass",
        "    p[j] = old",
        f"    {each(f'T{s}[j]' for s in patterns)}, = {each(saved)},",
        "    step *= 0.985",
        "return P",
    ]
    return float_kernel("climb", "value, start, steps", body)


def _ascent_restart(value, space: SpaceSpec, seed: int, r: int):
    """One deterministic hill-climbing run on the float kernel value =
    _float_evaluator(f): the generated _climb of its k points on its draws.
    Bit-identical by rule: a rewrite keeps the draws and the float
    expression of every value, each in its order, and returns == points."""
    start, steps = _ascent_draws(seed, r, space.dim)
    return _climb(space, len(start))(value, start, steps)


def _ascent_tuples(f: PwlFunction, space: SpaceSpec, restarts: int, seed: int):
    """The rationalized points of restarts 0..restarts-1, each a tuple; none
    when a coefficient of f is past the float range."""
    try:
        value = _float_evaluator(f)  # one kernel for every restart
    except OverflowError:
        return
    for r in range(restarts):
        float_pts = _ascent_restart(value, space, seed, r)
        if float_pts is not None:
            points = tuple(
                tuple(Fraction(v).limit_denominator(_MAX_DENOMINATOR) for v in x)
                for x in float_pts
            )
            yield FunctionalTuple(space=space, points=points)


# restarts of the ascent one sandwich may run, 64 times the default 16.
# Measured on a 2-core x86 box with Python 3.11, for (1*t3) /\ (2*t2): a
# restart and its exact re-score take 1.0 ms on seq:2:3 to 1.9 ms on
# seq:2:16, so the cap adds about 1.0 to 1.9 s to a sandwich.
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
    ray-LP upper.  A polyhedral space raises UnsupportedSpaceError: its
    norm is exact, from norm_certificate.

    One pieces_and_kinks fold and one ray table serve the whole op: the
    rays of f's kinks, its composition rows and the coordinate normals.
    The upper bound is the value of the ray LP (ray_lp) on that table with
    one row (s_j x_j, s_j ||x_j||) per composition row x_j that f reads
    (read_rows), s_j the lcm of x_j's denominators and ||x_j|| pnorm's
    certified norm_upper.  Each x_j / ||x_j|| lies in the unit ball, so an
    admissible tuple meets every row, and the LP's checked duals bound
    Sum_i |f(x_i)| on it.  The value is 0 exactly when f vanishes: a ray
    where f is nonzero has some <x_j, r> nonzero, since f reads x only
    through the <x_j, x>.  That zero test runs ahead of the sweep's cap, and
    the table's rays are the sweep's single points.

    The lower bound is the best exact value over the sweep's tuples and
    the rationalized hill-climbing results (restarts are keyed by
    (seed, index) and merged by value then lexicographic witness, so a
    fixed seed gives the same certificate).  A tuple's exact total
    Sum_i |f(x_i)| bounds its value from above, so a tuple whose total
    cannot beat the best so far, by value then witness, skips its
    admissibility; the certificate is the one a full re-score gives.
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
    rows = []
    for row in read_rows(f):
        b, s = clear_denominators(row)
        rows.append((b, s * norm_upper(row, space.exponent)))
    upper, _ = ray_lp(f, table, rows)
    if upper == 0:
        return _zero_certificate(space, "ray_lp_dual")

    best_value = Fraction(0)
    best_witness = functional_tuple(space, (zero_vec(space.dim),))
    sweep = _sweep_candidates(f, space, pieces, table)
    for tup in itertools.chain(sweep, _ascent_tuples(f, space, restarts, seed)):
        # value <= total, so a total below the best, or equal to it with a
        # witness no smaller, cannot win and needs no admissibility
        total = _tuple_total(f, tup)
        if total < best_value or (
            total == best_value and tup.points >= best_witness.points
        ):
            continue
        value = total / max(Fraction(1), constraint_norm(tup))
        if value > best_value or (
            value == best_value and tup.points < best_witness.points
        ):
            best_value, best_witness = value, tup

    return NormCertificate(
        lower=best_value,
        upper=upper,
        witness=best_witness,
        upper_method="ray_lp_dual",
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
