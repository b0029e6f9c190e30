import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from latfree import norm, pwl
from latfree.errors import CapacityError, DimensionError, InternalFaultError
from latfree.expr import Var, parse
from latfree.qmath import (
    dot,
    identity,
    null_line,
    primitive_normal,
    transpose,
    vec,
)
from latfree.lp import simplex_standard
from latfree.pnorm import norm_upper
from latfree.norm import (
    budget_directions,
    fvl_space,
    norm_by_cell_assignment,
    norm_certificate,
    seq_space,
    tuple_admissible,
    tuple_seminorm_value,
)
from latfree.pwl import (
    PwlFunction,
    active_piece,
    build_arrangement,
    canonical_normals,
    difference_normals,
    equivalent,
    kinks,
    linear_pieces,
    make_pwl,
    pieces_and_kinks,
    ray_planes,
    rays,
    rays_with,
)
from latfree.sampling import random_expr, random_pair, thin_cone_pair

F = Fraction


def pw(text: str, n: int) -> PwlFunction:
    return PwlFunction.from_expr(parse(text, n), n)


def ints(vectors):
    return [tuple(int(c) for c in v) for v in vectors]


class TestRays:
    def test_dimension_one(self):
        assert ints(rays(1, [])) == [(-1,), (1,)]
        assert ints(rays(1, [(3,), (-2,)])) == [(-1,), (1,)]

    def test_coordinate_quadrants_in_the_plane(self):
        assert ints(rays(2, [])) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_kink_adds_its_line(self):
        assert ints(rays(2, [(2, -2)])) == [
            (-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_sorted_primitive_sign_closed_with_axes(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        normals = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, 6))
        ]
        out = rays(dim, normals)
        assert list(out) == sorted(set(out))
        members = set(out)
        for r in out:
            assert all(type(c) is int for c in r)
            assert math.gcd(*(int(c) for c in r)) == 1
            assert tuple(-c for c in r) in members
        for i in range(dim):
            axis = tuple(F(1 if i == j else 0) for j in range(dim))
            assert axis in members and tuple(-c for c in axis) in members

    def test_every_ray_lies_on_a_line_of_the_arrangement(self):
        normals = [(1, -1, 0), (1, 0, -2), (0, 1, 1)]
        planes = normals + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for r in rays(3, normals):
            on = [n for n in planes if sum(a * b for a, b in zip(n, r)) == 0]
            assert matrix_rank(on) == 2

    def test_wrong_length_normal(self):
        with pytest.raises(DimensionError):
            rays(2, [(1, 2, 3)])

    def test_subset_cap_is_a_capacity_error(self, monkeypatch):
        monkeypatch.setattr(pwl, "_MAX_RAY_SUBSETS", 10)
        with pytest.raises(CapacityError) as info:
            rays(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert info.value.cap == 10 and info.value.measured == math.comb(6, 2)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices, in Fractions."""
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


def null_space_basis(rows) -> list[tuple[Fraction, ...]]:
    """Basis of {x : Mx = 0}, one vector per free column of the RREF."""
    rows = [vec(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -reduced[r][fc]
        basis.append(tuple(x))
    return basis


def _fraction_rays(dim, normals, subspace=()):
    """Reference: the Fraction null-space loop `rays` ran before its
    integer elimination, without the subset cap; the rays of the cells cut
    down to {x : c.x = 0 for every row c of `subspace`}."""
    axes = identity(dim)
    planes = canonical_normals(list(normals) + list(axes))
    fixed = canonical_normals(subspace)
    k = dim - matrix_rank(fixed) if fixed else dim
    if k == 0:
        return ()
    lines = set()
    for subset in itertools.combinations(planes, k - 1):
        rows = fixed + list(subset)
        basis = null_space_basis(rows) if rows else axes
        if len(basis) == 1:
            lines.add(primitive_normal(basis[0]))
    return tuple(sorted(lines | {tuple(-v for v in r) for r in lines}))


def _random_normals(rng, dim, count):
    """Normals with small or up-to-10^6 entries, some of them sums of
    earlier ones, so that many subsets are rank-deficient."""
    out = []
    for _ in range(count):
        if len(out) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(out, 2)
            out.append(tuple(x + rng.choice((-1, 1)) * y for x, y in zip(a, b)))
        else:
            bound = rng.choice((3, 10**6))
            out.append(tuple(rng.randint(-bound, bound) for _ in range(dim)))
    return out


class TestIntegerNullLine:
    def test_matches_the_fraction_null_space(self):
        rng = random.Random(5)
        for _ in range(600):
            dim = rng.randint(1, 5)
            rows = _random_normals(rng, dim, rng.randint(0, dim + 1))
            basis = null_space_basis(rows) if rows else identity(dim)
            want = primitive_normal(basis[0]) if len(basis) == 1 else None
            assert null_line(rows, dim) == want

    def test_a_remainder_is_an_internal_fault(self):
        # integer rows never leave one; a fractional entry can
        with pytest.raises(InternalFaultError):
            null_line([(1, F(1, 3)), (1, 0)], 2)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_rays_match_the_fraction_loop(self, dim):
        rng = random.Random(1000 + dim)
        most = {2: 7, 3: 5, 4: 4, 5: 3}[dim]
        for _ in range(75):
            normals = _random_normals(rng, dim, rng.randint(0, most))
            assert rays(dim, normals) == _fraction_rays(dim, normals)


class TestIncrementalRays:
    """rays_with adds one plane to a ray table by solving only the subsets
    that contain it."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_equals_the_rays_of_the_union(self, dim):
        rng = random.Random(2000 + dim)
        most = {2: 7, 3: 5, 4: 4, 5: 3}[dim]
        for _ in range(60):
            normals = _random_normals(rng, dim, rng.randint(0, most))
            table = rays(dim, normals)
            # a new plane, a multiple of an old one, a coordinate normal
            # and the zero vector
            extra = _random_normals(rng, dim, 1)
            if normals and rng.random() < 0.3:
                extra = [tuple(-2 * x for x in rng.choice(normals))]
            elif rng.random() < 0.1:
                extra = [rng.choice([identity(dim)[0], (0,) * dim])]
            grown, planes = rays_with(dim, ray_planes(dim, normals), table, extra[0])
            assert grown == rays(dim, normals + extra)
            # the planes go on canonical: the new one appended, if it is new
            assert sorted(planes) == ray_planes(dim, normals + extra)

    def test_solves_only_the_subsets_through_the_new_plane(self, monkeypatch):
        # 4 planes in dimension 4: C(4, 2) = 6 subsets through the fifth,
        # where the full table solves C(5, 3) = 10
        solved = []
        real = pwl.null_line
        monkeypatch.setattr(pwl, "null_line", lambda rows, dim: solved.append(rows) or real(rows, dim))
        table = rays(4, [])
        solved.clear()
        rays_with(4, ray_planes(4, []), table, (1, 2, 3, 4))
        assert len(solved) == 6 and all(rows[-1] == (1, 2, 3, 4) for rows in solved)

    def test_caps_apply_to_the_new_subsets(self, monkeypatch):
        table = rays(4, [(1, 1, 0, 0)])
        monkeypatch.setattr(pwl, "_MAX_RAY_SUBSETS", 9)
        with pytest.raises(CapacityError) as info:
            rays_with(4, ray_planes(4, [(1, 1, 0, 0)]), table, (1, 2, 3, 4))
        assert info.value.measured == math.comb(5, 2)

    def test_wrong_length_normal(self):
        with pytest.raises(DimensionError):
            rays_with(2, ray_planes(2, []), rays(2, []), (1, 2, 3))


def _image_subspace_lam(f: PwlFunction) -> Fraction:
    """Reference: the unit factor lam, the least with
    |f| <= lam * Sum_j |<x_j, .>| over the rows x_j that f reads, from a
    shadow function over Q^n (n composition rows) whose rays are cut down
    to the image of the composition matrix.  The weight of a shadow ray
    sums only the coordinates of the rows that f's program reads."""
    n = len(f.comp)
    shadow = PwlFunction.from_expr(f.expr, n)
    generators = _fraction_rays(n, kinks(shadow), null_space_basis(transpose(f.comp)))
    read = [a - 1 for kind, a, _ in f.program.slots if kind is Var]
    return max(
        (
            abs(v) / sum(abs(r[j]) for j in read)
            for r, v in zip(generators, shadow.eval_many(generators))
            if any(r[j] for j in read)
        ),
        default=Fraction(0),
    )


class TestLambdaReference:
    """The ray LP's upper bound against the unit factor lam it replaced:
    y_j = lam / s_j is dual-feasible with value lam * Sum_j ||x_j||, so the
    first LP is never above that, and both vanish exactly when f does.
    The cut rounds' LPs never rise above the first: the certificate's
    upper bound is the last LP value, at most every earlier one."""

    def test_lp_upper_is_within_the_lambda_reference(self, monkeypatch):
        values = []
        real = norm.ray_lp

        def recorded(f, columns, rows):
            out = real(f, columns, rows)
            values.append(out[0])
            return out

        monkeypatch.setattr(norm, "ray_lp", recorded)
        rng = random.Random(4242)
        kinds = {"identity": 0, "fractional": 0, "repeated": 0, "zero": 0, "dependent": 0}
        vanishing = tighter = 0
        for i in range(400):
            n = rng.randint(1, 4)
            kind = list(kinds)[i % len(kinds)]
            d = n if kind == "identity" else rng.randint(1, 3)
            if i % 20 == 0 and n >= 2:
                expr = parse(r"t1 \/ t2 - t2 \/ t1", n)  # the zero element
            else:
                expr = random_expr(rng, n, max_pieces=3)
            rows = []
            for j in range(n):
                if kind == "identity":
                    row = [int(a == j) for a in range(d)]
                elif kind == "fractional":
                    row = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)]
                elif rows and kind == "repeated" and rng.random() < 0.5:
                    row = list(rng.choice(rows))
                elif kind == "zero" and rng.random() < 0.4:
                    row = [0] * d
                elif rows and kind == "dependent" and rng.random() < 0.6:
                    a, b = rng.choice(rows), rng.choice(rows)
                    row = [x + rng.choice((-2, -1, 1, 3)) * y for x, y in zip(a, b)]
                else:
                    row = [rng.randint(-3, 3) for _ in range(d)]
                rows.append(row)
            f = make_pwl(expr, rows)
            space = seq_space((2, F(3, 2), 3, F(7, 3))[i % 4], d)
            lam = _image_subspace_lam(f)
            values.clear()
            upper = norm_certificate(f, space).upper
            assert upper == values[-1]
            assert all(a >= b for a, b in zip(values, values[1:]))
            unit = sum(norm_upper(r, space.exponent) for r in norm.read_rows(f))
            assert values[0] <= lam * unit
            assert (upper == 0) == (lam == 0)
            kinds[kind] += 1
            vanishing += lam == 0
            tighter += upper < lam * unit
        assert set(kinds.values()) == {80}
        assert 10 <= vanishing <= 100
        assert tighter >= 100  # 165 of the 400 fall below lam * unit


def _cell_verdict(f: PwlFunction, g: PwlFunction) -> bool:
    """Reference: compare active pieces on every cell of the joint arrangement."""
    pieces_f, pieces_g = linear_pieces(f), linear_pieces(g)
    arr = build_arrangement(f.dim, difference_normals(pieces_f | pieces_g))
    return all(
        active_piece(f, cell, pieces_f) == active_piece(g, cell, pieces_g)
        for cell in arr.cells
    )


def _points_in_cell(rng, arr, cell):
    """Interior + t v for a random v: t at half the exit step and at the
    exit step itself (a boundary point), or t = 1 and 5 if v never exits."""
    p = cell.interior
    v = tuple(F(rng.randint(-3, 3)) for _ in p)
    exits = []
    for h, s in zip(arr.hyperplanes, cell.signs):
        slope = s * dot(h, v)
        if slope < 0:
            exits.append(s * dot(h, p) / -slope)
    steps = (min(exits) / 2, min(exits)) if exits else (F(1), F(5))
    return [tuple(a + t * b for a, b in zip(p, v)) for t in steps]


def _kink_cell_piece(f: PwlFunction, arr, cell):
    """The one candidate piece equal to f at the interior and at d axis
    steps that stay strictly inside the cell.  Two candidates can agree at
    the interior of a kink cell, so one point does not pick the piece; d + 1
    affinely independent points do."""
    p = cell.interior
    probes = [p]
    for i in range(arr.dim):
        step = min(
            (abs(dot(h, p)) / (2 * abs(h[i])) for h in arr.hyperplanes if h[i]),
            default=F(1),
        )
        probes.append(tuple(v + min(step, 1) * (j == i) for j, v in enumerate(p)))
    values = f.eval_many(probes)
    matches = [
        c for c in linear_pieces(f)
        if [dot(c, x) for x in probes] == values
    ]
    assert len(matches) == 1
    return matches[0]


def _zero_set_lp_norm(f: PwlFunction, space) -> Fraction:
    """The exact norm's LP over the rays of f's kinks, the zero sets of its
    candidate pieces and the budget directions, a finer arrangement than
    the kinks and the budget on which |f| itself is linear per cell."""
    budget = budget_directions(space)
    pieces, bends = pieces_and_kinks(f)
    columns = rays(f.dim, [*bends, *pieces, *budget])
    objective = [abs(v) for v in f.eval_many(columns)]
    rows = [([abs(dot(v, b)) for v in columns], 1) for b in budget]
    res = simplex_standard(objective, rows)
    assert res.status == "optimal"
    return res.value


class TestDifferential:
    def test_ray_verdicts_match_the_cell_reference(self):
        # the cell reference costs seconds per pair in dimension 3, so the
        # batch stays in the plane
        rng = random.Random(20261018)
        unequal = 0
        for _ in range(100):
            fe, ge, surely_equal = random_pair(rng, 2)
            f, g = PwlFunction.from_expr(fe, 2), PwlFunction.from_expr(ge, 2)
            _, witness = equivalent(f, g)
            assert (witness is None) == _cell_verdict(f, g)
            if surely_equal:
                assert witness is None
            if witness is not None:
                unequal += 1
                assert f.eval(witness) != g.eval(witness)
        assert 20 <= unequal <= 80
        # a bump on a thin cone shows only on the kink of its meet
        for _ in range(6):
            fe, ge = thin_cone_pair(rng, 2)
            f, g = PwlFunction.from_expr(fe, 2), PwlFunction.from_expr(ge, 2)
            _, witness = equivalent(f, g)
            assert witness is not None and not _cell_verdict(f, g)
            assert f.eval(witness) != g.eval(witness)

    def test_verdicts_match_the_all_pairs_rays(self):
        # reference: the rays of the differences of all pairs of pieces, a
        # superset of the kinks, on which both functions are linear as well
        rng = random.Random(20261019)
        unequal = 0
        for i in range(300):
            dim = 2 + i % 3
            fe, ge, surely_equal = random_pair(rng, dim)
            f, g = PwlFunction.from_expr(fe, dim), PwlFunction.from_expr(ge, dim)
            normals = difference_normals(linear_pieces(f) | linear_pieces(g))
            want = all(f.eval(r) == g.eval(r) for r in rays(dim, normals))
            eq, witness = equivalent(f, g)
            assert eq == want
            assert eq or not surely_equal
            if not eq:
                unequal += 1
                assert f.eval(witness) != g.eval(witness)
        assert 60 <= unequal <= 240
        for i in range(12):
            dim = 2 + i % 3
            fe, ge = thin_cone_pair(rng, dim)
            f, g = PwlFunction.from_expr(fe, dim), PwlFunction.from_expr(ge, dim)
            normals = difference_normals(linear_pieces(f) | linear_pieces(g))
            assert not all(f.eval(r) == g.eval(r) for r in rays(dim, normals))
            eq, witness = equivalent(f, g)
            assert not eq and f.eval(witness) != g.eval(witness)

    def test_functions_are_linear_on_every_kink_cell(self):
        # on each cell of the kink arrangement alone, f equals one candidate
        # piece at the interior, at seeded points inside and on the boundary
        rng = random.Random(515)
        for i in range(60):
            dim = 1 + i % 3
            arity = rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(arity)]
            f = make_pwl(random_expr(rng, arity), rows)
            arr = build_arrangement(dim, kinks(f))
            for cell in arr.cells:
                piece = _kink_cell_piece(f, arr, cell)
                for _ in range(3):
                    points = _points_in_cell(rng, arr, cell)
                    assert f.eval_many(points) == [dot(piece, x) for x in points]

    def test_exact_norms_match_the_cell_assignment_oracle(self):
        rng = random.Random(60)
        cases = []
        for i in range(60):
            n = rng.randint(1, 3)
            space = fvl_space(n) if i % 2 == 0 else seq_space(1, n)
            cases.append((PwlFunction.from_expr(random_expr(rng, n), n), space))
        # each changes sign inside a cell of its kinks; t1 + t2 has no kinks
        for text in ("t1 + t2", r"(t1 + t2) \/ (2*t1 - t3)"):
            f = pw(text, 3)
            cases += [(f, fvl_space(3)), (f, seq_space(1, 3))]
        for f, space in cases:
            cert = norm_certificate(f, space)
            assert cert.lower == norm_by_cell_assignment(f, space)
            assert tuple_admissible(cert.witness)
            assert tuple_seminorm_value(f, cert.witness) == cert.lower

    def test_cell_assignment_oracle_reads_no_ray(self, monkeypatch):
        def no_rays(*args):
            raise AssertionError("the oracle must not call pwl.rays")

        # norm imports rays by name, so both bindings go
        monkeypatch.setattr(pwl, "rays", no_rays)
        monkeypatch.setattr(norm, "rays", no_rays)
        for n in (2, 3):
            for space in (fvl_space(n), seq_space(1, n)):
                for text in ("t1 - t1", r"t1 \/ t2 - t2 \/ t1", "|t1 - t2| - |t2 - t1|"):
                    assert norm_by_cell_assignment(pw(text, n), space) == 0
        assert norm_by_cell_assignment(pw(r"t1 \/ t2", 2), fvl_space(2)) == 2

    def test_exact_norms_match_the_zero_set_lp(self):
        # seq:inf, past the cell-assignment oracle's per-coordinate budget
        rng = random.Random(61)
        for i in range(45):
            dim = 2 + i % 3
            f = PwlFunction.from_expr(random_expr(rng, dim), dim)
            space = seq_space("inf", dim)
            cert = norm_certificate(f, space)
            assert cert.lower == _zero_set_lp_norm(f, space)
            assert tuple_seminorm_value(f, cert.witness) == cert.lower

    def test_cell_lp_matches_ray_sums(self):
        # a closed cell is generated by the rays inside it, so the open cell
        # is nonempty exactly when the sum of those rays lies strictly in it
        rng = random.Random(404)
        for i in range(100):
            dim = 1 + i % 4
            normals = canonical_normals(_random_normals(rng, dim, rng.randint(0, 5)))
            ray_list = rays(dim, normals)
            cells = []
            for signs in itertools.product((1, -1), repeat=len(normals)):
                planes = [tuple(s * c for c in n) for s, n in zip(signs, normals)]
                inside = [r for r in ray_list if all(dot(h, r) >= 0 for h in planes)]
                total = tuple(map(sum, zip(*inside))) or (0,) * dim
                if all(dot(h, total) > 0 for h in planes):
                    cells.append(signs)
            arr = build_arrangement(dim, normals)
            assert sorted(cells) == [c.signs for c in arr.cells]

    def test_thin_cone_is_found_past_the_sample(self):
        # the bump lives on 6*t2 < t1 < 7*t2, where small random integer
        # points rarely fall; its kinks bound the cone, so a ray finds it
        f = pw(r"2*t1 \/ 3*t2", 2)
        g = pw(r"2*t1 \/ 3*t2 + ((t1 - 6*t2) /\ (7*t2 - t1))^+", 2)
        eq, witness = equivalent(f, g)
        assert not eq
        assert f.eval(witness) != g.eval(witness)


ABS_SUM_4 = "|t1| + |t2| + |t3| + |t4|"


def timed(fn, budget_s):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeded the {budget_s}s budget"
    return result


class TestDimensionFour:
    def test_abs_sum_norm(self):
        f = pw(ABS_SUM_4, 4)
        cert = timed(lambda: norm_certificate(f, fvl_space(4)), 30)
        assert cert.exact and cert.lower == 4 == cert.upper
        assert tuple_admissible(cert.witness)
        assert tuple_seminorm_value(f, cert.witness) == 4

    def test_abs_sum_equals_a_rewrite(self):
        f = pw(ABS_SUM_4, 4)
        g = pw(r"-1*((-1*t4) /\ t4) + |t3| + (t2 \/ -1*t2) + |t1|", 4)
        assert timed(lambda: equivalent(f, g), 30) == (True, None)

    def test_rewrite_with_one_piece_changed_is_caught(self):
        f = pw(ABS_SUM_4, 4)
        g = pw(r"|t1| + |t2| + |t3| + (t4 \/ -1*t4 \/ 2*t1)", 4)
        eq, witness = equivalent(f, g)
        assert not eq and f.eval(witness) != g.eval(witness)


ABS_SUM_5 = "|t1| + |t2| + |t3| + |t4| + |t5|"
FOUR_ABS = "|t1-t2| + |t2-2*t3| + |t3+t4| + |t1+t4|"


class TestKinkCapacity:
    """Inputs past the arrangement of all pairs of pieces: there fvl:5
    |t1|+..+|t5| had 121 hyperplanes and 8,495,410 ray subsets, and was
    refused, and the seq:inf:4 norm took about 4 s.  On the kinks each
    takes at most 0.15 s on a 2-core x86 box with Python 3.11."""

    def test_abs_sum_norm_in_dimension_five(self):
        f = pw(ABS_SUM_5, 5)
        cert = timed(lambda: norm_certificate(f, fvl_space(5)), 5)
        assert cert.exact and cert.lower == 5 == cert.upper
        assert tuple_admissible(cert.witness)
        assert tuple_seminorm_value(f, cert.witness) == 5

    def test_abs_sum_equals_a_rewrite_in_dimension_five(self):
        f = pw(ABS_SUM_5, 5)
        g = pw(r"-1*((-1*t5) /\ t5) + |t4| + (t3 \/ -1*t3) + |t2| + |t1|", 5)
        assert timed(lambda: equivalent(f, g), 2) == (True, None)
        h = pw(r"|t1| + |t2| + |t3| + |t4| + (t5 \/ -1*t5 \/ 2*t1)", 5)
        eq, witness = timed(lambda: equivalent(f, h), 2)
        assert not eq and f.eval(witness) != h.eval(witness)

    def test_four_abs_norm_on_seq_inf_four(self):
        f = pw(FOUR_ABS, 4)
        cert = timed(lambda: norm_certificate(f, seq_space("inf", 4)), 5)
        assert cert.exact and cert.lower == 5 == cert.upper
        assert tuple_seminorm_value(f, cert.witness) == 5
