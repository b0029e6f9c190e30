"""Free-lattice elements, generator embeddings, and extension homomorphisms.

An element of FVL[E] is a PwlFunction: a lattice-linear expression over
finitely many vectors x_1..x_n of E = Q^d, read as the function
x* -> expr(x*(x_1), ..., x*(x_n)) on the dual.  This is the model of FVL[E]
as the lattice of functions on E* generated by the evaluations delta_x
(Aviles, Rodriguez and Tradacete, 2018); since x -> delta_x is linear, the
function already respects every linear relation among the vectors, so
they are kept exactly as given.  Build elements with `make_pwl` or
`PwlFunction.from_expr`, the free generators with `generator`, and the
evaluation functional of a vector with `embed`.  The extension of an
admissible map evaluates the function at the map's dual rows.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ArityError, DimensionError, UnsupportedSpaceError
from .expr import Var, print_expr
from .pnorm import SpaceSpec, norm_leq, norm_upper, operator_upper
from .pwl import PwlFunction
from .qmath import Vec, format_fraction, identity, transpose, vec

# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def embed(x, space: SpaceSpec) -> PwlFunction:
    """The evaluation functional of x: x* -> x*(x)."""
    x = vec(x)
    if len(x) != space.dim:
        raise DimensionError(f"vector of length {len(x)} in space {space}")
    return PwlFunction(dim=space.dim, expr=Var(1), comp=(x,))


def generator(space: SpaceSpec, i: int) -> PwlFunction:
    """The i-th free generator (1-based): the i-th coordinate functional."""
    if not 1 <= i <= space.dim:
        raise DimensionError(f"generator index {i} outside 1..{space.dim}")
    return embed(identity(space.dim)[i - 1], space)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


class LatticeMap(namedtuple("LatticeMap", "source target images")):
    """A map given by the images y_1..y_n in the target of the source's
    generators.

    The extension applies an element's expression to the images,
    coordinatewise in the target; equivalently, coordinate k of the
    extension is the element evaluated at the k-th dual row (y_1[k], ...,
    y_n[k]), which makes well-definedness on equivalent elements
    automatic.  A linear operator T is the map whose images are its
    columns T e_i.  The target is a seq:p:m space, R^m with the
    coordinatewise order and the l_p norm.
    """

    __slots__ = ()

    def __new__(cls, source: SpaceSpec, target: SpaceSpec, images: tuple[Vec, ...]):
        if target.kind != "seq":
            raise UnsupportedSpaceError("extension targets must be seq:p:m spaces")
        if len(images) != source.dim:
            raise ArityError(f"need {source.dim} generator images, got {len(images)}")
        for y in images:
            if len(y) != target.dim:
                raise DimensionError("generator image has wrong target length")
        return super().__new__(cls, source, target, images)

    @property
    def dual_rows(self) -> tuple[Vec, ...]:
        """Rows m_k with extension(f)_k = f(m_k)."""
        return transpose(self.images)

    def admissibility_scale(self) -> Fraction:
        """Certified upper bound c on the norm of x -> (m_k . x)_k from
        source to target, so that ||extension(x-hat)|| <= c * ||x||."""
        return operator_upper(self.images, self.source, self.target)


def extend_hom(lat_map: LatticeMap, f: PwlFunction) -> Vec:
    """Image of f under the unique lattice homomorphism extending the map."""
    if f.dim != lat_map.source.dim:
        raise DimensionError("element and map live over different source spaces")
    return tuple(f.eval_many(lat_map.dual_rows))


def contractivity_audit(
    lat_map: LatticeMap, suite, certs=None
) -> AuditReport:
    """Check ||extension(f)|| <= scale * norm-upper(f) for each element,
    each normed in the map's source."""
    from .norm import AuditEntry, AuditReport, norm_certificate  # extend loads no norm

    scale = lat_map.admissibility_scale()
    entries = []
    for i, f in enumerate(suite):
        cert = certs[i] if certs is not None else norm_certificate(f, lat_map.source)
        y = extend_hom(lat_map, f)
        bound = scale * cert.upper
        ok = norm_leq(y, lat_map.target.p, bound)
        entries.append(
            AuditEntry(
                name=f"elem{i}[{print_expr(f.expr)}]",
                ok=ok,
                observed=format_fraction(norm_upper(y, lat_map.target.p)),
                bound=format_fraction(bound),
            )
        )
    return AuditReport(entries=tuple(entries))


def pullback_seminorm(lat_map: LatticeMap, name: str | None = None) -> SeminormHandle:
    """nu(f) = ||extension(f)||_Y as an admissible seminorm handle.

    If the map's admissibility scale exceeds 1, the dual rows are rescaled
    by it so that nu(generator) <= 1; comparisons are norm_leq's, exact
    for integer and infinite p.
    """
    from .norm import SeminormHandle

    scale = lat_map.admissibility_scale()
    rows = lat_map.dual_rows
    if scale > 1:
        rows = tuple(tuple(v / scale for v in row) for row in rows)
    target = lat_map.target

    def value_vec(f: PwlFunction) -> Vec:
        if f.dim != lat_map.source.dim:
            raise DimensionError("function and pullback map dimensions differ")
        return tuple(f.eval_many(rows))

    label = name or f"pullback[{target.dim}d,p={target.p}]"
    return SeminormHandle(
        name=label,
        leq=lambda f, bound: norm_leq(value_vec(f), target.p, bound),
        display=lambda f: format_fraction(norm_upper(value_vec(f), target.p)),
    )
