"""Free-lattice elements, generator embeddings, and extension homomorphisms.

A FreeElement is a lattice-linear expression over finitely many vectors,
read as a function on the dual: the model of FVL[E] as the lattice of
functions on E* generated by the evaluations delta_x (Aviles, Rodriguez
and Tradacete, 2018).  Since x -> delta_x is linear, the realized function
already respects every linear relation among the vectors, so an element
keeps its vectors exactly as given.  The extension of an admissible map
evaluates that function at the map's dual rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, DimensionError, UnsupportedSpaceError
from .expr import Expr, Scale, Var, max_var_index, print_expr
from .norm import (
    AuditEntry,
    AuditReport,
    NormCertificate,
    SeminormHandle,
    norm_certificate,
)
from .pnorm import SpaceSpec, norm_leq, norm_upper, operator_upper
from .pwl import PwlFunction
from .qmath import Vec, format_fraction, identity, transpose, vec

# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeElement:
    """Lattice-linear combination of the evaluation functionals of vectors.

    The vectors may be dependent, repeated or zero: the element is the
    realized function x* -> expr(x*(x_1), ..., x*(x_n)), which depends on
    them only through those values.
    """

    space: SpaceSpec
    vectors: tuple[Vec, ...]
    expr: Expr

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.space.dim:
                raise DimensionError(
                    f"vector of length {len(v)} in space {self.space}"
                )
        if max_var_index(self.expr) > len(self.vectors):
            raise ArityError(
                f"expression uses t{max_var_index(self.expr)} but the element "
                f"has {len(self.vectors)} vectors"
            )

    @property
    def realized(self) -> PwlFunction:
        return PwlFunction(dim=self.space.dim, expr=self.expr, comp=self.vectors)

    def describe(self) -> str:
        return print_expr(self.expr)


def zero_element(space: SpaceSpec) -> FreeElement:
    """Canonical zero: the expression 0*t1 over the first coordinate vector."""
    return FreeElement(
        space=space,
        vectors=identity(space.dim)[:1],
        expr=Scale(Fraction(0), Var(1)),
    )


def embed(x, space: SpaceSpec) -> FreeElement:
    """The evaluation functional of x: realized(x*) = x*(x)."""
    return FreeElement(space=space, vectors=(vec(x),), expr=Var(1))


def generator(space: SpaceSpec, i: int) -> FreeElement:
    """The i-th free generator (1-based): the i-th coordinate functional."""
    if not 1 <= i <= space.dim:
        raise DimensionError(f"generator index {i} outside 1..{space.dim}")
    return embed(identity(space.dim)[i - 1], space)


def make_element(space: SpaceSpec, vectors, expr: Expr) -> FreeElement:
    """The element expr(delta_{x_1}, ..., delta_{x_n}) on the given vectors.

    The vectors are converted to rationals and kept as given, dependent or
    not; at least one is required.
    """
    rows = tuple(vec(v) for v in vectors)
    if not rows:
        raise ArityError("an element needs at least one vector")
    return FreeElement(space=space, vectors=rows, expr=expr)


def element_norm(f: FreeElement, **opts) -> NormCertificate:
    """Exact certificate on polyhedral spaces, certified sandwich otherwise."""
    return norm_certificate(f.realized, f.space, **opts)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeMap:
    """Either generator images (phi-mode) or a linear operator matrix (T-mode).

    Both reduce to one rational matrix M: the extension applies the
    element's expression to the vectors M x_i, coordinatewise in the
    target.  Equivalently, coordinate k of the extension is the realized
    function evaluated at the k-th row of M, which makes well-definedness
    on equivalent elements automatic.  The target is a seq:p:m space,
    R^m with the coordinatewise order and the l_p norm.
    """

    source: SpaceSpec
    target: SpaceSpec
    images: tuple[Vec, ...] | None = None
    matrix: tuple[Vec, ...] | None = None

    def __post_init__(self):
        if self.target.kind != "seq":
            raise UnsupportedSpaceError("extension targets must be seq:p:m spaces")
        if (self.images is None) == (self.matrix is None):
            raise ArityError("provide exactly one of images= or matrix=")
        if self.images is not None:
            if len(self.images) != self.source.dim:
                raise ArityError(
                    f"need {self.source.dim} generator images, got {len(self.images)}"
                )
            for y in self.images:
                if len(y) != self.target.dim:
                    raise DimensionError("generator image has wrong target length")
        else:
            if len(self.matrix) != self.target.dim:
                raise DimensionError(
                    f"operator matrix needs {self.target.dim} rows"
                )
            for row in self.matrix:
                if len(row) != self.source.dim:
                    raise DimensionError("operator matrix row has wrong length")

    @property
    def dual_rows(self) -> tuple[Vec, ...]:
        """Rows m_k with extension(f)_k = f.realized(m_k)."""
        if self.matrix is not None:
            return self.matrix
        return transpose(self.images)

    def admissibility_scale(self) -> Fraction:
        """Certified upper bound c >= ||M|| from source to target, so that
        ||extension(x-hat)|| <= c * ||x|| for every x."""
        return operator_upper(self.dual_rows, self.source, self.target)


def extend_hom(lat_map: LatticeMap, f: FreeElement) -> Vec:
    """Image of f under the unique lattice homomorphism extending the map."""
    if f.space.dim != lat_map.source.dim:
        raise DimensionError("element and map live over different source spaces")
    return tuple(f.realized.eval_many(lat_map.dual_rows))


def contractivity_audit(
    lat_map: LatticeMap, suite, certs=None
) -> AuditReport:
    """Check ||extension(f)|| <= scale * norm-upper(f) for each element."""
    scale = lat_map.admissibility_scale()
    entries = []
    for i, f in enumerate(suite):
        cert = certs[i] if certs is not None else element_norm(f)
        y = extend_hom(lat_map, f)
        bound = scale * cert.upper
        ok = norm_leq(y, lat_map.target.p, bound)
        entries.append(
            AuditEntry(
                name=f"elem{i}[{f.describe()}]",
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
