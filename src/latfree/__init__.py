"""Exact computations with lattice-linear expressions.

Expressions over generators t1..tn (scalar multiples, sums, suprema,
infima) are treated as positively homogeneous piecewise-linear functions.
The package decides equivalence exactly, computes certified norms for a
family of sequence-space pairings, extends generator assignments to
lattice homomorphisms, and ships a deterministic acceptance suite.

The public names load on first use (PEP 562): `import latfree` imports no
submodule, and `latfree.norm_certificate` imports `latfree.norm` when it
is first read.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "errors": (
        "ArityError", "CapacityError", "DimensionError", "ExprSyntaxError",
        "InternalFaultError", "LatfreeError", "UnsupportedSpaceError",
    ),
    "expr": (
        "Add", "Expr", "Inf", "Scale", "Sup", "Var", "eval_expr", "parse",
        "print_expr",
    ),
    "free": (
        "LatticeMap", "contractivity_audit", "embed", "extend_hom", "generator",
        "pullback_seminorm",
    ),
    "norm": (
        "AuditReport", "FunctionalTuple", "NormCertificate", "SpaceSpec",
        "constraint_norm", "evaluation_seminorm", "functional_tuple", "fvl_space",
        "maximality_audit", "norm_by_cell_assignment", "norm_certificate",
        "parse_space", "seq_space", "tuple_admissible", "tuple_seminorm_value",
    ),
    "pwl": (
        "PwlFunction", "equivalent", "is_zero", "linear_pieces", "make_pwl",
        "pwl_abs", "pwl_add", "pwl_inf", "pwl_scale", "pwl_sup", "zero_pwl",
    ),
    "selftest": ("CriterionResult", "SelftestReport", "run_selftest"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
