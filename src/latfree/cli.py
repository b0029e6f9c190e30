"""Command-line front end.

Subcommands: eval, equiv, norm, extend, audit, selftest.  Reports are JSON
by default (selftest defaults to a pass/fail table); every rational is
serialized as an exact "p/q" string, never a float.  A fixed --seed yields
byte-identical reports; wall times only appear with --timing.

Exit codes: 0 success, 1 usage or parse error, 2 computation fault,
3 audit or selftest failure, 4 input beyond a capacity cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import (
    ArityError,
    CapacityError,
    DimensionError,
    ExprSyntaxError,
    InternalFaultError,
    LatfreeError,
    UnsupportedSpaceError,
)
from .expr import parse, print_expr
from .free import LatticeMap, extend_hom
from .norm import (
    NormCertificate,
    SpaceSpec,
    evaluation_seminorm,
    functional_tuple,
    maximality_audit,
    norm_certificate,
    parse_space,
)
from .pwl import PwlFunction, equivalent
from .qmath import Vec, format_fraction, identity
from .selftest import SelftestReport, run_selftest

_USAGE_ERRORS = (
    ExprSyntaxError,
    UnsupportedSpaceError,
    ArityError,
    DimensionError,
    ValueError,
    ZeroDivisionError,
    OSError,  # an --out path that cannot be opened
)
_FAULT_ERRORS = (InternalFaultError, LatfreeError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frac_list(text: str) -> Vec:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty vector: {text!r}")
    return tuple(Fraction(p) for p in parts)


def _json_frac(q: Fraction) -> str:
    return format_fraction(q)


def _json_vec(v: Vec) -> list[str]:
    return [_json_frac(x) for x in v]


def _cert_payload(cert: NormCertificate) -> dict:
    return {
        "lower": _json_frac(cert.lower),
        "upper": _json_frac(cert.upper),
        "exact": cert.exact,
        "witness": [_json_vec(p) for p in cert.witness.points],
        "method": cert.upper_method,
        "lambda": None if cert.lam is None else _json_frac(cert.lam),
        "k": len(cert.witness.points),
    }


def _emit(report: dict, args, table_lines) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cert_table(cert: NormCertificate) -> list[str]:
    rows = [
        f"lower    {format_fraction(cert.lower)}",
        f"upper    {format_fraction(cert.upper)}",
        f"exact    {'yes' if cert.exact else 'no'}",
        f"method   {cert.upper_method}",
    ]
    if cert.lam is not None:
        rows.append(f"lambda   {format_fraction(cert.lam)}")
    for i, p in enumerate(cert.witness.points, start=1):
        rows.append(f"x{i}       ({', '.join(format_fraction(c) for c in p)})")
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, report_dict, table_lines)
# ---------------------------------------------------------------------------


def _one_expr(args) -> str:
    """The text of the one --expr that every subcommand but equiv takes."""
    if len(args.expr) != 1:
        raise ValueError(f"{args.command} needs exactly one --expr argument")
    return args.expr[0]


def _cmd_eval(args):
    expr = parse(_one_expr(args), args.arity)
    at = _frac_list(args.at)
    if len(at) != args.arity:
        raise DimensionError(
            f"--at has {len(at)} coordinates, expected arity {args.arity}"
        )
    f = PwlFunction.from_expr(expr, args.arity)
    value = f.eval(at)
    report = {
        "command": "eval",
        "inputs": {"expr": [print_expr(expr)], "at": _json_vec(at)},
        "arity": args.arity,
        "value": _json_frac(value),
        "seed": args.seed,
    }
    return 0, report, [f"value    {format_fraction(value)}"]


def _resolve_arity(space: SpaceSpec | None, args) -> int:
    if space is not None:
        return space.dim
    if args.arity is not None:
        return args.arity
    raise ValueError("either --space or --arity is required")


def _cmd_equiv(args):
    if len(args.expr) != 2:
        raise ValueError("equiv needs exactly two --expr arguments")
    space = parse_space(args.space) if args.space else None
    arity = _resolve_arity(space, args)
    f = PwlFunction.from_expr(parse(args.expr[0], arity), arity)
    g = PwlFunction.from_expr(parse(args.expr[1], arity), arity)
    equal, witness = equivalent(f, g)
    report = {
        "command": "equiv",
        "space": str(space) if space else None,
        "inputs": {"expr": list(args.expr)},
        "equal": equal,
        "witness": None if witness is None else _json_vec(witness),
        "seed": args.seed,
    }
    lines = [f"equal    {'yes' if equal else 'no'}"]
    if witness is not None:
        lines.append(
            f"witness  ({', '.join(format_fraction(c) for c in witness)})"
        )
    return 0, report, lines


def _cmd_norm(args):
    space = parse_space(args.space)
    expr = parse(_one_expr(args), space.dim)
    f = PwlFunction.from_expr(expr, space.dim)
    cert = norm_certificate(f, space, restarts=args.restarts, seed=args.seed)
    report = {
        "command": "norm",
        "space": str(space),
        "inputs": {"expr": [print_expr(expr)]},
        "certificate": _cert_payload(cert),
        "seed": args.seed,
    }
    return 0, report, _cert_table(cert)


def _parse_images(args, target_dim: int):
    if not args.vector:
        raise ValueError("extend needs one --vector per source generator")
    images = []
    for row in args.vector:
        v = _frac_list(row)
        if len(v) != target_dim:
            raise DimensionError(
                f"image vector {row!r} has {len(v)} coordinates, "
                f"target dimension is {target_dim}"
            )
        images.append(v)
    return tuple(images)


def _cmd_extend(args):
    space = parse_space(args.space)
    target = parse_space(args.target)
    images = _parse_images(args, target.dim)
    if len(images) != space.dim:
        raise DimensionError(
            f"got {len(images)} image vectors for {space.dim} generators"
        )
    lat_map = LatticeMap(source=space, target=target, images=images)
    expr = parse(_one_expr(args), space.dim)
    image = extend_hom(lat_map, PwlFunction.from_expr(expr, space.dim))
    scale = lat_map.admissibility_scale()
    report = {
        "command": "extend",
        "space": str(space),
        "target": str(target),
        "inputs": {
            "expr": [print_expr(expr)],
            "images": [_json_vec(v) for v in images],
        },
        "image": _json_vec(image),
        "map_scale": _json_frac(scale),
        "seed": args.seed,
    }
    lines = [
        f"image    ({', '.join(format_fraction(c) for c in image)})",
        f"scale    {format_fraction(scale)}",
    ]
    return 0, report, lines


def _cmd_audit(args):
    space = parse_space(args.space)
    expr = parse(_one_expr(args), space.dim)
    f = PwlFunction.from_expr(expr, space.dim)
    cert = norm_certificate(f, space, restarts=args.restarts, seed=args.seed)
    family = [evaluation_seminorm(cert.witness, name="witness")]
    for i, axis in enumerate(identity(space.dim)):
        family.append(
            evaluation_seminorm(
                functional_tuple(space, (axis,)), name=f"axis{i + 1}"
            )
        )
    rep = maximality_audit(f, space, family, cert)
    report = {
        "command": "audit",
        "space": str(space),
        "inputs": {"expr": [print_expr(expr)]},
        "certificate": _cert_payload(cert),
        "audit": {
            "passed": rep.passed,
            "entries": [
                {"name": e.name, "ok": e.ok, "observed": e.observed, "bound": e.bound}
                for e in rep.entries
            ],
        },
        "seed": args.seed,
    }
    lines = [f"{'PASS' if rep.passed else 'FAIL'} audit"]
    for e in rep.entries:
        lines.append(
            f"{'ok ' if e.ok else 'BAD'} {e.name:12s} {e.observed} <= {e.bound}"
        )
    return (0 if rep.passed else 3), report, lines


def _selftest_payload(rep: SelftestReport, timing: bool) -> dict:
    criteria = []
    for r in rep.results:
        entry = {
            "index": r.index,
            "name": r.name,
            "passed": r.passed,
            "details": r.details,
        }
        if timing:
            entry["elapsed_s"] = round(r.elapsed, 3)
        criteria.append(entry)
    return {
        "command": "selftest",
        "seed": rep.seed,
        "criteria": criteria,
        "passed": rep.passed,
    }


def _cmd_selftest(args):
    rep = run_selftest(seed=args.seed)
    lines = []
    for r in rep.results:
        mark = "PASS" if r.passed else "FAIL"
        stamp = f" ({r.elapsed:.1f}s)" if args.timing else ""
        lines.append(f"{r.index:2d} {mark} {r.name:26s}{stamp} {r.details}")
    lines.append(f"overall: {'PASS' if rep.passed else 'FAIL'}")
    return (0 if rep.passed else 3), _selftest_payload(rep, args.timing), lines


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="latfree",
        description="Exact computations with lattice-linear expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_space: bool, exprs: bool = True):
        if exprs:
            p.add_argument(
                "--expr",
                action="append",
                required=True,
                help="lattice-linear expression over t1..tn",
            )
        if needs_space:
            p.add_argument(
                "--space",
                required=needs_space == "required",
                default=None,
                help="fvl:n or seq:p:m (p a rational >= 1 or inf)",
            )
        p.add_argument("--format", choices=("json", "table"), default=None)
        p.add_argument("--out", default=None, help="write the report to FILE")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall times (breaks byte-for-byte reproducibility)",
        )

    p_eval = sub.add_parser("eval", help="evaluate an expression at a point")
    p_eval.add_argument("--arity", type=int, required=True)
    p_eval.add_argument("--at", required=True, help="comma-separated rationals")
    common(p_eval, needs_space=False)
    p_eval.set_defaults(handler=_cmd_eval)

    p_equiv = sub.add_parser("equiv", help="decide whether two expressions agree")
    p_equiv.add_argument("--arity", type=int, default=None)
    common(p_equiv, needs_space=True)
    p_equiv.set_defaults(handler=_cmd_equiv)

    p_norm = sub.add_parser("norm", help="certified norm of an expression")
    common(p_norm, needs_space="required")
    p_norm.add_argument("--restarts", type=int, default=16)
    p_norm.set_defaults(handler=_cmd_norm)

    p_ext = sub.add_parser(
        "extend", help="apply the extension determined by generator images"
    )
    p_ext.add_argument("--target", required=True, help="target space, seq:p:m")
    p_ext.add_argument(
        "--vector",
        action="append",
        default=[],
        help="image of the next generator (comma-separated rationals)",
    )
    common(p_ext, needs_space="required")
    p_ext.set_defaults(handler=_cmd_extend)

    p_audit = sub.add_parser(
        "audit", help="check admissible seminorms against the certificate"
    )
    common(p_audit, needs_space="required")
    p_audit.add_argument("--restarts", type=int, default=16)
    p_audit.set_defaults(handler=_cmd_audit)

    p_self = sub.add_parser("selftest", help="run the built-in acceptance suite")
    common(p_self, needs_space=False, exprs=False)
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.format is None:
            args.format = "table" if args.command == "selftest" else "json"
        t0 = time.perf_counter()
        code, report, lines = args.handler(args)
        if args.timing:
            report["timing"] = {"wall_s": round(time.perf_counter() - t0, 3)}
            lines.append(f"wall     {time.perf_counter() - t0:.3f}s")
        _emit(report, args, lines)
        return code
    except _USAGE_ERRORS as exc:
        print(f"latfree: error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"latfree: capacity: {exc}", file=sys.stderr)
        return 4
    except _FAULT_ERRORS as exc:
        print(f"latfree: fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
