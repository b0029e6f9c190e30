"""Command-line front end.

Subcommands: eval, equiv, norm, extend, audit, selftest.  Reports are JSON
by default (selftest defaults to a pass/fail table); every rational is
serialized as an exact "p/q" string, never a float.  Each subcommand takes
only the flags it reads: --seed keys the random inputs of selftest, and
norm and audit keep --seed and --restarts from their seeded search, which
is gone (see _check_restarts).  norm and audit take their certificate from
norm.norm_certificate on every space: exact on fvl, seq:1 and seq:inf, a
sandwich elsewhere.  The same arguments yield byte-identical
reports; wall times only appear with --timing.  Each handler imports the
modules it runs, so eval and equiv never load the norm code.

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
from .pwl import PwlFunction, equivalent
from .qmath import Vec, format_fraction, identity

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


class _Formatter(argparse.HelpFormatter):
    """Help at the width argparse takes when no terminal is attached and
    COLUMNS is unset, so no formatter asks for the terminal's size (and
    imports shutil to do so): add_argument builds one per flag."""

    def __init__(self, prog):
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1.
    The top parser and every subparser format help with _Formatter."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frac_list(text: str) -> Vec:
    """The comma-separated rationals of text; an empty entry is an error."""
    if not text.strip():
        raise ValueError(f"empty vector: {text!r}")
    out = []
    for p in map(str.strip, text.split(",")):
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"entry {p!r} of {text!r} is not a rational") from None
    return tuple(out)


def _json_vec(v: Vec) -> list[str]:
    return [format_fraction(x) for x in v]


def _cert_payload(cert: NormCertificate) -> dict:
    return {
        "lower": format_fraction(cert.lower),
        "upper": format_fraction(cert.upper),
        "exact": cert.exact,
        "witness": [_json_vec(p) for p in cert.witness.points],
        "method": cert.upper_method,
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
        "value": format_fraction(value),
    }
    return 0, report, [f"value    {format_fraction(value)}"]


def _cmd_equiv(args):
    if len(args.expr) != 2:
        raise ValueError("equiv needs exactly two --expr arguments")
    n = args.arity
    f, g = (PwlFunction.from_expr(parse(e, n), n) for e in args.expr)
    equal, witness = equivalent(f, g)
    report = {
        "command": "equiv",
        "inputs": {"expr": list(args.expr)},
        "equal": equal,
        "witness": None if witness is None else _json_vec(witness),
    }
    lines = [f"equal    {'yes' if equal else 'no'}"]
    if witness is not None:
        lines.append(
            f"witness  ({', '.join(format_fraction(c) for c in witness)})"
        )
    return 0, report, lines


# the largest --restarts that norm and audit accept
_MAX_RESTARTS = 1024


def _check_restarts(restarts: int) -> None:
    """ValueError below 0, CapacityError above _MAX_RESTARTS.

    No norm reads --restarts or --seed any more: the sandwich's lower
    bound comes from the sweep and the LP witnesses, with no seeded
    search.  Both flags stay accepted, with the range check of the search
    they drove, so that a command line that ran keeps its exit code; the
    report echoes the seed and no other byte depends on either flag.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    if restarts > _MAX_RESTARTS:
        raise CapacityError("ascent restarts", _MAX_RESTARTS, restarts)


def _certify(args):
    """(space, expr, f, certificate): the prologue of norm and audit."""
    _check_restarts(args.restarts)
    from .norm import norm_certificate, parse_space

    space = parse_space(args.space)
    expr = parse(_one_expr(args), space.dim)
    f = PwlFunction.from_expr(expr, space.dim)
    return space, expr, f, norm_certificate(f, space)


def _cmd_norm(args):
    space, expr, _, cert = _certify(args)
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
    from .free import LatticeMap, extend_hom
    from .pnorm import parse_space

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
        "map_scale": format_fraction(scale),
    }
    lines = [
        f"image    ({', '.join(format_fraction(c) for c in image)})",
        f"scale    {format_fraction(scale)}",
    ]
    return 0, report, lines


def _cmd_audit(args):
    from .norm import evaluation_seminorm, functional_tuple, maximality_audit

    space, expr, f, cert = _certify(args)
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
    from .selftest import run_selftest

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

    def subcommand(name, handler, text, **flags):
        """The subcommand with the flags its handler reads, then --format,
        --out and --timing."""
        p = sub.add_parser(name, help=text)
        for flag, settings in flags.items():
            p.add_argument(f"--{flag}", **settings)
        p.add_argument("--format", choices=("json", "table"), default=None)
        p.add_argument("--out", default=None, help="write the report to FILE")
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall times (breaks byte-for-byte reproducibility)",
        )
        p.set_defaults(handler=handler)

    arity = dict(type=int, required=True)
    expr = dict(
        action="append", required=True, help="lattice-linear expression over t1..tn"
    )
    space = dict(required=True, help="fvl:n or seq:p:m (p a rational >= 1 or inf)")
    seed = dict(type=int, default=0)  # keys selftest's inputs; norm and audit echo it
    restarts = dict(type=int, default=16)  # range-checked and otherwise unread
    subcommand(
        "eval", _cmd_eval, "evaluate an expression at a point",
        arity=arity,
        at=dict(required=True, help="comma-separated rationals"),
        expr=expr,
    )
    subcommand(
        "equiv", _cmd_equiv, "decide whether two expressions agree",
        arity=arity, expr=expr,
    )
    subcommand(
        "norm", _cmd_norm, "certified norm of an expression",
        expr=expr, space=space, seed=seed, restarts=restarts,
    )
    subcommand(
        "extend", _cmd_extend, "apply the extension determined by generator images",
        target=dict(required=True, help="target space, seq:p:m"),
        vector=dict(
            action="append",
            default=[],
            help="image of the next generator (comma-separated rationals)",
        ),
        expr=expr,
        space=space,
    )
    subcommand(
        "audit", _cmd_audit, "check admissible seminorms against the certificate",
        expr=expr, space=space, seed=seed, restarts=restarts,
    )
    subcommand(
        "selftest", _cmd_selftest, "run the built-in acceptance suite", seed=seed
    )
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
