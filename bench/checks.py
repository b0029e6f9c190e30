"""Independent checks of every CLI report the benchmark receives.

Each check recomputes what it can with the benchmark's own exact
evaluator (exprgen.evaluate) and returns None when the report is right,
or one line saying what is wrong.

Routes per command:
  equiv   the verdict is known by construction; an unequal verdict's
          witness must separate the two expressions exactly.
  norm    the witness tuple is re-scored exactly: its budget, and its
          value against the reported lower bound.  A second route checks
          the value itself: a closed form (generators have norm 1,
          |t1|+..+|tn| has norm n on fvl:n and seq:1:n, an embedded
          vector a has norm ||a||_p on seq:p), or else, on fvl and seq:1,
          latfree's cell-assignment LP, which reaches the norm through
          one LP slot per arrangement cell instead of the vertex LP it
          checks.  Random seq:inf inputs have only the witness route.
  extend  the image is recomputed coordinate by coordinate, and the map
          scale from the generator images.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

import exprgen as eg

F = Fraction
# relative slack allowed between a sandwich lower bound and its witness's
# exact value: latfree divides by a rounded-up budget on non-polyhedral spaces
SANDWICH_SLACK = F(1, 10**6)


def check(op, report) -> str | None:
    cmd = op.argv[0]
    if report.get("command") != cmd:
        return f"report is for {report.get('command')!r}, not {cmd!r}"
    try:
        if cmd == "equiv":
            return _check_equiv(op.expect, report)
        if cmd == "norm":
            return _check_norm(op.expect, report["certificate"])
        if cmd == "extend":
            return _check_extend(op.expect, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
    raise ValueError(f"no check for command {cmd!r}")


def _vec(strings):
    return [F(s) for s in strings]


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------


def _check_equiv(expect, report):
    if report["equal"] is not expect["equal"]:
        return f"verdict equal={report['equal']}, expected {expect['equal']}"
    if expect["equal"]:
        return None if report["witness"] is None else "equal verdict with a witness"
    w = _vec(report["witness"])
    if len(w) != expect["dim"]:
        return f"witness has {len(w)} coordinates, expected {expect['dim']}"
    if eg.evaluate(expect["f"], w) == eg.evaluate(expect["g"], w):
        return f"witness {report['witness']} does not separate the expressions"
    return None


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def _dual_exponent(p: str):
    """q with 1/p + 1/q = 1, for the budget of a seq:p space."""
    if p == "inf":
        return 1
    pf = F(p)
    if pf == 1:
        return "inf"
    q = pf / (pf - 1)
    if q.denominator != 1:
        raise ValueError(f"seq:{p} has a non-integer dual exponent")
    return int(q)


def budget_power(expect, points):
    """(B^q, q): B is the tuple's exact admissibility value on the space.

    fvl and seq:1 budget every coordinate: B = max_j sum_i |x_ij|.  For
    seq:p with dual exponent q, B = max over signs s of ||sum_i s_i x_i||_q.
    """
    dim = expect["dim"]
    if expect["kind"] == "fvl" or _dual_exponent(expect["p"]) == "inf":
        return max(sum((abs(x[j]) for x in points), F(0)) for j in range(dim)), 1
    q = _dual_exponent(expect["p"])
    best = F(0)
    for rest in itertools.product((1, -1), repeat=len(points) - 1):
        signs = (1,) + rest
        combined = [sum((s * x[j] for s, x in zip(signs, points)), F(0)) for j in range(dim)]
        best = max(best, sum((abs(c) ** q for c in combined), F(0)))
    return best, q


def _closed_form_power(expect):
    """(N^r, r) for the true norm N when the input has a closed form, else None."""
    closed = expect["closed"]
    if closed is None:
        return None
    if closed[0] == "generator":
        return F(1), 1
    if closed[0] == "abs_sum":
        if expect["kind"] == "fvl" or expect["p"] == "1":
            return F(closed[1]), 1
        return None
    a = closed[1]
    p = "1" if expect["kind"] == "fvl" else expect["p"]
    if p == "1":
        return sum((abs(v) for v in a), F(0)), 1
    if p == "inf":
        return max(abs(v) for v in a), 1
    if p == "2":
        return sum((v * v for v in a), F(0)), 2
    if p == "3/2":
        # a_j = +-s_j^2, so sum |a_j|^(3/2) = sum |s_j|^3 = N^(3/2)
        roots = [isqrt(int(abs(v))) for v in a]
        if any(r * r != abs(v) for r, v in zip(roots, a)):
            raise ValueError("seq:3/2 anchors need square coefficients")
        return F(sum(r**3 for r in roots)) ** 2, 3
    raise ValueError(f"no closed form for seq:{p}")


def _check_norm(expect, cert):
    lower, upper = F(cert["lower"]), F(cert["upper"])
    if lower > upper:
        return f"lower {lower} > upper {upper}"
    points = [_vec(x) for x in cert["witness"]]
    if not points or any(len(x) != expect["dim"] for x in points):
        return "witness tuple has the wrong shape"
    value = sum((abs(eg.evaluate(expect["f"], x)) for x in points), F(0))
    budget, q = budget_power(expect, points)
    polyhedral = expect["kind"] == "fvl" or expect["p"] in ("1", "inf")

    if polyhedral:
        if cert["exact"] is not True or lower != upper:
            return "polyhedral norm is not reported exact"
        if budget > 1:
            return f"witness budget {budget} exceeds 1"
        if value != lower:
            return f"witness scores {value}, reported {lower}"
    else:
        if cert["exact"] and lower != upper:
            return "exact flag on a strict sandwich"
        # the witness proves norm >= value / max(1, B); compare q-th powers
        hi = value**q / max(budget, F(1))
        lo = (value * (1 - SANDWICH_SLACK)) ** q / max(budget, F(1))
        if not lo <= lower**q <= hi:
            return f"lower {float(lower)} is not what its witness proves"

    closed = _closed_form_power(expect)
    if closed is not None:
        power, r = closed
        if polyhedral:
            if lower**r != power:
                return f"norm {lower}, closed form gives {power} (power {r})"
        elif not lower**r <= power <= upper**r:
            return f"[{float(lower)}, {float(upper)}] misses the closed form"
    elif expect["kind"] == "fvl" or expect["p"] == "1":
        oracle = cell_assignment_norm(expect)
        if oracle != lower:
            return f"norm {lower}, cell-assignment oracle gives {oracle}"
    return None


def cell_assignment_norm(expect) -> Fraction:
    """latfree's independent one-slot-per-cell LP for fvl / seq:1 norms."""
    import latfree  # imported late: the runner puts ./src on the path first

    space = latfree.parse_space(expect["space"])
    f = latfree.PwlFunction.from_expr(latfree.parse(eg.render(expect["f"]), space.dim), space.dim)
    return latfree.norm_by_cell_assignment(f, space)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _check_extend(expect, report):
    vectors, f = expect["vectors"], expect["f"]
    tdim = len(vectors[0])
    image = _vec(report["image"])
    want = [eg.evaluate(f, [v[k] for v in vectors]) for k in range(tdim)]
    if image != want:
        return f"image {report['image']}, expected {[str(v) for v in want]}"
    p = expect["target"].split(":")[1]
    if p == "1":
        scale = max(sum((abs(c) for c in v), F(0)) for v in vectors)
    else:
        scale = max(max(abs(c) for c in v) for v in vectors)
    if F(report["map_scale"]) != scale:
        return f"map scale {report['map_scale']}, expected {scale}"
    return None
