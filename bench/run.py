#!/usr/bin/env python3
"""One benchmark run of latfree's CLI on one workload.

    python3 bench/run.py --workload equiv --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
./src, with no install step.  The load is a closed loop: one client in
this process calls `latfree.cli.main(argv)` for one op at a time and
parses the JSON report.  See bench/README.md for the workloads, the
metrics and what each layer metric should move.

--trace 0  measures set-up in fresh interpreters, then whole decks of ops
           for at least --seconds, then checks every output.  Prints the
           end-to-end metrics.  Op latencies are scaled to a nominal
           machine speed, sampled between ops by calib.py.
--trace 1  runs a fixed set of decks untraced and then traced, checks that
           both give byte-identical output, and prints the per-layer
           metrics.  The spans go to .bench_trace/ under the root.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Without latfree's source under ./src the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

_COUNTED = {
    "cli.main": ("self_s",),
    "expr.parse": ("calls", "self_s"),
    "expr.eval_expr": ("calls", "self_s"),
    "pwl.linear_pieces": ("calls", "self_s", "pieces"),
    "pwl.equivalent": ("calls", "self_s", "full_checks"),
    "pwl.build_arrangement": ("calls", "self_s", "cells", "hyperplanes"),
    "pwl.active_piece": ("calls", "self_s"),
    "pwl.sup_abs_over": ("calls", "self_s"),
    "lp.solve_lp": ("calls", "self_s", "infeasible", "feasible_frac"),
    "lp.simplex_standard": ("calls", "self_s"),
    "qmath.solve_square_system": ("calls", "self_s", "singular"),
    "norm.norm_exact_polyhedral": ("calls", "self_s"),
    "norm._subdivision_vertices": ("self_s",),
    "norm.vertex_lp": ("columns",),
    "norm.norm_bounds": ("self_s",),
    "norm.strong_unit_factor": ("self_s",),
    "norm._sweep_candidates": ("self_s",),
    "norm._ascent_restart": ("calls", "busy_s"),
    "norm.constraint_norm": ("calls", "self_s"),
    "norm.tuple_seminorm_value": ("calls", "self_s"),
    "free.make_element": ("calls", "self_s"),
    "free.extend_hom": ("calls", "self_s"),
}
_UNITS = {"self_s": "s", "busy_s": "s", "feasible_frac": "ratio"}
PER_LAYER = tuple(
    (f"{fn}.{stat}", _UNITS.get(stat, "count"))
    for fn, stats in _COUNTED.items()
    for stat in stats
) + (
    ("lp.pivots", "count"),
    ("trace_overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.ops", "count"),
)

# distinct decks dealt per seed (the timed loop cycles through them) and
# the decks a traced run replays
DECKS = {
    "equiv": (4, 1),
    "norm_exact": (10, 10),
    "norm_sandwich": (40, 8),
    "extend": (6, 2),
}
SETUP_REPEATS = 15
# a run stops after the op that crosses this, even inside a deck, so that
# a pathologically slow program still ends within the 180 s a run may take
HARD_STOP_S = 120.0

_SETUP_ARGV = ["eval", "--arity", "1", "--expr", "t1", "--at", "1"]


@dataclass
class Record:
    key: tuple[int, int]  # (deck, position): the same key is the same op
    op: workloads.Op
    start: float  # perf_counter at the call
    latency_s: float
    code: int | None
    out: str
    err: str


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing latfree.cli and
    answering one trivial `latfree eval`: at nominal speed, and raw.

    Each interpreter times a calibration burst after its op, on the CPU
    it ran on.  The median is scaled by the mean unit time of all the
    bursts: one burst says little about the 0.2 s of imports before it,
    but together they follow the machine's drift from run to run."""
    raw, units = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *_SETUP_ARGV],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0 or json.loads(proc.stdout)["value"] != "1":
            raise RuntimeError(f"set-up op failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stderr.strip().splitlines()[-1])
        raw.append(probe["done"] - t0)
        units.append(probe["unit_s"])
    factor = statistics.fmean(units) / calib.NOMINAL_UNIT_S
    return statistics.median(raw) / factor, statistics.median(raw)


def run_op(cli, key, op) -> Record:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # an op that raises counts as failed
        code = None
        err.write(f"raised {exc!r}")
    return Record(key, op, t0, time.perf_counter() - t0, code, out.getvalue(), err.getvalue())


def run_timed(cli, decks, seconds: float, speed: calib.Speed) -> tuple[list[Record], float]:
    """Whole decks, cycling through `decks`, until `seconds` have passed,
    with a calibration burst between ops every calib.GAP_S of op time."""
    records = []
    t0 = time.perf_counter()
    speed.burst()
    d = 0
    while time.perf_counter() - t0 < seconds:
        for i, op in enumerate(decks[d % len(decks)]):
            records.append(run_op(cli, (d % len(decks), i), op))
            speed.after_op(records[-1].latency_s)
            if time.perf_counter() - t0 > HARD_STOP_S:
                speed.burst()
                return records, time.perf_counter() - t0
        d += 1
    speed.burst()
    return records, time.perf_counter() - t0


def run_fixed(cli, decks) -> tuple[list[Record], float]:
    t0 = time.perf_counter()
    records = [run_op(cli, (d, i), op) for d, deck in enumerate(decks) for i, op in enumerate(deck)]
    return records, time.perf_counter() - t0


def judge(records) -> list[str | None]:
    """Failure reason per record, None when the op passed.

    Each distinct op is checked once; a repeat must reproduce the first
    output byte for byte and then shares its verdict.
    """
    first: dict[tuple[int, int], tuple[str, str | None]] = {}
    reasons = []
    for r in records:
        if r.code != 0:
            reason = f"exit {r.code}: {r.err.strip()[:200]}"
        elif r.key in first:
            out, verdict = first[r.key]
            reason = verdict if r.out == out else "output differs from an earlier run of the op"
        else:
            try:
                reason = checks.check(r.op, json.loads(r.out))
            except json.JSONDecodeError:
                reason = "output is not JSON"
            first[r.key] = (r.out, reason)
        reasons.append(reason)
    return reasons


def _emit(correct, attempted, failed, metrics, units, notes) -> None:
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def _failure_notes(records, reasons):
    bad = [(r, why) for r, why in zip(records, reasons) if why is not None]
    return [f"FAIL {r.op.cls} {r.op.argv[:3]}: {why}" for r, why in bad[:10]]


def end_to_end(cli, workload, seed, seconds) -> int:
    setup_s, setup_raw_s = measure_setup()
    decks = workloads.make_decks(workload, seed, DECKS[workload][0])
    run_op(cli, (0, 0), decks[0][0])  # untimed warm-up
    speed = calib.Speed()
    records, wall = run_timed(cli, decks, seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons = judge(records)
    failed = sum(why is not None for why in reasons)
    raw_ms = [r.latency_s * 1000 for r in records]
    latencies_ms = [
        ms / speed.factor(r.start, r.start + r.latency_s) for ms, r in zip(raw_ms, records)
    ]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / (sum(latencies_ms) / 1000),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "ok_frac": 1 - failed / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r.op.cls, []).append(r.latency_s * 1000)
    notes = _failure_notes(records, reasons) + [
        f"workload {workload} seed {seed}: {len(records)} ops in {wall:.2f} s "
        f"({len({r.key for r in records})} distinct), {failed} failed",
        f"raw: setup_s {setup_raw_s:.4g} ops_per_s {len(records) / (sum(raw_ms) / 1000):.4g} "
        f"op_p50_ms {statistics.median(raw_ms):.4g} "
        f"op_p90_ms {statistics.quantiles(raw_ms, n=10)[8]:.4g}; "
        f"speed factor {speed.run_factor():.4f} over {len(speed.units)} units, "
        f"calibration {sum(speed.units) / wall:.1%} of the wall",
        "class                      ops   median ms (raw)",
    ] + [
        f"  {cls:24s} {len(ms):4d} {statistics.median(ms):10.2f}"
        for cls, ms in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))
    ]
    _emit(failed == 0, len(records), failed, metrics, dict(END_TO_END), notes)
    return 0


def per_layer(cli, workload, seed) -> int:
    decks = workloads.make_decks(workload, seed, DECKS[workload][1])
    run_op(cli, (0, 0), decks[0][0])  # untimed warm-up
    plain, plain_wall = run_fixed(cli, decks)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_fixed(cli, decks)
    finally:
        tracer.uninstall()
    reasons = judge(plain)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a.code, a.out) != (b.code, b.out) and reasons[i] is None:
            reasons[i] = "traced output differs from untraced output"
    failed = sum(why is not None for why in reasons)

    counts = tracer.summary()
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = counts.get(name, 0)
    lp_calls = counts.get("lp.solve_lp.calls", 0)
    metrics["lp.solve_lp.feasible_frac"] = (
        (lp_calls - counts.get("lp.solve_lp.infeasible", 0)) / lp_calls if lp_calls else 0
    )
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.ops"] = len(traced)

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload}-{seed}.jsonl.gz")
    shares = sorted(
        ((v, k[: -len(".self_s")]) for k, v in counts.items() if k.endswith(".self_s")),
        reverse=True,
    )
    notes = _failure_notes(plain, reasons) + [
        f"workload {workload} seed {seed}: {len(plain)} ops, untraced {plain_wall:.2f} s, "
        f"traced {traced_wall:.2f} s, {failed} failed",
        "absent: " + (", ".join(tracer.absent) or "none"),
        "self time, share of traced wall:",
    ] + [f"  {name:34s} {v / traced_wall:6.1%}" for v, name in shares[:8]]
    _emit(failed == 0, len(plain), failed, metrics, dict(PER_LAYER), notes)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "latfree" / "cli.py").is_file():
        print(f"bench: no latfree source at {SRC / 'latfree'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LATFREE_SEED", None)  # reports must not depend on the caller
    from latfree import cli

    if args.trace:
        return per_layer(cli, args.workload, args.seed)
    return end_to_end(cli, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
