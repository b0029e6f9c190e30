"""Tests of the benchmark itself: inputs, checks, accounting and tracing.

    python3 -m pytest bench/test_bench.py -q

They import latfree from ./src, as the runner does.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import exprgen as eg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latfree import cli, eval_expr, parse  # noqa: E402

F = Fraction
WORKLOADS = sorted(workloads.DECKS)


def _random_point(rng, dim):
    return [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(dim)]


def _rich_expr(rng, dim, depth):
    """Every node kind, so that every rewrite rule gets a chance to fire."""
    if depth == 0:
        return eg.random_term(rng, dim)
    kind = rng.choice(("sup", "inf", "sum", "scale", "abs", "pos", "neg"))
    a = _rich_expr(rng, dim, depth - 1)
    if kind in ("sup", "inf"):
        return (kind, a, _rich_expr(rng, dim, depth - 1))
    if kind == "sum":
        return eg.add(a, _rich_expr(rng, dim, depth - 1))
    if kind == "scale":
        return eg.scale(F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))), a)
    return (kind, a)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return out.getvalue()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_decks_are_deterministic_per_seed(workload):
    a = workloads.make_decks(workload, 7, 2)
    b = workloads.make_decks(workload, 7, 2)
    assert [[op.argv for op in d] for d in a] == [[op.argv for op in d] for d in b]
    c = workloads.make_decks(workload, 8, 2)
    assert [[op.argv for op in d] for d in a] != [[op.argv for op in d] for d in c]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_deck_has_the_same_class_mix(workload):
    mixes = {
        tuple(sorted(collections.Counter(op.cls for op in deck).items()))
        for seed in (1, 2, 3)
        for deck in workloads.make_decks(workload, seed, 3)
    }
    assert len(mixes) == 1


# cost order measured on the seed code
COST_ORDER = {
    # ~3 ms, ~20-30 ms, ~0.3 s, ~0.5 s, ~3 s
    "equiv": ["sampled_unequal", ("rewrite_d2", "rewrite_d3"), "thin_cone", "domination", "abs_sum3"],
    # ~40 ms, ~60 ms, ~0.1 s, ~0.18 s, ~0.25 s, ~0.34 s
    "extend": ["nested_3", "nested_4", "nested_5", "nested_6", "long_sum", "nested_7"],
}


@pytest.mark.parametrize("workload", sorted(COST_ORDER))
def test_class_shares_keep_the_quantiles_inside_a_class(workload):
    order = COST_ORDER[workload]
    deck = workloads.make_decks(workload, 1, 1)[0]
    counts = collections.Counter(op.cls for op in deck)
    cum, bounds = 0, []
    for cls in order:
        names = cls if isinstance(cls, tuple) else (cls,)
        cum += sum(counts[n] for n in names)
        bounds.append(cum / len(deck))
    assert bounds[-1] == 1
    for b in bounds:
        assert abs(b - 0.5) > 0.1 and abs(b - 0.9) > 0.03


def test_printed_text_means_what_the_evaluator_computes():
    rng = random.Random(3)
    for _ in range(40):
        dim = rng.choice((2, 3))
        e = eg.rewrite(rng, _rich_expr(rng, dim, 4))
        x = _random_point(rng, dim)
        assert eval_expr(parse(eg.render(e), dim), x) == eg.evaluate(e, x)


def test_rewrites_are_identities():
    rng = random.Random(4)
    for _ in range(200):
        dim = rng.choice((2, 3))
        f = _rich_expr(rng, dim, rng.randint(1, 4))
        g = eg.rewrite(rng, f)
        for _ in range(5):
            x = _random_point(rng, dim)
            assert eg.evaluate(f, x) == eg.evaluate(g, x)


def test_thin_cones_hide_from_every_sample_point():
    rng = random.Random(5)
    grid = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]
    for k in workloads.THIN_CONE_KS * 5:
        op = workloads.equiv_thin_cone(rng, k)
        f, g = op.expect["f"], op.expect["g"]
        assert all(eg.evaluate(f, p) == eg.evaluate(g, p) for p in grid)


def test_domination_bound_holds():
    rng = random.Random(6)
    for _ in range(20):
        op = workloads.equiv_domination(rng)
        for _ in range(20):
            x = _random_point(rng, 2)
            assert eg.evaluate(op.expect["f"], x) == eg.evaluate(op.expect["g"], x)


def test_long_sums_and_deep_nesting_cost_no_recursion():
    terms = [eg.scale(i % 5 + 1, eg.var(i % 3 + 1)) for i in range(5000)]
    e = eg.add(*terms)
    for _ in range(2000):
        e = eg.absv(e)
    assert eg.evaluate(e, (1, 1, 1)) == sum(i % 5 + 1 for i in range(5000))
    assert eg.render(e).count("|") == 4000


# ---------------------------------------------------------------------------
# checks and accounting
# ---------------------------------------------------------------------------


def _records(ops):
    return [
        run.Record((0, i), op, 0.0, 0.0, 0, _cli(op.argv), "") for i, op in enumerate(ops)
    ]


def _sample_ops():
    rng = random.Random(9)
    return [
        workloads.equiv_sampled_unequal(rng),
        workloads.equiv_rewrite(rng, 2),
        workloads.equiv_thin_cone(rng, 7),
        workloads.norm_random(rng, "fvl:2"),
        workloads.norm_random(rng, "seq:inf:2"),
        workloads.norm_generator(rng, "fvl:2"),
        workloads.norm_linear(rng, "seq:inf:2"),
        workloads.norm_abs_sum("fvl:2"),
        workloads.sandwich_random(rng, "seq:2:2"),
        workloads.sandwich_embedded(rng, "seq:3/2:2"),
        workloads.extend_nested(rng, 3, "seq:1:3"),
        workloads.extend_long_sum(rng, 200, "seq:inf:3"),
    ]


@pytest.fixture(scope="module")
def sample_records():
    return _records(_sample_ops())


def test_right_outputs_pass(sample_records):
    assert run.judge(sample_records) == [None] * len(sample_records)


def _corrupt(record, edit):
    report = json.loads(record.out)
    edit(report)
    return run.Record(record.key, record.op, 0.0, 0.0, 0, json.dumps(report), "")


def _one_failure(records, index, edit):
    bad = list(records)
    bad[index] = _corrupt(records[index], edit)
    reasons = run.judge(bad)
    assert [i for i, why in enumerate(reasons) if why] == [index]
    return reasons[index]


def test_flipped_verdict_counts_as_failed(sample_records):
    def flip(report):
        report["equal"] = not report["equal"]

    _one_failure(sample_records, 0, flip)
    _one_failure(sample_records, 1, flip)


def test_moved_witness_counts_as_failed(sample_records):
    def move(report):
        report["witness"] = ["0"] * len(report["witness"])

    _one_failure(sample_records, 2, move)


@pytest.mark.parametrize("index", [3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("factor", [F(1001, 1000), F(999, 1000)])
def test_perturbed_norm_counts_as_failed(sample_records, index, factor):
    def perturb(report):
        report["certificate"]["lower"] = str(F(report["certificate"]["lower"]) * factor)

    _one_failure(sample_records, index, perturb)


@pytest.mark.parametrize("index", [3, 4, 5, 6, 7])
def test_perturbed_exact_upper_counts_as_failed(sample_records, index):
    def perturb(report):
        report["certificate"]["upper"] = str(F(report["certificate"]["upper"]) * F(1001, 1000))

    _one_failure(sample_records, index, perturb)


@pytest.mark.parametrize("index", [10, 11])
def test_wrong_extend_image_counts_as_failed(sample_records, index):
    def shift(report):
        report["image"][0] = str(F(report["image"][0]) + 1)

    _one_failure(sample_records, index, shift)


def test_nonzero_exit_and_changed_repeat_count_as_failed(sample_records):
    r = sample_records[0]
    crashed = run.Record(r.key, r.op, 0.0, 0.0, 2, "", "latfree: fault: boom")
    changed = run.Record(r.key, r.op, 0.0, 0.0, 0, r.out.replace("false", "true"), "")
    reasons = run.judge([r, crashed, changed])
    assert reasons[0] is None and reasons[1] and reasons[2]


def test_seq_inf_norm_of_an_embedded_vector_is_its_max_norm():
    op = workloads._norm_op(
        "embedded", "seq:inf:3", eg.linear([3, -5, 2]), closed=("embedded", (3, -5, 2))
    )
    assert json.loads(_cli(op.argv))["certificate"]["lower"] == "5"


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracing_wraps_every_namespace_and_restores_it():
    import latfree.cli
    import latfree.norm
    import latfree.pwl

    before = (latfree.pwl.equivalent, latfree.norm.equivalent, latfree.cli.equivalent)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = (latfree.pwl.equivalent, latfree.norm.equivalent, latfree.cli.equivalent)
        assert all(w is wrapped[0] for w in wrapped) and wrapped[0] is not before[0]
    finally:
        tracer.uninstall()
    assert (latfree.pwl.equivalent, latfree.norm.equivalent, latfree.cli.equivalent) == before


def test_tracing_refuses_recursive_walkers(monkeypatch):
    import latfree.expr

    with pytest.raises(ValueError, match="calls itself"):
        tracing.Tracer()._wrap("expr.max_var_index", latfree.expr.max_var_index)
    # a traced function that turns recursive is skipped, not fatal
    monkeypatch.setattr(latfree.expr, "parse", latfree.expr.max_var_index)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "expr.parse (recursive, not traced)" in tracer.absent


def test_missing_function_is_absent(monkeypatch):
    import latfree.norm

    monkeypatch.delattr(latfree.norm, "_subdivision_vertices")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "norm._subdivision_vertices" in tracer.absent


def test_threads_keep_their_own_span_stacks():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: None)
    worker = threading.Thread(target=inner)
    # the worker runs while the main thread's "outer" span is open
    outer = tracer._wrap("outer", lambda: (worker.start(), worker.join()))
    outer()
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent is None
    assert spans["inner"].thread != spans["outer"].thread


def test_traced_output_is_byte_identical(sample_records):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _records([r.op for r in sample_records])
    finally:
        tracer.uninstall()
    assert [r.out for r in traced] == [r.out for r in sample_records]
    counts = tracer.summary()
    assert counts["cli.main.calls"] == len(sample_records)
    assert counts["pwl.equivalent.full_checks"] >= 1
    assert counts["lp.pivots"] > 0


# ---------------------------------------------------------------------------
# speed calibration
# ---------------------------------------------------------------------------


def test_calibration_kernel_is_fixed_and_owns_no_latfree_code():
    assert calib.unit() == calib.unit()
    origins = {getattr(v, "__module__", None) or getattr(v, "__name__", "") for v in vars(calib).values()}
    assert not any(str(o).startswith("latfree") for o in origins)


def test_speed_factor_follows_the_units_near_an_op():
    speed = calib.Speed()
    slow = 2 * calib.NOMINAL_UNIT_S
    for i in range(4000):  # one unit every 10 ms for 40 s; slow from 20 s on
        speed.times.append(i * 0.01)
        speed.units.append(calib.NOMINAL_UNIT_S if i < 2000 else slow)
    assert speed.factor(5.0, 5.1) == pytest.approx(1.0)
    assert speed.factor(35.0, 36.0) == pytest.approx(2.0)
    assert speed.factor(19.995, 19.995) == pytest.approx(1.5)
    assert speed.factor(-1.0, -0.5) == pytest.approx(1.0)  # before the first unit
    assert speed.factor(50.0, 51.0) == pytest.approx(2.0)  # after the last
    assert speed.run_factor() == pytest.approx(1.5)


def test_bursts_scale_with_the_op_time_they_follow():
    speed = calib.Speed()
    speed.after_op(calib.GAP_S / 2)
    assert speed.units == []
    speed.after_op(calib.GAP_S / 2)
    short = sum(speed.units)
    assert short >= calib.GAP_S * calib.BURST_SHARE * 0.9
    speed.after_op(10 * calib.GAP_S)
    assert sum(speed.units) - short >= 10 * calib.GAP_S * calib.BURST_SHARE * 0.9


# ---------------------------------------------------------------------------
# the contract with BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DECKS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "equiv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
