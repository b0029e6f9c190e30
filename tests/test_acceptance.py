"""Ten acceptance checks, each with its stated workload and time budget.

Each check both runs the corresponding built-in suite criterion (asserting
it passes within budget) and re-pins the headline values directly, so a
regression in either the library or the suite itself fails loudly.
"""

import json
import time
from fractions import Fraction

from latfree.expr import parse
from latfree.free import generator
from latfree.norm import fvl_space, norm_certificate, seq_space
from latfree.pwl import PwlFunction, equivalent
from latfree.selftest import (
    _c1_generator_norms,
    _c2_equivalence,
    _c3_exact_norms,
    _c4_l1_agreement,
    _c5_norm_extension,
    _c6_norm_axioms,
    _c7_sandwich,
    _c8_extension_audit,
    _c9_slot_sufficiency,
    run_selftest,
)
from latfree.cli import _selftest_payload

F = Fraction
SEED = 0


def run_budgeted(fn, budget_s):
    t0 = time.perf_counter()
    passed, details = fn(SEED)
    elapsed = time.perf_counter() - t0
    assert passed, details
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeded the {budget_s}s budget"
    return details


def test_01_generator_norms_are_exactly_one():
    for n in range(1, 5):
        cert = norm_certificate(generator(fvl_space(n), 1), fvl_space(n))
        assert cert.exact and cert.lower == 1 == cert.upper
    run_budgeted(_c1_generator_norms, 10)


def test_02_equivalence_identity_and_monte_carlo():
    a = PwlFunction.from_expr(parse(r"t1 + (t2 \/ t3)", 3), 3)
    b = PwlFunction.from_expr(parse(r"(t1 + t2) \/ (t1 + t3)", 3), 3)
    eq, _ = equivalent(a, b)
    assert eq
    details = run_budgeted(_c2_equivalence, 30)
    assert "0 contradictions" in details


def test_02_negative_seed_passes():
    passed, details = _c2_equivalence(-1)
    assert passed, details


def test_03_exact_norm_table():
    expectations = [
        (r"t1 \/ t2", 2, F(2)),
        (r"t1 \/ t2 \/ t3", 3, F(3)),
        ("|t1| + |t2|", 2, F(2)),
        ("t1 - t2", 2, F(2)),
        ("|t1|", 1, F(1)),
    ]
    for text, n, expected in expectations:
        f = PwlFunction.from_expr(parse(text, n), n)
        cert = norm_certificate(f, fvl_space(n))
        assert cert.exact and cert.lower == expected == cert.upper
    run_budgeted(_c3_exact_norms, 50)


def test_04_l1_and_fvl_paths_agree():
    details = run_budgeted(_c4_l1_agreement, 300)
    assert "0 fvl/seq:1 mismatches" in details


def test_05_embedded_vectors_recover_their_norms():
    run_budgeted(_c5_norm_extension, 60)


def test_06_lattice_norm_axioms():
    run_budgeted(_c6_norm_axioms, 120)


def test_07_sandwich_soundness():
    run_budgeted(_c7_sandwich, 120)


def test_08_extension_contractivity_and_well_definedness():
    run_budgeted(_c8_extension_audit, 120)


def test_09_extra_slot_never_improves():
    run_budgeted(_c9_slot_sufficiency, 60)


def test_10_seeded_rerun_is_byte_identical():
    first = run_selftest(seed=SEED)
    assert first.passed
    again = run_selftest(seed=SEED)
    assert json.dumps(_selftest_payload(again, timing=False)) == json.dumps(
        _selftest_payload(first, timing=False)
    )
