import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import latfree
import latfree.selftest
from latfree import cli


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_running_example(self, capsys):
        code, out, _ = run_main(
            ["eval", "--arity", "3", "--expr", r"t1 /\ t2 + t1 \/ (2*t3)",
             "--at", "1,2,3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "eval"
        assert report["value"] == "7"

    def test_rational_output(self, capsys):
        code, out, _ = run_main(
            ["eval", "--arity", "1", "--expr", "1/3*t1", "--at", "1/2"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/6"

    def test_table_format(self, capsys):
        code, out, _ = run_main(
            ["eval", "--arity", "1", "--expr", "t1", "--at", "5",
             "--format", "table"],
            capsys,
        )
        assert code == 0
        assert "value" in out and "5" in out


class TestEquiv:
    def test_distribution_identity(self, capsys):
        code, out, _ = run_main(
            ["equiv", "--arity", "3",
             "--expr", r"t1 + (t2 \/ t3)",
             "--expr", r"(t1 + t2) \/ (t1 + t3)"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["equal"] is True
        assert report["witness"] is None

    def test_unequal_pair_comes_with_witness(self, capsys):
        code, out, _ = run_main(
            ["equiv", "--arity", "2", "--expr", r"t1 \/ t2", "--expr", r"t1 /\ t2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["equal"] is False
        assert report["witness"] is not None

    def test_needs_two_expressions(self, capsys):
        code, _, err = run_main(
            ["equiv", "--arity", "2", "--expr", "t1"], capsys
        )
        assert code == 1
        assert "two" in err


class TestNorm:
    def test_contract_example(self, capsys):
        code, out, _ = run_main(
            ["norm", "--space", "fvl:2", "--expr", r"t1 \/ t2"], capsys
        )
        assert code == 0
        report = json.loads(out)
        cert = report["certificate"]
        assert cert["lower"] == "2"
        assert cert["upper"] == "2"
        assert cert["exact"] is True
        assert sorted(cert["witness"]) == [["0", "1"], ["1", "0"]]
        assert cert["method"] == "exact_match"
        assert report["space"] == "fvl:2"

    def test_euclidean_bounds(self, capsys):
        code, out, _ = run_main(
            ["norm", "--space", "seq:2:2", "--expr", "t1 + t2",
             "--restarts", "4", "--seed", "1"],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["method"] == "ray_lp_dual"
        assert "lambda" not in cert
        # the LP's duals (1, 1) on rows e1 and e2 give 2, while the norm
        # is sqrt(2)
        assert cert["upper"] == "2"

    @pytest.mark.parametrize(
        "space, expr, upper",
        [
            # |2*t1 \/ t2| <= 2|t1| + |t2|; the unit factor 2 gave 4
            ("seq:2:2", r"2*t1 \/ t2", "3"),
            # a linear element's norm is its vector's norm; the unit factor
            # 1 times the two rows' norms gave 2
            ("seq:7/3:2", "1/1000000000000*t1+t2", "1000000000001/1000000000000"),
        ],
    )
    def test_upper_bound_is_the_ray_lp(self, capsys, space, expr, upper):
        code, out, _ = run_main(["norm", "--space", space, "--expr", expr], capsys)
        assert code == 0
        assert json.loads(out)["certificate"]["upper"] == upper

    def test_seeded_sandwich_is_pinned(self, capsys):
        # the ascent sums its floats from the left, so every Python gives
        # these bounds; a compensated sum (Python 3.12+'s builtin) climbs
        # to another witness and a lower bound above 2
        code, out, _ = run_main(
            ["norm", "--space", "seq:2:3", "--expr", r"(-2*t3) /\ (1*t2)",
             "--restarts", "4", "--seed", "1"],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        # t1 is unread, so the LP has rows 2 and 3 only, with duals 2 and 1
        assert (cert["lower"], cert["upper"]) == ("2", "3")

    def test_ascent_sandwich_is_pinned(self, capsys):
        # the lower bound is the exact value of restart 2's three points,
        # rationalized: a float that drifts anywhere in the climb moves it
        code, out, _ = run_main(
            ["norm", "--space", "seq:2:3", "--expr", r"(1*t3) /\ (2*t2)",
             "--restarts", "4", "--seed", "1"],
            capsys,
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["lower"] == (
            "1454972970351193044403439560655110144/668791157657401406599464064000262229"
        )
        assert cert["witness"][0] == ["-130690/890289", "-148183/266398", "32727/927949"]
        assert (len(cert["witness"]), cert["upper"]) == (3, "3")

    @pytest.mark.parametrize(
        "space,expr",
        [
            ("seq:2:2", "1" + "0" * 400 + "*t2"),
            ("seq:2:2", r"t1 \/ 1" + "0" * 200 + "*t2"),
            ("seq:3/2:2", r"t1 \/ 1" + "0" * 200 + "*t2"),
            # the ascent raises budgets to the power q = 1000
            ("seq:1000/999:2", r"t1 \/ 2*t2 - t1"),
        ],
    )
    def test_values_beyond_float_range(self, capsys, space, expr):
        code, out, _ = run_main(["norm", "--space", space, "--expr", expr], capsys)
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert Fraction(cert["lower"]) <= Fraction(cert["upper"])

    def test_timing_only_when_asked(self, capsys):
        code, out, _ = run_main(
            ["norm", "--space", "fvl:1", "--expr", "t1"], capsys
        )
        assert code == 0 and "timing" not in json.loads(out)
        code, out, _ = run_main(
            ["norm", "--space", "fvl:1", "--expr", "t1", "--timing"], capsys
        )
        assert code == 0 and "timing" in json.loads(out)


class TestExtend:
    def test_join_of_generators(self, capsys):
        code, out, _ = run_main(
            ["extend", "--space", "fvl:2", "--target", "seq:inf:2",
             "--expr", r"t1 \/ t2",
             "--vector", "1,0", "--vector", "0,1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["image"] == ["1", "1"]

    def test_map_scale_bounds_the_operator_norm(self, capsys):
        code, out, _ = run_main(
            ["extend", "--space", "seq:inf:2", "--target", "seq:1:1",
             "--expr", "t1", "--vector", "1", "--vector", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["map_scale"] == "2"

    def test_image_count_must_match(self, capsys):
        code, _, err = run_main(
            ["extend", "--space", "fvl:2", "--target", "seq:1:2",
             "--expr", "t1", "--vector", "1,0"],
            capsys,
        )
        assert code == 1


class TestAudit:
    def test_passing_audit(self, capsys):
        code, out, _ = run_main(
            ["audit", "--space", "fvl:2", "--expr", r"t1 \/ t2"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["audit"]["passed"] is True
        assert report["certificate"]["lower"] == "2"


class TestExitCodes:
    def test_syntax_error_is_usage(self, capsys):
        code, _, err = run_main(
            ["eval", "--arity", "1", "--expr", "t1 +", "--at", "1"], capsys
        )
        assert code == 1
        assert "error" in err

    def test_bad_space_is_usage(self, capsys):
        code, _, _ = run_main(["norm", "--space", "seq:0:2", "--expr", "t1"], capsys)
        assert code == 1
        # an exponent denominator above 1000 is refused, not computed
        code, _, err = run_main(
            ["norm", "--space", "seq:1.000001:2", "--expr", "t1"], capsys
        )
        assert code == 1
        assert "latfree: error" in err and "Traceback" not in err

    def test_arity_violation_is_usage(self, capsys):
        code, _, _ = run_main(["norm", "--space", "fvl:1", "--expr", "t2"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--arity", "1", "--expr", "t1", "--at", "1", "--seed", "1"],
            ["equiv", "--arity", "1", "--expr", "t1", "--expr", "t1", "--seed", "1"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:1",
             "--expr", "t1", "--vector", "1", "--seed", "1"],
            ["equiv", "--arity", "1", "--expr", "t1", "--expr", "t1",
             "--space", "fvl:1"],
        ],
        ids=["eval-seed", "equiv-seed", "extend-seed", "equiv-space"],
    )
    def test_flags_a_subcommand_does_not_read_are_unrecognized(self, capsys, argv):
        # equality and extension read no seed, and equiv's arity is --arity
        code, out, err = run_main(argv, capsys)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--space", "fvl:100000", "--expr", "t1"],
            ["norm", "--space", "seq:2:33", "--expr", "t1 - t1"],
            ["audit", "--space", "fvl:33", "--expr", "t1"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:33",
             "--expr", "t1", "--vector", "1"],
            ["equiv", "--arity", "1000000000", "--expr", "t1", "--expr", "t1"],
            ["eval", "--arity", "33", "--expr", "t1", "--at", "1"],
        ],
        ids=["norm", "norm-zero", "audit", "extend-target", "equiv", "eval"],
    )
    def test_dimension_and_arity_above_the_cap_exit_four(self, capsys, argv):
        # refused before a vector of that length is built
        start = time.perf_counter()
        code, out, err = run_main(argv, capsys)
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert "exceeds the cap of 32" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--arity", "2", "--expr", "t1", "--at", "1,1/0"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:2",
             "--expr", "t1", "--vector", "1/0,1"],
        ],
        ids=["eval", "extend"],
    )
    def test_a_bad_vector_entry_is_named(self, capsys, argv):
        code, out, err = run_main(argv, capsys)
        assert code == 1 and out == ""
        assert "latfree: error: entry '1/0' of " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--arity", "3", "--expr", "t1 + 10*t2", "--at", "1,,2"],
            ["eval", "--arity", "1", "--expr", "t1", "--at", "1/3,"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:2",
             "--expr", "t1", "--vector", ",1"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:2",
             "--expr", "t1", "--vector", "1, ,2"],
        ],
        ids=["eval-inner", "eval-trailing", "extend-leading", "extend-blank"],
    )
    def test_an_empty_vector_entry_is_named(self, capsys, argv):
        code, out, err = run_main(argv, capsys)
        assert code == 1 and out == ""
        assert f"latfree: error: entry '' of {argv[-1]!r} is not a rational" in err

    @pytest.mark.parametrize("arity", [24, 32])
    def test_ray_work_above_the_cap_exits_four(self, capsys, arity):
        # few enough subsets, but each is an elimination of arity - 1 rows
        subsets = math.comb(arity + 3, arity - 1)
        start = time.perf_counter()
        code, out, err = run_main(
            ["equiv", "--arity", str(arity), "--expr", r"t1 \/ t2 \/ t3",
             "--expr", r"t3 \/ t2 \/ t1"], capsys,
        )
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert f"ray work: {subsets * arity**2} exceeds the cap of 3750000" in err

    def test_ray_work_at_arity_20_is_answered(self, capsys):
        code, out, _ = run_main(
            ["equiv", "--arity", "20", "--expr", r"t1 \/ t2 \/ t3",
             "--expr", r"t3 \/ t2 \/ t1"], capsys,
        )
        assert code == 0 and json.loads(out)["equal"] is True

    def test_capacity_cap_exits_four(self, capsys):
        # six 3-way joins with distinct weights have 3^6 = 729 pieces
        joins = " + ".join(
            rf"({2**i}*t1 \/ {2**i}*t2 \/ {2**i}*t3)" for i in range(6)
        )
        code, _, err = run_main(["norm", "--space", "fvl:3", "--expr", joins], capsys)
        assert code == 4
        assert "candidate pieces: 729 exceeds the cap of 256" in err

    def test_sweep_sign_vector_cap_exits_four(self, capsys):
        # 2^29 sign vectors would take days; the cap refuses them up front
        start = time.perf_counter()
        code, out, err = run_main(["norm", "--space", "seq:2:30", "--expr", "t1"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 4 and out == ""
        assert "sign vectors: 536870912 exceeds the cap of 131072" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["norm", "--space", "seq:inf:20", "--expr", "t1"],
             f"ray subsets: {math.comb(2**19 + 20, 19)} exceeds the cap of 150000"),
            (["audit", "--space", "seq:inf:32", "--expr", "t1"],
             f"ray subsets: {math.comb(2**31 + 32, 31)} exceeds the cap of 150000"),
            (["extend", "--space", "seq:inf:24", "--target", "seq:1:1", "--expr", "t1",
              *["--vector", "1"] * 24],
             "sign vectors: 8388608 exceeds the cap of 131072"),
        ],
        ids=["norm", "audit", "extend"],
    )
    def test_seq_inf_work_is_refused_before_it_runs(self, capsys, argv, message):
        # 2^(d-1) budget directions or sign vectors are never built
        start = time.perf_counter()
        code, out, err = run_main(argv, capsys)
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert message in err

    def test_zero_element_is_answered_ahead_of_the_sweep_cap(self, capsys):
        code, out, err = run_main(
            ["norm", "--space", "seq:2:30", "--expr", "t1 - t1"], capsys
        )
        assert code == 0 and err == ""
        cert = json.loads(out)["certificate"]
        assert cert["lower"] == "0" == cert["upper"]
        assert cert["method"] == "ray_lp_dual"

    @pytest.mark.parametrize("command", ["norm", "audit"])
    @pytest.mark.parametrize("space", ["fvl:2", "seq:1:2", "seq:inf:2", "seq:2:2"])
    @pytest.mark.parametrize(
        "settings", [["--restarts", "-3"], ["--restarts", "-1"]]
    )
    def test_invalid_search_settings_are_usage(self, capsys, command, space, settings):
        code, out, err = run_main(
            [command, "--space", space, "--expr", "t1 - t2"] + settings, capsys
        )
        assert code == 1 and out == ""
        assert "latfree: error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "audit"])
    @pytest.mark.parametrize("space", ["fvl:2", "seq:1:2", "seq:inf:2", "seq:2:2"])
    def test_restarts_above_the_cap_exit_four(self, capsys, command, space):
        # the cap refuses 10^9 restarts before any norm work, on every space
        start = time.perf_counter()
        code, out, err = run_main(
            [command, "--space", space, "--expr", "t1 - t2", "--restarts", "1000000000"],
            capsys,
        )
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert "ascent restarts: 1000000000 exceeds the cap of 1024" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--arity", "1", "--expr", "t1", "--at", "1"],
            ["equiv", "--arity", "1", "--expr", "t1", "--expr", "t1"],
            ["extend", "--space", "fvl:1", "--target", "seq:1:1",
             "--expr", "t1", "--vector", "1"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("flag", [["--restarts", "2"], ["--max-denominator", "5"]])
    def test_search_flags_only_on_norm_and_audit(self, capsys, argv, flag):
        code, out, err = run_main(argv + flag, capsys)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "audit"])
    def test_max_denominator_is_unrecognized(self, capsys, command):
        code, out, err = run_main(
            [command, "--space", "seq:2:2", "--expr", "t1", "--max-denominator", "5"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --max-denominator 5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--arity", "2", "--at", "1,2"],
            ["norm", "--space", "fvl:2"],
            ["extend", "--space", "fvl:2", "--target", "seq:1:1",
             "--vector", "1", "--vector", "1"],
            ["audit", "--space", "fvl:2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_expr_subcommands_refuse_two(self, capsys, argv):
        code, out, err = run_main(
            argv + ["--expr", "t1", "--expr", r"t1 \/ t2"], capsys
        )
        assert code == 1 and out == ""
        assert f"latfree: error: {argv[0]} needs exactly one --expr" in err

    def test_missing_subcommand_is_usage(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_failing_selftest_exits_three(self, capsys, monkeypatch):
        from latfree.selftest import CriterionResult, SelftestReport

        fake = SelftestReport(
            seed=0,
            results=(
                CriterionResult(
                    index=1, name="probe", passed=False, details="boom", elapsed=0.0
                ),
            ),
        )
        monkeypatch.setattr(latfree.selftest, "run_selftest", lambda seed: fake)
        code, out, _ = run_main(["selftest", "--format", "json"], capsys)
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_passing_selftest_exits_zero(self, capsys, monkeypatch):
        from latfree.selftest import CriterionResult, SelftestReport

        fake = SelftestReport(
            seed=0,
            results=(
                CriterionResult(
                    index=1, name="probe", passed=True, details="ok", elapsed=0.0
                ),
            ),
        )
        monkeypatch.setattr(latfree.selftest, "run_selftest", lambda seed: fake)
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 0
        assert "PASS" in out


class TestDeepInput:
    LONG_SUM = " + ".join(["t1"] * 3000)

    def test_eval_of_a_3000_term_sum(self, capsys):
        code, out, _ = run_main(
            ["eval", "--arity", "1", "--expr", self.LONG_SUM, "--at", "1/3"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == "1000"

    def test_equiv_of_a_3000_term_sum(self, capsys):
        code, out, _ = run_main(
            ["equiv", "--arity", "1", "--expr", self.LONG_SUM, "--expr", "3000*t1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_600_nested_parentheses_are_a_usage_error(self, capsys):
        text = "(" * 600 + "t1" + ")" * 600
        code, _, err = run_main(
            ["eval", "--arity", "1", "--expr", text, "--at", "1"], capsys
        )
        assert code == 1
        assert err.startswith("latfree: error: nesting deeper than 100 levels")
        assert "Traceback" not in err


class TestSeedHandling:
    def test_env_fallback(self, capsys, monkeypatch):
        """Without --seed the seed falls back to 0, never to LATFREE_SEED."""
        argv = ["norm", "--space", "seq:2:2", "--expr", r"t1 \/ t2", "--restarts", "4"]
        monkeypatch.delenv("LATFREE_SEED", raising=False)
        code, plain, _ = run_main(argv, capsys)
        monkeypatch.setenv("LATFREE_SEED", "99")
        code_env, with_env, _ = run_main(argv, capsys)
        assert code == 0 == code_env
        assert with_env == plain
        assert json.loads(plain)["seed"] == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATFREE_SEED", "99")
        code, out, _ = run_main(
            ["norm", "--space", "fvl:1", "--expr", "t1", "--seed", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        """A malformed seed is a usage error where a seed is read, on --seed;
        a malformed LATFREE_SEED is not read at all."""
        argv = ["norm", "--space", "fvl:1", "--expr", "t1"]
        monkeypatch.setenv("LATFREE_SEED", "not-a-number")
        code, out, err = run_main(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["seed"] == 0
        code, out, err = run_main(argv + ["--seed", "not-a-number"], capsys)
        assert code == 1 and out == ""
        assert "--seed: invalid int value" in err and "Traceback" not in err


class TestOutFile(object):
    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["norm", "--space", "fvl:1", "--expr", "t1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["certificate"]["lower"] == "1"

    def test_unopenable_path_is_usage(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run_main(
            ["eval", "--arity", "1", "--expr", "t1", "--at", "1",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("latfree: error: ") and "Traceback" not in err
        assert not out_path.parent.exists()


class TestSubprocess:
    def _run(self, args, env=None):
        return subprocess.run(
            [sys.executable, "-m", "latfree.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    def test_byte_identical_reports(self):
        args = ["norm", "--space", "seq:2:2", "--expr", r"t1 \/ 2*t2",
                "--restarts", "4", "--seed", "11"]
        first = self._run(args)
        second = self._run(args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_entry_point_help(self):
        res = self._run(["--help"])
        assert res.returncode == 0
        assert "eval" in res.stdout and "selftest" in res.stdout

    def test_help_is_wrapped_at_78_columns_whatever_the_terminal(self):
        env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
        plain = self._run(["norm", "--help"], env=env)
        narrow = self._run(["norm", "--help"], env={**env, "COLUMNS": "30"})
        assert plain.returncode == 0 and plain.stdout == narrow.stdout
        assert max(map(len, plain.stdout.splitlines())) <= 78


class TestImports:
    PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("latfree."))
import latfree
stages = {"package": loaded()}
from latfree import cli
stages["cli"] = loaded()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["eval", "--arity", "2", "--expr", "|t1| + t2", "--at", "1,2"]))
    codes.append(cli.main(["equiv", "--arity", "2", "--expr", "|t1| + t2", "--expr", "t2 + |t1|"]))
    stages["eval+equiv"] = loaded()
    codes.append(cli.main(["norm", "--space", "fvl:2", "--expr", "|t1| + t2"]))
stages["norm"] = loaded()
print(json.dumps({"codes": codes, "stages": stages}))
"""

    def test_each_subcommand_imports_only_what_it_runs(self):
        res = subprocess.run(
            [sys.executable, "-c", self.PROBE], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        probe = json.loads(res.stdout)
        assert probe["codes"] == [0, 0, 0]
        stages = probe["stages"]
        assert stages["package"] == []
        heavy = {
            f"latfree.{m}" for m in ("norm", "pnorm", "free", "selftest", "sampling", "lp")
        }
        for stage in ("cli", "eval+equiv"):
            assert not heavy & set(stages[stage]), stage
        assert "latfree.norm" in stages["norm"]

    def test_no_command_loads_dataclasses_typing_or_shutil(self):
        # -S keeps the modules that site's .pth files preload out of the
        # check; selftest is left out, as its criterion c2 imports numpy
        probe = """
import contextlib, io, json, sys
from latfree import cli
argvs = [["eval", "--arity", "2", "--expr", "|t1| + t2", "--at", "1,2"],
         ["equiv", "--arity", "2", "--expr", "|t1| + t2", "--expr", "t2 + |t1|"],
         ["extend", "--space", "fvl:2", "--target", "seq:inf:2", "--expr", "|t1| + t2",
          "--vector", "1,0", "--vector", "0,1"],
         ["norm", "--space", "seq:2:2", "--expr", "|t1| + t2"],
         ["audit", "--space", "fvl:2", "--expr", "|t1| + t2"]]
stages = {}
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    watched = {"dataclasses", "inspect", "typing", "shutil", "latfree.norm", "latfree.lp"}
    stages[argv[0]] = [code, sorted(watched & set(sys.modules))]
print(json.dumps(stages))
"""
        src = Path(latfree.__file__).resolve().parent.parent
        res = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == {
            "eval": [0, []],
            "equiv": [0, []],
            "extend": [0, []],
            "norm": [0, ["latfree.lp", "latfree.norm"]],
            "audit": [0, ["latfree.lp", "latfree.norm"]],
        }

    def test_public_names_load_on_first_use(self):
        for name in latfree.__all__:
            assert getattr(latfree, name) is not None, name
        namespace = {}
        exec("from latfree import *", namespace)
        assert set(latfree.__all__) <= set(namespace)
        assert set(latfree.__all__) <= set(dir(latfree))
        assert latfree.norm_certificate is latfree.norm.norm_certificate
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            latfree.no_such_name
        from latfree import norm

        assert norm.__name__ == "latfree.norm"
