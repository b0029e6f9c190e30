import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

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
            ["equiv", "--space", "fvl:3",
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
        assert cert["method"] == "strong_unit_lambda_n"
        assert cert["lambda"] is not None

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
        assert "sweep sign vectors: 536870912 exceeds the cap of 131072" in err

    def test_zero_element_is_answered_ahead_of_the_sweep_cap(self, capsys):
        code, out, err = run_main(
            ["norm", "--space", "seq:2:30", "--expr", "t1 - t1"], capsys
        )
        assert code == 0 and err == ""
        cert = json.loads(out)["certificate"]
        assert cert["lower"] == "0" == cert["upper"] and cert["lambda"] == "0"

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
        monkeypatch.setattr(cli, "run_selftest", lambda seed: fake)
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
        monkeypatch.setattr(cli, "run_selftest", lambda seed: fake)
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
            ["eval", "--arity", "1", "--expr", "t1", "--at", "1", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        """A malformed seed is a usage error where a seed is read, on --seed;
        a malformed LATFREE_SEED is not read at all."""
        argv = ["eval", "--arity", "1", "--expr", "t1", "--at", "1"]
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
    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "latfree.cli", *args],
            capture_output=True,
            text=True,
            timeout=300,
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
