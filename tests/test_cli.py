import json

import pytest

from spheremcg.cli import main
from spheremcg.harness import SUITES
from spheremcg.words import T_LETTER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_parity_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "7", "--suite", "lemma-y")
        assert code == 64
        assert "does not apply" in err

    def test_free_suite_needs_no_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "n4")
        assert code == 0
        assert out.strip().endswith("(pass=8)")

    def test_full_run_reports_honest_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6")
        assert code == 1
        assert "overall: fail" in out

    def test_single_suite_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "presentation")
        assert code == 0
        assert "overall: pass" in out

    def test_machine_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--suite", "odd",
                           "--machine")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"version", "checks"}

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "sigma2", "--machine",
                           "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_out_overwrites_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("stale")
        code, _, _ = run(capsys, "verify", "--suite", "n4", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["version"]
        assert not list(tmp_path.glob(".report-*"))

    @pytest.mark.parametrize("where", ("missing-dir", "directory"))
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        # a missing directory fails before the temporary file exists; a
        # directory as the target fails after it, which must remove it
        target = tmp_path / "dir"
        if where == "missing-dir":
            target = target / "report.json"
        else:
            target.mkdir()
        code, out, err = run(capsys, "verify", "--suite", "n4", "--out", str(target))
        assert code == 64
        assert out == ""
        assert err.startswith("error: cannot write --out")
        assert not list(tmp_path.rglob(".report-*"))

    def test_missing_n_for_scoped_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "prop22")
        assert code == 64
        assert "--n is required" in err

    def test_unknown_suite_token(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "6", "--suite", "lemma-q")
        assert code == 64

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_n_outside_the_suite_range_is_usage_error(self, capsys, suite):
        runner, applies = SUITES[suite]
        if applies is None:
            assert run(capsys, "verify", "--suite", suite, "--n", "6")[0] == 64
            return
        n = max(n for n in range(2, 12) if not applies(n))
        assert run(capsys, "verify", "--suite", suite, "--n", str(n))[0] == 64
        with pytest.raises(ValueError):
            runner(n)

    def test_flavor_is_not_a_verify_flag(self, capsys):
        assert run(capsys, "verify", "--n", "6", "--flavor", "oriented")[0] == 64


class TestEval:
    def test_equal(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "6", "t a0 t", "a0")
        assert code == 0
        assert out.splitlines()[0] == "equal: yes"
        assert out.splitlines()[1].startswith("perm:")
        assert out.splitlines()[2].startswith("psi:")

    def test_not_equal(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "6", "s1", "s2")
        assert code == 1
        assert out.splitlines()[0] == "equal: no"

    def test_free_reduction_identity(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "6", "a2", "a0 S5 s4")
        assert code == 0

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "6", "s9", "s1")
        assert code == 65
        assert "parse error" in err

    def test_n_required(self, capsys):
        code, _, _ = run(capsys, "eval", "s1", "s1")
        assert code == 64

    def test_quotients_decide_without_evaluating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the word was evaluated")
        monkeypatch.setattr("spheremcg.action._evaluate", refuse)
        code, out, _ = run(capsys, "eval", "--n", "6", "s1^100000", "s1")
        assert code == 1
        assert out.splitlines() == ["equal: no", "perm: id vs (1 2)",
                                    "psi: (0,0) vs (1,0)"]

    def test_guard_trip_is_inconclusive(self, capsys):
        # (s1 S2)^30 has the quotient images of the empty word, so only
        # the free group can decide, and its images outgrow the guard
        code, out, _ = run(capsys, "eval", "--n", "12", " ".join(["s1 S2"] * 30), "")
        assert code == 2
        assert out.startswith("inconclusive: automorphism images exceed")


class TestOrder:
    def test_even_reflected_rotation(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "6", "t a0")
        assert (code, out.strip()) == (0, "6")

    def test_odd_reflected_rotation(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "5", "t a0")
        assert (code, out.strip()) == (0, "10")

    def test_infinite_order(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "6", "s1")
        assert (code, out.strip()) == (2, "exceeds cap 24")

    def test_explicit_cap(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "6", "--order-cap", "5",
                           "t a0")
        assert (code, out.strip()) == (2, "exceeds cap 5")

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "order", "--n", "6", "nope")
        assert code == 65

    def test_guard_trip_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "12", "s1 S2")
        assert code == 2
        assert out.startswith("inconclusive: automorphism images exceed")


class TestEnumerate:
    def test_two_generator_certificate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--subgroup", "a,b")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index 1"
        assert lines[1].startswith("stats: defined=")

    def test_overflow(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6",
                           "--max-cosets", "50")
        assert code == 2
        assert out.splitlines()[0] == "OVERFLOW"

    def test_subgroup_parse_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--subgroup", "a,q9")
        assert code == 65

    def test_time_limit_is_read(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--subgroup", "t s1, t a0",
                           "--max-time", "30")
        assert (code, out.splitlines()[0]) == (0, "index 1")

    def test_alphabet_mismatch_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--flavor",
                         "oriented", "--subgroup", "t s1")
        assert code == 64


class TestDump:
    def test_header_and_named_words(self, capsys):
        code, out, _ = run(capsys, "dump", "--n", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=6 flavor=extended"
        assert "a = s3 t s1 s2 s3 s4 s5 S3" in lines

    def test_small_n_skips_undefined_names(self, capsys):
        code, out, _ = run(capsys, "dump", "--n", "3")
        assert code == 0
        assert not any(line.startswith("b =") for line in out.splitlines())


LIMIT_FLAGS = ("--max-cosets", "--max-time", "--order-cap")
# the limit flags each subcommand reads; every other one is a usage error
READ_LIMITS = {
    "verify": LIMIT_FLAGS,
    "order": ("--order-cap",),
    "enumerate": ("--max-cosets", "--max-time"),
    "eval": (),
    "dump": (),
}
POSITIONALS = {"order": ("t a0",), "eval": ("s1", "s1")}


class TestLimits:
    """Invalid limits are usage errors, rejected before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an invalid limit")
        monkeypatch.setattr("spheremcg.cli.enumerate_cosets", refuse)
        monkeypatch.setattr("spheremcg.cli.order_of", refuse)
        monkeypatch.setattr("spheremcg.cli.full_report", refuse)
        monkeypatch.setattr("spheremcg.cli.equal_in_group", refuse)
        monkeypatch.setattr("spheremcg.cli.build_presentation", refuse)

    @pytest.mark.parametrize("value", ("0", "-1"))
    def test_max_cosets_below_one(self, capsys, no_work, value):
        code, _, err = run(capsys, "enumerate", "--n", "6", "--subgroup", "a,b",
                           "--max-cosets", value)
        assert code == 64
        assert "--max-cosets" in err

    @pytest.mark.parametrize("value", ("-1", "0", "nan", "inf"))
    def test_max_time_not_finite_positive(self, capsys, no_work, value):
        code, _, err = run(capsys, "verify", "--n", "6", "--max-time", value)
        assert code == 64
        assert "--max-time" in err

    @pytest.mark.parametrize("value", ("-3", "0"))
    def test_order_cap_below_one(self, capsys, no_work, value):
        code, _, err = run(capsys, "order", "--n", "6", "--order-cap", value,
                           "t a0")
        assert code == 64
        assert "--order-cap" in err

    def test_out_without_a_directory_is_refused_first(self, capsys, no_work, tmp_path):
        code, out, err = run(capsys, "verify", "--n", "6", "--suite", "all",
                             "--out", str(tmp_path / "missing-dir" / "r.json"))
        assert code == 64
        assert out == ""
        assert err.startswith("error: cannot write --out")

    @pytest.mark.parametrize("command", READ_LIMITS)
    def test_n_beyond_the_reflection_letter(self, capsys, no_work, command):
        # from this n on, the twist token s<T_LETTER> would parse as t
        code, out, err = run(capsys, command, "--n", str(T_LETTER + 1),
                             *POSITIONALS.get(command, ()))
        assert code == 64
        assert out == ""
        assert f"need n <= {T_LETTER}" in err

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in READ_LIMITS for flag in LIMIT_FLAGS
        if flag not in READ_LIMITS[command]])
    def test_limit_flag_not_read_is_usage_error(self, capsys, no_work, command, flag):
        code, out, err = run(capsys, command, "--n", "5", flag, "1",
                             *POSITIONALS.get(command, ()))
        assert code == 64
        assert out == ""
        assert flag in err


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "order", "--n", "six", "s1")[0] == 64

    def test_seed_is_not_a_flag(self, capsys):
        assert run(capsys, "order", "--n", "6", "--seed", "7", "t")[0] == 64
