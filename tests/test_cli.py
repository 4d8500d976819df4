import json

import pytest

from spheremcg.cli import main
from spheremcg.harness import SUITES


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


class TestLimits:
    """Invalid limits are usage errors, rejected before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an invalid limit")
        monkeypatch.setattr("spheremcg.cli.enumerate_cosets", refuse)
        monkeypatch.setattr("spheremcg.cli.order_of", refuse)
        monkeypatch.setattr("spheremcg.cli.full_report", refuse)

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


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "order", "--n", "six", "s1")[0] == 64

    def test_seed_is_not_a_flag(self, capsys):
        assert run(capsys, "order", "--n", "6", "--seed", "7", "t")[0] == 64
