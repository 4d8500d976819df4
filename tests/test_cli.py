import json
import os
import pathlib
import subprocess
import sys

import pytest

from spheremcg import action
from spheremcg.cli import main
from spheremcg.harness import SUITES
from spheremcg.presentation import NAMES, names_at
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

    @pytest.mark.parametrize("existing_mode", (None, 0o600, 0o640))
    def test_out_mode_matches_a_plain_write(self, capsys, tmp_path, existing_mode):
        # open(path, "w") gives a new file 0666 less the umask and keeps
        # an existing file's mode
        plain, target = tmp_path / "plain.json", tmp_path / "report.json"
        for path in (plain, target) if existing_mode is not None else ():
            path.write_text("stale")
            path.chmod(existing_mode)
        with open(plain, "w") as fh:
            fh.write("{}")
        assert run(capsys, "verify", "--suite", "n4", "--out", str(target))[0] == 0
        assert target.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("where", ("missing-dir", "directory"))
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        # a missing directory and a directory as the target both fail
        # before the temporary file exists
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

    def test_failed_write_keeps_the_old_report(self, capsys, tmp_path, monkeypatch):
        # a write that fails past the pre-checks, here a full disk at the
        # rename, removes its temporary file and leaves the target alone
        target = tmp_path / "r.json"
        target.write_bytes(b"old report\n")

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        code, out, err = run(capsys, "verify", "--suite", "sigma2", "--out", str(target))
        assert (code, out) == (64, "")
        assert err == "error: cannot write --out: [Errno 28] No space left on device\n"
        assert not list(tmp_path.glob(".report-*"))
        assert target.read_bytes() == b"old report\n"

    def test_failed_cleanup_keeps_the_failed_write_message(self, capsys, tmp_path,
                                                           monkeypatch):
        # the temporary file cannot be removed either: the write's own
        # error is reported, and the target is still left alone
        target = tmp_path / "r.json"
        target.write_bytes(b"old report\n")

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        def busy(path):
            raise OSError(16, "Device or resource busy")

        monkeypatch.setattr(os, "replace", no_space)
        monkeypatch.setattr(os, "unlink", busy)
        code, out, err = run(capsys, "verify", "--suite", "sigma2", "--out", str(target))
        assert (code, out) == (64, "")
        assert err == "error: cannot write --out: [Errno 28] No space left on device\n"
        assert target.read_bytes() == b"old report\n"

    def test_interrupted_report_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # the temporary file is reserved before the report is built, and
        # removed when building it fails, however it fails
        target = tmp_path / "r.json"
        target.write_bytes(b"old report\n")

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("spheremcg.cli.full_report", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--suite", "sigma2", "--out", str(target)])
        assert not list(tmp_path.glob(".report-*"))
        assert target.read_bytes() == b"old report\n"

    def test_missing_n_for_scoped_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "prop22")
        assert code == 64
        assert "--n is required" in err

    def test_missing_n_for_all_suites(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "all")
        assert code == 64
        assert "--n is required for --suite all" in err

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

    # str.isdigit passes superscript digits, which int() refuses, and
    # int() reads every Unicode decimal digit, so s١ would be s1
    @pytest.mark.parametrize("expr", ["s²", "g²", "d³", "s١", "s1^١", "s1^" + "9" * 5000],
                             ids=["s²", "g²", "d³", "s١", "s1^١", "s1^(5000 digits)"])
    def test_index_or_power_outside_ascii_digits_is_parse_error(self, capsys, expr):
        code, out, err = run(capsys, "eval", "--n", "6", expr, "s1")
        assert (code, out) == (65, "")
        assert err.startswith("parse error: ")

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


class TestLargePunctureCounts:
    # at n = 578 the extended relators first hold more letters than the
    # default guard, so every command that would build the presentation
    # is refused before its first relator
    @pytest.mark.parametrize("n", ["578", "5000"])
    @pytest.mark.parametrize("argv", [("eval", "s1 s1", "S1 S1"), ("order", "s1"),
                                      ("enumerate",), ("dump",),
                                      ("verify", "--suite", "presentation")],
                             ids=["eval", "order", "enumerate", "dump", "verify"])
    def test_refused_unbuilt(self, capsys, monkeypatch, argv, n):
        def refuse(*args, **kwargs):
            raise AssertionError("a relator was built")
        # every relator is reduced as it is added
        monkeypatch.setattr("spheremcg.presentation.reduce", refuse)
        code, out, _ = run(capsys, argv[0], "--n", n, *argv[1:])
        assert code == 2
        assert out.startswith(f"inconclusive: the extended relators at n={n} hold")


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

    def test_quotient_order_above_cap(self, capsys):
        # a 5-cycle times a 7-cycle: the order is a multiple of 35
        code, out, _ = run(capsys, "order", "--n", "12", "--order-cap", "30",
                           "s1 s2 s3 s4 s6 s7 s8 s9 s10 s11")
        assert (code, out.strip()) == (2, "exceeds cap 30")

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "order", "--n", "6", "nope")
        assert code == 65

    @pytest.mark.parametrize("expr", ["s1^99999999", "a0^-200001", "s1^600000 s1^600000"])
    def test_power_past_the_letter_bound_is_refused_unbuilt(self, capsys, monkeypatch, expr):
        # s1^99999999 would flatten to 10^8 letters, a0^-200001 (five letters) to 10^6 + 5,
        # and the two tokens of the last to 1.2 * 10^6 in all
        def refuse(*args, **kwargs):
            raise AssertionError("the power was built")
        monkeypatch.setattr("spheremcg.presentation.power", refuse)
        code, _, err = run(capsys, "order", "--n", "6", expr)
        assert code == 65
        assert "flattens past 1000000 letters" in err

    def test_name_past_the_letter_bound_is_refused_unbuilt(self, capsys, monkeypatch):
        # phi holds (n-1)(n-2)/2 letters, 4,495,501 at n = 3000
        def refuse(n):
            raise AssertionError("phi was built")
        monkeypatch.setitem(NAMES, "phi", (*NAMES["phi"][:3], refuse))
        code, out, err = run(capsys, "order", "--n", "3000", "phi")
        assert (code, out) == (65, "")
        assert err == "parse error: 'phi' flattens past 1000000 letters\n"

    def test_guard_trip_is_inconclusive(self, capsys):
        # m = 15, and the 15th power outgrows the 10^6-letter guard
        code, out, _ = run(capsys, "order", "--n", "8", "s1 S2 s4 s5 s6 s7")
        assert code == 2
        assert out.startswith("inconclusive: automorphism images exceed")

    # g t g^-1 with g^-1 written out: evaluated whole at the full g, it
    # holds 182,994 letters, and its first squaring would write about
    # 8.1 * 10^9 letters before cancelling.  Its cyclic core is t.
    G = ("s3 s2 S1 s2 S4 S4 S4 S3 s4 s2 S4 s1 S3 S3 s1 S4 S1 s4 s2 S2 "
         "s1 s1 s1 s1 S3 s4 S3 s1 s4 S4").split()

    def spied_order(self, capsys, monkeypatch, *argv):
        """The exit code and output of order with argv, and the words
        word_to_aut evaluated.  A spy on compose, not a timer, bounds the
        work: it refuses a fifth call and any automorphism past 1,000
        letters, so a regression fails at its first large compose instead
        of stalling."""
        calls, evaluated = [], []
        compose, word_to_aut = action.compose, action.word_to_aut

        def spy(f, g, *args):
            calls.append(f)
            held = sum(map(len, f.images + g.images)) + len(f.conj) + len(g.conj)
            assert len(calls) <= 4 and held <= 1000, "order_of composed past its core"
            return compose(f, g, *args)

        monkeypatch.setattr(action, "compose", spy)
        monkeypatch.setattr(action, "word_to_aut",
                            lambda word, *args: evaluated.append(word) or word_to_aut(word, *args))
        code, out, _ = run(capsys, "order", *argv)
        return code, out.strip(), evaluated

    def bounded_order(self, capsys, monkeypatch, letters, tail=()):
        """spied_order on g t g^-1 tail at n = 5, with g the first letters
        of G."""
        g = self.G[:letters]
        g_inv = [x.swapcase()[0] + x[1:] for x in reversed(g)]
        return self.spied_order(capsys, monkeypatch, "--n", "5",
                                " ".join([*g, "t", *g_inv, *tail]))

    @pytest.mark.parametrize("letters", [30, 20])
    def test_conjugate_of_t_answers_on_its_core(self, capsys, monkeypatch, letters):
        # the core t is a reflection word, so only its square is evaluated
        assert self.bounded_order(capsys, monkeypatch, letters) == (0, "2", [(T_LETTER,) * 2])

    def test_conjugate_of_t_times_a_far_commutator_answers_through_its_square(
            self, capsys, monkeypatch):
        # s3 s1 S3 S1 is trivial in the group, so the word is a conjugate
        # of t, but not as a word: its core is all of it, and its square
        # loses every t in the rewrite
        code, out, evaluated = self.bounded_order(capsys, monkeypatch, 30,
                                                  "s3 s1 S3 S1".split())
        assert (code, out) == (0, "2")
        assert len(evaluated) == 1 and evaluated[0].count(T_LETTER) == 2

    def test_infinite_order_is_one_inner_test_of_the_quotient_power(self, capsys, monkeypatch):
        # g10 t g10^-1 s1 is a reflection word with quotient order 2: its
        # square, 443,290 letters, is not inner, so the order is infinite;
        # no multiple of 2 is composed
        code, out, evaluated = self.bounded_order(capsys, monkeypatch, 10, ["s1"])
        assert (code, out) == (2, "exceeds cap 20")
        assert len(evaluated) == 1

    def test_large_cap_composes_one_power(self, capsys, monkeypatch):
        code, out, _ = self.spied_order(capsys, monkeypatch, "--n", "6", "--order-cap",
                                        "100000", "s1")
        assert (code, out) == (2, "exceeds cap 100000")


class TestEnumerate:
    def test_two_generator_certificate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--subgroup", "a,b")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index 1"
        assert lines[1].startswith("stats: defined=")

    def test_sixteen_puncture_certificate_under_default_limits(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "16", "--subgroup", "a,b")
        assert (code, out.splitlines()[0]) == (0, "index 1")

    def test_odd_frontier_certificate_under_default_limits(self, capsys):
        # closes once t, s1 and a0 fix the subgroup coset, after 6,404
        # merges instead of merging all but one of the 23,533 cosets
        code, out, _ = run(capsys, "enumerate", "--n", "81", "--subgroup", "t s1, t a0")
        assert (code, out.splitlines()[0]) == (0, "index 1")
        assert out.splitlines()[1].startswith(
            "stats: defined=23533 max_alive=23533 collapses=6404 ")

    @pytest.mark.parametrize("limit, reason", [(("--max-cosets", "50"), "coset limit 50"),
                                               (("--max-time", "0.05"), "time limit 0.05s")])
    def test_overflow(self, capsys, limit, reason):
        code, out, _ = run(capsys, "enumerate", "--n", "6", *limit)
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == f"OVERFLOW: {reason}"
        assert lines[1].startswith("stats: defined=")

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

    def test_alphabet_refusal_names_the_token(self, capsys):
        # a = s3 t s1 s2 s3 s4 s5 S3 at n = 6 holds the reflection
        code, out, err = run(capsys, "enumerate", "--n", "6", "--flavor",
                             "oriented", "--subgroup", "a")
        assert (code, out, err) == (64, "", "error: subgroup word letter t outside the alphabet\n")

    def test_subgroup_parts_within_the_budget_are_read(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6",
                           "--subgroup", "s1^400000,s1^400000", "--max-cosets", "1")
        assert code == 2
        assert out.startswith("OVERFLOW: coset limit 1\n")


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

    @pytest.mark.parametrize("flavor", ("oriented", "extended"))
    @pytest.mark.parametrize("n", range(3, 9))
    def test_listed_names_pass_the_flavor_alphabet_check(self, capsys, n, flavor):
        # enumerate accepts each name dump lists in the flavor, and
        # refuses each defined name it leaves out
        code, out, _ = run(capsys, "dump", "--n", str(n), "--flavor", flavor)
        assert code == 0
        listed = [line.split(" = ")[0] for line in out.splitlines() if " = " in line]
        assert listed and set(listed) <= set(names_at(n))
        for name in names_at(n):
            code = run(capsys, "enumerate", "--n", str(n), "--flavor", flavor,
                       "--subgroup", name, "--max-cosets", "1")[0]
            assert code == (2 if name in listed else 64), name
        if flavor == "extended":
            assert listed == list(names_at(n))


LIMIT_FLAGS = ("--max-cosets", "--max-time", "--order-cap")
# the limit flags each subcommand reads; every other one is a usage error
READ_LIMITS = {
    "verify": ("--max-cosets", "--max-time"),
    "order": ("--order-cap",),
    "enumerate": ("--max-cosets", "--max-time"),
    "eval": (),
    "dump": (),
}
POSITIONALS = {"order": ("t a0",), "eval": ("s1", "s1")}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started despite an invalid input")
    monkeypatch.setattr("spheremcg.cli.enumerate_cosets", refuse)
    monkeypatch.setattr("spheremcg.cli.order_of", refuse)
    monkeypatch.setattr("spheremcg.cli.full_report", refuse)
    monkeypatch.setattr("spheremcg.cli.equal_with_witness", refuse)
    monkeypatch.setattr("spheremcg.cli.build_presentation", refuse)


class TestLimits:
    """Invalid limits and inputs are refused before any work starts."""

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

    # numbers are ASCII digits, as in the expression parser: int() and
    # float() alone would read other Unicode digits and underscores
    @pytest.mark.parametrize("argv, flag", [
        (("order", "--n", "\u0666", "t a0"), "--n"),
        (("order", "--n", "6_0", "t a0"), "--n"),
        (("order", "--n", "+6", "t a0"), "--n"),
        (("enumerate", "--n", "6", "--subgroup", "a,b", "--max-cosets", "1_000"), "--max-cosets"),
        (("enumerate", "--n", "6", "--subgroup", "a,b", "--max-cosets", "\u0661\u0660"),
         "--max-cosets"),
        (("order", "--n", "6", "--order-cap", "\u0661\u0660", "t a0"), "--order-cap"),
        (("order", "--n", "6", "--order-cap", "1_0", "t a0"), "--order-cap"),
        (("verify", "--n", "6", "--max-time", "\u0661"), "--max-time"),
        (("verify", "--n", "6", "--max-time", "1_0"), "--max-time"),
    ], ids=("n-arabic", "n-underscore", "n-plus", "max-cosets-underscore",
            "max-cosets-arabic", "order-cap-arabic", "order-cap-underscore",
            "max-time-arabic", "max-time-underscore"))
    def test_number_not_in_ascii_digits(self, capsys, no_work, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert f"argument {flag}: not a" in err

    def test_negative_n_is_read_and_refused_as_a_puncture_count(self, capsys, no_work):
        code, out, err = run(capsys, "order", "--n", "-1", "t a0")
        assert (code, out) == (64, "")
        assert err == "error: need n >= 3, got -1\n"

    def test_out_without_a_directory_is_refused_first(self, capsys, no_work, tmp_path):
        code, out, err = run(capsys, "verify", "--n", "6", "--suite", "all",
                             "--out", str(tmp_path / "missing-dir" / "r.json"))
        assert code == 64
        assert out == ""
        assert err.startswith("error: cannot write --out")

    def test_out_directory_is_refused_first(self, capsys, no_work, tmp_path):
        code, out, err = run(capsys, "verify", "--n", "6", "--suite", "all",
                             "--out", str(tmp_path))
        assert code == 64
        assert out == ""
        assert err == f"error: cannot write --out: {tmp_path} is a directory\n"

    def test_out_name_too_long_is_refused_first(self, capsys, no_work, tmp_path):
        # the temporary file is reserved, and the target's mode read,
        # before any suite runs
        code, out, err = run(capsys, "verify", "--suite", "sigma2",
                             "--out", str(tmp_path / f"{'x' * 300}.json"))
        assert (code, out) == (64, "")
        assert err.startswith("error: cannot write --out")
        assert not list(tmp_path.glob(".report-*"))

    @pytest.mark.parametrize("out_path", ("", "newfile/"))
    def test_out_without_a_file_name_is_refused_first(self, capsys, no_work, out_path):
        # neither names a file, though each passes the directory check:
        # '' through the working directory's parent, 'newfile/' through
        # the working directory
        code, out, err = run(capsys, "verify", "--n", "6", "--suite", "all",
                             "--out", out_path)
        assert (code, out) == (64, "")
        assert err == f"error: cannot write --out: no file name in {out_path!r}\n"

    def test_subgroup_parts_share_one_letter_budget(self, capsys, no_work):
        # each part alone is within the budget; together they are not
        code, out, err = run(capsys, "enumerate", "--n", "6",
                             "--subgroup", "s1^600000,s1^600000")
        assert (code, out) == (65, "")
        assert err == "parse error: 's1^600000,s1^600000' flattens past 1000000 letters\n"

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


# Every refusal of the expression parser, with the n it is read at and
# its exact message.  A power without a base is a bad token: an empty
# base would read as the empty word, so '^3' as a subgroup would be the
# trivial one, whose enumeration overflows.  The index of g<k> and d<k>
# is read unsigned, so g-1 is no name.
PARSE_REFUSALS = [
    ("nope", 6, "bad token 'nope'"),
    ("x1", 6, "bad token 'x1'"),
    ("s", 6, "bad token 's'"),
    ("s\u0661", 6, "bad token 's\u0661'"),
    ("g-1", 8, "bad token 'g-1'"),
    ("d+1", 8, "bad token 'd+1'"),
    ("^3", 6, "bad token '^3'"),
    ("^-1", 5, "bad token '^-1'"),
    ("a0^x", 6, "bad power suffix in 'a0^x'"),
    ("s1^--1", 6, "bad power suffix in 's1^--1'"),
    ("t^+2", 6, "bad power suffix in 't^+2'"),
    ("b^", 6, "bad power suffix in 'b^'"),
    ("s0", 6, "twist index 0 out of range for n=6"),
    ("S6", 6, "twist index 6 out of range for n=6"),
    ("a2", 3, "a2 needs n >= 4, got n=3"),
    ("a", 3, "a needs n >= 4, got n=3"),
    ("b", 3, "b needs n >= 4, got n=3"),
    ("y", 5, "y needs even n >= 4, got n=5"),
    ("z", 4, "z needs even n >= 6, got n=4"),
    ("w", 9, "w needs even n >= 6, got n=9"),
    ("c", 7, "c needs even n >= 6, got n=7"),
    ("g1", 7, "g<k> needs even n >= 6, got n=7"),
    ("g2", 4, "g<k> needs even n >= 6, got n=4"),
    ("d1", 5, "d<k> needs n >= 6, got n=5"),
    ("g2", 8, "g index must be odd in 1..7, got 2"),
    ("g9", 8, "g index must be odd in 1..7, got 9"),
    ("d2", 6, "d index must lie in 1..1, got 2"),
    ("d0", 7, "d index must lie in 1..2, got 0"),
    ("a0^200001", 6, "'a0^200001' flattens past 1000000 letters"),
    ("s1^-1000001", 6, "'s1^-1000001' flattens past 1000000 letters"),
    ("a0^200000 s1", 6, "'a0^200000 s1' flattens past 1000000 letters"),
]
# each subcommand that parses expressions, with the arguments around one
PARSING = {
    "eval": lambda expr: ("eval", expr, "s1"),
    "order": lambda expr: ("order", expr),
    "enumerate": lambda expr: ("enumerate", "--subgroup", expr),
}


@pytest.mark.parametrize("command", PARSING)
@pytest.mark.parametrize("expr, n, message", PARSE_REFUSALS)
def test_parse_refusal(capsys, no_work, command, expr, n, message):
    argv = PARSING[command](expr)
    code, out, err = run(capsys, argv[0], "--n", str(n), *argv[1:])
    assert (code, out) == (65, "")
    assert err == f"parse error: {message}\n"


class TestModuleEntryPoint:
    """`python -m spheremcg` runs `cli.main` and exits with its code."""

    @staticmethod
    def run_module(*argv):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        return subprocess.run([sys.executable, "-m", "spheremcg", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    def test_passing_suite_exits_zero(self):
        done = self.run_module("verify", "--suite", "n4")
        assert done.returncode == 0
        assert done.stdout.strip().endswith("(pass=8)")

    def test_refused_suite_exits_64(self):
        done = self.run_module("verify", "--n", "7", "--suite", "lemma-y")
        assert done.returncode == 64
        assert "does not apply" in done.stderr


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "order", "--n", "six", "s1")[0] == 64

    def test_seed_is_not_a_flag(self, capsys):
        assert run(capsys, "order", "--n", "6", "--seed", "7", "t")[0] == 64
