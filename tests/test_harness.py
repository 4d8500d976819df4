import json
import re

import pytest

from spheremcg import action, cli, harness
from spheremcg.action import equal_with_witness
from spheremcg.harness import (
    STATUSES,
    SUITES,
    CheckResult,
    Limits,
    Report,
    full_report,
    verify_lemma_y,
    verify_lemma_z,
    verify_main_even,
    verify_n4,
    verify_odd,
    verify_presentation,
    verify_prop22,
    verify_section3,
    verify_sigma2,
)
from spheremcg.presentation import build_presentation
from spheremcg.words import EPSILON, format_word, invert


def ids(checks):
    return [c.id for c in checks]


def statuses(checks):
    return {c.id: c.status for c in checks}


class TestSuiteShapes:
    def test_presentation_counts(self):
        checks = verify_presentation(6)
        assert len(checks) == 12 + 18 + 2 + 4
        assert all(c.status == "pass" for c in checks)
        assert "n6.pres.extended.t.twist.3" in ids(checks)
        assert "n6.pres.hom.extended.psi" in ids(checks)

    def test_relator_rows_read_the_one_validation(self, monkeypatch):
        # once _gen_auts has validated every relator, the rows evaluate none
        action._gen_auts(8)
        calls = []
        real = action._inner_witness

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(action, "_inner_witness", counting)
        checks = verify_presentation(8)
        assert calls == []
        monkeypatch.undo()
        rows = {c.id: c for c in checks}
        for flavor in ("oriented", "extended"):
            pres = build_presentation(8, flavor)
            for label, rel in zip(pres.labels, pres.relators):
                row = rows[f"n8.pres.{flavor}.{label}"]
                ok, conj = equal_with_witness(rel, EPSILON, 8)
                assert ok and row.status == "pass"
                assert row.witness == (format_word(conj) or "exact")

    def test_failed_validation_fails_every_relator_row(self, monkeypatch):
        # xi -> xi^-1 breaks t si t = si^-1 with the standard half-twists
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda images: [invert(img) for img in images])
        action._gen_auts.cache_clear()
        try:
            checks = verify_presentation(5)
        finally:
            action._gen_auts.cache_clear()
        for c in checks:
            if ".hom." in c.id:
                assert c.status == "pass"
            else:
                assert c.status == "fail"
                assert "does not act trivially" in c.witness

    def test_quotients_refuse_what_a_broken_oracle_accepts(self, monkeypatch):
        # an is_inner that accepts everything calls every evaluated pair
        # equal; s1 and s2 differ in the puncture permutation, so neither
        # the oracle nor the row that reads it may say so
        monkeypatch.setattr(action, "is_inner", lambda f: EPSILON)
        assert equal_with_witness((1, 1), EPSILON, 6)[0]
        assert equal_with_witness((1,), (2,), 6) == (False, None)
        rec = harness._Recorder(None)
        rec.eq("broken.s1_s2", "s1 = s2 (n=6)", (1,), (2,), 6)
        [row] = rec.checks
        assert (row.status, row.witness) == ("fail", None)

    def test_prop22(self):
        checks = verify_prop22(6)
        assert statuses(checks)["n6.prop22.order.a0"] == "pass"
        assert statuses(checks)["n6.prop22.phi.i2"] == "pass"
        assert all(c.status == "pass" for c in checks)

    def test_section3_involution_range(self):
        checks = verify_section3(6)
        invol = [i for i in ids(checks) if ".invol." in i]
        assert invol == [f"n6.sec3.invol.k{k}" for k in range(4)]
        assert all(c.status == "pass" for c in checks)

    def test_lemma_y(self):
        checks = verify_lemma_y(6)
        assert [i for i in ids(checks) if ".x" in i] == [
            f"n6.lemY.x{j}" for j in range(5)
        ]
        assert statuses(checks)["n6.lemY.product"] == "pass"
        assert all(c.status == "pass" for c in checks)

    def test_lemma_z_shift_range_follows_puncture_count(self):
        at6 = verify_lemma_z(6)
        assert not [i for i in ids(at6) if ".dshift." in i]
        at8 = verify_lemma_z(8)
        assert [i for i in ids(at8) if ".dshift." in i] == ["n8.lemZ.dshift.k1"]
        at10 = verify_lemma_z(10)
        assert [i for i in ids(at10) if ".dshift." in i] == [
            f"n10.lemZ.dshift.k{k}" for k in (1, 2, 3)
        ]
        assert all(c.status == "pass" for c in at6 + at8)

    def test_main_even_has_one_honest_failure(self):
        checks = verify_main_even(6)
        st = statuses(checks)
        assert st["n6.main.w"] == "pass"
        assert st["n6.main.ainvb"] == "pass"
        assert st["n6.main.c"] == "fail"
        assert st["n6.main.bridge"] == "pass"
        assert st["n6.main.index"] == "pass"

    def test_main_even_clean_at_eight(self):
        st = statuses(verify_main_even(8))
        assert st["n8.main.c"] == "pass"
        assert st["n8.main.index"] == "pass"

    def test_odd(self):
        checks = verify_odd(5)
        assert all(c.status == "pass" for c in checks)
        assert statuses(checks)["n5.odd.index"] == "pass"

    def test_n4(self):
        checks = verify_n4()
        assert all(c.status == "pass" for c in checks)
        assert statuses(checks)["n4.pgl2.commutator"] == "pass"

    def test_sigma2_conclusion_flag(self):
        checks = verify_sigma2()
        conclusion = next(c for c in checks if c.id == "sigma2.conclusion")
        assert conclusion.status == "pass"
        assert conclusion.witness == "central-Z/2-extension argument applicable"


class TestFullReport:
    def test_six_puncture_report(self):
        report = full_report([6])
        local = [c for c in report.checks if c.id.startswith("n6.")]
        assert len(local) >= 60
        assert len(set(ids(report.checks))) == len(report.checks)
        assert report.overall == "fail"
        assert report.exit_code == 1

    def test_dispatch(self):
        report = full_report([5, 7])
        present = set(ids(report.checks))
        assert "n5.odd.index" in present
        assert "n7.odd.index" in present
        assert "n4.pgl2.relators" in present
        assert "sigma2.conclusion" in present
        assert not any(i.startswith("n6.") for i in present)
        assert report.overall == "pass"

    def test_empty_list_runs_free_suites_only(self):
        report = full_report([])
        assert all(i.startswith(("n4.", "sigma2.")) for i in ids(report.checks))
        assert report.overall == "pass"

    def test_sorted_and_deterministic(self):
        first = full_report([4])
        second = full_report([4])
        assert ids(first.checks) == sorted(ids(first.checks))
        strip = lambda r: [(c.id, c.statement, c.status, c.witness)
                           for c in r.checks]
        assert strip(first) == strip(second)

    def test_machine_schema(self):
        payload = json.loads(full_report([3]).to_json())
        assert set(payload) == {"version", "checks"}
        for row in payload["checks"]:
            assert set(row) == {"id", "statement", "status", "witness", "millis"}
            assert row["status"] in STATUSES

    def test_human_format(self):
        report = full_report([6])
        text = report.human()
        assert text.splitlines()[-1].startswith("overall: fail")
        assert any(line.startswith("FAIL") and "n6.main.c" in line
                   for line in text.splitlines())


# The check ids each registry entry's suite makes, in registry order.
ID_PATTERNS = {
    "presentation": r"n\d+\.pres\.",
    "prop22": r"n\d+\.prop22\.",
    "section3": r"n\d+\.sec3\.",
    "lemma-y": r"n\d+\.lemY\.",
    "lemma-z": r"n\d+\.lemZ\.",
    "main": r"n\d+\.main\.",
    "odd": r"n\d+\.odd\.",
    "n4": r"n4\.(pgl2|order|index3gen)",
    "sigma2": r"sigma2\.",
}


class TestSuiteRegistry:
    def test_registry_order(self):
        assert list(SUITES) == list(ID_PATTERNS)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_full_report_runs_exactly_the_applicable_suites(self, n):
        # a small coset limit keeps the index checks cheap; only ids matter
        report = full_report([n], Limits(max_cosets=1000))
        ran = set()
        for c in report.checks:
            owners = [t for t, pattern in ID_PATTERNS.items() if re.match(pattern, c.id)]
            assert len(owners) == 1, c.id
            ran.add(owners[0])
        assert ran == {t for t, (_, applies) in SUITES.items()
                       if applies is None or applies(n)}

    def test_suites_run_through_rebound_names(self, monkeypatch, capsys):
        # An outside tracer wraps each verify_* by rebinding it in module
        # globals and in tuple values of module-level dicts of the harness
        # and the CLI; every suite run must go through those bindings.
        calls = []

        def wrap(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        wrapped = {id(fn): wrap(fn) for name, fn in vars(harness).items()
                   if name.startswith("verify_")}
        for mod in (harness, cli):
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(mod, key, wrapped[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(id(x) in wrapped for x in v):
                            monkeypatch.setitem(value, k,
                                                tuple(wrapped.get(id(x), x) for x in v))
        full_report([6], Limits(max_cosets=1000))
        assert calls == ["verify_presentation", "verify_prop22", "verify_section3",
                         "verify_lemma_y", "verify_lemma_z", "verify_main_even",
                         "verify_n4", "verify_sigma2"]
        calls.clear()
        assert cli.main(["verify", "--n", "6", "--suite", "prop22", "--machine"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]
        assert calls == ["verify_prop22"]


def synthetic(check_id, status, tolerated=False):
    return CheckResult(check_id, "synthetic", status, None, 0, tolerated)


def limited_run(capsys, *argv):
    """Exit code and non-pass rows of a verify run at --max-cosets 50."""
    code = cli.main(["verify", *argv, "--max-cosets", "50", "--machine"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {c["id"]: c["status"] for c in checks if c["status"] != "pass"}


class TestOverallRules:
    def test_any_fail_wins(self):
        report = Report((synthetic("a", "pass"), synthetic("b", "fail"),
                         synthetic("n8.main.index", "overflow", tolerated=True)))
        assert report.overall == "fail"
        assert report.exit_code == 1

    def test_overflow_blocks_pass_at_small_n(self, capsys):
        assert limited_run(capsys, "--n", "5", "--suite", "odd") == (
            2, {"n5.odd.index": "overflow"})

    def test_best_effort_overflow_tolerated(self, capsys):
        assert limited_run(capsys, "--n", "8", "--suite", "main") == (
            0, {"n8.main.index": "overflow"})
        assert limited_run(capsys, "--n", "7", "--suite", "odd") == (
            0, {"n7.odd.index": "overflow"})

    def test_generation_overflow_not_tolerated(self, capsys):
        assert limited_run(capsys, "--suite", "sigma2") == (
            1, {"sigma2.generation": "overflow", "sigma2.conclusion": "fail"})
        generation = [c for c in verify_sigma2(Limits(max_cosets=50))
                      if c.id == "sigma2.generation"]
        assert Report(tuple(generation)).exit_code == 2
