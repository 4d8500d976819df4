import itertools
import json
import pathlib
import re

import pytest

from conftest import conjugate, reference_images
from spheremcg import action, cli, harness
from spheremcg.action import Power, equal_products, equal_with_witness, word_to_aut
from spheremcg.coset import CosetTable, EnumerationResult, EnumerationStats, enumerate_cosets
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
from spheremcg.words import EPSILON, T_LETTER, concat, format_word, invert, power


def ids(checks):
    return [c.id for c in checks]


def statuses(checks):
    return {c.id: c.status for c in checks}


class TestSuiteShapes:
    FAMILIES = ("t.invol", "t.twist", "comm", "braid", "sphere", "fulltwist")

    @staticmethod
    def covered(row):
        """The relator count a family row states."""
        return int(re.search(r"\((\d+) in all, n=", row.statement).group(1))

    @pytest.mark.parametrize("n", (3, 4, 6, 13))
    def test_family_rows_cover_every_relator(self, n):
        rows = {c.id: c for c in verify_presentation(n)}
        assert all(c.status == "pass" for c in rows.values())
        families = [f for f in self.FAMILIES if n > 3 or f != "comm"]  # n = 3 has none
        assert set(rows) == {f"n{n}.pres.extended.{f}" for f in families} | {
            f"n{n}.pres.extended.convention", f"n{n}.pres.hom.extended.perm",
            f"n{n}.pres.hom.extended.psi"}
        counts = {f: self.covered(rows[f"n{n}.pres.extended.{f}"]) for f in families}
        assert sum(counts.values()) == len(build_presentation(n, "extended").relators)
        assert counts["t.twist"] == n - 1 and counts["braid"] == n - 2
        assert counts.get("comm", 0) == (n - 2) * (n - 3) // 2

    def test_family_rows_read_the_one_validation(self, monkeypatch):
        # once _gen_auts has validated every relator, the rows evaluate none,
        # and each lists the nonempty conjugators the oracle finds
        action._gen_auts(8)
        calls = []
        real = action._evaluate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(action, "_evaluate", counting)
        checks = verify_presentation(8)
        assert calls == []
        monkeypatch.undo()
        rows = {c.id: c for c in checks}
        pres = build_presentation(8, "extended")
        named = {f: [] for f in self.FAMILIES}
        for label, rel in zip(pres.labels, pres.relators):
            ok, conj = equal_with_witness(rel, EPSILON, 8)
            assert ok
            if conj:
                named[label.rstrip("0123456789.")].append(f"{label}: {format_word(conj)}")
        assert named["sphere"] == ["sphere: s1"]
        for family, listed in named.items():
            row = rows[f"n8.pres.extended.{family}"]
            assert (row.status, row.witness) == ("pass", ", ".join(listed) or "exact")

    def test_broken_reflection_fails_every_family_row(self, monkeypatch):
        # xi -> xi^-1 breaks t si t = si^-1 with the standard half-twists
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda images, run=None: [invert(img) for img in images])
        action._gen_auts.cache_clear()
        try:
            checks = verify_presentation(5)
        finally:
            action._gen_auts.cache_clear()
        assert len(checks) == 9
        for c in checks:
            if ".hom." in c.id:
                assert c.status == "pass"
            else:
                assert c.status == "fail"
                assert "relator t.twist.1 does not act trivially at n=5" in c.witness

    @pytest.mark.parametrize("suite, rows", [(verify_presentation, 7), (verify_prop22, 13)])
    def test_refused_validation_fails_every_row_that_reads_it(self, monkeypatch, suite, rows):
        # _gen_auts raises its refusal to each row that asks, so each one
        # fails with the same message
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda images, run=None: [invert(img) for img in images])
        action._gen_auts.cache_clear()
        try:
            checks = suite(5)
        finally:
            action._gen_auts.cache_clear()
        failed = [c.witness for c in checks if c.status == "fail"]
        assert failed == [
            "error: RuntimeError('relator t.twist.1 does not act trivially at n=5')"] * rows

    def test_broken_relator_is_named_in_its_family_row(self, monkeypatch):
        # the validation stops at a commutator that is not one
        pres = build_presentation(6, "extended")
        broken = pres.relators[pres.labels.index("comm.2.5")]
        monkeypatch.setattr(action, "build_presentation", lambda n, flavor: pres._replace(
            relators=tuple((1, 2, -1, -2) if rel == broken else rel
                           for rel in pres.relators)))
        action._gen_auts.cache_clear()
        try:
            rows = {c.id: c for c in verify_presentation(6)}
        finally:
            action._gen_auts.cache_clear()
        row = rows["n6.pres.extended.comm"]
        assert row.status == "fail"
        assert "relator comm.2.5 does not act trivially at n=6" in row.witness

    def test_broken_quotient_names_its_relators_in_its_hom_row(self, monkeypatch):
        # a psi that reads the length mod 4 misses the relators of 2, 6,
        # 10 and 30 letters; the row lists them in presentation order
        monkeypatch.setattr(harness, "abelianization_image", lambda w: (len(w) % 4 // 2, 0))
        rows = {c.id: c for c in verify_presentation(6)}
        row = rows.pop("n6.pres.hom.extended.psi")
        assert (row.status, row.witness) == (
            "fail", "t.invol, braid.1, braid.2, braid.3, braid.4, sphere, fulltwist")
        assert rows and all(c.status == "pass" for c in rows.values())

    @pytest.mark.parametrize("n, rows", [(3, 8), *((n, 9) for n in range(4, 41)), (80, 9)])
    def test_presentation_suite_rows(self, capsys, n, rows):
        assert cli.main(["verify", "--n", str(n), "--suite", "presentation", "--machine"]) == 0
        assert len(json.loads(capsys.readouterr().out)["checks"]) == rows

    def test_quotients_refuse_what_a_broken_oracle_accepts(self, monkeypatch):
        # an is_inner that accepts everything calls every evaluated pair
        # equal; s1 and s2 differ in the puncture permutation, so neither
        # the oracle nor the row that reads it may say so
        monkeypatch.setattr(action, "is_inner", lambda f: EPSILON)
        assert equal_with_witness((1, 1), EPSILON, 6)[0]
        assert equal_with_witness((1,), (2,), 6) == (False, None)
        rec = harness._Recorder("main", 6, None)
        rec.eq("broken.s1_s2", "s1 = s2 (n=6)", (1,), (2,))
        [row] = rec.checks
        assert (row.status, row.witness) == ("fail", None)

    def test_product_rows_refuse_what_a_broken_oracle_accepts(self, monkeypatch):
        monkeypatch.setattr(action, "_inner_over", lambda *args: EPSILON)
        rec = harness._Recorder("main", 6, None)
        rec.eq_products("broken.s1_s2", "s1 = s2 (n=6)", [(1,)], [(2,)])
        rec.eq_products("broken.s1s1", "s1^2 = 1 (n=6)", [(1, 1)], [])
        assert [(row.status, row.witness) for row in rec.checks] == \
            [("fail", None), ("pass", "exact")]

    @pytest.mark.parametrize("suite, n, rows", [
        (verify_prop22, 8, ".prop22.phi."),
        (verify_lemma_y, 8, ".lemY.gshift."),
        (verify_lemma_y, 8, ".lemY.product"),
        (verify_lemma_z, 10, ".lemZ.power"),
        (verify_odd, 7, ".odd.reflect_power"),
    ])
    def test_guard_overflows_product_rows(self, suite, n, rows):
        # every product row overflows under a tiny guard, and the suite
        # still returns its other rows
        checks = suite(n, Limits(max_cosets=100, aut_guard=12))
        hit = [c for c in checks if rows in c.id]
        assert hit and len(checks) > len(hit)
        assert {(c.status, c.witness) for c in hit} == \
            {("overflow", "automorphism images exceed 12 letters")}

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
        report = full_report("all", 6)
        local = [c.id.split(".")[1] for c in report.checks if c.id.startswith("n6.")]
        assert {suite: local.count(suite) for suite in local} == {
            "pres": 9, "prop22": 17, "sec3": 8, "lemY": 9, "lemZ": 5, "main": 5}
        assert len(set(ids(report.checks))) == len(report.checks)
        assert report.overall == "fail"
        assert report.exit_code == 1

    def test_dispatch(self):
        for n in (5, 7):
            report = full_report("all", n)
            present = set(ids(report.checks))
            assert f"n{n}.odd.index" in present
            assert "n4.pgl2.relators" in present
            assert "sigma2.conclusion" in present
            assert all(i.startswith((f"n{n}.", "n4.", "sigma2.")) for i in present)
            assert report.overall == "pass"

    def test_duplicate_check_ids_are_refused(self, monkeypatch):
        monkeypatch.setitem(harness.SUITES, "sigma2", (harness.SUITES["n4"][0], None))
        with pytest.raises(RuntimeError, match="^duplicate check ids in report$"):
            full_report("all", 8)

    def test_n_without_a_suite_is_refused(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            full_report("all", 2)

    @pytest.mark.parametrize("suite, n, message", [
        ("all", None, "--n is required for --suite all"),
        ("prop22", None, "--n is required for --suite prop22"),
        ("n4", 6, "suite n4 takes no --n"),
        ("lemma-y", 7, "suite lemma-y does not apply at n=7"),
    ])
    def test_suite_token_refusals(self, suite, n, message):
        with pytest.raises(ValueError, match=message):
            full_report(suite, n)

    def test_sorted_and_deterministic(self):
        first = full_report("all", 4)
        second = full_report("all", 4)
        assert ids(first.checks) == sorted(ids(first.checks))
        strip = lambda r: [(c.id, c.statement, c.status, c.witness)
                           for c in r.checks]
        assert strip(first) == strip(second)

    def test_machine_schema(self):
        payload = json.loads(full_report("all", 3).to_json())
        assert set(payload) == {"version", "checks"}
        for row in payload["checks"]:
            assert set(row) == {"id", "statement", "status", "witness", "millis"}
            assert row["status"] in STATUSES

    def test_version_is_the_package_version(self):
        # read by regex: tomllib is not in Python 3.10, which pyproject allows
        pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        assert harness.VERSION == declared
        assert json.loads(full_report("n4", None).to_json())["version"] == declared

    def test_human_format(self):
        report = full_report("all", 6)
        text = report.human()
        assert text.splitlines()[-1].startswith("overall: fail")
        assert any(line.startswith("FAIL") and "n6.main.c" in line
                   for line in text.splitlines())


def flatten(factors):
    """A product of factors as one word, each power written out."""
    return concat(*(power(flatten([f.base]), f.k) if isinstance(f, Power) else f
                    for f in factors))


class TestReplay:
    """Every passing equality row of a report, replayed: the words it
    compared are evaluated by the per-letter reference, built from the
    generator images alone, which must act as conjugation by the witness
    the row recorded.  This checks the reflection rewrite, the peel and
    the product path against the definition."""

    def passing_rows(self, monkeypatch, n, limits):
        """The words and witness of each passing single-word row, and of
        each passing product row, of the report at n."""
        single, products = [], []

        def eq(u, v, n, guard):
            ok, witness = equal_with_witness(u, v, n, guard)
            if ok:
                single.append((u, v, witness))
            return ok, witness

        def eq_products(lhs, rhs, factors):
            ok, witness = equal_products(lhs, rhs, factors)
            if ok:
                products.append((lhs, rhs, witness))
            return ok, witness

        monkeypatch.setattr(harness, "equal_with_witness", eq)
        monkeypatch.setattr(harness, "equal_products", eq_products)
        full_report("all", n, limits)
        return single, products

    def replay(self, n, rows):
        for u, v, witness in rows:
            images = reference_images(concat(u, invert(v)), n)
            assert images == tuple(conjugate((j,), witness) for j in range(1, n))

    @staticmethod
    def flattened(products):
        return [(flatten(lhs), flatten(rhs), witness) for lhs, rhs, witness in products]

    def test_every_equality_row_at_8(self, monkeypatch):
        single, products = self.passing_rows(monkeypatch, 8, None)
        assert len(single) >= 19 and len(products) >= 29
        self.replay(8, single + self.flattened(products))

    def test_single_word_and_short_product_rows_at_30(self, monkeypatch):
        # the long flattened products take seconds under the reference
        # here, so only those of at most 200 letters are replayed (the
        # dshift and gshift rows); the index rows are cut short, since
        # no equality row reads them
        single, products = self.passing_rows(monkeypatch, 30, Limits(max_cosets=50))
        short = [(u, v, witness) for u, v, witness in self.flattened(products)
                 if len(u) + len(v) <= 200]
        assert len(single) + len(short) >= 134
        self.replay(30, single + short)


class TestOrderRows:
    def test_each_order_row_caps_at_its_expected_order(self, monkeypatch):
        caps = []

        def spy(word, n, cap=None, guard=action.DEFAULT_LENGTH_GUARD):
            caps.append(cap)
            return action.order_of(word, n, cap, guard)

        monkeypatch.setattr(harness, "order_of", spy)
        checks = (verify_prop22(6) + verify_section3(5) + verify_lemma_z(6)
                  + verify_odd(5) + verify_n4())
        rows = [c for c in checks if ".order." in c.id]
        assert len(rows) == len(caps) == 11
        for row, cap in zip(rows, caps):
            expected = int(re.search(r"\) = (\d+)", row.statement).group(1))
            assert (row.status, row.witness, cap) == ("pass", expected, expected), row.id


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
        report = full_report("all", n, Limits(max_cosets=1000))
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
        full_report("all", 6, Limits(max_cosets=1000))
        assert calls == ["verify_presentation", "verify_prop22", "verify_section3",
                         "verify_lemma_y", "verify_lemma_z", "verify_main_even",
                         "verify_n4", "verify_sigma2"]
        calls.clear()
        assert cli.main(["verify", "--n", "6", "--suite", "prop22", "--machine"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]
        assert calls == ["verify_prop22"]


def synthetic(check_id, status):
    return CheckResult(check_id, "synthetic", status, None, 0)


def limited_run(capsys, *argv):
    """Exit code and non-pass rows of a verify run at --max-cosets 50."""
    code = cli.main(["verify", *argv, "--max-cosets", "50", "--machine"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {c["id"]: c["status"] for c in checks if c["status"] != "pass"}


class TestOverallRules:
    def test_fail_beats_overflow_beats_pass(self):
        for k in range(4):
            for combo in itertools.product(STATUSES, repeat=k):
                report = Report(tuple(synthetic(f"r{i}", s) for i, s in enumerate(combo)))
                # an overflow is inconclusive: no report holding one passes
                want = "fail" if "fail" in combo else "overflow" if "overflow" in combo else "pass"
                assert (report.overall, report.exit_code) == (
                    want, {"pass": 0, "fail": 1, "overflow": 2}[want]), combo

    def test_index_overflow_blocks_pass(self, capsys):
        assert limited_run(capsys, "--n", "5", "--suite", "odd") == (
            2, {"n5.odd.index": "overflow"})
        assert limited_run(capsys, "--n", "7", "--suite", "odd") == (
            2, {"n7.odd.index": "overflow"})
        assert limited_run(capsys, "--n", "8", "--suite", "main") == (
            2, {"n8.main.index": "overflow"})

    def test_refused_presentation_is_an_overflow(self):
        # build_presentation refuses n = 578 before any coset is defined:
        # the row names that refusal and makes the report an overflow
        rec = harness._Recorder("main", 578, None)
        rec.index("n578.main.index", "index 1", (), 1)
        (row,) = rec.checks
        assert row.status == "overflow"
        assert row.witness == ("the extended relators at n=578 hold 1002826 letters, "
                               "over the 1000000-letter guard")
        assert Report(tuple(rec.checks)).exit_code == 2

    @pytest.mark.parametrize("limits, reason", [
        (Limits(max_cosets=30000), "coset limit 30000"),
        (Limits(max_time=0.05), "time limit 0.05s"),
    ])
    def test_overflowed_index_row_names_its_limit(self, limits, reason):
        rec = harness._Recorder("main", 12, limits)
        rec.index("n12.main.index", "index 1", (), 1)  # the trivial subgroup: infinite index
        (row,) = rec.checks
        assert row.status == "overflow"
        assert row.witness.startswith(f"{reason}: defined=")

    def test_sigma2_conclusion_follows_the_report_rule(self, capsys, monkeypatch):
        # an overflowed prerequisite leaves the conclusion inconclusive ...
        assert limited_run(capsys, "--suite", "sigma2") == (
            2, {"sigma2.generation": "overflow", "sigma2.conclusion": "overflow"})
        # ... and a failed one, beside that overflow, refutes it
        monkeypatch.setattr(harness, "abelianization_image", lambda word: (0, 0))
        rows = {c.id: (c.status, c.witness) for c in verify_sigma2(Limits(max_cosets=50))}
        assert rows["sigma2.psi.a"][0] == "fail"
        assert rows["sigma2.conclusion"] == ("fail", "prerequisites not established")


def _twist_table():
    # the twist subgroup has index 2 at n = 4
    return enumerate_cosets(build_presentation(4, "extended"), ((1,), (2,), (3,))).table


# Each result type, a factory that builds a fresh equal value on every
# call, and one of its fields.
RESULT_TYPES = {
    "Presentation": (lambda: build_presentation(4, "extended"), "relators"),
    "FreeAut": (lambda: word_to_aut((1, T_LETTER, 2), 5), "images"),
    "EnumerationStats": (lambda: EnumerationStats(12, 9, 3, 0.25), "defined"),
    "CosetTable": (_twist_table, "rows"),
    "EnumerationResult": (lambda: EnumerationResult("finished", 2, _twist_table(),
                                                    EnumerationStats(2, 2, 0, 0.0)), "index"),
    "CheckResult": (lambda: synthetic("a", "pass"), "status"),
    "Limits": (Limits, "aut_guard"),
    "Report": (lambda: Report((synthetic("a", "pass"),)), "checks"),
}


@pytest.mark.parametrize("make, field", RESULT_TYPES.values(), ids=list(RESULT_TYPES))
def test_result_types_are_immutable_and_hash_by_value(make, field):
    # the factor cache hands the same FreeAut to every caller
    first, second = make(), make()
    assert first is not second and first == second and hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(second, field))
    assert first == second
