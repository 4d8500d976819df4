"""Golden reports: `verify --n N --suite all --machine` for N = 3..10,
with the per-check `millis` removed, must match the checked-in files in
tests/golden/ byte for byte.  Reports are deterministic apart from
`millis`, so any difference is a changed verdict, witness, statement or
check id.  Each run's exit code is pinned too: n=6 exits 1 on the
documented `n6.main.c` erratum, every other n exits 0.

`n16-oracle.json` and `n30-oracle.json` hold the five oracle-only suites
at n=16 and n=30, keyed by suite; each of those runs exits 0.  Their
identity chains run long words through the free-group action, so they
exercise long carried conjugators that the small-n reports never
produce, and at n=30 several witnesses are long (`lemY.product`,
`lemZ.power`, `gshift.g25` .. `g29`, `sec3.reflect_a0`).

`n16-main.json` holds `verify --n 16 --suite main`, whose `<a, b>`
index-1 certificate is the largest in the golden set.

`n31-odd.json` holds `verify --n 31 --suite odd`, the reflection-heavy
report: `(t a0)^31 = t` with its witness s2 s4 .. s30, and the order 62
of t a0.

`n80-reflections.json` holds `verify --n 80 --suite section3` and
`verify --n 81 --suite odd`, keyed by their arguments: every order and
power row of a reflection word (a word with an odd number of t), at the
n where long reflection images dominate; each run exits 0.

`max-cosets-50.json` holds four runs at `--max-cosets 50`, keyed by
their arguments (n=8 main, n=7 odd, n=5 odd, sigma2).  In each an index
check overflows, so each exits 2; in sigma2 the conclusion, which rests
on that index row, is an overflow too.

`digests.json` holds, for `verify --n N --suite all` at N = 11..16,
`verify --n 41 --suite prop22` and `verify --n 80` with the
presentation, prop22, lemma-y and lemma-z suites, keyed by their
arguments, the exit code, the row count and the sha256 of the stripped
report: the range past N = 10 that a refactor is checked over, at the
cost of running it, not of storing it.  The n = 41 run holds the
rotation identities at an odd n past the reports above.  The three
n = 80 identity suites carry the longest conjugators the oracle holds
in tier-1, with witnesses of up to 609 characters.

`dump.txt` holds `dump --n N --flavor F` for N = 3..12 in both flavors,
each run headed by its arguments: the presentation and the named words
defined at N, so a name added, dropped or moved in the listing shows.
Each of those runs exits 0.

One report rule decides every exit code: any `fail` gives 1, otherwise
any `overflow` gives 2, otherwise 0.  So each pinned exit code is also
recomputed from the statuses of its golden file alone.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py

which prints, before writing each file, the check ids it gains (+) and
loses (-), so the retired ids of a change can be read off its output,
and each run of `digests.json` whose digest changed.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from spheremcg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
NS = range(3, 11)
ORACLE_NS = (16, 30)
ORACLE_SUITES = ("presentation", "prop22", "section3", "lemma-y", "lemma-z")
MAIN_N = 16
ODD_N = 31
# each reflection-heavy run's verify arguments, all exiting 0
REFLECTION_RUNS = ("--n 80 --suite section3", "--n 81 --suite odd")
EXIT_CODES = {3: 0, 4: 0, 5: 0, 6: 1, 7: 0, 8: 0, 9: 0, 10: 0}
# each limited run's verify arguments, with its exit code
LIMITED_RUNS = {
    "--n 8 --suite main": 2,
    "--n 7 --suite odd": 2,
    "--n 5 --suite odd": 2,
    "--suite sigma2": 2,
}
DUMP_NS = range(3, 13)
# each digested run's verify arguments
DIGEST_RUNS = tuple(f"--n {n} --suite all" for n in range(11, 17)) + (
    "--n 41 --suite prop22",) + tuple(
    f"--n 80 --suite {suite}" for suite in ("presentation", "prop22", "lemma-y", "lemma-z"))


def _verify(args: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *args, "--machine"])
    payload = json.loads(out.getvalue())
    for check in payload["checks"]:
        del check["millis"]
    return code, payload


def stripped_payload(n: int, suite: str) -> tuple[int, dict]:
    return _verify(["--n", str(n), "--suite", suite])


def stripped_report(n: int, suite: str = "all") -> tuple[int, str]:
    code, payload = stripped_payload(n, suite)
    return code, json.dumps(payload, indent=2) + "\n"


def oracle_report(n: int) -> tuple[set[int], str]:
    """Exit codes and stripped reports of the oracle-only suites at n."""
    runs = {suite: stripped_payload(n, suite) for suite in ORACLE_SUITES}
    codes = {code for code, _ in runs.values()}
    payloads = {suite: payload for suite, (_, payload) in runs.items()}
    return codes, json.dumps(payloads, indent=2) + "\n"


def reflection_reports() -> tuple[set[int], str]:
    """Exit codes and stripped reports of the reflection-heavy runs."""
    runs = {args: _verify(args.split()) for args in REFLECTION_RUNS}
    codes = {code for code, _ in runs.values()}
    payloads = {args: payload for args, (_, payload) in runs.items()}
    return codes, json.dumps(payloads, indent=2) + "\n"


def limited_reports() -> tuple[dict[str, int], str]:
    """Exit codes and stripped reports of the runs at --max-cosets 50."""
    runs = {args: _verify([*args.split(), "--max-cosets", "50"])
            for args in LIMITED_RUNS}
    codes = {args: code for args, (code, _) in runs.items()}
    payloads = {args: payload for args, (_, payload) in runs.items()}
    return codes, json.dumps(payloads, indent=2) + "\n"


def digests() -> dict[str, dict]:
    """Exit code, row count and sha256 of the stripped report, per
    digested run."""
    found = {}
    for args in DIGEST_RUNS:
        code, payload = _verify(args.split())
        text = json.dumps(payload, indent=2) + "\n"
        found[args] = {"exit": code, "rows": len(payload["checks"]),
                       "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return found


def dump_listing() -> tuple[set[int], str]:
    """Exit codes and output of `dump` at every n of DUMP_NS, in both
    flavors, each run headed by its arguments."""
    codes, parts = set(), []
    for n in DUMP_NS:
        for flavor in ("oriented", "extended"):
            args = ["dump", "--n", str(n), "--flavor", flavor]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.add(main(args))
            parts.append(f"$ {' '.join(args)}\n{out.getvalue()}")
    return codes, "".join(parts)


@pytest.mark.parametrize("n", NS)
def test_report_matches_golden(n):
    code, report = stripped_report(n)
    assert report == (GOLDEN / f"n{n}.json").read_text()
    assert code == EXIT_CODES[n]


def _check_oracle_golden(n: int) -> None:
    codes, report = oracle_report(n)
    assert report == (GOLDEN / f"n{n}-oracle.json").read_text()
    assert codes == {0}


def test_deep_oracle_reports_match_golden():
    _check_oracle_golden(16)


def test_benchmark_n_oracle_reports_match_golden():
    # n=30 is the n of the oracle-deep benchmark workload
    _check_oracle_golden(30)


def test_main_suite_report_matches_golden():
    code, report = stripped_report(MAIN_N, "main")
    assert report == (GOLDEN / f"n{MAIN_N}-main.json").read_text()
    assert code == 0


def test_odd_suite_report_matches_golden():
    code, report = stripped_report(ODD_N, "odd")
    assert report == (GOLDEN / f"n{ODD_N}-odd.json").read_text()
    assert code == 0


def test_reflection_reports_match_golden():
    codes, report = reflection_reports()
    assert report == (GOLDEN / "n80-reflections.json").read_text()
    assert codes == {0}


def test_limit_hitting_reports_match_golden():
    codes, report = limited_reports()
    assert report == (GOLDEN / "max-cosets-50.json").read_text()
    assert codes == LIMITED_RUNS


def test_report_digests_match_golden():
    assert digests() == json.loads((GOLDEN / "digests.json").read_text())


def test_dump_listing_matches_golden():
    codes, listing = dump_listing()
    assert listing == (GOLDEN / "dump.txt").read_text()
    assert codes == {0}


def _reports(text: str) -> dict:
    """The reports of a golden file, keyed by suite or by arguments, or
    under None for a file of one report."""
    data = json.loads(text)
    return {None: data} if "checks" in data else data


def _check_ids(text: str) -> set[str]:
    return {check["id"] for report in _reports(text).values()
            for check in report["checks"]}


def _report_rule(report: dict) -> int:
    """The exit code of a report from its statuses alone."""
    found = {check["status"] for check in report["checks"]}
    return 1 if "fail" in found else 2 if "overflow" in found else 0


def test_pinned_exit_codes_follow_from_the_statuses():
    pinned = {f"n{n}.json": {None: code} for n, code in EXIT_CODES.items()}
    pinned |= {f"n{n}-oracle.json": dict.fromkeys(ORACLE_SUITES, 0) for n in ORACLE_NS}
    pinned[f"n{MAIN_N}-main.json"] = {None: 0}
    pinned[f"n{ODD_N}-odd.json"] = {None: 0}
    pinned["n80-reflections.json"] = dict.fromkeys(REFLECTION_RUNS, 0)
    pinned["max-cosets-50.json"] = LIMITED_RUNS
    assert sorted(pinned) == sorted(path.name for path in GOLDEN.glob("*.json")
                                    if path.name != "digests.json")
    for name, codes in pinned.items():
        reports = _reports((GOLDEN / name).read_text())
        assert {key: _report_rule(report) for key, report in reports.items()} == codes, name


def _write(path: pathlib.Path, text: str) -> None:
    """Write a golden file, first printing the check ids it gains (+)
    and loses (-)."""
    new = _check_ids(text)
    old = _check_ids(path.read_text()) if path.exists() else set()
    for sign, changed in (("+", new - old), ("-", old - new)):
        for check_id in sorted(changed):
            print(f"{path.name}: {sign}{check_id}")
    path.write_text(text)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for n in NS:
        _write(GOLDEN / f"n{n}.json", stripped_report(n)[1])
    for n in ORACLE_NS:
        _write(GOLDEN / f"n{n}-oracle.json", oracle_report(n)[1])
    _write(GOLDEN / f"n{MAIN_N}-main.json", stripped_report(MAIN_N, "main")[1])
    _write(GOLDEN / f"n{ODD_N}-odd.json", stripped_report(ODD_N, "odd")[1])
    _write(GOLDEN / "n80-reflections.json", reflection_reports()[1])
    _write(GOLDEN / "max-cosets-50.json", limited_reports()[1])
    (GOLDEN / "dump.txt").write_text(dump_listing()[1])
    path = GOLDEN / "digests.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    new = digests()
    for args in sorted(args for args in new if old.get(args) != new[args]):
        print(f"{path.name}: {args}")
    path.write_text(json.dumps(new, indent=2) + "\n")
