"""Golden reports: `verify --n N --suite all --machine` for N = 3..10,
with the per-check `millis` removed, must match the checked-in files in
tests/golden/ byte for byte.  Reports are deterministic apart from
`millis`, so any difference is a changed verdict, witness, statement or
check id.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from spheremcg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
NS = range(3, 11)


def stripped_report(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", "--n", str(n), "--suite", "all", "--machine"])
    payload = json.loads(out.getvalue())
    for check in payload["checks"]:
        del check["millis"]
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("n", NS)
def test_report_matches_golden(n):
    assert stripped_report(n) == (GOLDEN / f"n{n}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for n in NS:
        (GOLDEN / f"n{n}.json").write_text(stripped_report(n))
