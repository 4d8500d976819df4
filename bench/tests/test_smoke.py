"""Smoke test of the benchmark on tiny inputs (about a minute).

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    run.load_program()
    import workloads
    return workloads


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], tiny=True)
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workloads, workload, trace):
    code, out = _run(capsys, workload, trace)
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    details = json.loads(out[-2])
    assert details["seed"] == 3 and len(details["inputs_sha256"]) == 64
    assert {"machine", "nproc", "python", "git_rev", "samples"} <= set(details)


def test_same_seed_same_inputs(workloads):
    for name in WORKLOADS:
        assert workloads.build(name, 7).digest() == workloads.build(name, 7).digest()
    assert workloads.build("query-mix", 7).digest() != workloads.build("query-mix", 8).digest()


def _wrong(op):
    if isinstance(op.expected, tuple):  # certificate ids: demand one that is no index
        return op.expected + (f"n{op.n}.main.w",)
    if isinstance(op.expected, bool):
        return not op.expected
    return op.expected + 1


@pytest.mark.parametrize("workload,kind,trace", [
    ("query-mix", "eq-equal", 0),
    ("query-mix", "eq-unequal", 0),
    ("query-mix", "order-known", 0),
    ("query-mix", "enum-small.odd", 1),
    ("even-certify", "verify.n8", 0),
    ("even-certify", "frontier", 1),  # the probe runs in traced runs only
])
def test_planted_wrong_verdict_aborts(capsys, monkeypatch, workloads, workload, kind, trace):
    real_build = workloads.build

    def planted(name, seed, tiny=False):
        w = real_build(name, seed, tiny)
        if w.probe is not None and w.probe.kind == kind:
            return dataclasses.replace(w, probe=dataclasses.replace(
                w.probe, expected=_wrong(w.probe)))
        k = next(i for i, op in enumerate(w.ops) if op.kind == kind)
        bad = dataclasses.replace(w.ops[k], expected=_wrong(w.ops[k]))
        return dataclasses.replace(w, ops=w.ops[:k] + (bad,) + w.ops[k + 1:])

    monkeypatch.setattr(workloads, "build", planted)
    code, out = _run(capsys, workload, trace)
    assert code == 3
    assert not any(line.startswith('{"correct"') for line in out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_traced_wall(workloads, workload):
    details, _, tracer = run.measure(workload, 5, 0.1, True, tiny=True)
    per_name, per_layer = tracer.totals()
    self_s = sum(row[0] for row in per_layer.values()) / 1e9
    assert self_s == pytest.approx(details["traced_total_s"], rel=0.02)
    assert per_name["bench.op"][2] == details["rounds"] * details["ops_per_round"]
    # the tracer restored every binding it replaced
    from spheremcg import action, cli
    assert not hasattr(action.compose, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "query-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
