"""Benchmark of the spheremcg certifier.

    python3 bench/run.py --workload {even-certify,oracle-deep,query-mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The run measures set-up in fresh
interpreters, then repeats the workload's round of operations for S
seconds in all (in fresh worker interpreters unless traced), checking
every answer.  It prints a details line
(machine, inputs digest, sample counts, per-class times) and, last, one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A wrong answer aborts with exit code 3 and no result; a missing source
tree exits 2.  `run.py --worker` is internal: a run starts its worker
interpreters that way.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import REFERENCE_NS, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
# Untraced rounds run in this many fresh interpreters, one after another,
# each for an equal share of --seconds (after the footprint round, see
# run_workers).  Python's speed on the same work
# differs from process to process (memory layout, hash seed), and with a
# single process that difference made most of the run-to-run spread.
WORKERS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

# Per-layer metric -> unit.  Counts and times are per round of the
# workload; peaks, ratios, set-up and probe figures are per run.
PER_LAYER_UNITS = {
    "coset.calls": "count",
    "coset.busy_s": "s",
    "coset.self_s": "s",
    "coset.defined": "count",
    "coset.max_alive": "count",
    "coset.collapses": "count",
    "coset.overflows": "count",
    "coset.defined_per_s": "1/s",
    "coset.useful_ratio": "ratio",
    "coset.verify_s": "s",
    "coset.frontier_probe_s": "s",
    "coset.frontier_defined": "count",
    "coset.certified_even_max": "n",
    "action.word_to_aut.calls": "count",
    "action.word_to_aut.busy_s": "s",
    "action.word_to_aut.letters_in": "letters",
    "action.compose.calls": "count",
    "action.compose.busy_s": "s",
    "action.image_letters.peak": "letters",
    "action.image_letters.total": "letters",
    "action.guard_trips": "count",
    "action.self_s": "s",
    "action.is_inner.calls": "count",
    "action.is_inner.busy_s": "s",
    "action.is_inner.hit_ratio": "ratio",
    "action.equal.calls": "count",
    "action.equal.busy_s": "s",
    "action.order_of.calls": "count",
    "action.order_of.busy_s": "s",
    "action.order_of.compose_per_call": "count",
    "action.order_of.inner_tests_per_call": "count",
    "action.setup_s": "s",
    "homs.setup_s": "s",
    "homs.calls": "count",
    "homs.busy_s": "s",
    "homs.self_s": "s",
    "words.reduce.calls": "count",
    "words.reduce.letters": "letters",
    "words.self_s": "s",
    "presentation.calls": "count",
    "presentation.self_s": "s",
    "harness.checks": "count",
    "harness.self_s": "s",
    "harness.report_s": "s",
    "harness.suite_s.presentation": "s",
    "harness.suite_s.prop22": "s",
    "harness.suite_s.section3": "s",
    "harness.suite_s.lemma_y": "s",
    "harness.suite_s.lemma_z": "s",
    "harness.suite_s.main_even": "s",
    "harness.suite_s.odd": "s",
    "harness.suite_s.n4": "s",
    "harness.suite_s.sigma2": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter: import, then the lazy per-n convention
# search and the PGL2 generator validation.  Prints the three durations
# and the median reference-work time just before and just after them.
SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, {bench!r})
sys.path.insert(0, {src!r})
from speed import reference_ns
ref = lambda: statistics.median(reference_ns() for _ in range(5))
before = ref()
t0 = time.perf_counter()
import spheremcg
from spheremcg import action, homs
t1 = time.perf_counter()
for n in {ns!r}:
    action.word_to_aut((), n)
t2 = time.perf_counter()
homs.pgl2_image(())
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2, before, ref())
"""


class MissingProgram(Exception):
    pass


def load_program():
    """Import spheremcg from this checkout's src/ and nowhere else."""
    if not (SRC / "spheremcg" / "__init__.py").is_file():
        raise MissingProgram(f"no spheremcg source under {SRC}")
    sys.path.insert(0, str(SRC))
    import spheremcg
    if Path(spheremcg.__file__).resolve().parent != SRC / "spheremcg":
        raise MissingProgram(f"spheremcg imported from {spheremcg.__file__}, not {SRC}")


def measure_setup(ns, runs: int) -> dict[str, float]:
    """Median set-up durations over `runs` fresh interpreters, scaled to
    reference speed like the timed operations (see speed.py)."""
    code = SETUP_CODE.format(bench=str(BENCH), src=str(SRC), ns=tuple(ns))
    rows = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        imp, act, homs, before, after = (float(x) for x in done.stdout.split())
        scale = REFERENCE_NS / ((before + after) / 2)
        rows.append((imp * scale, act * scale, homs * scale, imp + act + homs))
    imp, act, homs, raw = (statistics.median(col) for col in zip(*rows))
    return {"setup_s": statistics.median(sum(r[:3]) for r in rows), "import_s": imp,
            "action_s": act, "homs_s": homs, "raw_setup_s": raw, "runs": runs}


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _per_op(rounds: list[list[float]]) -> list[float]:
    """Each operation's median over the rounds."""
    return [statistics.median(col) for col in zip(*rounds)]


class Rounds:
    """Every operation's time, round by round, and the outcomes.

    Calibrated rounds run under a SpeedProbe and their `times` are scaled
    to reference speed (see speed.py); otherwise `times` are the raw
    times, which are kept in `raw` either way.
    """

    def __init__(self):
        self.raw: list[list[int]] = []        # ns, one list per round
        self.times: list[list[float]] = []    # ns, scaled when calibrated
        self.kinds: list[str] = []
        self.reference_samples = 0
        self.peak_rss_mb: list[float] = []   # one per process that ran rounds
        self.attempted = 0
        self.failed = 0
        self.ok_ns: set[int] | None = None    # n of ops that succeeded in every round

    def run(self, workload, seconds: float, calibrate: bool, tracer=None) -> None:
        """Repeat the round until about `seconds` have passed, at least once:
        another round starts only if half of it still fits."""
        from workloads import call, judge
        self.kinds = [op.kind for op in workload.ops]
        probe = SpeedProbe() if calibrate else None
        marks: list[list[tuple[int, int]]] = []
        start = time.perf_counter()
        with probe or contextlib.nullcontext():
            while True:
                gc.collect()
                began = time.perf_counter()
                raw, spans, ok_ns = [], [], set()
                for op in workload.ops:
                    if probe:
                        first, handler_ns = probe.mark()
                    t0 = time.perf_counter_ns()
                    answer = call(op) if tracer is None else tracer.root(lambda: call(op))
                    dt = time.perf_counter_ns() - t0
                    if probe:
                        last, handler_end = probe.mark()
                        dt -= handler_end - handler_ns
                        spans.append((first, last))
                    raw.append(dt)
                    self.attempted += 1
                    if judge(op, answer):
                        ok_ns.add(op.n)
                    else:
                        self.failed += 1
                self.raw.append(raw)
                marks.append(spans)
                self.ok_ns = ok_ns if self.ok_ns is None else self.ok_ns & ok_ns
                now = time.perf_counter()
                if now - start + (now - began) / 2 >= seconds:
                    break
        if probe:
            self.times = [[dt * probe.scale(*span) for dt, span in zip(raw, spans)]
                          for raw, spans in zip(self.raw, marks)]
            self.reference_samples = len(probe.samples)
        else:
            self.times = [list(map(float, raw)) for raw in self.raw]

    def wall_s(self) -> float:
        """A round's time: the sum of each operation's median over rounds."""
        return sum(_per_op(self.times)) / 1e9

    def raw_wall_s(self) -> float:
        return sum(_per_op(self.raw)) / 1e9

    def op_ms(self, q: float) -> float:
        """q-quantile over operations of each one's median over rounds."""
        return quantile(sorted(_per_op(self.times)), q) / 1e6

    def by_kind_ms(self) -> dict[str, float]:
        groups = defaultdict(list)
        for kind, t in zip(self.kinds, _per_op(self.times)):
            groups[kind].append(t)
        return {kind: statistics.median(v) / 1e6 for kind, v in sorted(groups.items())}

    def total_s(self) -> float:
        return sum(sum(r) for r in self.raw) / 1e9

    def merge(self, other: "Rounds") -> None:
        self.raw += other.raw
        self.times += other.times
        self.kinds = other.kinds
        self.attempted += other.attempted
        self.failed += other.failed
        self.ok_ns = other.ok_ns if self.ok_ns is None else self.ok_ns & other.ok_ns
        self.reference_samples += other.reference_samples
        self.peak_rss_mb += other.peak_rss_mb


def warm(workload) -> None:
    """Fill the lazy per-n caches, so that no timed call pays for them."""
    from spheremcg import action, homs
    for n in workload.action_ns:
        action.word_to_aut((), n)
    homs.pgl2_image(())


def worker_main() -> int:
    """A worker interpreter: reads the pickled (workload, seconds,
    calibrate) from stdin, runs its share of the rounds, and writes them
    to stdout as JSON.  Exit code 3 on a wrong verdict, as for a run."""
    load_program()
    import workloads
    workload, seconds, calibrate = pickle.loads(sys.stdin.buffer.read())
    warm(workload)
    rounds = Rounds()
    try:
        rounds.run(workload, seconds, calibrate=calibrate)
    except workloads.WrongVerdict as exc:
        print(exc, file=sys.stderr)
        return 3
    rounds.peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    rounds.ok_ns = sorted(rounds.ok_ns)
    json.dump(vars(rounds), sys.stdout)
    return 0


def run_worker(workload, seconds: float, calibrate: bool) -> Rounds:
    """One fresh worker interpreter, waited for."""
    import workloads
    job = pickle.dumps((workload, seconds, calibrate))
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--worker"],
                          input=job, capture_output=True, cwd=ROOT, timeout=900)
    if done.returncode == 3:
        raise workloads.WrongVerdict(done.stderr.decode().strip())
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.decode()}")
    part = Rounds()
    vars(part).update(json.loads(done.stdout))
    part.ok_ns = set(part.ok_ns)
    return part


def run_workers(workload, seconds: float) -> Rounds:
    """The footprint round, then WORKERS timing interpreters in turn; their
    rounds pooled.

    Peak memory comes from the footprint interpreter alone: it runs exactly
    one round, uncalibrated.  The timing workers' SpeedProbe handler
    allocates at timer ticks, between the coset tables' reallocations, and
    their peak resident memory moved by 15% and more from run to run on
    even-certify; the program alone allocates the same way every time.
    The footprint round's time comes out of the timing workers' share.
    """
    began = time.perf_counter()
    footprint = run_worker(workload, 0.0, calibrate=False)
    share = max(seconds - (time.perf_counter() - began), 0.0) / WORKERS
    pooled = Rounds()
    for _ in range(WORKERS):
        pooled.merge(run_worker(workload, share, calibrate=True))
    pooled.attempted += footprint.attempted
    pooled.failed += footprint.failed
    pooled.ok_ns &= footprint.ok_ns
    pooled.peak_rss_mb = footprint.peak_rss_mb
    return pooled


def run_probe(workload):
    """The frontier probe: one enumeration past the certified range."""
    from workloads import call, judge
    t0 = time.perf_counter()
    result = call(workload.probe)
    seconds = time.perf_counter() - t0
    certified = judge(workload.probe, result)
    return {"n": workload.probe.n, "status": result.status, "index": result.index,
            "certified": certified, "seconds": seconds, "defined": result.stats.defined,
            "max_alive": result.stats.max_alive}


def layer_metrics(tracer, rounds: Rounds, untraced: Rounds, setup, probe,
                  certified_max) -> dict[str, float]:
    names, layers = tracer.totals()
    k = len(rounds.raw)
    c, peaks = tracer.counters, tracer.peaks

    def calls(name):
        return names.get(name, (0, 0, 0))[2] / k

    def busy(name):
        return names.get(name, (0, 0, 0))[1] / 1e9 / k

    def layer_self(layer):
        return layers.get(layer, (0, 0))[0] / 1e9 / k

    def layer_busy(layer):
        return layers.get(layer, (0, 0))[1] / 1e9 / k

    def layer_calls(layer):
        return sum(row[2] for name, row in names.items() if name.startswith(layer + ".")) / k

    def ratio(a, b):
        return a / b if b else 0.0

    order_calls = calls("action.order_of")
    m = {
        "coset.calls": calls("coset.enumerate_cosets"),
        "coset.busy_s": layer_busy("coset"),
        "coset.self_s": layer_self("coset"),
        "coset.defined": c["coset.defined"] / k,
        "coset.max_alive": peaks["coset.max_alive"],
        "coset.collapses": c["coset.collapses"] / k,
        "coset.overflows": c["coset.overflows"] / k,
        "coset.defined_per_s": ratio(c["coset.defined"] / k, busy("coset.enumerate_cosets")),
        "coset.useful_ratio": ratio(c["coset.index"], c["coset.defined"]),
        "coset.verify_s": busy("coset.CosetTable.verify"),
        "coset.frontier_probe_s": probe["seconds"] if probe else 0.0,
        "coset.frontier_defined": probe["defined"] if probe else 0,
        "coset.certified_even_max": certified_max,
        "action.word_to_aut.calls": calls("action.word_to_aut"),
        "action.word_to_aut.busy_s": busy("action.word_to_aut"),
        "action.word_to_aut.letters_in": c["action.word_to_aut.letters_in"] / k,
        "action.compose.calls": calls("action.compose"),
        "action.compose.busy_s": busy("action.compose"),
        "action.image_letters.peak": peaks["action.image_letters.peak"],
        "action.image_letters.total": c["action.image_letters.total"] / k,
        "action.guard_trips": c["action.guard_trips"] / k,
        "action.self_s": layer_self("action"),
        "action.is_inner.calls": calls("action.is_inner"),
        "action.is_inner.busy_s": busy("action.is_inner"),
        "action.is_inner.hit_ratio": ratio(c["action.is_inner.hits"] / k,
                                           calls("action.is_inner")),
        "action.equal.calls": calls("action.equal_with_witness"),
        "action.equal.busy_s": busy("action.equal_with_witness"),
        "action.order_of.calls": order_calls,
        "action.order_of.busy_s": busy("action.order_of"),
        "action.order_of.compose_per_call": ratio(c["action.order_of.compose"] / k, order_calls),
        "action.order_of.inner_tests_per_call": ratio(c["action.order_of.is_inner"] / k,
                                                      order_calls),
        "action.setup_s": setup["action_s"],
        "homs.setup_s": setup["homs_s"],
        "homs.calls": layer_calls("homs"),
        "homs.busy_s": layer_busy("homs"),
        "homs.self_s": layer_self("homs"),
        "words.reduce.calls": calls("words.reduce"),
        "words.reduce.letters": c["words.reduce.letters"] / k,
        "words.self_s": layer_self("words"),
        "presentation.calls": layer_calls("presentation"),
        "presentation.self_s": layer_self("presentation"),
        "harness.checks": c["harness.checks"] / k,
        "harness.self_s": layer_self("harness"),
        "harness.report_s": busy("harness.Report.to_json"),
        "cli.self_s": layer_self("cli"),
        "trace.wall_s": rounds.raw_wall_s(),
        "trace.overhead_s": rounds.raw_wall_s() - untraced.raw_wall_s(),
    }
    for suite in ("presentation", "prop22", "section3", "lemma_y", "lemma_z",
                  "main_even", "odd", "n4", "sigma2"):
        m[f"harness.suite_s.{suite}"] = busy(f"harness.verify_{suite}")
    return m


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
    }


def git_rev() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Digest of the package sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spheremcg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False):
    """One benchmark run; returns (details, result, tracer or None)."""
    import workloads
    workload = workloads.build(workload_name, seed, tiny)
    warm(workload)
    setup = measure_setup(workload.action_ns, 2 if tiny else SETUP_RUNS)

    tracer = probe = None
    if trace:
        from tracer import Tracer
        # neither half is calibrated, so that trace.overhead_s compares
        # like with like and no signal handler lands inside a span
        untraced = Rounds()
        untraced.run(workload, seconds / 2, calibrate=False)
        tracer = Tracer()
        tracer.install()
        try:
            rounds = Rounds()
            rounds.run(workload, seconds / 2, calibrate=False, tracer=tracer)
        finally:
            tracer.uninstall()
        # the probe belongs to the traced run only: no end-to-end metric
        # uses it, and it would add about 7 s to every untraced run
        probe = run_probe(workload) if workload.probe else None
    else:
        untraced = rounds = run_workers(workload, seconds)

    certified = [op.n for op in workload.ops
                 if op.kind == f"verify.n{op.n}" and op.n in rounds.ok_ns & untraced.ok_ns]
    if probe and probe["certified"]:
        certified.append(probe["n"])
    certified_max = max(certified, default=0)

    attempted = rounds.attempted + (untraced.attempted if trace else 0) + (1 if probe else 0)
    failed = rounds.failed + (untraced.failed if trace else 0)
    per_round = len(workload.ops)
    details = {
        "workload": workload_name,
        "seed": seed,
        "inputs_sha256": workload.digest(),
        "seconds": seconds,
        "trace": int(trace),
        **environment(),
        "rounds": len(rounds.raw),
        "processes": 1 if trace else WORKERS + 1,
        "ops_per_round": per_round,
        # each operation's time is its median over the rounds; the
        # percentiles are over the operations of one round
        "samples": {"operations": per_round, "beyond_p99": per_round // 100,
                    "rounds_per_operation": len(rounds.raw)},
        "by_kind_ms": rounds.by_kind_ms(),
        "raw_wall_s": rounds.raw_wall_s(),
        "setup": setup,
        "probe": probe,
        "certified_even_max": certified_max,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{workload_name}-{seed}.csv.gz"
        tracer.write(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
        details["spans"] = len(tracer.spans)
        details["traced_total_s"] = rounds.total_s()
        metrics = layer_metrics(tracer, rounds, untraced, setup, probe, certified_max)
        units = PER_LAYER_UNITS
    else:
        details["reference_samples"] = untraced.reference_samples
        metrics = {
            "setup_s": setup["setup_s"],
            "wall_s": rounds.wall_s(),
            "peak_rss_mb": rounds.peak_rss_mb[0],
            "op_p50_ms": rounds.op_ms(0.5),
            "op_p99_ms": rounds.op_ms(0.99),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return details, result, tracer


def main(argv=None, tiny: bool = False) -> int:
    if argv is None and sys.argv[1:] == ["--worker"]:  # started by run_workers
        return worker_main()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("even-certify", "oracle-deep", "query-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    try:
        details, result, _ = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), tiny)
    except workloads.WrongVerdict as exc:
        print(f"wrong verdict, run aborted: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
