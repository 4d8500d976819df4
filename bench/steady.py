"""Steadiness mode: run one workload k times and summarise each end-to-end
metric across the runs.

    python3 bench/steady.py --workload query-mix --runs 10 [--first-seed 1]
        [--seconds S]

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed+1, ...).  For every end-to-end metric the table shows the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and that spread as a share of the metric's
bound in BENCHMARK.json.  A spread above a third of its bound is marked
`WIDE`; set-up time is exempt from the spread rule and marked `-`.  The
last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={metrics[k]['value']:.6g}" for k in values),
              flush=True)

    summary = {}
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        share = spread / m["bound"]
        flag = "-" if m["name"] == "setup_s" else ("WIDE" if share > 1 / 3 else "ok")
        print(f"{m['name']:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%} "
              f"{share:7.2f} {flag}")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "values": vals}
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
