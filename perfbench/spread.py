#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--workload W ...]

For every workload (all by default) the untraced benchmark runs once per
seed, one run at a time.  For each end-to-end metric this prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  Raw result lines go to ``perfbench/out/spread-<W>.jsonl``.
Exit code 1 if any run failed or any spread is not below a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    run.OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for workload in names:
        results = []
        raw = run.OUT_DIR / f"spread-{workload}.jsonl"
        with open(raw, "w") as fh:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, str(run.BENCH_DIR / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:]
                if proc.returncode != 0 or not last:
                    print(f"{workload} seed {seed}: exit {proc.returncode}")
                    print(proc.stderr[-2000:])
                    ok = False
                    continue
                fh.write(last[0] + "\n")
                results.append(json.loads(last[0]))
        if len(results) < 2:
            continue
        print(f"{workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < metric["bound"] / 3
            ok &= steady
            print(f"  {name:12s} median {median:10.4f} {metric['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"bound {metric['bound']:.2f}"
                  f"{'' if steady else '  NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
