#!/usr/bin/env python3
"""Replay one stlhom request workload, check every answer, print its metrics.

    python3 perfbench/run.py --workload stream-n5 --seed 1 --seconds 25 \
        --trace 0

The package is imported from ``src/`` beside this directory; nothing is
installed.  Workloads are described in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Passes
through the workload repeat until ``--seconds`` have elapsed (at least one).
``setup_s`` is the median wall time of a fresh interpreter that imports
``stlhom`` and ``stlhom.cli`` and resolves every ring of the workload,
sampled before each pass and after the last; ``wall_s`` and ``cpu_s`` sum,
over the requests, each request's median across passes; ``peak_rss_mb`` is
the peak resident set of this process or of any of its children (pool
workers).

``--trace 1`` runs one untraced and one traced pass, both at ``--jobs 1``
because spans do not cross the process pool, and prints the per-layer
metrics of the traced pass (see ``tracer.py``), plus ``trace.overhead_s``,
the traced minus the untraced wall time.  The spans and per-request counts
go to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Every report is checked against ``expected.json``; a traced pass must also
give the same entries as the untraced one, apart from ``duration_s``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric with the unit ``BENCHMARK.json``
gives it.  Exit code: 0 when every check matched, 1 when any did not, 2 when
the package, the expectations or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"

# fresh interpreters timed for setup_s before each pass and after the last,
# so that the samples span the run; one untimed first fills the bytecode cache
SETUP_REPEATS = 12
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import stlhom, stlhom.cli
from stlhom.campaign import resolve_ring
args = sys.argv[2:]
for token, scalar in zip(args[::2], args[1::2]):
    resolve_ring(token, scalar)
"""


def metric_units() -> dict:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def setup_argv(specs) -> list[str]:
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    return argv + [part for spec in specs for part in spec]


def setup_times(argv, repeats) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
    return times


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


@dataclasses.dataclass
class Pass:
    walls: list            # per request: wall seconds
    cpus: list             # per request: CPU seconds, pool workers included
    reports: list          # per request: its entries, or None on a crash

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def run_pass(reqs, workdir, tracer=None) -> Pass:
    """Issue the requests one after another; each writes its report file."""
    from stlhom import campaign, cli
    paths = [os.path.join(workdir, f"report-{i}.json")
             for i in range(len(reqs))]
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    crashed = set()
    walls, cpus = [], []
    for i, (req, path) in enumerate(zip(reqs, paths)):
        if tracer is not None:
            tracer.request = i
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            if req.kind == "cli":
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(req.argv(path))
            else:
                campaign.run_campaign(campaign.CampaignConfig(
                    rings=req.rings, ns=req.ns, checks=req.checks,
                    jobs=req.jobs, out=path))
        except Exception as exc:  # a crash is a failed request, not the end
            print(f"request {i} ({req.label()}) crashed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            crashed.add(i)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu0)
    reports = []
    for i, path in enumerate(paths):
        if i in crashed or not os.path.exists(path):
            reports.append(None)
            continue
        with open(path) as fh:
            reports.append(json.load(fh)["entries"])
    return Pass(walls, cpus, reports)


def check_pass(reqs, result: Pass, expected) -> list[str]:
    problems = []
    for req, entries in zip(reqs, result.reports):
        problems += workloads.gate(req, entries, expected)
    return problems


def without_durations(entries):
    if entries is None:
        return None
    return [{k: v for k, v in e.items() if k != "duration_s"}
            for e in entries]


def per_request_median(passes, field) -> float:
    """Sum over requests of each request's median across passes."""
    columns = zip(*(getattr(p, field) for p in passes))
    return sum(statistics.median(column) for column in columns)


def timed_run(reqs, seconds, workdir, expected):
    argv = setup_argv(workloads.ring_specs(reqs))
    setup_times(argv, 1)  # fills the bytecode cache; not counted
    setup = []
    passes, problems = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup += setup_times(argv, SETUP_REPEATS)
        result = run_pass(reqs, workdir)
        problems += check_pass(reqs, result, expected)
        passes.append(result)
    setup += setup_times(argv, SETUP_REPEATS)
    print(f"passes {len(passes)}: wall_s "
          f"{[round(p.wall_s, 3) for p in passes]}, setup_s median of "
          f"{len(setup)}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": per_request_median(passes, "walls"),
        "cpu_s": per_request_median(passes, "cpus"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, len(passes) * sum(r.size for r in reqs), problems


def traced_run(reqs, workdir, expected, trace_path, workload, seed):
    reqs = [dataclasses.replace(r, jobs=1) for r in reqs]
    plain = run_pass(reqs, workdir)
    problems = check_pass(reqs, plain, expected)
    with tracing.Tracer() as tracer:
        traced = run_pass(reqs, workdir, tracer)
    problems += check_pass(reqs, traced, expected)
    leftover = tracing.traced_bindings()
    if leftover:
        problems.append(f"tracer left wrapped bindings: {leftover}")
    for i, (a, b) in enumerate(zip(plain.reports, traced.reports)):
        if without_durations(a) != without_durations(b):
            problems.append(f"request {i}: traced entries differ from "
                            f"untraced ones")
    attempted = 2 * sum(r.size for r in reqs)
    per_request = [tracer.summary(i) for i in range(len(reqs))]
    shown = ("steinberg.build_stl.calls", "leibniz.build_gl.calls",
             "leibniz.d3.streams", "leibniz.make_leibniz.calls")
    for i, (req, counts) in enumerate(zip(reqs, per_request)):
        print(f"request {i} {req.label()}: "
              + " ".join(f"{k}={counts[k]}" for k in shown))
    metrics = tracer.summary()
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["failed_frac"] = len(problems) / attempted
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "requests": [r.label() for r in reqs],
                   "per_request": per_request,
                   "spans": tracer.spans_json()}, fh)
    print(f"traced wall_s {traced.wall_s:.3f}, untraced {plain.wall_s:.3f}; "
          f"{len(tracer.spans)} spans written to {trace_path}")
    return metrics, attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rings on the same code paths")
    args = parser.parse_args(argv)

    if not (SRC / "stlhom" / "__init__.py").is_file():
        print(f"error: no stlhom package under {SRC}", file=sys.stderr)
        return 2
    for path in (EXPECTED, SPEC):
        if not path.is_file():
            print(f"error: no {path.name} at {path}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    expected = workloads.load_expected(EXPECTED)
    units = metric_units()
    reqs = workloads.requests(args.workload, args.seed, args.smoke)
    print(f"workload {args.workload} seed {args.seed} smoke {args.smoke} "
          f"trace {args.trace}: {len(reqs)} requests")
    for i, req in enumerate(reqs):
        print(f"  request {i}: {req.label()}")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            suffix = "-smoke" if args.smoke else ""
            trace_path = OUT_DIR / (f"trace-{args.workload}-seed{args.seed}"
                                    f"{suffix}.json")
            metrics, attempted, problems = traced_run(
                reqs, workdir, expected, trace_path, args.workload, args.seed)
        else:
            metrics, attempted, problems = timed_run(
                reqs, args.seconds, workdir, expected)

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if "failed_frac" not in metrics:
        print(f"failed_frac {len(problems) / attempted} "
              f"{units['failed_frac']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
