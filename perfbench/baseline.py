#!/usr/bin/env python3
"""Record the machine and re-measure the ROADMAP baseline rows.

    python3 perfbench/baseline.py > perfbench/baseline.json

Prints one JSON object:

- ``machine``: CPython version, CPU model, usable CPUs, commit (when run in
  a git checkout);
- ``mat2_f2_n5_stages``: inclusive wall time of each stage of
  ``verify --check homology`` for mat2@f2 at n = 5, from one traced
  request: the size guard's ``build_sl``, and within the build ``build_sl``,
  ``uce``, ``build_stl`` and the ``HL_2`` stream (``homology_hl``);
- ``verify_all_mat2_f2_n4_s``: end-to-end wall time of
  ``python3 -m stlhom --ring mat2 --scalar f2 --n 4 --check all`` in a fresh
  interpreter, median of three, at ``--jobs 1`` and ``--jobs 2``;
- ``sweep39_peak_rss_mb``: peak RSS of a fresh interpreter running the
  39-case homology sweep (13 acceptance pairs x n = 3, 4, 5), with its wall
  time.

Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import run
import tracer as tracing
import workloads

SWEEP39 = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from stlhom.campaign import CampaignConfig, run_campaign
pairs = json.loads(sys.argv[2])
start = time.perf_counter()
report = run_campaign(CampaignConfig(rings=pairs, ns=[3, 4, 5],
                                     checks=["homology"]))
print(json.dumps({"wall_s": time.perf_counter() - start,
                  "summary": report.summary,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                cwd=run.BENCH_DIR, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": commit}


def mat2_stages(workdir) -> dict:
    req = workloads.Request("cli", (("mat2", "f2"),), (5,), "homology", 1)
    with tracing.Tracer() as tracer:
        result = run.run_pass([req], workdir, tracer)
    assert result.reports[0][0]["status"] == "passed"
    stages = {"request_s": result.wall_s}
    for span in tracer.spans:
        inside = span.parent.name if span.parent else None
        if span.name == "leibniz.build_sl":
            key = ("guard_build_sl_s" if inside == "campaign.declared_rows"
                   else "build_sl_s")
        elif span.name in ("leibniz.uce", "steinberg.build_stl",
                           "leibniz.homology_hl"):
            key = span.name.split(".")[1] + "_s"
        else:
            continue
        stages[key] = span.end - span.start
    return stages


def verify_all(workdir, jobs) -> float:
    argv = [sys.executable, "-m", "stlhom", "--ring", "mat2", "--scalar",
            "f2", "--n", "4", "--check", "all", "--jobs", str(jobs),
            "--out", os.path.join(workdir, "all.json")]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    out = {"machine": machine()}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        out["mat2_f2_n5_stages"] = mat2_stages(workdir)
        out["verify_all_mat2_f2_n4_s"] = {
            f"jobs{j}": verify_all(workdir, j) for j in (1, 2)}
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP39, str(run.SRC),
         json.dumps(workloads.SWEEP_PAIRS)],
        check=True, capture_output=True, text=True)
    out["sweep39"] = json.loads(proc.stdout)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
