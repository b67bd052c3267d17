#!/usr/bin/env python3
"""Regenerate ``expected.json``: the frozen answer to every benchmark check.

    python3 perfbench/freeze.py

Runs each workload's requests once with the package as it stands and keeps
(status, computed, predicted) for every (ring, scalar, n, check).  It
refuses to freeze a check that did not pass, and cross-checks every
homology prediction against ``predicted_hl2``.  Freeze only from a commit
whose answers are known good; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from stlhom.campaign import resolve_ring
    from stlhom.steinberg import predicted_hl2

    rows = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for name in workloads.WORKLOADS:
            reqs = workloads.requests(name, seed=0)
            result = run.run_pass(reqs, workdir)
            for req, entries in zip(reqs, result.reports):
                if entries is None or len(entries) != req.size:
                    raise SystemExit(f"{req.label()}: incomplete report")
                rings = {}
                for token, scalar in req.rings:
                    ring = resolve_ring(token, scalar)
                    rings[ring.name, scalar] = ring
                for e in entries:
                    if e["status"] != "passed":
                        raise SystemExit(f"refusing to freeze {e}")
                    if e["check"] == "homology":
                        ring = rings[e["ring"], e["scalar"]]
                        want = predicted_hl2(e["n"], ring)
                        if e["predicted"] != want.describe():
                            raise SystemExit(f"prediction mismatch: {e}")
                    key = workloads.entry_key(e)
                    rows[key] = dict(zip(("ring", "scalar", "n", "check"),
                                         key))
                    rows[key].update(zip(("status", "computed", "predicted"),
                                         workloads.entry_answer(e)))
            print(f"{name}: {sum(r.size for r in reqs)} checks, "
                  f"{result.wall_s:.1f} s")
    with open(run.EXPECTED, "w") as fh:
        json.dump([rows[k] for k in sorted(rows)], fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} expectations to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
