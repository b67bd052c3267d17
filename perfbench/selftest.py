#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- Smoke: each workload on the tiny rings (ground@f3 3, ground@f2 4,
  int@z 4) through ``run.py``, untraced and traced; every check passes and
  the metrics printed are exactly the ones ``BENCHMARK.json`` names.
- Gate: a tampered expected answer makes ``run.py`` fail with
  ``correct: false``, untraced and traced; a report entry for another n than
  the one asked for, a repeated entry or a missing one each fail the gate.
- Tracer: every namespace that binds a traced function sees the wrapper;
  spans nest; an ``all`` request shows its per-check rebuilds; a raising
  call leaves the span stack empty; afterwards no wrapper remains.
- Without ``src/`` next to it, ``run.py`` exits non-zero and prints no result.

Takes about half a minute.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing
import workloads

ROOT = run.BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> tuple[int, dict | None]:
    """Run run.py; return its exit code and its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def smoke_args(workload, trace, *extra):
    return ("--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace), "--smoke", *extra)


def test_smoke_runs_pass_with_declared_metrics():
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(*smoke_args(workload, trace))
            assert code == 0, (workload, trace, code)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            names = [m["name"] for m in SPEC[section]]
            assert list(result["metrics"]) == names, (workload, trace)


def test_tampered_expectation_fails_the_gate():
    rows = json.loads(run.EXPECTED.read_text())
    for row in rows:
        if (row["ring"], row["scalar"], row["n"], row["check"]) == \
                ("ground", "f3", 3, "homology"):
            row["computed"] = "f3^7"
    run.OUT_DIR.mkdir(exist_ok=True)
    real = run.EXPECTED
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        run.EXPECTED = Path(tmp) / "tampered.json"
        run.EXPECTED.write_text(json.dumps(rows))
        try:
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(list(smoke_args("stream-n5", trace)))
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                assert code == 1, (trace, code)
                assert not result["correct"] and result["failed"] >= 1, result
        finally:
            run.EXPECTED = real


def test_gate_keys_entries_by_the_request():
    expected = workloads.load_expected(run.EXPECTED)

    def entries(*keys):
        return [dict(zip(("ring", "scalar", "n", "check"), key),
                     **dict(zip(("status", "computed", "predicted"),
                                expected[key])))
                for key in keys]

    ask = workloads.Request("cli", (("ground", "f2"),), (4,), "homology", 1)
    right = ("ground", "f2", 4, "homology")
    assert workloads.gate(ask, entries(right), expected) == []
    # an answer to n = 3, which the expectations also hold, is still wrong
    wrong_n = ("ground", "f2", 3, "homology")
    assert wrong_n in expected
    assert len(workloads.gate(ask, entries(wrong_n), expected)) == 2
    assert len(workloads.gate(ask, entries(right, right), expected)) == 1
    assert len(workloads.gate(ask, [], expected)) == 1
    assert len(workloads.gate(ask, None, expected)) == 1

    every = workloads.Request("cli", (("ground", "f3"),), (3,), "all", 1)
    keys = workloads.request_keys(every)
    assert len(keys) == every.size == 4
    assert workloads.gate(every, entries(*keys), expected) == []
    # the right number of entries, but one check twice and one not at all
    twice = entries(keys[0], *keys[:-1])
    assert len(workloads.gate(every, twice, expected)) == 2


def bindings(originals):
    """(module, attribute) -> current value, for every binding of originals."""
    out = {}
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            for original in originals:
                if value is original:
                    out[module.__name__, attr] = original
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import stlhom
    import stlhom.cli  # noqa: F401  (the package does not import it)
    originals = [getattr(sys.modules[f"stlhom.{mod}"], fn)
                 for mod, fn in tracing.TRACED + (tracing.STREAM,)]
    before = bindings(originals)
    assert ("stlhom.campaign", "build_sl") in before
    assert ("stlhom.steinberg", "build_sl") in before
    assert ("stlhom", "build_sl") in before

    reqs = workloads.requests("all-checks-j2", seed=0, smoke=True)
    reqs = [dataclasses.replace(r, jobs=1) for r in reqs]
    expected = workloads.load_expected(run.EXPECTED)
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        with tracing.Tracer() as tracer:
            for (module_name, attr), original in before.items():
                value = getattr(sys.modules[module_name], attr)
                assert value is not original, (module_name, attr)
                assert value.__wrapped__ is original
            result = run.run_pass(reqs, workdir, tracer)
            leibniz = sys.modules["stlhom.leibniz"]
            tracer.request = "raising"
            try:
                leibniz.homology_hl(leibniz.build_sl(3, stlhom.catalog_ring(
                    "ground", stlhom.F2)), 3)
            except ValueError:
                pass
            else:
                raise AssertionError("degree 3 should be refused")
            assert not tracer._stack
    assert not run.check_pass(reqs, result, expected)
    assert tracing.traced_bindings() == []
    assert bindings(originals) == before

    by_id = {s.sid: s for s in tracer.spans}
    for span in tracer.spans:
        assert span.end is not None and span.self_s >= -1e-6, span.name
        if span.parent is not None:
            assert by_id[span.parent.sid] is span.parent
            assert span.parent.request == span.request
            assert span.parent.start <= span.start <= span.end \
                <= span.parent.end
    for i in range(len(reqs)):
        counts = tracer.summary(i)
        assert counts["cli.main.calls"] == 1
        assert counts["steinberg.build_stl.calls"] == 3, counts
        assert counts["leibniz.d3.streams"] == 4, counts
        assert counts["steinberg.cocycle.triples"] > 0
    assert tracer.summary("raising")["leibniz.homology_hl.calls"] == 1


def test_fails_without_the_package():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = subprocess.run([*SPEC["command"], "--workload", "stream-n5",
                               "--seed", "1", "--seconds", "1", "--trace",
                               "0"], cwd=tmp, capture_output=True,
                              text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
