"""Campaign runner and CLI: config validation, determinism, budget guard,
report shapes, exit codes.

The report format is pinned byte-for-byte (modulo measured durations) so CI
artifacts stay diffable; the determinism test compares a serial run against
a parallel one of the same config.
"""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import stlhom
from stlhom import (F3, Z, CampaignConfig, CampaignConfigError,
                    CampaignReport, catalog_ring, declared_rows, resolve_ring,
                    run_campaign, save_ring_json)
from stlhom.cli import main

from oracles import s3_ring

FAST_RING = ("ground", "f3")


def small_config(**kw):
    base = dict(rings=[FAST_RING], ns=[3], checks=["all"])
    base.update(kw)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_requires_a_ring():
    with pytest.raises(CampaignConfigError):
        CampaignConfig(rings=[], ns=[3], checks=["all"])


def test_config_rejects_bad_ns():
    with pytest.raises(CampaignConfigError):
        small_config(ns=[2])
    with pytest.raises(CampaignConfigError):
        small_config(ns=[])
    with pytest.raises(CampaignConfigError):
        small_config(ns=[3, 6])


def test_config_rejects_non_int_ns():
    # 3.0 == 3 and True == 1 would pass a bare subset test
    for ns in ([3.0], [3, 4.0], [True], ["3"], [[3]]):
        with pytest.raises(CampaignConfigError, match="subset"):
            small_config(ns=ns)


def test_config_rejects_non_int_jobs_and_bound():
    # True == 1 would pass a bare isinstance(int) test and then refuse every
    # request with "exceeds bound True"
    for bad in (True, 2.0, "2", None):
        with pytest.raises(CampaignConfigError, match="jobs"):
            small_config(jobs=bad)
        with pytest.raises(CampaignConfigError, match="max_cube"):
            small_config(max_cube=bad)
    with pytest.raises(CampaignConfigError):
        small_config(max_cube=True, jobs=True)


def test_config_rejects_bad_checks():
    with pytest.raises(CampaignConfigError):
        small_config(checks=["nope"])
    with pytest.raises(CampaignConfigError):
        small_config(checks=[])


def test_config_expands_all_and_sorts():
    cfg = small_config(checks=["all"])
    assert cfg.checks == ["calculus", "cocycle", "homology", "sharp"]
    cfg = small_config(checks=["sharp", "cocycle", "sharp"])
    assert cfg.checks == ["cocycle", "sharp"]
    cfg = small_config(ns=[5, 3, 3])
    assert cfg.ns == [3, 5]


def test_config_rejects_bad_jobs_and_bound():
    with pytest.raises(CampaignConfigError):
        small_config(jobs=0)
    with pytest.raises(CampaignConfigError):
        small_config(max_cube=0)


def test_config_validates_rings_up_front():
    with pytest.raises(CampaignConfigError):
        CampaignConfig(rings=[("nosuch", "f2")], ns=[3], checks=["all"])
    with pytest.raises(CampaignConfigError):
        CampaignConfig(rings=[("ground", "f9")], ns=[3], checks=["all"])
    with pytest.raises(CampaignConfigError):
        # the integer ring only lives over z
        CampaignConfig(rings=[("int", "f2")], ns=[3], checks=["all"])
    with pytest.raises(CampaignConfigError):
        CampaignConfig(rings=[("ground",)], ns=[3], checks=["all"])


def test_resolve_ring_from_file(tmp_path):
    path = tmp_path / "dual.json"
    save_ring_json(catalog_ring("dual", F3), str(path))
    alg = resolve_ring(str(path), "f3")
    assert alg.name == "dual" and alg.dim == 2
    with pytest.raises(CampaignConfigError):
        resolve_ring(str(path), "f2")  # scalar mismatch with the file
    with pytest.raises(CampaignConfigError):
        resolve_ring(str(tmp_path / "missing.json"), "f3")


def test_ring_path_that_cannot_be_opened_is_a_config_error(tmp_path,
                                                           capsys):
    with pytest.raises(CampaignConfigError, match="bad ring file"):
        CampaignConfig(rings=[(str(tmp_path), "f2")], ns=[3])
    rc = main(["--ring", str(tmp_path), "--scalar", "f2", "--n", "3",
               "--check", "homology"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad ring file")


def test_resolve_ring_rejects_garbage_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"name\": \"x\"}\n")
    with pytest.raises(CampaignConfigError):
        resolve_ring(str(path), "f2")


# ---------------------------------------------------------------------------
# budget guard


def test_declared_rows_values():
    # rows of the d3 stream in uce: the special pairs of sl_n(R)
    from stlhom import F2, Q, Z
    assert declared_rows(5, catalog_ring("mat2", F2)) == 1_001
    assert declared_rows(5, catalog_ring("group-c2", Q)) == 144
    assert declared_rows(3, catalog_ring("ground", F3)) == 22
    assert declared_rows(4, catalog_ring("int", Z)) == 57
    assert declared_rows(4, catalog_ring("dual", F2)) == 228
    assert declared_rows(3, catalog_ring("trunc3", F3)) == 198


@pytest.mark.parametrize("n", [3, 4, 5])
def test_declared_rows_formula_matches_build_sl(n):
    from stlhom import ACCEPTANCE_PAIRS, SCALARS, build_sl
    from stlhom.leibniz import special_weight
    from oracles import torus_weight
    catalog = list(ACCEPTANCE_PAIRS) + [
        (name, "z") for name in ("dual", "trunc3", "group-c2", "upper2")]
    for name, scal in catalog:
        ring = catalog_ring(name, SCALARS[scal])
        sl = build_sl(n, ring)
        code = sl.grading.code
        special = sum(special_weight(sl.dom, torus_weight(cs + ct, n))
                      for cs in code for ct in code)
        assert declared_rows(n, ring) == special, (name, scal, n)


def truncated_polynomial_ring(dom, dim):
    """K[x]/(x^dim) on the basis 1, x, ..., x^(dim-1)."""
    from stlhom import make_algebra
    structure = {(i, j): {i + j: 1} for i in range(dim) for j in range(dim)
                 if i + j < dim}
    return make_algebra(dom, dim, structure, unit_index=0, name=f"trunc{dim}")


def test_size_guard_refuses_without_building_sl(tmp_path, monkeypatch):
    import stlhom.campaign
    import stlhom.leibniz
    import stlhom.steinberg
    from stlhom import F2

    def no_build(*_args):
        raise AssertionError("the size guard built sl")

    for module in (stlhom.campaign, stlhom.leibniz, stlhom.steinberg):
        monkeypatch.setattr(module, "build_sl", no_build, raising=False)
    path = tmp_path / "trunc10.json"
    save_ring_json(truncated_polynomial_ring(F2, 10), str(path))
    # K[x]/(x^10) at n = 5 declares 5,600 special pairs
    rep = run_campaign(CampaignConfig(rings=[(str(path), "f2")], ns=[5],
                                      checks=["homology", "calculus"],
                                      max_cube=5_000))
    assert [e["status"] for e in rep.entries] == ["refused", "refused"]


def test_budget_guard_refuses_model_checks_only():
    rep = run_campaign(small_config(checks=["all"], max_cube=10))
    status = {e["check"]: e["status"] for e in rep.entries}
    assert status == {"calculus": "refused", "cocycle": "passed",
                      "homology": "refused", "sharp": "refused"}
    refused = [e for e in rep.entries if e["status"] == "refused"]
    assert all("exceeds bound 10" in e["witness"]["reason"] for e in refused)
    assert rep.exit_code == 1 and not rep.ok


def test_default_bound_admits_the_whole_catalog():
    from stlhom import ACCEPTANCE_PAIRS, SCALARS, DEFAULT_MAX_CUBE
    for name, scal in ACCEPTANCE_PAIRS:
        ring = catalog_ring(name, SCALARS[scal])
        for n in (3, 4, 5):
            assert declared_rows(n, ring) <= DEFAULT_MAX_CUBE


# ---------------------------------------------------------------------------
# campaign runs


def test_happy_path_entries_and_order():
    rep = run_campaign(small_config())
    assert [e["check"] for e in rep.entries] == [
        "calculus", "cocycle", "homology", "sharp"]
    assert all(e["status"] == "passed" for e in rep.entries)
    assert all(e["ring"] == "ground" and e["scalar"] == "f3"
               and e["n"] == 3 for e in rep.entries)
    assert rep.exit_code == 0 and rep.ok
    assert rep.summary["total"] == 4 and rep.summary["passed"] == 4


def test_every_requested_triple_appears_exactly_once():
    cfg = CampaignConfig(rings=[("ground", "f3"), ("ground", "f2"),
                                ("ground", "f3")],  # duplicate collapses
                         ns=[3, 5], checks=["cocycle", "homology"])
    rep = run_campaign(cfg)
    triples = [(e["ring"], e["scalar"], e["n"], e["check"])
               for e in rep.entries]
    assert len(triples) == len(set(triples)) == 2 * 2 * 2
    assert sorted(triples) == triples


def test_n5_hat_checks_are_skipped_not_failed():
    cfg = CampaignConfig(rings=[FAST_RING], ns=[5],
                         checks=["cocycle", "sharp"])
    rep = run_campaign(cfg)
    assert [e["status"] for e in rep.entries] == ["skipped", "skipped"]
    assert all("n in (3, 4)" in e["witness"]["reason"] for e in rep.entries)
    assert rep.exit_code == 0  # nothing failed, nothing refused


def test_spec_example_values():
    def one(name, scal, n):
        cfg = CampaignConfig(rings=[(name, scal)], ns=[n],
                             checks=["homology"])
        (entry,) = run_campaign(cfg).entries
        return entry
    e = one("ground", "f2", 4)
    assert (e["status"], e["computed"], e["predicted"]) == \
        ("passed", "f2^6", "f2^6")
    e = one("ground", "f2", 5)
    assert (e["status"], e["computed"], e["predicted"]) == ("passed", "0", "0")
    e = one("mat2", "f2", 4)  # predicted 6 * dim R_2(M_2(F2)) = 0
    assert (e["status"], e["computed"], e["predicted"]) == ("passed", "0", "0")


def test_worker_exception_becomes_error_entry(monkeypatch):
    import stlhom.campaign as camp

    def boom(n, ring):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(camp, "verify_cocycle", boom)
    rep = run_campaign(small_config(checks=["cocycle"]))
    (entry,) = rep.entries
    assert entry["status"] == "error"
    assert "RuntimeError: synthetic crash" in entry["witness"]["error"]
    assert rep.summary["error"] == 1 and rep.summary["failed"] == 0
    assert rep.exit_code == 1
    assert "1 checks: 0 passed, 0 failed, 1 error," in list(rep.lines())[-1]


def test_corrupted_theta_is_a_failed_entry_not_an_error(monkeypatch):
    # a mathematical witness (rep.ok false) stays "failed"
    import stlhom.campaign as camp
    from stlhom import build_theta, corrupted_theta, verify_cocycle

    def corrupted(n, ring):
        return verify_cocycle(n, ring, theta=corrupted_theta(build_theta()))

    monkeypatch.setattr(camp, "verify_cocycle", corrupted)
    rep = run_campaign(CampaignConfig(rings=[("ground", "f2")], ns=[4],
                                      checks=["cocycle"]))
    (entry,) = rep.entries
    assert entry["status"] == "failed"
    assert entry["computed"] == "J != 0"
    assert "error" not in entry["witness"]
    assert rep.summary["failed"] == 1 and rep.summary["error"] == 0
    assert rep.exit_code == 1


def test_refused_entries_report_the_guard_time(monkeypatch):
    import time

    import stlhom.campaign as camp
    inner = camp.declared_rows

    def slow(n, ring):
        time.sleep(0.05)
        return inner(n, ring)

    monkeypatch.setattr(camp, "declared_rows", slow)
    rep = run_campaign(small_config(checks=["all"], max_cube=10))
    refused = [e for e in rep.entries if e["status"] == "refused"]
    assert len(refused) == 3
    assert all(e["duration_s"] >= 0.05 for e in refused)


def test_each_ring_and_n_builds_stl_once(monkeypatch):
    # and reads each structural fact once: the center in verify_calculus,
    # perfectness in build_stl, build_hat and verify_sharp_relations
    import stlhom.campaign as camp
    import stlhom.steinberg as stein
    calls = {}

    def count(module, name):
        inner = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((camp, "build_stl"), (camp, "verify_cocycle"),
                         (stein, "structural_report"), (stein, "is_perfect")):
        count(module, name)
    rep = run_campaign(CampaignConfig(
        rings=[("ground", "f3"), ("ground", "f2")], ns=[3, 4],
        checks=["all"], jobs=1))
    assert rep.ok and rep.summary["passed"] == 16
    assert calls == {"build_stl": 4, "verify_cocycle": 4,
                     "structural_report": 4, "is_perfect": 12}


def test_each_ring_file_is_read_once_per_request(tmp_path, monkeypatch):
    import stlhom.campaign as camp
    path = tmp_path / "dual.json"
    save_ring_json(catalog_ring("dual", F3), str(path))
    calls = []
    inner = camp.load_ring_json

    def counted(p):
        calls.append(p)
        return inner(p)

    monkeypatch.setattr(camp, "load_ring_json", counted)
    rep = run_campaign(CampaignConfig(rings=[(str(path), "f3")], ns=[3, 4],
                                      checks=["all"], jobs=1))
    assert rep.ok and rep.summary["passed"] == 8
    assert calls == [str(path)]


def test_homology_streams_one_d3_cube_per_ring_and_n(monkeypatch):
    # the only cube streamed is sl's, inside uce; HL_2(stl) is read off the
    # N presentation that build_stl makes
    import stlhom.leibniz as leib
    calls = []
    inner = leib.iter_d3_columns

    def counted(L, *args, **kwargs):
        calls.append(L.name)
        return inner(L, *args, **kwargs)

    monkeypatch.setattr(leib, "iter_d3_columns", counted)
    rep = run_campaign(CampaignConfig(rings=[("ground", "f3")], ns=[3, 4],
                                      checks=["homology"], jobs=1))
    assert rep.ok and rep.summary["passed"] == 2
    assert len(calls) == 2
    assert all(name.startswith("sl") for name in calls), calls


def test_failed_stl_build_fails_only_the_checks_that_need_it(monkeypatch):
    import stlhom.campaign as camp

    def boom(n, ring):
        raise RuntimeError("synthetic build crash")

    monkeypatch.setattr(camp, "build_stl", boom)
    rep = run_campaign(small_config(checks=["all"]))
    status = {e["check"]: e["status"] for e in rep.entries}
    assert status == {"calculus": "error", "cocycle": "passed",
                      "homology": "error", "sharp": "error"}
    for e in rep.entries:
        if e["check"] != "cocycle":
            assert e["witness"] == {
                "error": "RuntimeError: synthetic build crash"}
    assert rep.exit_code == 1


# ---------------------------------------------------------------------------
# report format


def masked_json(report: CampaignReport) -> str:
    doc = json.loads(report.to_json())
    for entry in doc["entries"]:
        entry["duration_s"] = 0.0
    doc["summary"]["duration_s"] = 0.0
    return json.dumps(doc, indent=1)


def test_reports_identical_across_parallelism_degrees():
    def run(jobs, rings, ns):
        cfg = CampaignConfig(rings=rings, ns=ns, checks=["all"], jobs=jobs)
        return masked_json(run_campaign(cfg))
    both = [("ground", "f3"), ("ground", "f2")]
    for rings, ns, jobs in (([("ground", "f2")], [4], (2, 4)),  # one unit
                            (both, [3], (2,)),                  # two units
                            (both, [3, 4], (2,))):              # four units
        want = run(1, rings, ns)
        for k in jobs:
            assert run(k, rings, ns) == want


def test_a_pool_starts_only_for_two_or_more_units(monkeypatch):
    import concurrent.futures
    started = []

    class Pool:  # runs the units in this process, recording each pool start
        def __init__(self, workers):
            started.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)

    def run(ns, jobs):
        rep = run_campaign(CampaignConfig(rings=[("ground", "f2")], ns=ns,
                                          checks=["homology"], jobs=jobs))
        assert rep.ok
    run([4], 2)  # a lone unit runs in the calling process
    assert started == []
    run([3, 4], 2)
    run([3, 4], 4)  # no more workers than units
    assert started == [2, 2]


def test_json_field_order_is_stable():
    doc = json.loads(run_campaign(small_config(checks=["homology"])).to_json())
    assert list(doc) == ["config", "entries", "summary"]
    assert list(doc["config"]) == ["rings", "ns", "checks", "max_cube"]
    assert "jobs" not in doc["config"]
    assert list(doc["entries"][0]) == [
        "ring", "scalar", "n", "check", "status", "computed", "predicted",
        "witness", "duration_s"]
    assert list(doc["summary"]) == [
        "total", "passed", "failed", "error", "refused", "skipped",
        "exit_code", "duration_s"]


def test_csv_mirrors_theorem_shape():
    cfg = CampaignConfig(rings=[("ground", "f2")], ns=[3, 4, 5],
                         checks=["homology"])
    rep = run_campaign(cfg)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "ring,scalar,n,predicted,computed"
    assert lines[1:] == [
        "ground,f2,3,0,0",        # R_3(F2) = 0
        "ground,f2,4,f2^6,f2^6",  # six copies of R_2(F2)
        "ground,f2,5,0,0",        # stable range
    ]


def test_csv_quotes_a_ring_name_with_a_comma(tmp_path):
    alg = catalog_ring("ground", F3)
    alg.name = "a,b"
    path = tmp_path / "ab.json"
    save_ring_json(alg, str(path))
    rep = run_campaign(CampaignConfig(rings=[(str(path), "f3")], ns=[3],
                                      checks=["homology"]))
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows == [["ring", "scalar", "n", "predicted", "computed"],
                    ["a,b", "f3", "3", "f3^6", "f3^6"]]


def test_report_files_are_written(tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    rep = run_campaign(small_config(checks=["homology"], out=str(out),
                                    csv_out=str(csv_out)))
    assert json.loads(out.read_text()) == rep.to_dict()
    assert csv_out.read_text() == rep.to_csv()
    assert rep.to_json().endswith("\n")


# ---------------------------------------------------------------------------
# CLI


def test_cli_stdout_json(capsys):
    rc = main(["--ring", "ground", "--scalar", "f3", "--n", "3",
               "--check", "cocycle"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    (entry,) = doc["entries"]
    assert entry["check"] == "cocycle" and entry["status"] == "passed"


def test_cli_out_file_and_summary_lines(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["--ring", "ground", "--scalar", "f3", "--n", "3",
               "--check", "all", "--out", str(out), "--jobs", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["passed"] == 4
    assert "4 checks: 4 passed" in captured.out


def test_cli_config_error_exits_2(capsys):
    rc = main(["--ring", "nosuch", "--scalar", "f2", "--n", "3",
               "--check", "all"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_cli_refuses_unwritable_report_paths_up_front(tmp_path, capsys,
                                                      monkeypatch, flag):
    import stlhom.campaign

    def no_run(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(stlhom.campaign, "_run_unit", no_run)
    for path, why in [(tmp_path, "is a directory"),
                      (tmp_path / "missing" / "r.json", "does not exist")]:
        rc = main(["--ring", "ground", "--scalar", "f3", "--n", "3",
                   "--check", "homology", flag, str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err
    assert not (tmp_path / "missing").exists()


def test_cli_refuses_one_file_for_json_and_csv(tmp_path, capsys,
                                               monkeypatch):
    import stlhom.campaign

    def no_run(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(stlhom.campaign, "_run_unit", no_run)
    monkeypatch.chdir(tmp_path)
    for csv_path in ("same.txt", "./same.txt"):
        rc = main(["--ring", "ground", "--scalar", "f3", "--n", "3",
                   "--check", "homology", "--out", "same.txt",
                   "--csv", csv_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the same file" in err
    assert not (tmp_path / "same.txt").exists()


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--ring", "ground", "--scalar", "f2", "--n", "9",
              "--check", "all"])
    assert exc.value.code == 2


def test_cli_refusal_exits_1(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["--ring", "ground", "--scalar", "f2", "--n", "4",
               "--check", "homology", "--max-cube", "10", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["entries"][0]["status"] == "refused"


def test_cli_csv_flag(tmp_path):
    csv_out = tmp_path / "r.csv"
    rc = main(["--ring", "ground", "--scalar", "f3", "--n", "3",
               "--check", "homology", "--out", str(tmp_path / "r.json"),
               "--csv", str(csv_out)])
    assert rc == 0
    assert csv_out.read_text().splitlines()[1] == "ground,f3,3,f3^6,f3^6"


def test_cli_answers_a_z_s3_ring_file(tmp_path, monkeypatch, z_s3_stl3):
    # a 6-dim noncommutative ring over Z, off the catalog, read from a file.
    # Ring parsing, the size guard, hl2_report and the report run here; the
    # stl build is the session fixture's (whose own tests cover it), handed
    # over only for n = 3 and the ring the file holds
    ref = s3_ring(Z)
    calls = []

    def fixture_build(n, ring):
        calls.append(n)
        if n != 3 or (ring.dom, ring.dim, ring.table) != (ref.dom, ref.dim,
                                                          ref.table):
            raise ValueError(f"no prebuilt stl{n}({ring.name})")
        return z_s3_stl3.model

    monkeypatch.setattr(stlhom.campaign, "build_stl", fixture_build)
    path = tmp_path / "s3.json"
    save_ring_json(ref, str(path))
    out = tmp_path / "r.json"
    rc = main(["--ring", str(path), "--scalar", "z", "--n", "3",
               "--check", "homology", "--out", str(out)])
    assert rc == 0 and calls == [3]
    (entry,) = json.loads(out.read_text())["entries"]
    assert entry["computed"] == entry["predicted"] == "Z/3^12"


def test_module_entry_point_runs():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(stlhom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "stlhom", "--ring", "ground", "--scalar",
         "f3", "--n", "3", "--check", "cocycle"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["exit_code"] == 0


def test_importing_the_cli_does_not_load_the_process_pool():
    # run_campaign imports concurrent.futures.process only to start a pool
    # (--jobs > 1), so a fresh interpreter's import of the CLI skips it
    src = os.path.dirname(os.path.dirname(stlhom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, stlhom.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# ring files must be exact and in range


RING_PROBES = {
    # name: (edit of the dual-numbers file over f2, scalar, message part)
    "float-coefficient": (lambda d: d["structure"][0].__setitem__(3, 1.7),
                          "f2", "not an int or an exact rational"),
    "bool-coefficient": (lambda d: d["structure"][0].__setitem__(3, True),
                         "f2", "not an int or an exact rational"),
    "decimal-string-coefficient": (
        lambda d: d["structure"][0].__setitem__(3, "1.5"),
        "f2", "not an int or an exact rational"),
    "fraction-over-z": (lambda d: d["structure"][0].__setitem__(3, "1/2"),
                        "z", "not a z scalar"),
    "fraction-vanishing-mod-p": (
        lambda d: d["structure"][0].__setitem__(3, "1/2"),
        "f2", "not a f2 scalar"),
    "bool-dim": (lambda d: d.__setitem__("dim", True), "f2", "dim True"),
    "float-dim": (lambda d: d.__setitem__("dim", 2.0), "f2", "dim 2.0"),
    "zero-dim": (lambda d: d.__setitem__("dim", 0), "f2", "dim 0"),
    "huge-dim": (lambda d: d.__setitem__("dim", 10 ** 9), "f2",
                 "dim 1000000000"),
    "index-out-of-range": (lambda d: d["structure"].append([0, 2, 0, 1]),
                           "f2", "structure index 2"),
    "bool-index": (lambda d: d["structure"][0].__setitem__(0, False),
                   "f2", "structure index False"),
    "float-index": (lambda d: d["structure"][0].__setitem__(1, 0.0),
                    "f2", "structure index 0.0"),
    "bool-unit-index": (lambda d: d.__setitem__("unit_index", False),
                        "f2", "unit_index False"),
    "unit-index-out-of-range": (lambda d: d.__setitem__("unit_index", 2),
                                "f2", "unit_index 2"),
    "null-unit-index": (lambda d: d.__setitem__("unit_index", None),
                        "f2", "unit_index None"),
    "list-name": (lambda d: d.__setitem__("name", ["x"]), "f2",
                  "name ['x']"),
    # x.x = x and x.x = 0: keeping either one silently changes the ring
    "repeated-entry": (lambda d: d["structure"].extend(
        [[1, 1, 1, 1], [1, 1, 1, 0]]), "f2",
        "repeated structure entry (1, 1, 1)"),
    # an edit that returns a value replaces the whole document
    "not-an-object": (lambda d: [d], "f2", "does not hold a JSON object"),
    "unknown-scalar": (lambda d: d.__setitem__("scalar", "f7"), "f2",
                       "unknown scalar 'f7'"),
    "structure-not-a-list": (lambda d: d.__setitem__("structure", {}),
                             "f2", "is not a list"),
    "three-item-entry": (lambda d: d["structure"][0].__delitem__(3), "f2",
                         "malformed structure entry"),
    "int-labels": (lambda d: d.__setitem__("labels", [0, 1]), "f2",
                   "not a list of strings"),
    "short-labels": (lambda d: d.__setitem__("labels", ["x"]), "f2",
                     "label count does not match dimension"),
}


@pytest.mark.parametrize("probe", sorted(RING_PROBES))
def test_cli_rejects_inexact_or_out_of_range_ring_files(tmp_path, capsys,
                                                        probe):
    from stlhom import SCALARS
    edit, scal, message = RING_PROBES[probe]
    path = tmp_path / f"{probe}.json"
    save_ring_json(catalog_ring("dual", SCALARS[scal]), str(path))
    doc = json.loads(path.read_text())
    replaced = edit(doc)
    path.write_text(json.dumps(doc if replaced is None else replaced))
    rc = main(["--ring", str(path), "--scalar", scal, "--n", "3",
               "--check", "homology"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad ring file")
    assert message in err
