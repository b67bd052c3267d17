"""Campaign orchestration: batches of verification checks with stable reports.

A campaign runs one unit per (ring, n): the checks requested there, which
share one stl model.  Units run in turn in the calling process, or, when
jobs > 1 and there are at least two units, in up to min(jobs, units) worker
processes.  Entries are sorted by (ring, scalar, n, check), so all of
the JSON document but the measured durations is byte-identical across runs
and across parallelism degrees.

Checks that would stream an oversized tensor cube are refused up front.  The
binding resource is the third boundary map, whose columns are indexed by the
cube L tensor L tensor L and whose rows by L tensor L: memory scales with
the rows kept per echelon column, while the cube itself is only walked.  The
only cube streamed is that of L = sl (its special-weight triples), inside
uce while stl is built; HL_2(stl) is read off the N presentation.  That
stream keeps one row per special pair of sl, and a check declares exactly
that count (``declared_rows``) on sl's weight shape, read off the ring
alone before any heavy work starts (``build_sl`` checks it per weight).
The symbolic cocycle check never builds a matrix and is exempt.
Checks that only exist for the hat models (cocycle, sharp) are skipped --
not failed -- at n = 5.

A check ends ``passed`` or ``failed`` by its mathematical witness,
``error`` when it raised (the witness keeps the exception's class and
message), ``refused`` by the size guard (its duration is the guard's time)
or ``skipped``.  Any failed, error or refused entry makes the exit code 1.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time

from .assoc import AssocAlgebra, load_ring_json
from .catalog import RING_BUILDERS, catalog_ring
from .domains import SCALARS
from .leibniz import Grading, _sl_codes
from .steinberg import (build_hat, build_stl, hl2_report, verify_calculus,
                        verify_cocycle, verify_sharp_relations)

CHECK_NAMES = ("cocycle", "calculus", "sharp", "homology")
DEFAULT_MAX_CUBE = 50_000

# hat models (and hence the cocycle and sharp checks) exist only here
HAT_NS = (3, 4)


class CampaignConfigError(ValueError):
    """A campaign configuration problem; the CLI maps this to exit code 2."""


def resolve_ring(token: str, scalar: str) -> AssocAlgebra:
    """Turn a --ring token (catalog name or JSON file path) into an algebra."""
    if scalar not in SCALARS:
        raise CampaignConfigError(
            f"unknown scalar {scalar!r}; have {sorted(SCALARS)}")
    if token in RING_BUILDERS:
        try:
            return catalog_ring(token, SCALARS[scalar])
        except ValueError as exc:
            raise CampaignConfigError(str(exc)) from None
    if os.path.exists(token):
        try:
            alg = load_ring_json(token)
        except (OSError, ValueError) as exc:
            raise CampaignConfigError(f"bad ring file {token}: {exc}") from None
        if alg.dom.name != scalar:
            raise CampaignConfigError(
                f"ring file {token} is over scalar {alg.dom.name!r}, "
                f"not {scalar!r}")
        return alg
    raise CampaignConfigError(
        f"ring {token!r} is neither a catalog name ({sorted(RING_BUILDERS)}) "
        f"nor an existing file")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class CampaignConfig:
    """Validated request: which rings, which n, which checks, how to run.

    ``algebras`` maps each distinct ring spec to the algebra validated here,
    so a ring file is read once per request."""

    __slots__ = ("rings", "ns", "checks", "out", "csv_out", "jobs", "max_cube",
                 "algebras")

    def __init__(self, rings, ns=(3, 4, 5), checks=("all",), out=None,
                 csv_out=None, jobs=1, max_cube=DEFAULT_MAX_CUBE):
        rings = [tuple(spec) for spec in rings]
        if not rings:
            raise CampaignConfigError("at least one ring is required")
        algebras = {}
        for spec in rings:
            if len(spec) != 2:
                raise CampaignConfigError(
                    f"ring spec must be (name_or_path, scalar), got {spec!r}")
            if spec not in algebras:  # validates token, scalar and the file
                algebras[spec] = resolve_ring(*spec)
        ns = list(ns)
        if not ns or not all(map(_is_int, ns)) or not set(ns) <= {3, 4, 5}:
            raise CampaignConfigError(f"ns must be a nonempty subset of "
                                      f"{{3, 4, 5}}, got {ns}")
        ns = sorted(set(ns))
        checks = list(checks)
        if not checks:
            raise CampaignConfigError("at least one check is required")
        bad = set(checks) - set(CHECK_NAMES) - {"all"}
        if bad:
            raise CampaignConfigError(f"unknown checks {sorted(bad)}; have "
                                      f"{list(CHECK_NAMES) + ['all']}")
        if "all" in checks:
            checks = list(CHECK_NAMES)
        checks = sorted(set(checks))
        if not _is_int(jobs) or jobs < 1:
            raise CampaignConfigError(f"jobs must be a positive int, got {jobs!r}")
        if not _is_int(max_cube) or max_cube < 1:
            raise CampaignConfigError(
                f"max_cube must be a positive int, got {max_cube!r}")
        for what, path in (("out", out), ("csv_out", csv_out)):
            # refused before any work: the reports are written at the end
            parent = os.path.dirname(path or "") or "."
            if path and os.path.isdir(path):
                raise CampaignConfigError(f"{what} {path} is a directory")
            if path and not os.path.isdir(parent):
                raise CampaignConfigError(
                    f"{what} {path}: directory {parent} does not exist")
        if out and csv_out and (os.path.realpath(out)
                                == os.path.realpath(csv_out)):
            raise CampaignConfigError(
                f"out {out} and csv_out {csv_out} are the same file")
        self.rings = rings
        self.ns = ns
        self.checks = checks
        self.out = out
        self.csv_out = csv_out
        self.jobs = jobs
        self.max_cube = max_cube
        self.algebras = algebras

    def to_dict(self) -> dict:
        # jobs is deliberately not echoed: the report must not depend on it
        return {
            "rings": [{"ring": token, "scalar": scalar}
                      for token, scalar in self.rings],
            "ns": list(self.ns),
            "checks": list(self.checks),
            "max_cube": self.max_cube,
        }


def declared_rows(n: int, ring: AssocAlgebra) -> int:
    """Rows a (ring, n) stl task declares for the size guard: the number of
    special pairs of sl_n(R), the rows of the d3 stream in ``uce``.

    The pairs are counted on the weight shape of sl_n(R), which ``build_sl``
    checks per weight (``_sl_codes``), with the rule ``uce`` applies
    (``Grading.special``).  The shape is read off the ring alone, so the
    declaration builds no Leibniz algebra.
    """
    grading = Grading(_sl_codes(n, ring), (n, ring.dom))
    buckets = grading.buckets
    return sum(len(s) * len(t) for a, s in buckets.items()
               for b, t in buckets.items() if grading.special(a + b))


def _entry(scalar, ring_name, n, check, status, computed, predicted,
           witness, duration):
    return {
        "ring": ring_name,
        "scalar": scalar,
        "n": n,
        "check": check,
        "status": status,
        "computed": computed,
        "predicted": predicted,
        "witness": witness,
        "duration_s": round(duration, 3),
    }


def _run_unit(unit):
    """Run one (ring, n) unit's checks, building stl at most once, in (and
    timed with) the first check that needs it; top level for pickling."""
    ring, n, checks = unit
    scalar = ring.dom.name
    model = None
    entries = []
    for check in checks:
        start = time.perf_counter()
        try:
            if check != "cocycle" and model is None:
                try:
                    model = build_stl(n, ring)
                except Exception as exc:  # fails each check needing stl
                    model = exc
            if check == "cocycle":
                rep = verify_cocycle(n, ring)
                computed = (f"J = 0 on {rep.triples_checked} triples"
                            if rep.ok else "J != 0")
                predicted, witness = "J = 0", rep.witness
            elif isinstance(model, Exception):
                raise model
            elif check == "calculus":
                rep = verify_calculus(model)
                computed = (f"{sum(rep.checks.values())} instances hold"
                            if rep.ok else "identity violated")
                predicted, witness = "all calculus identities", rep.witness
            elif check == "sharp":
                rep = verify_sharp_relations(build_hat(n, ring, model=model))
                computed = (f"{sum(rep.relations.values())} relations hold; "
                            f"perfect; center contains cocycle space"
                            if rep.ok else "relation or structure violated")
                predicted = "presented relations + perfect + central kernel"
                witness = rep.witness
            else:  # homology
                rep = hl2_report(model)
                computed = rep.computed.describe()
                predicted = rep.predicted.describe()
                witness = None if rep.ok else {"stl_dim": rep.stl_dim}
            status = "passed" if rep.ok else "failed"
        except Exception as exc:  # keep the triple in the report even on a crash
            status, computed, predicted = "error", None, None
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        entries.append(_entry(scalar, ring.name, n, check, status, computed,
                              predicted, witness, time.perf_counter() - start))
    return entries


class CampaignReport:
    """Sorted entries plus a status summary; knows how to serialize itself."""

    __slots__ = ("config", "entries", "summary")

    def __init__(self, config, entries, wall_s):
        entries = sorted(
            entries, key=lambda e: (e["ring"], e["scalar"], e["n"], e["check"]))
        counts = {s: 0 for s in ("passed", "failed", "error", "refused",
                                 "skipped")}
        for e in entries:
            counts[e["status"]] += 1
        self.config = config
        self.entries = entries
        self.summary = {
            "total": len(entries),
            **counts,
            "exit_code": 1 if (counts["failed"] or counts["error"]
                               or counts["refused"]) else 0,
            "duration_s": round(wall_s, 3),
        }

    @property
    def exit_code(self) -> int:
        return self.summary["exit_code"]

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "entries": list(self.entries),
            "summary": dict(self.summary),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"

    def to_csv(self) -> str:
        """Summary table in the three-column shape (n, predicted, computed),
        one row per homology entry, keyed by ring."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ring", "scalar", "n", "predicted", "computed"])
        writer.writerows([e["ring"], e["scalar"], e["n"], e["predicted"],
                          e["computed"]]
                         for e in self.entries if e["check"] == "homology")
        return buf.getvalue()

    def lines(self):
        """Human-readable one-liners, same order as the entries."""
        for e in self.entries:
            bits = [f"{e['ring']}@{e['scalar']} n={e['n']} {e['check']}:",
                    e["status"]]
            if e["computed"] is not None:
                bits.append(f"computed={e['computed']}")
            if e["check"] == "homology" and e["predicted"] is not None:
                bits.append(f"predicted={e['predicted']}")
            if e["witness"]:
                bits.append(f"witness={e['witness']}")
            bits.append(f"({e['duration_s']}s)")
            yield " ".join(bits)
        s = self.summary
        yield (f"{s['total']} checks: {s['passed']} passed, "
               f"{s['failed']} failed, {s['error']} error, "
               f"{s['refused']} refused, {s['skipped']} skipped")

    def __repr__(self):
        s = self.summary
        return (f"CampaignReport({s['total']} entries, {s['passed']} passed, "
                f"exit_code={s['exit_code']})")


def run_campaign(config: CampaignConfig) -> CampaignReport:
    started = time.perf_counter()
    entries = []
    units = {}  # (ring, n) -> the checks to run there
    for ring in config.algebras.values():
        for n in config.ns:
            runnable = units[(ring, n)] = []
            rows = None
            for check in config.checks:
                duration = 0.0
                if check in ("cocycle", "sharp") and n not in HAT_NS:
                    status = "skipped"
                    reason = f"{check} is defined for n in {HAT_NS} only"
                else:
                    if check != "cocycle" and rows is None:
                        start = time.perf_counter()
                        rows = declared_rows(n, ring)
                        guard_s = time.perf_counter() - start
                    if check == "cocycle" or rows <= config.max_cube:
                        runnable.append(check)
                        continue
                    status, duration = "refused", guard_s
                    reason = (f"declared boundary matrix of {rows} rows "
                              f"exceeds bound {config.max_cube}")
                entries.append(_entry(ring.dom.name, ring.name, n, check,
                                      status, None, None, {"reason": reason},
                                      duration))
    work = [(*key, checks) for key, checks in units.items() if checks]
    workers = min(config.jobs, len(work))
    if workers > 1:
        # imported here, as it slows every import and only a pool needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            done = list(pool.map(_run_unit, work))
    else:
        done = map(_run_unit, work)
    entries.extend(e for unit_entries in done for e in unit_entries)
    report = CampaignReport(config, entries, time.perf_counter() - started)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(report.to_json())
    if config.csv_out:
        with open(config.csv_out, "w") as fh:
            fh.write(report.to_csv())
    return report
