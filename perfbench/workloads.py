"""The benchmark's request workloads and its correctness gate.

Each workload is a closed loop of one client: the next request is issued
when the last one has returned.  A request is either one ``verify`` call
(``stlhom.cli.main``) or one ``run_campaign`` batch.  The seed only permutes
the order of requests and, in the sweep batch, the order of rings; the set
of checks, and therefore every expected answer, does not depend on it.

Why these three workloads:

- ``stream-n5``: the d3 stream of two n = 5 algebras (cube walk plus echelon
  insert in the F2 bitmask and Q engines) dominates, with the largest RSS.
  HH_1 = 0 for both rings, so no identity check runs on an extension total.
- ``sweep-n34``: the acceptance path, many small and medium algebras over all
  five domains; the only workload where the Z Hermite/Smith path and the
  HH_1 != 0 presentations do real work, and where fixed per-build costs
  outweigh the stream.
- ``all-checks-j2``: the only workload for the steinberg verifiers (cocycle,
  calculus, sharp, hat) and for the process pool; one request builds stl
  once per check that needs it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CHECK_NAMES = ("cocycle", "calculus", "sharp", "homology")

# frozen copy of stlhom.catalog.ACCEPTANCE_PAIRS, so the workload does not
# move when the package's list does
SWEEP_PAIRS = (
    ("ground", "f2"), ("ground", "f3"), ("ground", "f5"), ("ground", "q"),
    ("int", "z"),
    ("dual", "f2"), ("dual", "f3"), ("dual", "q"),
    ("trunc3", "f3"),
    ("group-c2", "f2"), ("group-c2", "q"),
    ("upper2", "f2"),
    ("mat2", "f2"),
)
SWEEP_NS = (3, 4)
STREAM_CASES = (("mat2", "f2", 5), ("group-c2", "q", 5))
# the hats with a nontrivial cocycle space W
ALL_CHECK_CASES = (
    ("mat2", "f2", 4), ("upper2", "f2", 4), ("group-c2", "f2", 4),
    ("dual", "f2", 4), ("trunc3", "f3", 3), ("dual", "f3", 3),
    ("int", "z", 4), ("ground", "f2", 4), ("ground", "f3", 3),
)
ALL_CHECKS_JOBS = 2
# tiny requests that take every workload's code path in well under a second
SMOKE_CASES = (("ground", "f3", 3), ("ground", "f2", 4), ("int", "z", 4))

WORKLOADS = ("stream-n5", "sweep-n34", "all-checks-j2")


@dataclass(frozen=True)
class Request:
    """One client call: ``cli`` runs ``verify``, ``campaign`` a batch."""
    kind: str
    rings: tuple          # ((token, scalar), ...)
    ns: tuple
    check: str            # a check name or "all"
    jobs: int

    @property
    def checks(self) -> tuple:
        return CHECK_NAMES if self.check == "all" else (self.check,)

    @property
    def size(self) -> int:
        """Checks this request issues."""
        return len(self.rings) * len(self.ns) * len(self.checks)

    def argv(self, out: str) -> list[str]:
        (token, scalar), = self.rings
        n, = self.ns
        return ["--ring", token, "--scalar", scalar, "--n", str(n),
                "--check", self.check, "--jobs", str(self.jobs),
                "--out", out]

    def label(self) -> str:
        rings = " ".join(f"{t}@{s}" for t, s in self.rings)
        ns = ",".join(map(str, self.ns))
        return f"{self.kind} {rings} n={ns} {self.check} jobs={self.jobs}"


def _cli(cases, check, jobs) -> list[Request]:
    return [Request("cli", ((token, scalar),), (n,), check, jobs)
            for token, scalar, n in cases]


def requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The workload's request list for this seed.

    ``smoke`` keeps each workload's code path but uses the tiny rings.
    """
    rng = random.Random(seed)
    if workload == "stream-n5":
        reqs = _cli(SMOKE_CASES if smoke else STREAM_CASES, "homology", 1)
    elif workload == "sweep-n34":
        pairs = [(t, s) for t, s, _n in SMOKE_CASES] if smoke \
            else list(SWEEP_PAIRS)
        rng.shuffle(pairs)
        reqs = [Request("campaign", tuple(pairs), SWEEP_NS, "homology", 1)]
    elif workload == "all-checks-j2":
        reqs = _cli(SMOKE_CASES if smoke else ALL_CHECK_CASES, "all",
                    ALL_CHECKS_JOBS)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng.shuffle(reqs)
    return reqs


def ring_specs(reqs) -> list[tuple]:
    """Distinct (token, scalar) pairs, in first-use order."""
    return list(dict.fromkeys(spec for r in reqs for spec in r.rings))


# ---------------------------------------------------------------------------
# correctness gate

def entry_key(entry: dict) -> tuple:
    return (entry["ring"], entry["scalar"], entry["n"], entry["check"])


def entry_answer(entry: dict) -> list:
    return [entry["status"], entry["computed"], entry["predicted"]]


def load_expected(path) -> dict:
    """Frozen answers by (ring, scalar, n, check): [status, computed,
    predicted] each."""
    with open(path) as fh:
        rows = json.load(fh)
    return {entry_key(row): entry_answer(row) for row in rows}


def request_keys(request: Request) -> list[tuple]:
    """The (ring, scalar, n, check) of every check the request asks for."""
    return [(token, scalar, n, check)
            for token, scalar in request.rings
            for n in request.ns
            for check in request.checks]


def gate(request: Request, entries, expected: dict) -> list[str]:
    """Problems with one request's answers; one per failed check.

    The report must hold exactly one entry for each check the request asked
    for, keyed by what was asked, not by what came back.  A requested check
    fails when its entry is missing or repeated, or when its (status,
    computed, predicted) differs from the frozen expectation (which is always
    ``passed``).  Each entry for a check that was not asked for is a problem
    of its own.
    """
    keys = request_keys(request)
    if entries is None:
        return [f"{request.label()}: no report"] * len(keys)
    by_key: dict = {}
    for entry in entries:
        by_key.setdefault(entry_key(entry), []).append(entry)
    problems = []
    for key in keys:
        found = by_key.pop(key, [])
        if len(found) != 1:
            problems.append(f"{key}: {len(found)} entries in the report of "
                            f"{request.label()}, expected 1")
            continue
        got, want = entry_answer(found[0]), expected.get(key)
        if got != want:
            problems.append(f"{key}: got {got}, expected {want}"
                            f" (witness {found[0].get('witness')})")
    for key, extra in by_key.items():
        problems += [f"{key}: not asked for by {request.label()}"] * len(extra)
    return problems
