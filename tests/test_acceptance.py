"""Acceptance gate: the ten headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get exactly one pass/fail
line per criterion.  Heavy objects (stl models, hats, homology results) are
cached module-wide, so criteria that share a build pay for it once; each
stated wall-clock budget is asserted against a cold build of its own
objects because the criteria run in file order.
"""

import time
from functools import lru_cache

from stlhom import (ACCEPTANCE_PAIRS, SCALARS, SteinbergSymbolic, build_hat,
                    build_sl, build_stl, build_theta, catalog_ring,
                    corrupted_theta, hochschild_h1, homology_hl, quotient_Rm,
                    verify_calculus, verify_cocycle, verify_sharp_relations)

ALL_NS = (3, 4, 5)


@lru_cache(maxsize=None)
def ring(name, scal):
    return catalog_ring(name, SCALARS[scal])


@lru_cache(maxsize=None)
def stl(name, scal, n):
    return build_stl(n, ring(name, scal))


@lru_cache(maxsize=None)
def stl_hl2(name, scal, n):
    return homology_hl(stl(name, scal, n).total, 2).invariants


@lru_cache(maxsize=None)
def sl_hl2(name, scal, n):
    return homology_hl(build_sl(n, ring(name, scal)), 2).invariants


def test_criterion_01_hl2_of_stl4_f2_is_6_dimensional():
    start = time.perf_counter()
    model = stl("ground", "f2", 4)
    inv = stl_hl2("ground", "f2", 4)
    elapsed = time.perf_counter() - start
    assert model.total.dim == 15 and model.total.dim ** 3 == 3375
    assert inv.describe() == "f2^6"
    assert inv.dimension == 6 == 6 * quotient_Rm(ring("ground", "f2"), 2).dim
    assert elapsed < 60.0


def test_criterion_02_hl2_of_stl3_f3_is_6_dimensional():
    start = time.perf_counter()
    model = stl("ground", "f3", 3)
    inv = stl_hl2("ground", "f3", 3)
    elapsed = time.perf_counter() - start
    assert model.total.dim == 8 and model.total.dim ** 3 == 512
    assert inv.describe() == "f3^6"
    assert inv.dimension == 6 == 6 * quotient_Rm(ring("ground", "f3"), 3).dim
    assert elapsed < 5.0


def test_criterion_03_mismatched_characteristics_vanish():
    assert stl_hl2("ground", "f2", 3).is_trivial   # R_3(F2) = 0
    assert stl_hl2("ground", "f3", 4).is_trivial   # R_2(F3) = 0


def test_criterion_04_stable_range_vanishes():
    start = time.perf_counter()
    model = stl("ground", "f2", 5)
    inv = stl_hl2("ground", "f2", 5)
    elapsed = time.perf_counter() - start
    assert model.total.dim == 24 and model.total.dim ** 3 <= 13824
    assert inv.is_trivial
    assert elapsed < 300.0


def test_criterion_05_integral_invariant_factors():
    start = time.perf_counter()
    inv = stl_hl2("int", "z", 4)
    elapsed = time.perf_counter() - start
    assert sorted(inv.invariant_factors) == [2, 2, 2, 2, 2, 2]
    assert inv.describe() == "Z/2^6"
    assert elapsed < 600.0


COCYCLE_INSTANCES = [
    ("ground", "f2", 4), ("dual", "f2", 4), ("mat2", "f2", 4),
    ("ground", "f3", 3), ("dual", "f3", 3),
]


def test_criterion_06_cocycle_identity_and_negative_control():
    for name, scal, n in COCYCLE_INSTANCES:
        rng = ring(name, scal)
        rep = verify_cocycle(n, rng)
        keys = len(SteinbergSymbolic(n, rng).basis_keys())
        assert rep.ok, f"{name}@{scal} n={n}: {rep.witness}"
        assert rep.triples_checked == keys ** 3  # exhaustive, no early exit
    bad = corrupted_theta(build_theta())
    rep = verify_cocycle(4, ring("ground", "f2"), theta=bad)
    assert not rep.ok
    assert rep.witness is not None and "value" in rep.witness


def test_criterion_07_calculus_identities_across_the_catalog():
    failures = []
    for name, scal in ACCEPTANCE_PAIRS:
        for n in ALL_NS:
            rep = verify_calculus(stl(name, scal, n))
            if not rep.ok:
                failures.append((name, scal, n, rep.witness))
    assert not failures, failures


KERNEL_DIMS = {
    ("ground", "f2"): 0, ("ground", "f3"): 0, ("mat2", "f2"): 0,
    ("dual", "q"): 1, ("dual", "f2"): 2,
}


def test_criterion_08_kernel_is_first_hochschild_homology():
    for (name, scal), expected in KERNEL_DIMS.items():
        hh1 = hochschild_h1(ring(name, scal))
        assert hh1.dimension == expected
        for n in ALL_NS:
            kernel = stl(name, scal, n).kernel_invariants
            assert kernel == hh1, (name, scal, n)
            assert kernel.dimension == expected, (name, scal, n)


def test_criterion_09_tower_identity_across_the_catalog():
    for name, scal in ACCEPTANCE_PAIRS:
        rng = ring(name, scal)
        hh1 = hochschild_h1(rng)
        for n in ALL_NS:
            computed = sl_hl2(name, scal, n)
            if n == 5:
                extra_dim, extra_factors = 0, []
            else:
                rm = quotient_Rm(rng, {3: 3, 4: 2}[n])
                extra_dim = 6 * rm.dim
                extra_factors = [f for f in rm.moduli if f] * 6
            tag = (name, scal, n)
            assert computed.dimension == hh1.dimension + extra_dim, tag
            if scal == "z":
                want = sorted(list(hh1.invariant_factors) + extra_factors)
                assert sorted(computed.invariant_factors) == want, tag


def test_criterion_10_sharp_relations_and_hat_structure():
    for name, scal in ACCEPTANCE_PAIRS:
        for n in (3, 4):
            hat = build_hat(stl(name, scal, n))
            rep = verify_sharp_relations(hat)
            tag = (name, scal, n, rep.witness)
            assert rep.ok, tag
            assert rep.perfect, tag
            assert rep.center_contains_kernel, tag
