"""psi values, the symbolic bracket engine, and exhaustive J = 0 runs."""

from fractions import Fraction
from functools import lru_cache

import pytest

from stlhom.assoc import quotient_Rm
from stlhom.catalog import catalog_ring
from stlhom.domains import F2, F3, F5, Q, Z
from stlhom.linalg import vec_axpy
from stlhom.steinberg import (CocycleSpace, SteinbergSymbolic, build_stl,
                              build_theta, corrupted_theta, psi3, psi4,
                              verify_cocycle)

from oracles import reference_cocycle

DOMS = {"f2": F2, "f3": F3, "f5": F5, "q": Q, "z": Z}


@lru_cache(maxsize=None)
def ring(name, scal):
    return catalog_ring(name, DOMS[scal])


# ---------------------------------------------------------------------------
# value spaces


def test_space_shapes():
    w = CocycleSpace(4, quotient_Rm(ring("dual", "f2"), 2))
    assert w.slots == (1, 2, 3, 4, 5, 6)
    assert w.width == 12
    assert [w.slot_pos(s) for s in w.slots] == [0, 1, 2, 3, 4, 5]
    u = CocycleSpace(3, quotient_Rm(ring("ground", "f3"), 3))
    assert u.slots == (1, 2, 3, -1, -2, -3)
    assert u.width == 6
    assert [u.slot_pos(s) for s in u.slots] == [0, 1, 2, 3, 4, 5]
    assert u.labels[0] == "u(+1).0" and u.labels[3] == "u(-1).0"


def test_space_embed_and_reduce_mod_z():
    rm = quotient_Rm(ring("int", "z"), 2)        # Z/2
    w = CocycleSpace(4, rm)
    assert w.moduli == [2] * 6
    acc = {}
    w.add_scaled(acc, w.embed(3, {0: 1}), 1)
    assert acc == {2: 1}
    w.add_scaled(acc, w.embed(3, {0: 1}), 1)     # 1 + 1 = 0 mod 2
    assert acc == {}


# ---------------------------------------------------------------------------
# psi on descriptors


def test_psi4_distinct_quadruple_hits_theta_slot():
    r = ring("ground", "f2")
    rm = quotient_Rm(r, 2)
    theta = build_theta()
    one = {0: 1}
    v = psi4(("x", 1, 2, one), ("x", 3, 4, one), rm, theta)
    assert v.coords == {0: 1}                    # eps_1
    v = psi4(("x", 2, 1, one), ("x", 4, 3, one), rm, theta)
    assert v.coords == {4: 1}                    # theta((2,1,4,3)) = 5


def test_psi4_zero_cases():
    r = ring("ground", "f2")
    rm = quotient_Rm(r, 2)
    theta = build_theta()
    one = {0: 1}
    assert psi4(("x", 1, 2, one), ("x", 2, 3, one), rm, theta).is_zero()
    assert psi4(("x", 1, 2, one), ("x", 1, 3, one), rm, theta).is_zero()
    assert psi4(("t", one, one), ("x", 3, 4, one), rm, theta).is_zero()
    assert psi4(("x", 1, 2, one), ("T", 3, one), rm, theta).is_zero()


def test_psi4_sees_the_ring_product_in_r2():
    r = ring("dual", "f2")                       # F2[x]/(x^2), R_2 = R
    rm = quotient_Rm(r, 2)
    assert rm.dim == 2
    theta = build_theta()
    one, x = {0: 1}, {1: 1}
    assert psi4(("x", 1, 2, x), ("x", 3, 4, x), rm, theta).is_zero()   # x^2=0
    v = psi4(("x", 1, 2, one), ("x", 3, 4, x), rm, theta)
    assert v.coords == {1: 1}                    # eps_1 . xbar


def test_psi3_row_and_column_rules_with_signs():
    r = ring("ground", "f3")
    rm = quotient_Rm(r, 3)
    one = {0: 1}
    assert psi3(("x", 1, 2, one), ("x", 1, 3, one), rm).coords == {0: 1}
    # reversed column order flips the sign: -1 = 2 in F3
    assert psi3(("x", 1, 3, one), ("x", 1, 2, one), rm).coords == {0: 2}
    # shared column j feeds slot -j
    assert psi3(("x", 2, 1, one), ("x", 3, 1, one), rm).coords == {3: 1}
    assert psi3(("x", 3, 1, one), ("x", 2, 1, one), rm).coords == {3: 2}
    assert psi3(("x", 2, 3, one), ("x", 1, 3, one), rm).coords == {5: 2}


def test_psi3_zero_cases():
    r = ring("ground", "f3")
    rm = quotient_Rm(r, 3)
    one = {0: 1}
    assert psi3(("x", 1, 2, one), ("x", 1, 2, one), rm).is_zero()
    assert psi3(("x", 1, 2, one), ("x", 2, 1, one), rm).is_zero()
    assert psi3(("x", 1, 2, one), ("x", 2, 3, one), rm).is_zero()
    assert psi3(("t", one, one), ("x", 1, 2, one), rm).is_zero()


def test_psi_rejects_malformed_descriptors():
    r = ring("ground", "f3")
    rm3 = quotient_Rm(r, 3)
    rm2 = quotient_Rm(ring("ground", "f2"), 2)
    theta = build_theta()
    one = {0: 1}
    # indices are ints (not bools) in 1..n, ring keys lie in range(dim R),
    # coefficients are ints (not bools); Fractions only over Q
    malformed = [("x", 1, 0, one), ("x", 1, -2, one), ("x", True, 2, one),
                 ("x", 1, 2.0, one), ("x", 1, 2, {5: 1}),
                 ("x", 1, 2, {"a": 1}), ("t", one, {1: 1}),
                 ("T", True, one), ("T", 2, {-1: 1}),
                 ("x", 1, 2, {0: 0.5}), ("x", 1, 2, {0: True}),
                 ("x", 1, 2, {0: "a"}), ("x", 1, 2, {0: Fraction(1, 2)}),
                 ("t", one, {0: 1.0}), ("T", 2, {0: None})]
    for bad in [("x", 1, 1, one), ("x", 0, 2, one), ("x", 1, 5, one),
                ("y", 1, 2, one), ("x", 1, 2), ("T", 1, one), 7,
                ()] + malformed:
        with pytest.raises(ValueError):
            psi4(bad, ("x", 3, 4, one), rm2, theta)
        with pytest.raises(ValueError):
            psi4(("x", 3, 4, one), bad, rm2, theta)
    for bad in [("x", 1, 4, one)] + malformed:   # 4 is out of range at n = 3
        with pytest.raises(ValueError):
            psi3(bad, ("x", 1, 2, one), rm3)
    rq = quotient_Rm(ring("dual", "q"), 3)
    assert psi3(("x", 1, 2, {0: Fraction(1, 2)}), ("x", 1, 3, {1: 3}),
                rq).is_zero()


# ---------------------------------------------------------------------------
# the symbolic engine against the concrete model (the decisive oracle:
# every rewriting rule mapped through build_stl must match real brackets)


def image_of(model, key):
    one = model.total.dom.one
    if key[0] == "x":
        return dict(model.x_basis[(key[1], key[2], key[3])])
    if key[0] == "t":
        return model.t_image({key[1]: one}, {key[2]: one})
    return model.T_image(1, key[1], {key[2]: one}, model.ring.unit)


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f3", 3),
    ("ground", "f5", 3),
    ("dual", "f3", 3),
    ("int", "z", 3),
    ("ground", "f3", 4),
    ("dual", "f2", 4),
])
def test_engine_brackets_match_concrete_model(name, scal, n):
    r = ring(name, scal)
    model = build_stl(n, r)
    eng = SteinbergSymbolic(n, r)
    keys = eng.basis_keys()
    dom = model.total.dom
    for k1 in keys:
        for k2 in keys:
            mapped = {}
            for k, c in eng.bracket_keys(k1, k2).items():
                vec_axpy(mapped, image_of(model, k), c, dom)
            concrete = model.total.bracket(image_of(model, k1),
                                           image_of(model, k2))
            assert model.total.eq_vec(mapped, concrete), (k1, k2)


def test_engine_diagonal_brackets_stay_diagonal():
    eng = SteinbergSymbolic(4, ring("dual", "f3"))
    hkeys = [k for k in eng.basis_keys() if k[0] != "x"]
    for k1 in hkeys:
        for k2 in hkeys:
            w = eng.bracket_keys(k1, k2)
            assert all(k[0] != "x" for k in w)


def test_engine_rejects_small_n():
    with pytest.raises(ValueError):
        SteinbergSymbolic(2, ring("ground", "f2"))


# ---------------------------------------------------------------------------
# exhaustive cocycle verification


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f3", 3),
    ("dual", "f3", 3),
    ("ground", "f2", 4),
    ("dual", "f2", 4),
    ("int", "z", 3),
    ("int", "z", 4),
])
def test_cocycle_identity_holds(name, scal, n):
    r = ring(name, scal)
    eng = SteinbergSymbolic(n, r)
    rep = verify_cocycle(n, r)
    assert rep.ok
    assert rep.witness is None
    assert rep.triples_checked == len(eng.basis_keys()) ** 3


def test_cocycle_report_to_dict():
    d = verify_cocycle(3, ring("ground", "f3")).to_dict()
    assert list(d) == ["check", "n", "ring", "ok", "triples_checked",
                       "witness", "theta"]
    assert d["check"] == "cocycle" and d["ok"] is True
    assert d["theta"] is None
    d4 = verify_cocycle(4, ring("ground", "f2")).to_dict()
    assert d4["theta"]["1234"] == 1


def test_corrupted_theta_fails_with_witness():
    bad = corrupted_theta(build_theta())
    rep = verify_cocycle(4, ring("ground", "f2"), theta=bad)
    assert not rep.ok
    assert rep.witness is not None
    assert "value" in rep.witness and rep.witness["value"] != "0"
    assert rep.triples_checked < 16 ** 3     # stopped at the first failure


@pytest.mark.parametrize("name,scal,n,corrupt", [
    ("ground", "f2", 4, False),
    ("ground", "f3", 3, False),
    ("dual", "f3", 3, False),
    ("ground", "f2", 4, True),
])
def test_verify_cocycle_agrees_with_the_lexicographic_walk(name, scal, n,
                                                           corrupt):
    r = ring(name, scal)
    theta = corrupted_theta(build_theta()) if corrupt else None
    rep = verify_cocycle(n, r, theta=theta)
    engine, space, J, first = reference_cocycle(n, r, theta)
    assert rep.ok == (first is None) == (not corrupt)
    basis = engine.basis_keys()
    if rep.ok:
        assert rep.triples_checked == len(basis) ** 3
        return
    key = {engine.describe_key(k): k for k in basis}
    x, y, z = (key[rep.witness[v]] for v in "xyz")
    assert space.describe(J(x, y, z)) == rep.witness["value"] != "0"
    # the witness is the first failing triple in (y, z, x) order, and
    # triples_checked counts the triples up to and including it
    order = [(a, b, c) for b in basis for c in basis for a in basis]
    pos = order.index((x, y, z))
    assert rep.triples_checked == pos + 1
    assert not any(J(*t) for t in order[:pos])


def test_verify_cocycle_input_validation():
    with pytest.raises(ValueError):
        verify_cocycle(5, ring("ground", "f2"))
    with pytest.raises(ValueError):
        verify_cocycle(3, ring("ground", "f3"), theta=build_theta())
