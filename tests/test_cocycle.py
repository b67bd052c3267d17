"""psi values, the symbolic bracket engine, and exhaustive J = 0 runs."""

from fractions import Fraction
from functools import lru_cache

import pytest

import stlhom.steinberg as steinberg
from stlhom.assoc import quotient_Rm
from stlhom.catalog import ACCEPTANCE_PAIRS, catalog_ring
from stlhom.domains import F2, F3, F5, Q, Z
from stlhom.leibniz import _homogeneous_codes, build_sl, uce
from stlhom.linalg import describe_vector, vec_axpy
from stlhom.steinberg import (CocycleSpace, SteinbergSymbolic, build_stl,
                              build_theta, corrupted_theta, psi3, psi4,
                              verify_cocycle)

from oracles import cocycle_paths, reference_cocycle

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


def test_space_exists_for_n_3_and_4_only():
    rm = quotient_Rm(ring("ground", "f2"), 2)
    for n in (2, 5):
        with pytest.raises(ValueError, match="n in"):
            CocycleSpace(n, rm)


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
    rep = verify_cocycle(3, ring("ground", "f3"))
    assert (rep.n, rep.ring_name, rep.ok) == (3, "ground", True)
    assert rep.witness is None and rep.theta_table is None
    rep4 = verify_cocycle(4, ring("ground", "f2"))
    assert rep4.theta_table["1234"] == 1


def test_corrupted_theta_fails_with_witness():
    bad = corrupted_theta(build_theta())
    rep = verify_cocycle(4, ring("ground", "f2"), theta=bad)
    assert not rep.ok
    assert rep.witness is not None
    assert "value" in rep.witness and rep.witness["value"] != "0"
    assert rep.triples_checked < 16 ** 3     # stopped at the first failure


def assert_first_failing_in_yzx_order(rep, n, r, theta=None):
    """The report agrees with the plain keys^3 walk: ``ok``, and on a
    failure the witness is the first failing triple in (y, z, x) order,
    with its value and the count of triples up to and including it."""
    engine, space, J, first = reference_cocycle(n, r, theta)
    assert rep.ok == (first is None)
    basis = engine.basis_keys()
    if rep.ok:
        assert rep.triples_checked == len(basis) ** 3
        return
    key = {engine.describe_key(k): k for k in basis}
    x, y, z = (key[rep.witness[v]] for v in "xyz")
    assert (describe_vector(J(x, y, z), space.labels)
            == rep.witness["value"] != "0")
    order = [(a, b, c) for b in basis for c in basis for a in basis]
    pos = order.index((x, y, z))
    assert rep.triples_checked == pos + 1
    assert not any(J(*t) for t in order[:pos])


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
    assert rep.ok == (not corrupt)
    assert_first_failing_in_yzx_order(rep, n, r, theta)


# the acceptance pairs and four more rings over Z
COCYCLE_RINGS = list(ACCEPTANCE_PAIRS) + [
    (name, "z") for name in ("dual", "group-c2", "trunc3", "upper2")]


def test_verify_cocycle_walks_the_graded_triples(monkeypatch):
    """The support check passes on every genuine psi, so the walk visits
    the weight-filtered candidates only; corrupted_theta moves psi values
    into W slots of another weight wherever W is not 0, so the walk falls
    back to every candidate triple there."""
    paths = cocycle_paths(monkeypatch)
    bad = corrupted_theta(build_theta())
    for name, scal in COCYCLE_RINGS:
        r = ring(name, scal)
        for n in (3, 4):
            paths.clear()
            assert verify_cocycle(n, r).ok
            assert paths == {f"psi-{n}({name})": True}, (name, scal, n)
        paths.clear()
        rep = verify_cocycle(4, r, theta=bad)
        w_is_zero = CocycleSpace(4, quotient_Rm(r, 2)).width == 0
        assert rep.ok == w_is_zero
        assert paths == {f"psi-4({name})": w_is_zero}, (name, scal)


@pytest.mark.parametrize("name", ["ground", "dual", "trunc3"])
def test_a_scaled_psi_value_fails_on_the_graded_path(monkeypatch, name):
    """Doubling psi(X12(1), X13(1)) inside its own U slot keeps psi
    homogeneous, so the graded walk runs, and it must report the first
    failing triple of the plain walk, which sees the same psi (psi3 wraps
    the same pair rule)."""
    rule = steinberg._psi_pair_rule
    target = [("x", 1, 2, 0), ("x", 1, 3, 0)]

    def scaled_rule(n, ring_, rm, theta, space):
        psi = rule(n, ring_, rm, theta, space)

        def scaled(xs, ys):
            out = psi(xs, ys)
            if [k for k, _ in xs] + [k for k, _ in ys] == target:
                doubled: dict = {}
                space.add_scaled(doubled, out, 2)
                return doubled
            return out
        return scaled

    monkeypatch.setattr(steinberg, "_psi_pair_rule", scaled_rule)
    paths = cocycle_paths(monkeypatch)
    r = ring(name, "f3")
    rep = verify_cocycle(3, r)
    assert paths == {f"psi-3({name})": True}
    assert not rep.ok
    assert_first_failing_in_yzx_order(rep, 3, r)


def test_the_support_check_refuses_an_entry_at_another_weight(monkeypatch):
    # an extension total: uce(sl_3(F3)), one kappa entry moved to a kernel
    # coordinate of another weight
    ext = uce(build_sl(3, ring("ground", "f3")))
    bd, dim, table = ext.base.dim, ext.total.dim, ext.total.table
    base_code = ext.base.grading.code
    code = _homogeneous_codes((table,), base_code, dim)
    assert code is not None and code[:bd] == base_code
    assert code == ext.total.grading.code
    p, w = min((p, w) for p, w in table.items() if max(w) >= bd)
    k = max(w)
    other = next(c for c in range(bd, dim) if code[c] != code[k])
    moved = {**table, p: {**{c: x for c, x in w.items() if c != k},
                          other: w[k]}}
    assert _homogeneous_codes((moved,), base_code, dim) is None
    # the cocycle carrier of verify_cocycle: one psi value moved to a W slot
    # of another weight
    seen = []
    monkeypatch.setattr(steinberg, "_check_identity",
                        lambda *args: seen.append(args))
    verify_cocycle(4, ring("ground", "f2"))
    (carrier, K, inner, outer, _what), = seen
    code = _homogeneous_codes((inner, outer), carrier.grading.code[:K],
                              carrier.dim)
    assert code is not None and any(code)
    assert [mu or 0 for mu in code] == carrier.grading.code
    p, w = min(outer.items())
    k, x = min(w.items())
    other = next(c for c in range(K, carrier.dim)
                 if code[c] not in (None, code[k]))
    moved = {**outer, p: {other: x}}
    assert _homogeneous_codes((inner, moved), code[:K], carrier.dim) is None


def test_verify_cocycle_input_validation():
    with pytest.raises(ValueError):
        verify_cocycle(5, ring("ground", "f2"))
    with pytest.raises(ValueError):
        verify_cocycle(3, ring("ground", "f3"), theta=build_theta())
