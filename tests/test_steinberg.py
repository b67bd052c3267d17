"""Concrete stl models, the structure calculus, hat extensions, HL2."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from stlhom.assoc import hochschild_h1
from stlhom.catalog import ACCEPTANCE_PAIRS, catalog_ring
from stlhom.domains import F2, F3, F5, Q, Z
import stlhom
from stlhom.leibniz import (CentralExtensionModel, LeibnizAlgebra,
                            LeibnizIdentityError, build_sl, homology_hl,
                            is_central, is_perfect, make_leibniz,
                            special_weight, structural_report, uce)
from stlhom.linalg import vec_axpy
from stlhom.steinberg import (CocycleSpace, ThetaMap, build_hat, build_stl,
                              build_theta, corrupted_theta, hl2_report,
                              predicted_hl2, verify_calculus, verify_cocycle,
                              verify_sharp_relations)

from oracles import (check_homomorphism_on_basis, check_kernel_central,
                     cocycle_paths, fields, kappa_of, sl_to_gl,
                     torus_weight)

DOMS = {"f2": F2, "f3": F3, "f5": F5, "q": Q, "z": Z}


@lru_cache(maxsize=None)
def ring(name, scal):
    return catalog_ring(name, DOMS[scal])


@lru_cache(maxsize=None)
def stl(name, scal, n):
    return build_stl(n, ring(name, scal))


@lru_cache(maxsize=None)
def hat(name, scal, n):
    return build_hat(stl(name, scal, n))


# ---------------------------------------------------------------------------
# building the models


STL_SHAPES = [
    # (ring, scalar, n, dim, kernel, N-rank); dims are
    # (n^2 - 1) dim R + dim[R,R] + dim HH1, N-rank = 6 dim R_m for n < 5
    ("ground", "f2", 3, 8, "0", 0),
    ("ground", "f2", 4, 15, "0", 6),
    ("ground", "f2", 5, 24, "0", 0),
    ("ground", "f3", 3, 8, "0", 6),
    ("ground", "f3", 4, 15, "0", 0),
    ("ground", "q", 3, 8, "0", 0),
    ("dual", "f2", 3, 18, "f2^2", 0),
    ("dual", "f2", 4, 32, "f2^2", 12),
    ("dual", "f2", 5, 50, "f2^2", 0),
    ("dual", "q", 3, 17, "q^1", 0),
    ("trunc3", "f3", 3, 27, "f3^3", 18),
    ("group-c2", "f2", 4, 32, "f2^2", 12),
    ("upper2", "f2", 4, 46, "0", 12),
    ("mat2", "f2", 3, 35, "0", 0),
    ("mat2", "f2", 4, 63, "0", 0),
    ("int", "z", 3, 8, "0", 6),
    ("int", "z", 4, 15, "0", 6),
]


@pytest.mark.parametrize("name,scal,n,dim,kernel,nrank", STL_SHAPES)
def test_stl_shapes(name, scal, n, dim, kernel, nrank):
    m = stl(name, scal, n)
    assert m.total.dim == dim
    assert m.kernel_invariants.describe() == kernel
    assert m.hl2.dimension == nrank
    assert m.total.name == f"stl{n}({m.ring.name})"


@pytest.mark.parametrize("name,scal,n,dim,kernel,nrank", STL_SHAPES)
def test_hl2_of_n_image_matches_the_d3_stream(name, scal, n, dim, kernel,
                                              nrank):
    # two routes to HL_2(stl): the image of N in ker(uce(sl) -> sl), read
    # off by build_stl, and the d3 stream of stl itself
    m = stl(name, scal, n)
    assert m.hl2 == homology_hl(m.total, 2).invariants


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f2", 4), ("dual", "f3", 3), ("upper2", "z", 3),
])
def test_graded_stl_total_streams_fewer_columns_to_the_same_hl2(
        monkeypatch, name, scal, n):
    # two routes to HL_2 of one table: the stl total, streamed by the blocks
    # of the grading its support check certified, and an ungraded copy,
    # whose identity is checked afresh and whose cube is one block
    import stlhom.leibniz as leib
    total = stl(name, scal, n).total
    plain = LeibnizAlgebra(total.dom, total.dim, total.table, total.labels,
                           total.moduli, "plain")
    assert any(total.grading.code) and not any(plain.grading.code)
    inner = leib.iter_d3_columns
    streamed = []

    def counted(*args, **kwargs):
        streamed.append(0)
        for item in inner(*args, **kwargs):
            streamed[-1] += 1
            yield item

    monkeypatch.setattr(leib, "iter_d3_columns", counted)
    graded, ungraded = homology_hl(total, 2), homology_hl(plain, 2)
    assert graded.algebra_name == total.name
    assert fields(graded, "algebra_name") == fields(ungraded, "algebra_name")
    assert streamed[0] < streamed[1], streamed


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f2", 4), ("dual", "f2", 4), ("dual", "q", 3),
    ("trunc3", "f3", 3), ("mat2", "f2", 3), ("int", "z", 4),
])
def test_kernel_is_hochschild_h1(name, scal, n):
    m = stl(name, scal, n)
    assert m.kernel_invariants == hochschild_h1(m.ring)


def _integral_fractions(vectors) -> list:
    """The entries of the vectors that are Fractions of denominator 1: a Q
    scalar is canonical as an int when it is integral."""
    return [x for v in vectors for x in v.values()
            if isinstance(x, Fraction) and x.denominator == 1]


@pytest.mark.parametrize("name,n", [
    (name, n) for name in ("ground", "dual", "group-c2") for n in (3, 4)
] + [("group-c2", 5)])
def test_q_tables_hold_no_integral_fraction(name, n):
    m = stl(name, "q", n)
    tables = [m.extension.base.table, m.total.table]
    if n < 5:
        tables += [uce(m.extension.base).total.table,
                   hat(name, "q", n).total.table]
    for table in tables + [m.x_basis]:
        assert table and not _integral_fractions(table.values())


def test_build_stl_rejects_bad_n():
    for n in (2, 6):
        with pytest.raises(ValueError):
            build_stl(n, ring("ground", "f2"))


def test_stl_is_perfect_and_extension_checks_pass():
    m = stl("dual", "f3", 3)
    assert is_perfect(m.total)
    check_homomorphism_on_basis(m.extension)
    check_kernel_central(m.extension)
    for c in range(m.extension.base.dim, m.total.dim):
        assert is_central(m.total, {c: 1})


# ---------------------------------------------------------------------------
# generator images


def test_x_image_projects_to_elementary_matrices():
    m = stl("dual", "f3", 3)
    sl = m.extension.base
    for (i, j) in [(1, 2), (2, 3), (3, 1)]:
        for a in [{0: 1}, {1: 2}, {0: 1, 1: 1}]:
            got = m.extension.project(m.x_image(i, j, a))
            assert sl.eq_vec(got, sl.eij(i - 1, j - 1, a))


def test_T_image_projects_to_diagonal_difference():
    m = stl("mat2", "f2", 3)
    sl = m.extension.base
    gl = sl.gl
    r = m.ring
    a, b = {1: 1}, {2: 1}                        # e12, e21 in M2(F2)
    got = sl_to_gl(sl, m.extension.project(m.T_image(1, 2, a, b)))
    want = gl.eij(0, 0, r.multiply(a, b))
    for k, c in gl.eij(1, 1, r.multiply(b, a)).items():
        want[k] = gl.dom.sub(want.get(k, 0), c)
    assert gl.eq_vec(got, {k: c for k, c in want.items() if c})


def test_t_of_unit_pair_vanishes():
    for key in [("ground", "f3", 3), ("dual", "f2", 4), ("int", "z", 3)]:
        m = stl(*key)
        u = m.ring.unit
        assert m.total.reduce_vec(m.t_image(u, u)) == {}


def test_T_unit_antisymmetry_and_t_column_choice():
    m = stl("trunc3", "f3", 3)
    one = m.total.dom.one
    x = {1: one}
    s = m.T_image(2, 3, x, m.ring.unit)
    vec_axpy(s, m.T_image(3, 2, x, m.ring.unit), one, m.total.dom)
    assert m.total.reduce_vec(s) == {}
    assert m.total.eq_vec(m.t_image(x, x, j=2), m.t_image(x, x, j=3))


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_x_image_is_bilinear_in_the_ring_argument(c0, c1, c2):
    m = stl("trunc3", "f3", 3)
    dom = m.total.dom
    a = {t: c for t, c in enumerate((c0, c1, c2)) if c}
    want = {}
    for t, c in a.items():
        vec_axpy(want, m.x_image(1, 3, {t: dom.one}), c, dom)
    assert m.total.eq_vec(m.x_image(1, 3, a), want)


def test_pivot_independence_is_enforced():
    # all pivots already agree inside build_stl; confirm the classes also
    # agree when recomputed through the raw tensor map
    m = stl("ground", "f3", 4)
    sl = m.extension.base
    dom = sl.dom
    for p in (2, 3):                            # X_14 via pivots 2 and 3
        u = sl.eij(0, p - 1, {0: dom.one})
        v = sl.eij(p - 1, 3, m.ring.unit)
        tensor = {}
        for s, cu in u.items():
            for t, cv in v.items():
                tensor[s * sl.dim + t] = dom.mul(cu, cv)
        assert m.total.eq_vec(m.extension.tensor_coords(tensor),
                              m.x_basis[(1, 4, 0)])


# ---------------------------------------------------------------------------
# the structure calculus


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f3", 3),
    ("ground", "f2", 4),
    ("dual", "f3", 3),
    ("dual", "f2", 4),
    ("trunc3", "f3", 3),
    ("mat2", "f2", 4),
    ("int", "z", 4),
    ("ground", "f2", 5),
])
def test_calculus_passes(name, scal, n):
    rep = verify_calculus(stl(name, scal, n))
    assert rep.ok, rep.witness
    assert rep.witness is None
    assert rep.checks["H-decomposition"] > 0
    assert rep.checks["t-column-independence"] > 0
    assert ("TX-disjoint-zero" in rep.checks) == (n >= 4)


def test_calculus_report_to_dict():
    rep = verify_calculus(stl("ground", "f3", 3))
    assert rep.ok is True and rep.witness is None
    assert rep.checks["tX-first-row"] == 2
    assert rep.checks["TX-same-position"] == 6


def corrupt_entry(total, idx):
    """Negative control: add 1 to the lowest coordinate of the idx-th key of
    the sorted table.  The entry is replaced, not mutated, since tables share
    their vectors with the base algebra's."""
    key = sorted(total.table)[idx]
    w = dict(total.table[key])
    k = min(w)
    val = total.dom.add(w[k], total.dom.one)
    if total.moduli[k]:
        val %= total.moduli[k]
    if val:
        w[k] = val
    else:
        del w[k]
    total.table[key] = w


CALC_N3 = {"T-recombination": 6, "T-unit-antisymmetry": 6,
           "t-column-independence": 1, "TX-same-row": 6, "TX-into-column": 6,
           "TX-same-column": 6, "TX-from-row": 6, "TX-same-position": 6,
           "tX-first-row": 2, "tX-first-column": 2, "tX-interior-zero": 2,
           "H-decomposition": 6}
CALC_N4 = {"T-recombination": 24, "T-unit-antisymmetry": 12,
           "t-column-independence": 2, "TX-disjoint-zero": 24,
           "TX-same-row": 24, "TX-into-column": 24, "TX-same-column": 24,
           "TX-from-row": 24, "TX-same-position": 24, "tX-first-row": 3,
           "tX-first-column": 3, "tX-interior-zero": 6, "H-decomposition": 12}
# dual@f2 n=4: dim R = 2, so a product read at the wrong basis index shows
CALC_DUAL_N4 = {"T-recombination": 192, "T-unit-antisymmetry": 24,
                "t-column-independence": 8, "TX-disjoint-zero": 192,
                "TX-same-row": 192, "TX-into-column": 192,
                "TX-same-column": 192, "TX-from-row": 192,
                "TX-same-position": 192, "tX-first-row": 24,
                "tX-first-column": 24, "tX-interior-zero": 48,
                "H-decomposition": 48, "center-inside-H": 3}


@pytest.mark.parametrize("name,scal,n,idx,counts,witness", [
    ("ground", "f3", 3, 0, CALC_N3, "TX-same-position fails at T12"),
    ("ground", "f3", 3, 27, CALC_N3, "TX-from-row reversed fails at T12/X23"),
    ("ground", "f2", 4, 54, CALC_N4, "[T13, X24] != 0"),
    # the last TX triple's failure: an earlier wrong product would show first
    ("dual", "f2", 4, 242, CALC_DUAL_N4, "TX-from-row fails at T23/X31"),
], ids=["ground-f3-3-0", "ground-f3-3-27", "ground-f2-4-54", "dual-f2-4-242"])
def test_calculus_reports_a_corrupted_table(name, scal, n, idx, counts,
                                            witness):
    m = build_stl(n, ring(name, scal))
    corrupt_entry(m.total, idx)
    rep = verify_calculus(m)
    assert fields(rep) == {"n": n, "ring_name": name, "ok": False,
                           "checks": counts, "witness": witness}
    assert list(rep.checks) == list(counts)


# ---------------------------------------------------------------------------
# hat extensions


HAT_SHAPES = [
    # (ring, scalar, n, hat dim, cocycle block width, center rank)
    ("ground", "f2", 4, 21, 6, 7),
    ("ground", "f3", 3, 14, 6, 7),
    ("dual", "f2", 4, 44, 12, 16),
    ("dual", "f3", 3, 29, 12, 15),
    ("mat2", "f2", 4, 63, 0, 1),
]


@pytest.mark.parametrize("name,scal,n,dim,width,center", HAT_SHAPES)
def test_hat_shapes(name, scal, n, dim, width, center):
    h = hat(name, scal, n)
    assert h.total.dim == dim
    assert h.space.width == width
    assert h.total.dim == h.stl.total.dim + width
    assert structural_report(h.total).center_rank == center
    assert is_perfect(h.total)
    one = h.total.dom.one
    for k in range(width):
        assert is_central(h.total, {h.stl.total.dim + k: one})


def test_hat_w_part_matches_public_psi():
    h = hat("ground", "f3", 3)
    one = {0: 1}
    pairs = [((1, 2), (1, 3)), ((2, 1), (3, 1)), ((1, 2), (2, 1)),
             ((2, 3), (1, 3)), ((1, 2), (1, 2))]
    for (i, j), (k, l) in pairs:
        got = h.extension.kernel_part(
            h.total.bracket(h.stl.x_image(i, j, one),
                            h.stl.x_image(k, l, one)))
        want = h.space.value(("x", i, j, one), ("x", k, l, one))
        assert got == want


def test_hat4_w_part_matches_public_psi():
    h = hat("dual", "f2", 4)
    one, x = {0: 1}, {1: 1}
    for (args, expect_zero) in [(((1, 2, one), (3, 4, x)), False),
                                (((2, 1, x), (4, 3, one)), False),
                                (((1, 2, x), (3, 4, x)), True),
                                (((1, 2, one), (2, 3, one)), True)]:
        (i, j, a), (k, l, b) = args
        got = h.extension.kernel_part(
            h.total.bracket(h.stl.x_image(i, j, a), h.stl.x_image(k, l, b)))
        want = h.space.value(("x", i, j, a), ("x", k, l, b))
        assert got == want
        assert (got == {}) == expect_zero


def test_hat_projection_helpers():
    h = hat("ground", "f3", 3)
    sd = h.stl.total.dim
    v = {0: 1, sd + 2: 2}
    assert h.extension.project(v) == {0: 1}
    assert h.extension.kernel_part(v) == {2: 2}
    assert h.include_w({2: 2}) == {sd + 2: 2}
    assert h.include_w({}) == {}


def test_hat_of_trivial_cocycle_space_is_stl():
    h = hat("mat2", "f2", 4)
    assert h.space.width == 0
    assert h.total.dim == h.stl.total.dim
    assert h.total.table == h.stl.total.table


def test_build_hat_input_validation():
    # the refusals of CocycleSpace, with its texts
    with pytest.raises(ValueError,
                       match=r"^cocycle spaces exist for n in \{3, 4\}$"):
        build_hat(stl("ground", "f2", 5))
    with pytest.raises(ValueError,
                       match="^theta only parameterizes the n = 4 cocycle$"):
        build_hat(stl("ground", "f3", 3), theta=build_theta())


def test_a_given_theta_is_the_one_psi_reads():
    # labels 2..6 are a free choice: swapping two of them is another valid
    # theta, which the hat, its sharp check and verify_cocycle all read
    swap = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}
    base = build_theta()
    reps = base.representatives
    theta = ThetaMap({q: swap[m] for q, m in base.table.items()},
                     (reps[0], reps[2], reps[1], *reps[3:]))
    assert theta.validate() == [] and theta.to_dict() != base.to_dict()
    r = ring("dual", "f2")
    h = build_hat(stl("dual", "f2", 4), theta=theta)
    assert h.space.theta is theta
    assert verify_sharp_relations(h).ok
    rep = verify_cocycle(4, r, theta=theta)
    assert rep.ok and rep.theta_table == theta.to_dict()
    assert CocycleSpace(4, r).theta.to_dict() == base.to_dict()
    assert CocycleSpace(3, r).theta is None


def test_corrupted_theta_breaks_the_hat():
    m = stl("ground", "f2", 4)
    with pytest.raises(LeibnizIdentityError) as exc:
        build_hat(m, theta=corrupted_theta(build_theta()))
    assert len(exc.value.triple) == 3


# ---------------------------------------------------------------------------
# certifying the extensions on their kernel weights


FIELD_PAIRS = [(name, scal) for name, scal in ACCEPTANCE_PAIRS if scal != "z"]
Z_RINGS = ("int", "ground", "dual", "trunc3", "group-c2", "upper2", "mat2")
# Smith's U mixes weight blocks of the uce kernel over Z here, so its
# support check fails and uce's total is ungraded
Z_UCE_FALLBACKS = {("dual", 3), ("group-c2", 3), ("trunc3", 4)}
# the hats of the all-checks workload; W is 0 for mat2 only
ALL_CHECK_HATS = [
    ("mat2", "f2", 4), ("upper2", "f2", 4), ("group-c2", "f2", 4),
    ("dual", "f2", 4), ("trunc3", "f3", 3), ("dual", "f3", 3),
    ("int", "z", 4), ("ground", "f2", 4), ("ground", "f3", 3),
]


def position_class_weight(h, slot: int) -> tuple:
    """The torus weight of the W (n = 4) or U (n = 3) slot: that of
    X_ij(a) (x) X_kl(b) at the position class the slot labels."""
    n = h.n
    if n == 4:
        i, j, k, l = h.space.theta.representatives[slot - 1]
        return tuple((t == i) - (t == j) + (t == k) - (t == l)
                     for t in range(1, 5))
    sign, i = (1, slot) if slot > 0 else (-1, -slot)
    return tuple(sign * (3 * (t == i) - 1) for t in range(1, 4))


def test_every_extension_is_certified_on_its_kernel_weights(monkeypatch):
    """The support check passes, so the total is graded by its kernel
    weights: uce, stl and hat on the field acceptance pairs, stl and hat
    on every ring over Z, at n = 3 and 4.  Over Z, uce's total is ungraded
    exactly on Z_UCE_FALLBACKS."""
    paths = cocycle_paths(monkeypatch)
    cases = ([(name, scal, n) for name, scal in FIELD_PAIRS for n in (3, 4)]
             + [(name, "z", n) for name in Z_RINGS for n in (3, 4)])
    for name, scal, n in cases:
        r = ring(name, scal)
        model = build_stl(n, r)
        h = build_hat(model)
        for ext in (model.extension, h.extension):
            assert any(ext.total.grading.code), ext.total.name
            assert paths.get(ext.total.name, True), ext.total.name
        want = scal != "z" or (name, n) not in Z_UCE_FALLBACKS
        assert paths.get(f"uce({model.extension.base.name})", True) == want, \
            (name, scal, n)


@pytest.mark.parametrize("name", Z_RINGS)
@pytest.mark.parametrize("n", [3, 4])
def test_center_basis_is_a_basis_of_the_center_over_z(name, n):
    # center_basis is the rows of the center's Hermite echelon, a basis of
    # the center lattice: rank-many vectors, each central (verify_calculus
    # counts one center-inside-H instance per vector)
    h = hat(name, "z", n)
    for alg in (h.stl.extension.base, h.stl.total, h.total):
        rep = structural_report(alg)
        assert len(rep.center_basis) == rep.center_rank, alg.name
        assert all(is_central(alg, v) for v in rep.center_basis), alg.name


def test_the_support_check_reads_off_the_grading_of_the_paper():
    # uce(sl): the kernel ker(d2)/im(d3) lives in the special weights
    for name, scal in FIELD_PAIRS:
        for n in (3, 4):
            sl = build_sl(n, ring(name, scal))
            code = uce(sl).total.grading.code
            assert all(special_weight(sl.dom, torus_weight(mu, n))
                       for mu in code[sl.dim:])
    # stl: the kernel HH_1(R) has weight 0
    for name, scal in ACCEPTANCE_PAIRS:
        for n in (3, 4):
            ext = stl(name, scal, n).extension
            assert set(ext.total.grading.code[ext.base.dim:]) <= {0}
    # hat: each W slot has the weight of its position class, six in all
    # where W is not 0
    for name, scal, n in ALL_CHECK_HATS:
        h = hat(name, scal, n)
        sd, d = h.stl.total.dim, h.space.quotient.dim
        got = [torus_weight(mu, n) for mu in h.total.grading.code[sd:]]
        want = [position_class_weight(h, slot)
                for slot in h.space.slots for _ in range(d)]
        assert got == want
        assert len(set(got)) == (6 if got else 0)


def test_corrupted_theta_fails_the_support_check_of_the_hat(monkeypatch):
    # swapping the labels of two quadruples of different position classes
    # moves kappa entries into W slots of another weight, so the hat total
    # is ungraded, and the check finds the witness triple
    m = stl("ground", "f2", 4)
    paths = cocycle_paths(monkeypatch)
    with pytest.raises(LeibnizIdentityError) as exc:
        build_hat(m, theta=corrupted_theta(build_theta()))
    assert len(exc.value.triple) == 3
    assert paths == {"hat-stl4(ground)": False}


@pytest.mark.parametrize("name,scal,n", [("ground", "f3", 3),
                                         ("dual", "f3", 3)])
def test_a_wrong_hat_kappa_value_fails_pruned(monkeypatch, name, scal, n):
    h = hat(name, scal, n)
    ext = h.extension
    kappa = kappa_of(ext)
    p, v = min(kappa.items())
    kappa[p] = {c: (2 * x) % 3 for c, x in v.items()}
    paths = cocycle_paths(monkeypatch)
    with pytest.raises(LeibnizIdentityError) as exc:
        CentralExtensionModel(ext.base, ext.kernel_moduli, kappa, "scaled",
                              ext.total.labels[ext.base.dim:])
    assert len(exc.value.triple) == 3
    assert paths == {"scaled": True}


@pytest.mark.parametrize("name,scal,n", [
    ("dual", "f3", 3), ("int", "z", 4), ("group-c2", "f2", 4),
])
def test_make_leibniz_accepts_the_certified_totals(name, scal, n):
    # each total was certified once, by the cocycle condition on its kappa;
    # the full identity check must agree
    totals = [uce(build_sl(n, ring(name, scal))).total,
              stl(name, scal, n).total, hat(name, scal, n).total]
    for total in totals:
        assert total.certified
        again = make_leibniz(total.dom, total.dim, total.table,
                             labels=total.labels, moduli=total.moduli,
                             name=total.name)
        assert again.table == total.table


NEGATIVE_CONTROLS = """
from stlhom import (F2, F3, CampaignConfig, CampaignConfigError,
                    CocycleSpace, LeibnizAlgebra, LeibnizIdentityError,
                    build_hat, build_stl, build_theta, catalog_ring,
                    corrupted_theta, homology_hl)
print("debug", __debug__)
try:
    build_hat(build_stl(4, catalog_ring("ground", F2)),
              theta=corrupted_theta(build_theta()))
except LeibnizIdentityError as exc:
    print("hat raises with a triple of", len(exc.triple))
bad = LeibnizAlgebra(F3, 2, {(0, 1): {0: 1}, (1, 0): {0: 1}}, ["e0", "e1"],
                     [0, 0], "bad")
try:
    homology_hl(bad, 2)
except LeibnizIdentityError as exc:
    print("homology raises with a triple of", len(exc.triple))
u = CocycleSpace(3, catalog_ring("ground", F3))
for bad in [("x", 1, 0, {0: 1}), ("x", True, 2, {0: 1}), ("x", 1, 2, {5: 1}),
            ("x", 1, 2, {0: 0.5})]:
    try:
        u.value(bad, ("x", 1, 2, {0: 1}))
    except ValueError:
        print("psi3 rejects", bad)
try:
    CampaignConfig([("ground", "f3")], [3.0], ["homology"])
except CampaignConfigError:
    print("config rejects ns [3.0]")
try:
    CampaignConfig([("ground", "f3")], [3], ["homology"], jobs=True,
                   max_cube=True)
except CampaignConfigError:
    print("config rejects jobs True")
"""


def test_negative_controls_fire_under_python_O():
    src = os.path.dirname(os.path.dirname(stlhom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", NEGATIVE_CONTROLS],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "hat raises with a triple of 3",
        "homology raises with a triple of 3",
        "psi3 rejects ('x', 1, 0, {0: 1})",
        "psi3 rejects ('x', True, 2, {0: 1})",
        "psi3 rejects ('x', 1, 2, {5: 1})",
        "psi3 rejects ('x', 1, 2, {0: 0.5})",
        "config rejects ns [3.0]", "config rejects jobs True"]


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f2", 4), ("dual", "f2", 4), ("mat2", "f2", 4),
    ("ground", "f3", 3), ("dual", "f3", 3),
])
def test_sharp_relations_hold(name, scal, n):
    rep = verify_sharp_relations(hat(name, scal, n))
    assert rep.ok, rep.witness
    assert rep.perfect
    assert rep.center_contains_kernel
    assert rep.relations["two-sided-product"] > 0
    assert rep.ok is True


SHARP_DUAL_N4 = {"two-sided-product": 96, "kernel-commutes": 288,
                 "same-position-zero": 48, "same-row-zero": 96,
                 "same-column-zero": 96, "disjoint-cocycle-value": 96}
SHARP_DUAL_N3 = {"two-sided-product": 24, "kernel-commutes": 144,
                 "same-position-zero": 24, "same-row-cocycle-value": 24,
                 "same-column-cocycle-value": 24}


@pytest.mark.parametrize("name,scal,n,idx,counts,witness", [
    ("dual", "f2", 4, 347, SHARP_DUAL_N4, "[X41#, X24#] != -X21#(ab)"),
    ("ground", "f3", 3, 14,
     {"two-sided-product": 6, "kernel-commutes": 36, "same-position-zero": 6,
      "same-row-cocycle-value": 6, "same-column-cocycle-value": 6},
     "[X13#, X12#] != sign(3,2)(ab)^(+1)"),
    # noncommutative R, failing at the last disjoint position: a product ba
    # in place of ab would fail the two-sided product relation first
    ("upper2", "f2", 4, 825,
     {"two-sided-product": 216, "kernel-commutes": 432,
      "same-position-zero": 108, "same-row-zero": 216,
      "same-column-zero": 216, "disjoint-cocycle-value": 216},
     "[X43#, X21#] != eps_5(ab)"),
], ids=["dual-f2-4-347", "ground-f3-3-14", "upper2-f2-4-825"])
def test_sharp_reports_a_corrupted_table(name, scal, n, idx, counts, witness):
    h = build_hat(stl(name, scal, n))
    corrupt_entry(h.total, idx)
    rep = verify_sharp_relations(h)
    assert fields(rep) == {"n": n, "ring_name": name, "ok": False,
                           "relations": counts, "witness": witness,
                           "perfect": True, "center_contains_kernel": True}
    assert list(rep.relations) == list(counts)


@pytest.mark.parametrize("scal,n,p,q,counts,witness", [
    ("f2", 4, (1, 2), (1, 2), SHARP_DUAL_N4, "[X12#(a), X12#(b)] != 0"),
    ("f2", 4, (1, 2), (1, 3), SHARP_DUAL_N4, "[X12#, X13#] != 0"),
    ("f2", 4, (1, 2), (3, 2), SHARP_DUAL_N4, "[X12#, X32#] != 0"),
    ("f3", 3, (1, 2), (1, 2), SHARP_DUAL_N3, "[X12#(a), X12#(b)] != 0"),
], ids=["same-position-4", "same-row-4", "same-column-4", "same-position-3"])
def test_sharp_reports_a_nonzero_bracket_of_two_basis_elements(
        scal, n, p, q, counts, witness):
    # negative control for the zero rules: a W term on the bracket of the
    # lowest coordinates of X_p#(r_0) and X_q#(r_1) only; dim R = 2 makes
    # the two ring basis elements differ, so a rule that reads r_0 (or r_1)
    # twice never brackets the corrupted pair
    h = build_hat(stl("dual", scal, n))
    xb = h.stl.x_basis
    key = (min(xb[p + (0,)]), min(xb[q + (1,)]))
    w = dict(h.total.table.get(key, {}))
    vec_axpy(w, h.include_w({0: 1}), 1, h.total.dom)
    h.total.table[key] = w
    rep = verify_sharp_relations(h)
    assert fields(rep) == {"n": n, "ring_name": "dual", "ok": False,
                           "relations": counts, "witness": witness,
                           "perfect": True, "center_contains_kernel": True}


@pytest.mark.parametrize("name,scal,n,witness", [
    ("ground", "f2", 4, "[X12#, X34#] != eps_1(ab)"),
    ("dual", "f3", 3, "[X12#, X13#] != sign(2,3)(ab)^(+1)"),
    ("int", "z", 4, "[X12#, X34#] != eps_1(ab)"),
], ids=["ground-f2-4", "dual-f3-3", "int-z-4"])
def test_sharp_reports_a_hat_with_no_cocycle_block(name, scal, n, witness):
    # negative control for perfectness: with every W coordinate stripped
    # from the table, no bracket reaches W, so W lies outside [hat, hat];
    # W stays central, and the first cocycle value read fails
    h = build_hat(stl(name, scal, n))
    sd = h.stl.total.dim
    table = h.total.table
    for key, w in table.items():
        table[key] = {k: c for k, c in w.items() if k < sd}
    rep = verify_sharp_relations(h)
    assert (rep.perfect, rep.ok, rep.center_contains_kernel,
            rep.witness) == (False, False, True, witness)


def test_hat_is_the_universal_central_extension():
    # uce(stl) has the same shape as the hat model, and HL2(hat) = 0
    for (name, scal, n) in [("ground", "f2", 4), ("ground", "f3", 3)]:
        m = stl(name, scal, n)
        h = hat(name, scal, n)
        u = uce(m.total)
        assert u.total.dim == h.total.dim
        assert u.kernel_invariants.dimension == h.space.width
        assert homology_hl(h.total, 2).invariants.is_trivial


# ---------------------------------------------------------------------------
# homology reports


@pytest.mark.parametrize("name,scal,n,expected", [
    ("ground", "f2", 3, "0"),
    ("ground", "f3", 3, "f3^6"),
    ("ground", "f2", 4, "f2^6"),
    ("ground", "f3", 4, "0"),
    ("dual", "f2", 4, "f2^12"),
    ("ground", "f2", 5, "0"),
])
def test_hl2_reports_match(name, scal, n, expected):
    model = stl(name, scal, n)
    rep = hl2_report(model)
    assert rep.ok
    assert rep.computed.describe() == expected
    assert rep.predicted.describe() == expected
    # the report reads HL_2(stl) = ker(uce(sl) -> stl), the image of N,
    # off the model; the stream route is compared in
    # test_hl2_of_n_image_matches_the_d3_stream
    assert rep.computed.dimension == model.hl2.dimension
    assert rep.computed is model.hl2


def test_hl2_report_over_z():
    rep = hl2_report(stl("int", "z", 4))
    assert rep.ok
    assert rep.computed.invariant_factors == [2] * 6
    rep = hl2_report(stl("int", "z", 3))
    assert rep.ok
    assert rep.computed.invariant_factors == [3] * 6


@pytest.mark.parametrize("name,n,expected", [
    ("dual", 3, "Z/3^12"),
    ("dual", 4, "Z/2^12"),
    ("group-c2", 4, "Z/2^12"),
    ("trunc3", 3, "Z/3^18"),
])
def test_hl2_report_on_torsion_carriers(name, n, expected):
    # HH_1(R) has torsion, so stl has a torsion carrier: the d3 stream
    # refuses it, while the N-image route answers
    model = stl(name, "z", n)
    assert model.total.torsion
    with pytest.raises(ValueError, match="free carrier"):
        homology_hl(model.total, 2)
    rep = hl2_report(model)
    assert rep.ok and rep.computed == rep.predicted
    assert rep.computed.describe() == expected


# measured 1.5-2.0 s on 2 CPUs under CPython 3.11; Smith on the whole d3
# echelon (1,089 Hermite rows) did not finish in 14 min
Z_S3_BUILD_BUDGET_S = 20.0


def test_stl3_over_z_s3_matches_the_paper(z_s3_stl3):
    # Z[S3] is a 6-dim noncommutative ring off the catalog; its HH_1 is
    # H_1 of the centralizers of its three conjugacy classes, Z/2 + Z/2 + Z/3
    assert z_s3_stl3.seconds < Z_S3_BUILD_BUDGET_S
    model = z_s3_stl3.model
    assert model.hl2 == predicted_hl2(3, model.ring)
    assert model.hl2.describe() == "Z/3^12"
    assert hl2_report(model).ok
    assert model.kernel_invariants == hochschild_h1(model.ring)
    assert model.kernel_invariants.describe() == "Z/2 + Z/6"


def test_hl2_report_to_dict():
    rep = hl2_report(stl("ground", "f3", 3))
    assert rep.ok is True
    assert rep.computed.describe() == rep.predicted.describe() == "f3^6"
    assert rep.stl_dim == 8


def test_predicted_hl2_values():
    assert predicted_hl2(5, ring("mat2", "f2")).is_trivial
    assert predicted_hl2(7, ring("dual", "f2")).is_trivial
    assert predicted_hl2(4, ring("upper2", "f2")).describe() == "f2^12"
    assert predicted_hl2(4, ring("int", "z")).invariant_factors == [2] * 6
    assert predicted_hl2(3, ring("int", "z")).invariant_factors == [3] * 6
    # the two quotient moduli differ: R_2(F3) = 0 but R_3(F3) = F3
    assert predicted_hl2(4, ring("ground", "f3")).is_trivial
    assert predicted_hl2(3, ring("ground", "f3")).dimension == 6
    with pytest.raises(ValueError):
        predicted_hl2(2, ring("ground", "f2"))
