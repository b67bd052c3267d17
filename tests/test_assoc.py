"""Associative algebra layer: catalog rings, units, ideals, Hochschild HH_1.

The catalog multiplication tables are compared against independent
reconstructions (polynomial arithmetic, group indices, matrix units), and
HH_1 is recomputed densely from scratch with a local Gaussian eliminator.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stlhom import (F2, F3, F5, Q, Z, catalog_ring, commutator_span,
                    hochschild_h1, ideal_Im, load_ring_json, make_algebra,
                    quotient_Rm, save_ring_json)
from stlhom.linalg import make_echelon

from oracles import s3_ring

FIELDS = {"f2": F2, "f3": F3, "f5": F5, "q": Q}
DOMAINS = {**FIELDS, "z": Z}


def ring_of(name, scal):
    """A catalog ring, or the group ring of S_3 for ``"s3"``."""
    dom = DOMAINS[scal]
    return s3_ring(dom) if name == "s3" else catalog_ring(name, dom)


# ---------------------------------------------------------------------------
# independent reconstructions of the catalog products


def poly_product(dim):
    """x^i * x^j in K[x]/(x^dim), basis {1, x, ..., x^(dim-1)}."""
    def prod(i, j):
        return {i + j: 1} if i + j < dim else {}
    return prod


def c2_product(i, j):
    return {(i + j) % 2: 1}


MATRIX_UNIT_BASES = {
    # name -> list of elements as {(row, col): coeff}
    "upper2": [{(0, 0): 1, (1, 1): 1}, {(0, 1): 1}, {(1, 1): 1}],
    "mat2": [{(0, 0): 1, (1, 1): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1}],
}


def matrix_product(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
    return {k: v for k, v in out.items() if v}


def solve_in_basis(elt, basis):
    """Write a matrix-unit dict over a basis of such dicts (small, exact)."""
    keys = sorted({k for b in basis for k in b} | set(elt))
    rows = [[Fraction(b.get(k, 0)) for b in basis] + [Fraction(elt.get(k, 0))]
            for k in keys]
    # Gaussian elimination over Q on the augmented system
    ncols = len(basis)
    piv = 0
    where = []
    for c in range(ncols):
        r = next((i for i in range(piv, len(rows)) if rows[i][c]), None)
        if r is None:
            where.append(None)
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = 1 / rows[piv][c]
        rows[piv] = [v * inv for v in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[piv])]
        where.append(piv)
        piv += 1
    for i in range(piv, len(rows)):
        assert not rows[i][ncols], "element outside basis span"
    coeffs = {}
    for c in range(ncols):
        if where[c] is not None and rows[where[c]][ncols]:
            coeffs[c] = rows[where[c]][ncols]
    return coeffs


@pytest.mark.parametrize("name,dim,prod", [
    ("dual", 2, poly_product(2)),
    ("trunc3", 3, poly_product(3)),
    ("group-c2", 2, c2_product),
])
def test_catalog_tables_match_polynomial_and_group_products(name, dim, prod):
    alg = catalog_ring(name, F3)
    for i in range(dim):
        for j in range(dim):
            expect = {k: v % 3 for k, v in prod(i, j).items() if v % 3}
            assert alg.basis_product(i, j) == expect, (name, i, j)


@pytest.mark.parametrize("name", ["upper2", "mat2"])
def test_catalog_tables_match_matrix_units(name):
    basis = MATRIX_UNIT_BASES[name]
    alg = catalog_ring(name, Q)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expect = {k: Fraction(v) for k, v in
                      solve_in_basis(matrix_product(a, b), basis).items()}
            got = alg.basis_product(i, j)
            assert got == expect, (name, i, j, got, expect)


# ---------------------------------------------------------------------------
# construction and validation


def test_unit_autodetection_matrix_unit_basis():
    """M_2 presented on {e11, e12, e21, e22}: no basis element is a unit."""
    structure = {}
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            structure[(a, b)] = ({units.index((i, l)): 1} if j == k else {})
    alg = make_algebra(Q, 4, structure,
                       labels=["e11", "e12", "e21", "e22"], name="mat2-units")
    assert alg.unit == {0: Fraction(1), 3: Fraction(1)}   # 1 = e11 + e22
    assert alg.unit_index is None
    # and the algebra behaves like M_2: HH_1 vanishes, [R,R] is sl_2
    assert hochschild_h1(alg).dimension == 0
    assert commutator_span(alg).rank == 3


def test_make_algebra_rejects_nonassociative():
    # e1*e1 = e1 with e1*e0 = 0 breaks associativity against the unit
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {},
                 (1, 1): {1: 1}}
    with pytest.raises(ValueError, match="associativity"):
        make_algebra(F3, 2, structure, unit_index=0)


def test_make_algebra_rejects_bad_unit_index():
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
    with pytest.raises(ValueError, match="not a unit"):
        make_algebra(F3, 2, structure, unit_index=1)


def test_make_algebra_rejects_inexact_coefficients():
    for dom, c in ((Z, True), (F3, 1.7), (Q, 0.1), (F5, "3"), (Z, 2.5)):
        with pytest.raises(ValueError, match="not an exact scalar"):
            make_algebra(dom, 1, {(0, 0): {0: c}}, unit_index=0)
    # exact Fractions are still read in the domain
    assert make_algebra(F3, 1, {(0, 0): {0: Fraction(4, 4)}},
                        unit_index=0).basis_product(0, 0) == {0: 1}


def test_make_algebra_rejects_unitless():
    # zero multiplication has no unit
    structure = {}
    with pytest.raises(ValueError, match="no unit"):
        make_algebra(Q, 2, structure)


def test_int_requires_z():
    with pytest.raises(ValueError, match="scalar z"):
        catalog_ring("int", F2)
    assert catalog_ring("int", Z).dim == 1


def test_unknown_ring_message():
    with pytest.raises(ValueError, match="unknown catalog ring"):
        catalog_ring("nope", F2)


@given(st.sampled_from(["dual", "trunc3", "group-c2", "upper2", "mat2"]),
       st.sampled_from(["f2", "f3", "f5", "q"]), st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_is_associative_and_unital_on_random_elements(name, scal, data):
    dom = FIELDS[scal]
    alg = catalog_ring(name, dom)
    def rand_vec():
        return {i: dom.from_int(data.draw(st.integers(-3, 3)))
                for i in range(alg.dim)}
    u, v, w = rand_vec(), rand_vec(), rand_vec()
    u = {k: c for k, c in u.items() if c}
    v = {k: c for k, c in v.items() if c}
    w = {k: c for k, c in w.items() if c}
    assert alg.multiply(alg.multiply(u, v), w) == alg.multiply(u, alg.multiply(v, w))
    assert alg.multiply(alg.unit, u) == u
    assert alg.multiply(u, alg.unit) == u


# ---------------------------------------------------------------------------
# ideals and quotients


@pytest.mark.parametrize("name", ["ground", "dual", "trunc3", "group-c2",
                                  "upper2", "mat2", "s3"])
@pytest.mark.parametrize("scal", ["f2", "f3", "q", "z"])
@pytest.mark.parametrize("m", [2, 3])
def test_ideal_is_two_sided(name, scal, m):
    # ideal_Im inserts its generators once, with no closure step: the ideal
    # they generate must already be two-sided and hold m*R + R*[R,R]
    alg = ring_of(name, scal)
    ideal = ideal_Im(alg, m)
    one = alg.dom.one
    for v in ideal.row_dicts().values():
        for i in range(alg.dim):
            assert not ideal.reduce(alg.multiply({i: one}, v))
            assert not ideal.reduce(alg.multiply(v, {i: one}))
    m_scal = alg.dom.from_int(m)
    for i in range(alg.dim):
        if m_scal:
            assert not ideal.reduce({i: m_scal})
        for j in range(alg.dim):
            for k in range(alg.dim):
                assert not ideal.reduce(alg.multiply(
                    {i: one}, alg.commutator({j: one}, {k: one})))


@pytest.mark.parametrize("name,scal", [
    ("ground", "f2"), ("dual", "f2"), ("trunc3", "f2"), ("group-c2", "f2"),
    ("upper2", "f3"), ("mat2", "f3"), ("dual", "q"),
    ("dual", "z"), ("trunc3", "z"), ("upper2", "z"), ("mat2", "z"),
    ("s3", "f3"), ("s3", "z"),
])
def test_left_right_commutator_ideals_agree(name, scal):
    # span(R*[R,R]) = span([R,R]*R): [a,b]c = [a,bc] - b[a,c] and its
    # mirror c[a,b] = [ca,b] - [c,b]a, which ideal_Im relies on
    alg = ring_of(name, scal)
    one = alg.dom.one
    comm = commutator_span(alg).row_dicts().values()
    left, right = make_echelon(alg.dom), make_echelon(alg.dom)
    for i in range(alg.dim):
        for c in comm:
            left.insert(alg.multiply({i: one}, c))
            right.insert(alg.multiply(c, {i: one}))
    assert all(not right.reduce(v) for v in left.row_dicts().values())
    assert all(not left.reduce(v) for v in right.row_dicts().values())


def test_quotient_rm_frozen_dimensions():
    # dim R_m for (ring, scalar, m): computed from I_m = mR + R[R,R]
    expected = {
        ("ground", "f2", 2): 1, ("ground", "f2", 3): 0,
        ("ground", "f3", 2): 0, ("ground", "f3", 3): 1,
        ("ground", "q", 2): 0,
        ("dual", "f2", 2): 2, ("dual", "f3", 3): 2, ("dual", "q", 2): 0,
        ("trunc3", "f3", 3): 3, ("trunc3", "f2", 2): 3,
        ("group-c2", "f2", 2): 2, ("group-c2", "q", 2): 0,
        ("upper2", "f2", 2): 2, ("mat2", "f2", 2): 0,
    }
    for (name, scal, m), dim in expected.items():
        got = quotient_Rm(catalog_ring(name, FIELDS[scal]), m)
        assert got.dim == dim, (name, scal, m, got.dim)


def assert_products_with_the_ideal_vanish(alg, m, rm):
    """coords(r_i g) = coords(g r_i) = 0 for every basis vector r_i and
    every basis vector g of I_m: the products psi reads through coords
    have well-defined classes in R_m."""
    one = alg.dom.one
    for g in ideal_Im(alg, m).row_dicts().values():
        assert rm.coords(g) == {}
        for i in range(alg.dim):
            assert rm.coords(alg.multiply({i: one}, g)) == {}
            assert rm.coords(alg.multiply(g, {i: one})) == {}


def test_quotient_rm_over_z():
    alg = catalog_ring("int", Z)
    r2 = quotient_Rm(alg, 2)
    assert r2.dim == 1 and r2.moduli == [2]
    assert r2.coords(alg.unit) == {0: 1}
    assert_products_with_the_ideal_vanish(alg, 2, r2)
    r6 = quotient_Rm(alg, 6)
    assert r6.moduli == [6]
    assert_products_with_the_ideal_vanish(alg, 6, r6)


def test_quotient_rm_kills_ideal_and_multiplies():
    alg = catalog_ring("dual", F2)
    r2 = quotient_Rm(alg, 2)
    assert r2.dim == 2
    # I_2 = 0 here, so coords are faithful
    assert r2.coords({1: 1}) not in ({}, r2.coords({0: 1}))
    assert_products_with_the_ideal_vanish(alg, 2, r2)
    for name in ("upper2", "mat2", "trunc3"):
        ring = catalog_ring(name, F2)
        assert_products_with_the_ideal_vanish(ring, 2, quotient_Rm(ring, 2))
    alg3 = catalog_ring("dual", F3)
    r3 = quotient_Rm(alg3, 2)   # 2 invertible in F3 -> everything dies
    assert r3.dim == 0
    assert r3.coords({0: 1, 1: 2}) == {}


# ---------------------------------------------------------------------------
# Hochschild HH_1: frozen values and a dense from-scratch recomputation


def dense_rank_mod(mat, p):
    """Row-reduce a dense matrix over F_p (p None => Fractions)."""
    mat = [list(map((lambda v: v % p) if p else Fraction, row)) for row in mat]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], -1, p) if p else 1 / mat[rank][c]
        mat[rank] = [(v * inv % p) if p else v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(v - f * w) % p if p else v - f * w
                          for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_hh1(alg):
    """HH_1 from the definition, dense, using only basis_product."""
    dom, n = alg.dom, alg.dim
    p = dom.p

    def product(i, j):
        return alg.basis_product(i, j)

    b1 = [[0] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k, c in product(i, j).items():
                b1[k][col] += c
            for k, c in product(j, i).items():
                b1[k][col] -= c
    b2 = [[0] * (n ** 3) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                col = (i * n + j) * n + k
                for t, c in product(i, j).items():
                    b2[t * n + k][col] += c
                for t, c in product(j, k).items():
                    b2[i * n + t][col] -= c
                for t, c in product(k, i).items():
                    b2[t * n + j][col] += c
    ker = n * n - dense_rank_mod(b1, p)
    return ker - dense_rank_mod(b2, p)


@pytest.mark.parametrize("name,scal,expected", [
    ("ground", "f2", 0), ("ground", "f3", 0), ("ground", "q", 0),
    ("dual", "f2", 2), ("dual", "f3", 1), ("dual", "f5", 1), ("dual", "q", 1),
    ("trunc3", "f2", 2), ("trunc3", "f3", 3), ("trunc3", "q", 2),
    ("group-c2", "f2", 2), ("group-c2", "f3", 0), ("group-c2", "q", 0),
    ("upper2", "f2", 0), ("upper2", "q", 0),
    ("mat2", "f2", 0), ("mat2", "f3", 0), ("mat2", "q", 0),
])
def test_hochschild_h1_matches_dense_recomputation(name, scal, expected):
    alg = catalog_ring(name, FIELDS[scal])
    inv = hochschild_h1(alg)
    assert inv.dimension == dense_hh1(alg) == expected


def test_hochschild_h1_of_integers_is_trivial():
    assert hochschild_h1(catalog_ring("int", Z)).is_trivial


# ---------------------------------------------------------------------------
# JSON ring format


@pytest.mark.parametrize("name,scal", [
    ("ground", "f2"), ("dual", "f3"), ("trunc3", "f3"), ("group-c2", "q"),
    ("upper2", "f5"), ("mat2", "f2"), ("int", "z"),
])
def test_ring_json_roundtrip(tmp_path, name, scal):
    dom = FIELDS[scal] if scal != "z" else Z
    alg = catalog_ring(name, dom)
    path = tmp_path / f"{name}.json"
    save_ring_json(alg, str(path))
    back = load_ring_json(str(path))
    assert back.dim == alg.dim
    assert back.dom == alg.dom
    assert back.table == alg.table
    assert back.unit == alg.unit
    assert back.labels == alg.labels


def test_ring_json_fraction_coefficients(tmp_path):
    # a scaled dual-numbers variant with a genuinely fractional constant
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                 (1, 1): {1: Fraction(1, 2)}}
    alg = make_algebra(Q, 2, structure, unit_index=0, name="halfdual")
    path = tmp_path / "halfdual.json"
    save_ring_json(alg, str(path))
    back = load_ring_json(str(path))
    assert back.basis_product(1, 1) == {1: Fraction(1, 2)}


def test_ring_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "scalar": "f2", "dim": 1}')
    with pytest.raises(ValueError, match="missing"):
        load_ring_json(str(path))
