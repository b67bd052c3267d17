"""Leibniz algebra core: validation, gl/sl, boundaries, homology, uce."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stlhom.assoc import make_algebra
from stlhom.catalog import ACCEPTANCE_PAIRS, catalog_ring
from stlhom.domains import F2, F3, F5, Q, Z, parse_scalar
from stlhom.leibniz import (CentralExtensionModel, LeibnizAlgebra,
                            LeibnizIdentityError, _asymmetric_pairs,
                            _check_leibniz_identity, _d2_columns, build_gl,
                            build_sl, homology_hl, is_central,
                            is_perfect, iter_d3_columns, make_leibniz,
                            special_weight, structural_report, uce)
from stlhom.linalg import (SpanSolver, SubquotientInvariants, make_echelon,
                           subquotient)
from stlhom.steinberg import build_hat, build_stl

from oracles import (check_homomorphism_on_basis, check_kernel_central,
                     cocycle_paths, full_sl_table, full_span_is_perfect,
                     kappa_of, sl_to_gl, torus_weight)

DOMS = {"f2": F2, "f3": F3, "f5": F5, "q": Q, "z": Z}


# ---------------------------------------------------------------------------
# independent dense helpers (no sparse engines involved)


def dense_rank(dom, M):
    """Gaussian elimination on a dense list-of-lists copy."""
    M = [row[:] for row in M]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = None
        for r in range(rank, nr):
            if M[r][c]:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = dom.inv(M[rank][c])
        M[rank] = [dom.mul(inv, x) for x in M[rank]]
        for r in range(nr):
            if r != rank and M[r][c]:
                f = M[r][c]
                M[r] = [dom.sub(x, dom.mul(f, y))
                        for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def dense_d2(L):
    """d2(e_i (x) e_j) = -[e_i, e_j], assembled densely and independently."""
    n = L.dim
    M = [[L.dom.zero] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, c in L.table.get((i, j), {}).items():
                M[k][i * n + j] = L.dom.neg(c)
    return M


def dense_d3(L):
    """d3(x(x)y(x)z) = -[x,y](x)z + [x,z](x)y + x(x)[y,z], densely."""
    n = L.dim
    dom = L.dom
    M = [[dom.zero] * (n ** 3) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                col = (i * n + j) * n + k
                for t, c in L.table.get((i, j), {}).items():
                    r = t * n + k
                    M[r][col] = dom.sub(M[r][col], c)
                for t, c in L.table.get((i, k), {}).items():
                    r = t * n + j
                    M[r][col] = dom.add(M[r][col], c)
                for t, c in L.table.get((j, k), {}).items():
                    r = i * n + t
                    M[r][col] = dom.add(M[r][col], c)
    return M


def brute_defect(alg, i, j, k):
    """[x,[y,z]] - [[x,y],z] + [[x,z],y] at (e_i, e_j, e_k), reduced."""
    dom, one = alg.dom, alg.dom.one
    x, y, z = {i: one}, {j: one}, {k: one}
    out = dict(alg.bracket(x, alg.bracket(y, z)))
    for sign, term in ((dom.neg(one), alg.bracket(alg.bracket(x, y), z)),
                       (one, alg.bracket(alg.bracket(x, z), y))):
        for c, v in term.items():
            out[c] = dom.add(out.get(c, dom.zero), dom.mul(sign, v))
    return alg.reduce_vec({c: v for c, v in out.items() if v})


def brute_leibniz_holds(alg):
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                if brute_defect(alg, i, j, k):
                    return False, (i, j, k)
    return True, None


def first_brute_failure(alg, dim):
    """The first triple of the first ``dim`` basis vectors, in (y, z, x)
    order, with a nonzero brute-force defect, or None."""
    return next(((i, j, k) for j in range(dim) for k in range(dim)
                 for i in range(dim) if brute_defect(alg, i, j, k)), None)


def hemisemidirect(dom):
    """gl_2 (+) V, V = dom^2, with [v, x] = -x.v and [x, v] = [v, w] = 0:
    a Leibniz algebra (make_leibniz checks it) that is not Lie, since
    [e_j, e_k] = -[e_k, e_j] fails on the pairs of gl_2 and V that meet."""
    gl = build_gl(2, catalog_ring("ground", dom))
    table = dict(gl.table)
    for k in range(2):
        for i in range(2):
            # E_ik.v_k = v_i
            table[(4 + k, 2 * i + k)] = {4 + i: dom.neg(dom.one)}
    return make_leibniz(dom, 6, table, gl.labels + ["v1", "v2"],
                        name=f"gl2+V({dom.name})")


# ---------------------------------------------------------------------------
# make_leibniz validation


def test_tiny_table_is_leibniz_only_in_char_2():
    # [e0,e1] = [e1,e0] = e0: the identity needs e0 = -e0
    table = {(0, 1): {0: 1}, (1, 0): {0: 1}}
    L = make_leibniz(F2, 2, table, name="tiny")
    assert brute_leibniz_holds(L)[0]
    for dom in (F3, Q, Z):
        with pytest.raises(LeibnizIdentityError) as exc:
            make_leibniz(dom, 2, table)
        assert exc.value.triple == (1, 1, 0)


def test_identity_witness_is_first_in_yzx_order():
    # x = 2 and x = 9 both fail at (y, z) = (e0, e1), and the terms of
    # x = 9 are met first, so this pins the smallest failing x
    table = {(9, 0): {3: 1}, (2, 0): {3: 1}, (3, 1): {4: 1}}
    with pytest.raises(LeibnizIdentityError) as exc:
        make_leibniz(F3, 10, table)
    assert exc.value.triple == (2, 0, 1)
    assert exc.value.defect == {4: 2}


def test_abelian_table_valid_everywhere():
    for dom in (F2, F3, F5, Q, Z):
        L = make_leibniz(dom, 3, {}, name="ab")
        assert L.bracket({0: dom.one}, {1: dom.one}) == {}


def test_make_leibniz_input_validation():
    with pytest.raises(ValueError):
        make_leibniz(F2, 2, {(0, 5): {0: 1}})
    with pytest.raises(ValueError):
        make_leibniz(F2, 2, {}, labels=["a"])
    with pytest.raises(ValueError):
        make_leibniz(F2, 2, {}, moduli=[2])
    # a modulus that is not an int >= 0, or nonzero over a field, used to
    # be taken: 1.5 put a float in the exact pipeline, -3 gave negative
    # residues, True read as 1, and [e0, e1] = 2 e0 vanished over F3
    for dom, moduli in ((Z, [1.5, 0]), (Z, [-3, 0]), (Z, [True, 0]),
                        (F3, [2, 0])):
        with pytest.raises(ValueError, match="bad modulus"):
            make_leibniz(dom, 2, {(0, 1): {0: 2}}, moduli=moduli)
    # floats, strings and bools are not exact scalars; they used to be
    # truncated (2.5 -> 2 over Z) or read as ints
    for dom, c in ((Z, 2.5), (F3, 1.7), (Q, 0.1), (F5, "3"), (Z, True)):
        with pytest.raises(ValueError, match="not an exact scalar"):
            make_leibniz(dom, 2, {(0, 0): {1: c}})


def test_make_leibniz_refuses_out_of_range_values():
    # a value coordinate outside [0, dim) used to be certified, and
    # homology_hl then read a d2 with a row 5 in a 2-row matrix
    for k in (5, 2, -1):
        with pytest.raises(ValueError, match="out of range"):
            make_leibniz(F2, 2, {(0, 1): {k: 1}})


def test_moduli_reduce_and_eq():
    # carrier Z x Z/2: the square lands in the torsion coordinate
    table = {(0, 0): {1: 1}}
    L = make_leibniz(Z, 2, table, moduli=[0, 2], name="tors")
    assert L.reduce_vec({0: 3, 1: 4}) == {0: 3}
    assert L.eq_vec({1: 1}, {1: -1})
    assert not L.eq_vec({0: 1}, {0: -1})
    two = L.bracket({0: 2}, {0: 1})
    assert two == {}, "2*[e0,e0] = 2 e1 = 0 mod 2"
    assert L.bracket({0: 1}, {0: 1}) == {1: 1}


def test_torsion_is_decided_at_construction():
    # reduce_vec reads the flag, not the moduli
    tors = make_leibniz(Z, 2, {}, moduli=[0, 2])
    free = make_leibniz(Z, 2, {})
    assert tors.torsion and not free.torsion
    v = {0: 3, 1: 4}
    assert free.reduce_vec(v) is v
    assert tors.reduce_vec(v) == {0: 3}


@given(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                       st.dictionaries(st.integers(0, 1), st.integers(-2, 2),
                                       max_size=2),
                       max_size=4))
def test_validator_agrees_with_brute_force(table):
    """make_leibniz accepts exactly the tables where brute force finds no
    violating triple, and otherwise raises at the first one in (y, z, x)
    order with its defect."""
    try:
        L = make_leibniz(F3, 2, table)
    except LeibnizIdentityError as e:
        probe = LeibnizAlgebra(F3, 2, {
            p: {k: F3.normalize(c) for k, c in v.items() if F3.normalize(c)}
            for p, v in table.items()}, ["e0", "e1"], [0, 0], "probe")
        probe.table = {p: v for p, v in probe.table.items() if v}
        # the first failing triple in (y, z, x) order, with its defect
        first = next(((i, j, k) for j in range(2) for k in range(2)
                      for i in range(2) if brute_defect(probe, i, j, k)),
                     None)
        assert first is not None and e.triple == first
        assert e.defect == brute_defect(probe, *first)
        return
    ok, witness = brute_leibniz_holds(L)
    assert ok, f"validator passed a violating table, witness {witness}"


# ---------------------------------------------------------------------------
# gl and sl


def _gl_entry(gl, ij, kl) -> dict:
    """[E_ij(1), E_kl(1)] over a ring of dimension 1, as a gl vector."""
    return gl.bracket(gl.eij(*ij, {0: 1}), gl.eij(*kl, {0: 1}))


def test_gl2_bracket_values():
    gl = build_gl(2, catalog_ring("ground", F3))
    one = {0: 1}
    # [E12, E21] = E11 - E22
    assert _gl_entry(gl, (0, 1), (1, 0)) == {**gl.eij(0, 0, one),
                                             **gl.eij(1, 1, {0: 2})}
    # [E12, E12] = 0
    assert _gl_entry(gl, (0, 1), (0, 1)) == {}
    # [E11, E12] = E12
    assert _gl_entry(gl, (0, 0), (0, 1)) == gl.eij(0, 1, one)


def test_gl4_disjoint_indices_commute():
    gl = build_gl(4, catalog_ring("ground", F2))
    assert _gl_entry(gl, (0, 1), (2, 3)) == {}
    # and the Steinberg-style product: [E12, E23] = E13
    assert _gl_entry(gl, (0, 1), (1, 2)) == gl.eij(0, 2, {0: 1})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name,scal", [("ground", "f3"), ("dual", "f2"),
                                       ("mat2", "f2")])
def test_gl_satisfies_the_identity_by_brute_force(name, scal, n):
    # build_gl certifies its table from associativity of R, without a check
    gl = build_gl(n, catalog_ring(name, DOMS[scal]))
    assert gl.certified
    assert brute_leibniz_holds(gl) == (True, None)


def test_gl_antisymmetry_on_basis():
    gl = build_gl(3, catalog_ring("dual", F3))
    for (i, j), w in gl.table.items():
        back = gl.table.get((j, i), {})
        assert back == {k: gl.dom.neg(c) for k, c in w.items()}


SL_DIMS = [
    # (ring, scalar, n, expected dim = (n^2-1) dimR + dim[R,R])
    ("ground", "f2", 3, 8),
    ("ground", "f3", 3, 8),
    ("ground", "q", 4, 15),
    ("ground", "f5", 5, 24),
    ("int", "z", 3, 8),
    ("int", "z", 4, 15),
    ("dual", "f2", 3, 16),
    ("dual", "q", 4, 30),
    ("trunc3", "f3", 3, 24),
    ("group-c2", "f2", 3, 16),
    ("upper2", "f2", 3, 25),
    ("upper2", "f2", 4, 46),
    ("mat2", "f2", 3, 35),
    ("mat2", "f2", 4, 63),
]


@pytest.mark.parametrize("name,scal,n,expected", SL_DIMS)
def test_sl_dimension(name, scal, n, expected):
    dom = DOMS[scal]
    sl = build_sl(n, catalog_ring(name, dom))
    assert sl.dim == expected


@pytest.mark.parametrize("name,scal", [("ground", "f3"), ("dual", "q")])
def test_build_sl_checks_its_shape_per_weight(monkeypatch, name, scal):
    # trading one basis weight e_1 - e_2 for e_2 - e_1 keeps the dimension,
    # so only a check per weight sees the wrong shape
    import stlhom.leibniz
    from stlhom.assoc import commutator_span
    from stlhom.leibniz import _root_code, _sl_codes

    def mutant(n, ring):
        codes = _sl_codes(n, ring)
        codes.remove(_root_code(0, 1))
        return sorted(codes + [_root_code(1, 0)])

    ring = catalog_ring(name, DOMS[scal])
    assert len(mutant(3, ring)) == 8 * ring.dim + commutator_span(ring).rank
    monkeypatch.setattr(stlhom.leibniz, "_sl_codes", mutant)
    with pytest.raises(AssertionError, match="basis weights"):
        build_sl(3, ring)


def test_sl_embedding_roundtrip():
    sl = build_sl(3, catalog_ring("dual", F3))
    for (i, j) in [(0, 1), (1, 0), (2, 1), (0, 2)]:
        for lam in range(2):
            v = sl.eij(i, j, {lam: 1})
            glv = sl_to_gl(sl, v)
            assert glv == sl.gl.eij(i, j, {lam: 1})
            assert sl.from_gl(glv) == v


def test_sl_rejects_vectors_outside():
    sl = build_sl(3, catalog_ring("ground", F2))
    gl = sl.gl
    with pytest.raises(ValueError):
        sl.from_gl(gl.eij(0, 0, {0: 1}))   # E11 has nonzero trace


def test_sl_eij_diagonal_rejected():
    sl = build_sl(3, catalog_ring("ground", F2))
    with pytest.raises(ValueError):
        sl.eij(1, 1, {0: 1})


def test_sl_brackets_match_gl():
    sl = build_sl(3, catalog_ring("group-c2", F3))
    for s in range(sl.dim):
        for t in range(sl.dim):
            inside = sl_to_gl(sl, sl.table.get((s, t), {}))
            outside = sl.gl.bracket(sl.basis[s], sl.basis[t])
            assert inside == outside


@given(st.integers(0, 2), st.integers(0, 2),
       st.dictionaries(st.integers(0, 1), st.integers(-4, 4), max_size=2))
def test_sl_eij_linear_in_ring_argument(i, j, a):
    if i == j:
        return
    sl = _SL_DUAL_F5
    a = {k: sl.ring.dom.normalize(c) for k, c in a.items()}
    a = {k: c for k, c in a.items() if c}
    lhs = sl.eij(i, j, a) if a else {}
    rhs: dict = {}
    for lam, c in a.items():
        for t, x in sl.eij(i, j, {lam: 1}).items():
            v = sl.dom.add(rhs.get(t, 0), sl.dom.mul(c, x))
            if v:
                rhs[t] = v
            else:
                rhs.pop(t, None)
    assert lhs == rhs


_SL_DUAL_F5 = build_sl(3, catalog_ring("dual", F5))


# ---------------------------------------------------------------------------
# boundary and homology


def test_boundary_matches_dense_assembly():
    # d2 and d3 are both read column by column off the table.  d2 yields
    # exactly the nonzero columns of its dense assembly, in column order;
    # d3 the same less the later twin (i, j, k), k < j, of each pair with
    # [e_k, e_j] = -[e_j, e_k], whose column is minus that of (i, k, j).
    # On the pairs where the hemisemidirect product is not Lie, both twins
    # are yielded
    nonlie = hemisemidirect(F3)
    for L in (build_gl(2, catalog_ring("ground", F3)),
              build_gl(2, catalog_ring("dual", F2)), nonlie):
        dom, n = L.dom, L.dim
        d2 = dense_d2(L)
        cols = [(c, {r: row[c] for r, row in enumerate(d2) if row[c]})
                for c in range(n ** 2)]
        assert list(_d2_columns(L).items()) == [(c, v) for c, v in cols if v]
        d3 = dense_d3(L)
        cols = [{r: row[c] for r, row in enumerate(d3) if row[c]}
                for c in range(n ** 3)]
        want, skipped, both = [], 0, 0
        for c, v in enumerate(cols):
            if not v:
                continue
            i, j, k = _triple(L, c)
            ejk = L.bracket({j: dom.one}, {k: dom.one})
            ekj = L.bracket({k: dom.one}, {j: dom.one})
            twin = cols[(i * n + k) * n + j]
            if k < j and ekj == {t: dom.neg(x) for t, x in ejk.items()}:
                assert v == {t: dom.neg(x) for t, x in twin.items()}
                skipped += 1
                continue
            want.append((c, v))
            both += k < j and bool(twin)
        assert list(iter_d3_columns(L)) == want
        assert skipped
        assert bool(both) == (L is nonlie)


def test_boundary_squares_to_zero_densely():
    L = build_gl(2, catalog_ring("dual", F3))
    A = dense_d2(L)
    B = dense_d3(L)
    n = L.dim
    for r in range(n):
        for c in range(n ** 3):
            acc = L.dom.zero
            for t in range(n * n):
                acc = L.dom.add(acc, L.dom.mul(A[r][t], B[t][c]))
            assert acc == L.dom.zero


def test_boundary_rejects_bad_degree_and_torsion():
    L = make_leibniz(F2, 2, {}, name="ab")
    for n in (0, 3, 4):
        with pytest.raises(ValueError, match="degrees 1 and 2"):
            homology_hl(L, n)
    T = make_leibniz(Z, 2, {}, moduli=[2, 0], name="t")
    for degree in (1, 2):
        with pytest.raises(ValueError, match="free carrier"):
            homology_hl(T, degree)
    with pytest.raises(ValueError, match="free carrier"):
        uce(T)


def test_homology_of_abelian_carriers():
    # zero bracket: d2 = d3 = 0, so HL1 = L and HL2 = L (x) L
    for dom in (F2, F3, Q):
        for dim in (1, 2, 3):
            L = make_leibniz(dom, dim, {}, name=f"ab{dim}")
            assert homology_hl(L, 1).invariants.dimension == dim
            assert homology_hl(L, 2).invariants.dimension == dim * dim
    Lz = make_leibniz(Z, 2, {}, name="abz")
    inv = homology_hl(Lz, 2).invariants
    assert inv.invariant_factors == [0, 0, 0, 0]


def test_homology_degree_validation():
    L = make_leibniz(F2, 1, {}, name="pt")
    with pytest.raises(ValueError):
        homology_hl(L, 3)


def test_d2_d3_consistency_guard_fires_on_broken_table():
    # bypass make_leibniz: a non-Leibniz table breaks d2 . d3 = 0, and the
    # d3 stream checks the identity on it first
    bad = LeibnizAlgebra(F3, 2, {(0, 1): {0: 1}, (1, 0): {0: 1}},
                         ["e0", "e1"], [0, 0], "bad")
    with pytest.raises(LeibnizIdentityError) as exc:
        homology_hl(bad, 2)
    assert len(exc.value.triple) == 3
    assert all(0 <= i < 2 for i in exc.value.triple)
    assert not bad.certified


def test_clean_d3_stream_certifies_an_uncertified_table():
    sl = build_sl(3, catalog_ring("dual", F2))
    raw = LeibnizAlgebra(F2, sl.dim, sl.table, sl.labels, sl.moduli, "raw")
    assert sl.certified and not raw.certified
    assert (homology_hl(raw, 2).invariants
            == homology_hl(sl, 2).invariants)
    assert raw.certified


HOMOLOGY_RANKS = [
    # (builder, ring, scalar, n): results cross-checked against the dense
    # independent assembly below
    ("ground", "f2", 3),
    ("ground", "f3", 3),
    ("ground", "q", 3),
    ("dual", "f2", 3),
    ("group-c2", "f3", 3),
]


@pytest.mark.parametrize("name,scal,n", HOMOLOGY_RANKS)
def test_hl2_dimension_matches_dense_oracle(name, scal, n):
    dom = DOMS[scal]
    L = build_sl(n, catalog_ring(name, dom))
    rep = homology_hl(L, 2)
    r2 = dense_rank(dom, dense_d2(L))
    r3 = dense_rank(dom, dense_d3(L))
    assert rep.rank_out == r2
    assert rep.rank_in == r3
    assert rep.invariants.dimension == L.dim * L.dim - r2 - r3


@pytest.mark.parametrize("dom", [F3, Q], ids=["f3", "q"])
def test_hl2_of_a_non_lie_algebra_matches_dense_oracle(dom):
    # the d3 stream walks both twins of every pair that is not
    # antisymmetric; the ranks must still be those of the whole cube
    L = hemisemidirect(dom)
    rep = homology_hl(L, 2)
    r2 = dense_rank(dom, dense_d2(L))
    r3 = dense_rank(dom, dense_d3(L))
    assert rep.rank_out == r2
    assert rep.rank_in == r3
    assert rep.invariants.dimension == L.dim * L.dim - r2 - r3


def test_hl1_of_perfect_algebras_vanishes():
    for name, scal in [("ground", "f2"), ("dual", "f3"), ("int", "z")]:
        sl = build_sl(3, catalog_ring(name, DOMS[scal]))
        rep = homology_hl(sl, 1)
        assert rep.invariants.is_trivial


HL2_FROZEN = [
    # computed by this pipeline and equal to the independently tested
    # Hochschild/quotient data: dim HL2(sl_n R) = dim HH1(R) + 6 dim R_m
    # with m = 3 for n = 3, m = 2 for n = 4, and plain dim HH1(R) for n = 5
    ("ground", "f2", 3, "0"),
    ("ground", "f2", 4, "f2^6"),
    ("ground", "f2", 5, "0"),
    ("ground", "f3", 3, "f3^6"),
    ("ground", "f3", 4, "0"),
    ("ground", "q", 3, "0"),
    ("ground", "q", 4, "0"),
    ("dual", "f2", 3, "f2^2"),
    ("dual", "f2", 4, "f2^14"),
    ("dual", "q", 3, "q^1"),
    ("trunc3", "f3", 3, "f3^21"),
    ("group-c2", "f2", 4, "f2^14"),
    ("upper2", "f2", 4, "f2^12"),
    ("mat2", "f2", 3, "0"),
    ("mat2", "f2", 4, "0"),
]


@pytest.mark.parametrize("name,scal,n,expected", HL2_FROZEN)
def test_hl2_frozen_values(name, scal, n, expected):
    dom = DOMS[scal]
    L = build_sl(n, catalog_ring(name, dom))
    assert homology_hl(L, 2).invariants.describe() == expected


def test_hl2_integer_invariant_factors():
    sl3 = build_sl(3, catalog_ring("int", Z))
    assert homology_hl(sl3, 2).invariants.invariant_factors == [3] * 6
    sl4 = build_sl(4, catalog_ring("int", Z))
    assert homology_hl(sl4, 2).invariants.invariant_factors == [2] * 6


def test_homology_report_to_dict_shape():
    L = build_sl(3, catalog_ring("ground", F3))
    rep = homology_hl(L, 2)
    assert rep.degree == 2
    assert rep.invariants.dimension == 6
    assert rep.dim_chain == 64


# ---------------------------------------------------------------------------
# structural reports


def test_structural_report_abelian():
    L = make_leibniz(F2, 3, {}, name="ab3")
    assert not is_perfect(L)
    assert structural_report(L).center_rank == 3
    assert homology_hl(L, 1).invariants.dimension == 3


def test_structural_report_sl3():
    sl = build_sl(3, catalog_ring("ground", F2))
    assert is_perfect(sl)
    assert structural_report(sl).center_rank == 0
    assert homology_hl(sl, 1).invariants.dimension == 0


def test_sl3_f3_has_central_scalars():
    # char 3 divides n = 3: the identity matrix is traceless and central
    sl = build_sl(3, catalog_ring("ground", F3))
    assert is_perfect(sl)
    assert structural_report(sl).center_rank == 1
    gl = sl.gl
    ident = {k: 1 for i in range(3) for k in gl.eij(i, i, {0: 1})}
    assert is_central(sl, sl.from_gl(ident))


def test_structural_report_torsion_carrier():
    model = uce(build_sl(4, catalog_ring("int", Z)))
    assert is_perfect(model.total)
    assert structural_report(model.total).center_rank == 6
    for i in range(15, 21):
        assert is_central(model.total, {i: 1})


def sl2_z_form():
    """sl2 over Z on (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h and the
    antisymmetric twins.  The brackets span a rank-3 sublattice of index 4."""
    table = {(0, 1): {1: 2}, (1, 0): {1: -2}, (0, 2): {2: -2},
             (2, 0): {2: 2}, (1, 2): {0: 1}, (2, 1): {0: -1}}
    return make_leibniz(Z, 3, table, ["h", "e", "f"], name="sl2(Z)")


@pytest.mark.parametrize("name,scal,n", [
    ("ground", "f2", 4), ("dual", "q", 3), ("int", "z", 4), ("trunc3", "z", 3),
])
def test_is_perfect_matches_the_full_bracket_span(name, scal, n):
    # is_perfect stops once the span is everything; the reference reads
    # every bracket.  The hat over Z and stl3(trunc3) carry moduli.
    ring = catalog_ring(name, DOMS[scal])
    model = build_stl(n, ring)
    hat = build_hat(model)
    for L in (model.extension.base, model.total, hat.total):
        assert (is_perfect(L), full_span_is_perfect(L)) == (True, True)
    for L in (build_gl(n, ring), sl2_z_form()):
        assert (is_perfect(L), full_span_is_perfect(L)) == (False, False)


# ---------------------------------------------------------------------------
# universal central extensions


def test_uce_requires_perfect():
    with pytest.raises(ValueError):
        uce(make_leibniz(F2, 2, {}, name="ab"))


UCE_CASES = [
    ("ground", "f2", 4, 15, "f2^6"),
    ("ground", "f3", 3, 8, "f3^6"),
    ("dual", "f2", 3, 16, "f2^2"),
    ("trunc3", "f3", 4, 45, "f3^3"),
    ("int", "z", 3, 8, "Z/3^6"),
    ("int", "z", 4, 15, "Z/2^6"),
    ("dual", "z", 4, 30, "Z/2^13 + Z^1"),
    ("trunc3", "z", 3, 24, "Z/3^19 + Z^2"),
    ("dual", "q", 3, 16, "q^1"),
]


@pytest.mark.parametrize("name,scal,n,basedim,kernel", UCE_CASES)
def test_uce_kernel_and_shape(name, scal, n, basedim, kernel):
    dom = DOMS[scal]
    L = build_sl(n, catalog_ring(name, dom))
    model = uce(L)
    assert L.dim == basedim
    assert model.total.dim == basedim + model.kernel_invariants.dimension
    assert model.kernel_invariants.describe() == kernel
    # kernel invariants equal HL2 of the base
    assert model.kernel_invariants == homology_hl(L, 2).invariants
    # the pruned uce gives every column of the full d3 cube class 0
    for _col, vec in iter_d3_columns(L):
        assert model.tensor_coords(vec) == {}
    # projection is a homomorphism with central kernel
    check_homomorphism_on_basis(model)
    check_kernel_central(model)
    # the total is perfect (universal central extensions are)
    assert is_perfect(model.total)


def test_uce_tensor_coords_match_bracket_table():
    # build_stl reads the class of u (x) v as the total bracket [u, v]: check
    # that identity for random sl vectors, on uce(sl) and on stl -> sl
    import random
    rng = random.Random(11)
    exts = [uce(build_sl(n, catalog_ring(name, DOMS[scal])))
            for name, scal, n in (("dual", "f3", 3), ("dual", "q", 3),
                                  ("dual", "z", 4))]
    exts += [build_stl(4, catalog_ring(name, DOMS[scal])).extension
             for name, scal in (("ground", "f3"), ("int", "z"))]
    for ext in exts:
        sl, dom = ext.base, ext.base.dom
        coeffs = [dom.from_int(c) for c in (1, 2, -1)]
        for _ in range(10):
            u, v = ({rng.randrange(sl.dim): rng.choice(coeffs)
                     for _ in range(3)} for _ in range(2))
            tensor = {}
            for s, cu in u.items():
                for t, cv in v.items():
                    c = dom.mul(cu, cv)
                    if c:
                        tensor[s * sl.dim + t] = c
            assert ext.tensor_coords(tensor) == ext.total.bracket(u, v)


@pytest.mark.parametrize("name,scal,n", [
    ("dual", "f2", 3), ("dual", "q", 3), ("dual", "z", 4),
])
def test_uce_tensor_coords_vanish_on_im_d3(name, scal, n):
    # the presentation is read off the d3 echelon itself, so every d3
    # column must have class zero
    L = build_sl(n, catalog_ring(name, DOMS[scal]))
    model = uce(L)
    for _col, vec in iter_d3_columns(L):
        assert model.tensor_coords(vec) == {}


def test_uce_tensor_coords_are_linear():
    L = build_sl(3, catalog_ring("ground", F2))
    model = uce(L)
    import random
    rng = random.Random(7)
    pair = L.dim * L.dim
    for _ in range(20):
        u = {rng.randrange(pair): 1 for _ in range(3)}
        v = {rng.randrange(pair): 1 for _ in range(3)}
        s = dict(u)
        for k, c in v.items():
            x = (s.get(k, 0) + c) % 2
            if x:
                s[k] = x
            else:
                s.pop(k, None)
        cu = model.tensor_coords(u)
        cv = model.tensor_coords(v)
        cs = model.tensor_coords(s)
        tot = dict(cu)
        for k, c in cv.items():
            x = (tot.get(k, 0) + c) % 2
            if x:
                tot[k] = x
            else:
                tot.pop(k, None)
        assert model.total.eq_vec(cs, tot)


def test_uce_over_q_with_nontrivial_kernel():
    # exercises the fraction-free multiplier path end to end: the total
    # algebra is certified by the cocycle condition on its kappa
    L = build_sl(3, catalog_ring("dual", Q))
    model = uce(L)
    assert model.kernel_invariants.describe() == "q^1"
    assert structural_report(model.total).center_rank == 1


def test_uce_projection_and_kernel_parts():
    model = uce(build_sl(3, catalog_ring("ground", F3)))
    v = {0: 1, 8: 2, 10: 1}
    assert model.project(v) == {0: 1}
    assert model.kernel_part(v) == {0: 2, 2: 1}


def test_uce_total_is_certified_by_its_extension():
    model = uce(build_sl(3, catalog_ring("dual", F2)))
    assert model.total.certified
    assert model.total.name == "uce(sl3(dual))"
    assert model.total.labels[-2:] == ["z0", "z1"]


# ---------------------------------------------------------------------------
# the torus grading and the weight-pruned uce


def test_special_weight_rule():
    # special: gcd(mu_i - mu_j) is not a unit of the domain
    assert special_weight(F2, (2, 0, 0)) and not special_weight(F3, (2, 0, 0))
    assert special_weight(F3, (2, -1, -1)) and not special_weight(F2, (2, -1, -1))
    assert special_weight(Q, (1, 1, 1)) and not special_weight(Q, (2, -1, -1))
    assert special_weight(Z, (2, -1, -1)) and special_weight(Z, (1, 1, -1, -1))
    assert special_weight(Z, (0, 0, 0)) and not special_weight(Z, (1, -1, 0))
    for dom in DOMS.values():   # the trivial grading: every weight special
        assert special_weight(dom, ())


def test_build_sl_records_the_torus_weights():
    L = build_sl(3, catalog_ring("dual", F3))
    assert make_leibniz(F3, 2, {}).grading.code == [0, 0]
    assert len(L.grading.code) == L.dim
    for s, lbl in enumerate(L.labels):
        i, j = int(lbl[2]) - 1, int(lbl[3]) - 1     # "<Eij(r)>"
        assert torus_weight(L.grading.code[s], 3) == tuple(
            (k == i) - (k == j) for k in range(3))


@pytest.mark.parametrize("name,scal", ACCEPTANCE_PAIRS)
def test_half_solved_sl_table_equals_the_full_solve(name, scal):
    # build_sl solves s < t only; the table must be the full dim^2 solve,
    # in the same key order, and alternating
    for n in (3, 4):
        sl = build_sl(n, catalog_ring(name, DOMS[scal]))
        assert list(sl.table.items()) == list(full_sl_table(sl).items())
        neg = sl.dom.neg
        for (s, t), w in sl.table.items():
            assert s != t
            assert sl.table[(t, s)] == {k: neg(c) for k, c in w.items()}


def _mutated_build_sl(monkeypatch, mutate):
    """build_sl(3, dual@f3) with ``mutate`` applied to the sl just before
    build_sl runs its grading check."""
    import stlhom.leibniz as leib
    inner = leib.check_torus_grading

    def mutate_then_check(sl):
        mutate(sl)
        inner(sl)

    monkeypatch.setattr(leib, "check_torus_grading", mutate_then_check)
    return build_sl(3, catalog_ring("dual", F3))


def test_grading_check_rejects_an_entry_of_the_wrong_weight(monkeypatch):
    def move_entry(sl):
        (s, t), w = next(iter(sl.table.items()))
        k = next(iter(w))
        code = sl.grading.code
        far = next(x for x in range(sl.dim)
                   if code[x] != code[k] and x not in w)
        sl.table[(s, t)] = {**{x: c for x, c in w.items() if x != k},
                            far: w[k]}

    with pytest.raises(AssertionError, match="of weight"):
        _mutated_build_sl(monkeypatch, move_entry)


def test_grading_check_rejects_a_basis_vector_of_the_wrong_weight(monkeypatch):
    def reweigh(sl):
        code = sl.grading.code
        s = next(s for s, c in enumerate(code) if c)
        code[s] = -code[s]

    with pytest.raises(AssertionError, match="not homogeneous"):
        _mutated_build_sl(monkeypatch, reweigh)


def test_grading_check_rejects_a_wrong_torus_action(monkeypatch):
    # rescaling [e_s, e_t] for t on the diagonal keeps every weight but
    # breaks [x, h12] = -(a_1 - a_2) x
    def rescale(sl):
        code = sl.grading.code
        t = next(t for t in range(sl.dim) if not code[t]
                 and any((s, t) in sl.table for s in range(sl.dim)))
        s = next(s for s in range(sl.dim) if (s, t) in sl.table)
        sl.table[(s, t)] = {k: 2 * c % 3 for k, c in sl.table[(s, t)].items()}

    with pytest.raises(AssertionError, match="does not act"):
        _mutated_build_sl(monkeypatch, rescale)


# the acceptance pairs and four Z carriers at n = 3, 4, less the UCE_CASES
# that test_uce_kernel_and_shape covers
PRUNING_CASES = sorted(
    ({(name, scal, n) for name, scal in ACCEPTANCE_PAIRS for n in (3, 4)}
     | {(name, "z", n) for name in ("dual", "trunc3", "group-c2", "upper2")
        for n in (3, 4)})
    - {(name, scal, n) for name, scal, n, *_ in UCE_CASES})


@pytest.mark.parametrize("name,scal,n", PRUNING_CASES)
def test_pruned_uce_agrees_with_the_full_stream(name, scal, n):
    # homology_hl stops its blocks by ranks read off its own d2 echelon, not
    # by the special-weight rule: the oracle for the pruned uce; and every
    # column of the unfiltered cube must have class 0
    L = build_sl(n, catalog_ring(name, DOMS[scal]))
    model = uce(L)
    assert model.kernel_invariants == homology_hl(L, 2).invariants
    for _col, vec in iter_d3_columns(L):
        assert model.tensor_coords(vec) == {}


def _total(L, *basis) -> int:
    """The weight code of a tensor of basis vectors; 0 under the trivial
    grading."""
    return sum(L.grading.code[x] for x in basis)


def _triple(L, column) -> tuple:
    """The basis triple (i, j, k) of a flat d3 column index."""
    i, jk = divmod(column, L.dim * L.dim)
    return (i, *divmod(jk, L.dim))


def _streamed_columns(monkeypatch, L) -> list:
    """Run uce(L), returning per d3 stream the set of total weight codes of
    the streamed triples and the number of columns streamed."""
    import stlhom.leibniz as leib
    inner = leib.iter_d3_columns
    streams = []

    def counted(*args, **kwargs):
        stream = [set(), 0]
        streams.append(stream)
        for c, col in inner(*args, **kwargs):
            stream[0].add(_total(L, *_triple(L, c)))
            stream[1] += 1
            yield c, col

    monkeypatch.setattr(leib, "iter_d3_columns", counted)
    uce(L)
    monkeypatch.undo()
    return streams


@pytest.mark.parametrize("name,scal,columns", [
    ("mat2", "f2", 2_673), ("group-c2", "q", 254),
])
def test_pruned_uce_streams_only_special_columns_at_n5(monkeypatch, name,
                                                       scal, columns):
    L = build_sl(5, catalog_ring(name, DOMS[scal]))
    ((codes, count),) = _streamed_columns(monkeypatch, L)
    assert codes and all(special_weight(L.dom, torus_weight(mu, 5))
                         for mu in codes)
    assert count == columns


def test_ungraded_algebras_stream_the_full_cube(monkeypatch):
    # under the trivial grading the cube is one block, which stops early
    # only once it spans ker d2: never while it carries HL_2
    # (an stl total is graded by its support check; its table is wrapped)
    sl = build_sl(3, catalog_ring("ground", F3))
    stl_total = build_stl(3, catalog_ring("ground", F3)).total
    wrapped = make_leibniz(F3, sl.dim, sl.table, name="wrapped")
    wrapped_stl = make_leibniz(F3, stl_total.dim, stl_total.table,
                               name="wrapped-stl")
    for L in (wrapped, wrapped_stl):
        assert not any(L.grading.code)
        full = sum(1 for _ in iter_d3_columns(L))
        ((codes, count),) = _streamed_columns(monkeypatch, L)
        assert codes == {0}
        assert count <= full
        if not homology_hl(L, 2).invariants.is_trivial:
            assert count == full
    # HL_2(sl_3(F2)) = 0: its one block stops before the end of the cube
    sl2 = build_sl(3, catalog_ring("ground", F2))
    wrapped2 = make_leibniz(F2, sl2.dim, sl2.table, name="wrapped2")
    ((codes, count),) = _streamed_columns(monkeypatch, wrapped2)
    assert codes == {0}
    assert count < sum(1 for _ in iter_d3_columns(wrapped2))
    ((codes, count),) = _streamed_columns(monkeypatch, sl)
    assert len(codes) > 1
    assert count < sum(1 for _ in iter_d3_columns(sl))


def test_uce_stops_each_saturated_block_at_its_target_rank(monkeypatch):
    # HL_2(sl_5(mat2)) = 0, so every special block of positive target
    # saturates: its streamed columns are a prefix of the block, of rank
    # #pairs - dim L_mu (counted here off the weight codes), and the last
    # one streamed is the one that reaches that rank
    from collections import Counter
    import stlhom.leibniz as leib
    L = build_sl(5, catalog_ring("mat2", F2))
    streamed: dict = {}
    inner = leib.iter_d3_columns

    def recorded(*args, **kwargs):
        for c, col in inner(*args, **kwargs):
            streamed.setdefault(_total(L, *_triple(L, c)), []).append((c, col))
            yield c, col

    monkeypatch.setattr(leib, "iter_d3_columns", recorded)
    uce(L)
    monkeypatch.undo()
    # the same blocks, walked to the end
    block: dict = {}
    for c, col in iter_d3_columns(L, lambda mu: mu not in streamed):
        block.setdefault(_total(L, *_triple(L, c)), []).append((c, col))
    pairs = Counter(_total(L, s, t)
                    for s in range(L.dim) for t in range(L.dim))
    sizes = Counter(L.grading.code)
    saturated = 0
    for mu in pairs:
        target = pairs[mu] - sizes[mu]
        if not special_weight(F2, torus_weight(mu, 5)) or not target:
            assert mu not in streamed
            continue
        cols = streamed[mu]
        assert cols == block[mu][:len(cols)]
        ech = make_echelon(F2)
        grew = [ech.insert(col) is not None for _c, col in cols]
        assert ech.rank == target and grew[-1], mu
        rest = block[mu][len(cols):]
        assert all(ech.insert(col) is None for _c, col in rest), mu
        saturated += bool(rest)
    assert saturated


def test_a_target_one_too_low_is_caught(monkeypatch):
    # a block stopped one rank short leaves part of ker d2 out of im d3:
    # homology_hl reports too large an HL_2, and the uce model either
    # fails its cocycle check or has the wrong kernel
    import stlhom.leibniz as leib
    sls = {(name, scal): build_sl(3, catalog_ring(name, DOMS[scal]))
           for name, scal in ACCEPTANCE_PAIRS}
    truth = {key: homology_hl(L, 2).invariants for key, L in sls.items()}
    inner = leib._d3_image

    def lowered(L, kernel_rank, *args, **kwargs):
        return inner(L, lambda mu: max(kernel_rank(mu) - 1, 0),
                     *args, **kwargs)

    monkeypatch.setattr(leib, "_d3_image", lowered)
    wrong_hl2, wrong_uce = [], []
    for key, L in sls.items():
        if homology_hl(L, 2).invariants != truth[key]:
            wrong_hl2.append(key)
        try:
            if uce(L).kernel_invariants != truth[key]:
                wrong_uce.append(key)
        except LeibnizIdentityError:
            wrong_uce.append(key)
    assert wrong_hl2 and wrong_uce


@pytest.mark.parametrize("name,scal,n", [
    ("dual", "f2", 3), ("ground", "f3", 3), ("dual", "f5", 3),
    ("dual", "q", 3), ("int", "z", 3), ("dual", "z", 3),
])
def test_block_stops_agree_with_the_unfiltered_echelon(name, scal, n):
    # the echelon of every nonzero d3 column, walked without stops, against
    # homology_hl and uce, which stop each block once it spans ker d2
    dom = DOMS[scal]
    L = build_sl(n, catalog_ring(name, dom))
    full = make_echelon(dom)
    for _c, col in iter_d3_columns(L):
        full.insert(col)
    rep = homology_hl(L, 2)
    assert rep.rank_in == full.rank
    pair = L.dim * L.dim
    if dom.is_field:
        want = SubquotientInvariants(dom.name, pair - rep.rank_out - full.rank)
    else:
        d2 = _d2_columns(L)
        kern = make_echelon(dom)
        for v in SpanSolver(dom, L.dim,
                            (d2.get(c, {}) for c in range(pair))).kernel():
            kern.insert(v)
        want = subquotient(kern, full, pair, dom)
    assert rep.invariants == want
    assert uce(L).kernel_invariants == want


def test_uce_refuses_a_corrupted_uncertified_sl_before_streaming(
        monkeypatch):
    import stlhom.leibniz as leib
    L = build_sl(3, catalog_ring("ground", F3))
    L.certified = False
    # scale one entry: the weights still hold, the Leibniz identity fails
    (s, t), w = min(L.table.items())
    k = min(w)
    L.table = {**L.table, (s, t): {**w, k: (2 * w[k]) % 3}}
    inner = leib.iter_d3_columns
    streams = []

    def counted(*args, **kwargs):
        streams.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(leib, "iter_d3_columns", counted)
    with pytest.raises(LeibnizIdentityError) as exc:
        uce(L)
    assert len(exc.value.triple) == 3
    assert streams == [] and not L.certified


def test_uce_certifies_a_clean_uncertified_sl():
    ring = catalog_ring("ground", F3)
    ref = uce(build_sl(3, ring))
    L = build_sl(3, ring)
    L.certified = False
    model = uce(L)
    assert L.certified
    assert model.total.table == ref.total.table
    assert model.kernel_invariants == ref.kernel_invariants


# ---------------------------------------------------------------------------
# central extensions: the cocycle condition against brute force


SL2_F3 = build_sl(2, catalog_ring("ground", F3))


@given(st.dictionaries(st.integers(0, 2), st.integers(1, 2), max_size=3),
       st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 2),
                                      st.integers(1, 2), st.integers(0, 2))),
       st.booleans())
def test_cocycle_check_agrees_with_brute_force(f, bump, split):
    """kappa = f o [,] is a coboundary, hence a cocycle; one bumped entry
    usually breaks that.  With ``split`` f sends each basis vector of the
    graded base to the kernel coordinate of its weight, so kappa is
    homogeneous over three coordinates and the total is graded, unless the
    bump lands on a coordinate of another weight.  The extension must be
    accepted exactly when the assembled total passes the brute-force
    identity check, and graded exactly when each coordinate is met at one
    weight.  Graded or not, a rejection names the first failing triple in
    (y, z, x) order, with the brute-force defect."""
    base = SL2_F3
    code = base.grading.code
    levels = sorted(set(code))
    width = len(levels) if split else 1
    slot = [levels.index(c) if split else 0 for c in code]
    kappa = {}
    for p, w in base.table.items():
        v = {}
        for t, x in w.items():
            c = (v.get(slot[t], 0) + f.get(t, 0) * x) % 3
            v[slot[t]] = c
        v = {k: c for k, c in v.items() if c}
        if v:
            kappa[p] = v
    if bump is not None:
        s, t, c, k = bump
        k %= width
        v = dict(kappa.get((s, t), {}))
        v[k] = (v.get(k, 0) + c) % 3
        kappa[(s, t)] = {j: x for j, x in v.items() if x}
        kappa = {p: v for p, v in kappa.items() if v}
    met: dict = {}
    for (s, t), v in kappa.items():
        wt = code[s] + code[t]
        for k in v:
            met.setdefault(k, set()).add(wt)
    homogeneous = all(len(ws) == 1 for ws in met.values())
    table = dict(base.table)
    for p, v in kappa.items():
        table[p] = {**table.get(p, {}),
                    **{base.dim + k: x for k, x in v.items()}}
    labels = [f"z{k}" for k in range(width)]
    probe = LeibnizAlgebra(F3, base.dim + width, table, base.labels + labels,
                           [0] * (base.dim + width), "probe")
    ok, _witness = brute_leibniz_holds(probe)
    with pytest.MonkeyPatch.context() as mp:
        paths = cocycle_paths(mp)
        try:
            ext = CentralExtensionModel(base, [0] * width, kappa, "ext",
                                        labels)
        except LeibnizIdentityError as exc:
            assert not ok
            assert paths == {"ext": homogeneous}
            d = probe.dim
            first = next((i, j, k) for j in range(d) for k in range(d)
                         for i in range(d) if brute_defect(probe, i, j, k))
            assert exc.triple == first
            assert exc.defect == brute_defect(probe, *first)
            return
    assert ok
    assert paths == ({"ext": homogeneous} if kappa else {})
    assert ext.total.certified
    assert ext.total.table == probe.table
    graded = ext.total.grading.code
    assert any(graded) == homogeneous
    if homogeneous:
        assert graded[:base.dim] == code
        assert {k: graded[base.dim + k] for k in met} == {
            k: next(iter(ws)) for k, ws in met.items()}
    check_homomorphism_on_basis(ext)
    check_kernel_central(ext)


def _uce_sl3_f3():
    """uce(sl_3(F3)): six kernel coordinates at six distinct weights."""
    ext = uce(build_sl(3, catalog_ring("ground", F3)))
    bd = ext.base.dim
    assert len(set(ext.total.grading.code[bd:])) == len(ext.kernel_moduli) == 6
    return ext, kappa_of(ext), bd


def test_a_kappa_entry_at_a_wrong_weight_falls_back_and_fails(monkeypatch):
    ext, kappa, bd = _uce_sl3_f3()
    (s, t), v = min(kappa.items())
    (c, x), = v.items()
    code = ext.total.grading.code
    other = next(k for k in range(len(ext.kernel_moduli))
                 if code[bd + k] != code[bd + c])
    kappa[(s, t)] = {other: x}
    paths = cocycle_paths(monkeypatch)
    with pytest.raises(LeibnizIdentityError) as exc:
        CentralExtensionModel(ext.base, ext.kernel_moduli, kappa, "moved",
                              ext.total.labels[bd:])
    assert len(exc.value.triple) == 3
    assert paths == {"moved": False}


def test_a_graded_base_and_its_ungraded_copy_agree_on_kappa():
    # the walker reads no grading: one kappa over sl_3(F3) and over an
    # ungraded copy of it gives the same total, and a scaled kappa entry
    # fails on both at the same triple with the same defect
    ext, kappa, bd = _uce_sl3_f3()
    plain = LeibnizAlgebra(F3, bd, ext.base.table, ext.base.labels,
                           ext.base.moduli, "plain")
    plain.certified = True
    (s, t), v = min(kappa.items())
    scaled = {**kappa, (s, t): {c: (2 * x) % 3 for c, x in v.items()}}
    witnesses = []
    for base in (ext.base, plain):
        again = CentralExtensionModel(base, ext.kernel_moduli, kappa, "again",
                                      ext.total.labels[bd:])
        assert again.total.table == ext.total.table
        with pytest.raises(LeibnizIdentityError) as exc:
            CentralExtensionModel(base, ext.kernel_moduli, scaled, "scaled",
                                  ext.total.labels[bd:])
        witnesses.append((exc.value.triple, exc.value.defect))
    assert any(ext.total.grading.code) and not any(again.total.grading.code)
    assert witnesses[0] == witnesses[1]


def test_a_wrong_kappa_value_at_a_kernel_weight_fails_pruned(monkeypatch):
    ext, kappa, bd = _uce_sl3_f3()
    (s, t), v = min(kappa.items())
    kappa[(s, t)] = {c: (2 * x) % 3 for c, x in v.items()}
    paths = cocycle_paths(monkeypatch)
    with pytest.raises(LeibnizIdentityError) as exc:
        CentralExtensionModel(ext.base, ext.kernel_moduli, kappa, "scaled",
                              ext.total.labels[bd:])
    assert len(exc.value.triple) == 3
    assert paths == {"scaled": True}


def test_central_extension_needs_a_certified_base():
    raw = LeibnizAlgebra(F3, SL2_F3.dim, SL2_F3.table, SL2_F3.labels,
                         SL2_F3.moduli, "raw")
    with pytest.raises(ValueError, match="certified"):
        CentralExtensionModel(raw, [0], {}, "ext", ["z"])


def split_coboundary(base):
    """The extension of a graded ``base`` by kappa = f o [,], f sending each
    basis vector to the kernel coordinate of its weight: a homogeneous
    coboundary."""
    code = base.grading.code
    levels = sorted(set(code))
    kappa = {}
    for p, w in base.table.items():
        v: dict = {}
        for t, x in w.items():
            k = levels.index(code[t])
            v[k] = base.dom.add(v.get(k, base.dom.zero), x)
        v = {k: c for k, c in v.items() if c}
        if v:
            kappa[p] = v
    return CentralExtensionModel(base, [0] * len(levels), kappa, "split",
                                 [f"z{k}" for k in range(len(levels))])


@pytest.mark.parametrize("n", [3, 4])
def test_only_the_sl_grading_is_special_selective(n):
    # on sl, special decodes each pair code and asks special_weight
    for name, scal in (("ground", "f2"), ("ground", "f3"), ("dual", "q"),
                       ("int", "z")):
        sl = build_sl(n, catalog_ring(name, DOMS[scal]))
        code = sl.grading.code
        pairs = {cs + ct for cs in code for ct in code}
        got = {mu: sl.grading.special(mu) for mu in pairs}
        assert got == {mu: special_weight(sl.dom, torus_weight(mu, n))
                       for mu in pairs}
        assert any(got.values()) and not all(got.values())
    # every code of an extension total is special: its grading claims no
    # h-action
    r = catalog_ring("dual", F3)
    model = build_stl(n, r)
    totals = [uce(build_sl(n, r)).total, model.total,
              build_hat(model).total,
              split_coboundary(SL2_F3).total]
    for total in totals:
        code = total.grading.code
        assert any(code) and total.grading.torus is None, total.name
        assert all(total.grading.special(a + b) for a in code for b in code)


def test_a_homogeneous_coboundary_breaks_the_torus_action():
    # why a total carries no torus: here a central kernel coordinate has a
    # root weight, where h = [E12(1), E21(1)] would act by a_2 - a_1 = -+2,
    # a unit of F3, while [z, h] = 0
    ext = split_coboundary(SL2_F3)
    base, total = ext.base, ext.total
    gl, unit = base.gl, base.ring.unit
    h = base.from_gl(gl.bracket(gl.eij(0, 1, unit), gl.eij(1, 0, unit)))
    roots = [z for z in range(base.dim, total.dim) if total.grading.code[z]]
    assert roots
    for z in roots:
        a = torus_weight(total.grading.code[z], 2)
        assert (a[1] - a[0]) % 3 and not total.bracket({z: 1}, h)


def test_each_algebra_builds_its_grading_once(monkeypatch):
    import stlhom.leibniz as leib
    built = []
    init = leib.Grading.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(leib.Grading, "__init__", spy)
    r = catalog_ring("dual", F3)
    model = build_stl(3, r)
    hat = build_hat(model)
    sl = model.extension.base
    # gl (trivial), sl, the uce total, the stl total, the hat total
    assert len(built) == 5
    assert built[0] is sl.gl.grading and not any(built[0].code)
    assert built[1] is sl.grading and built[1].torus == (3, F3)
    assert built[3] is model.total.grading and built[4] is hat.total.grading
    assert len(built[2].code) > sl.dim == len(built[1].code)
    assert all(g.torus is None for g in built[2:])
    # the walks read the algebra's grading and build none
    for _ in iter_d3_columns(sl):
        pass
    homology_hl(sl, 2)
    homology_hl(model.total, 2)
    _check_leibniz_identity(hat.total)
    plain = make_leibniz(F3, sl.dim, sl.table)
    homology_hl(plain, 2)
    assert len(built) == 6 and built[5] is plain.grading


# ---------------------------------------------------------------------------
# one side of an antisymmetric pair corrupted: the d3 stream skips
# (x, y, z), y > z, only while [e_z, e_y] = -[e_y, e_z] holds exactly, and
# the identity walker skips no twin


def one_sided_mutants(table, dom, count):
    """For ``count`` pairs s < t with entries on both sides, spread over
    ``table``: the table with the first coefficient of [e_s, e_t] raised by
    one, then the same for [e_t, e_s].  The entry keeps its coordinates,
    so a graded table stays graded."""
    keys = [(s, t) for s, t in sorted(table) if s < t and (t, s) in table]
    for s, t in keys[::max(1, len(keys) // count)][:count]:
        for p in ((s, t), (t, s)):
            w = dict(table[p])
            k = min(w)
            w[k] = dom.add(w[k], dom.one)
            if not w[k]:
                del w[k]
            mutant = dict(table)
            mutant[p] = w
            yield {q: v for q, v in mutant.items() if v}


def assert_fails_at_the_brute_force_witness(check, probe, dim):
    """``check`` raises at the first failing triple of ``probe`` in
    (y, z, x) order by brute force, with its defect."""
    first = first_brute_failure(probe, dim)
    with pytest.raises(LeibnizIdentityError) as exc:
        check()
    assert first is not None and exc.value.triple == first
    assert exc.value.defect == brute_defect(probe, *first)


@pytest.mark.parametrize("name,scal", [("dual", "f3"), ("ground", "q")])
def test_a_one_sided_sl_corruption_fails_at_the_brute_force_witness(name,
                                                                     scal):
    sl = build_sl(3, catalog_ring(name, DOMS[scal]))
    mutants = list(one_sided_mutants(sl.table, sl.dom, 6))
    assert len(mutants) == 12
    for table in mutants:
        probe = LeibnizAlgebra(sl.dom, sl.dim, table, sl.labels, sl.moduli,
                               "probe")
        assert_fails_at_the_brute_force_witness(
            lambda: _check_leibniz_identity(probe), probe, sl.dim)


@pytest.mark.parametrize("name", ["ground", "dual"])
def test_a_one_sided_kappa_corruption_fails_at_the_brute_force_witness(
        name, monkeypatch):
    # sl stays Lie, so J(x, z, y) = -J(x, y, z) holds for any kappa; the
    # totals stay graded
    ext = uce(build_sl(3, catalog_ring(name, F3)))
    base, bd = ext.base, ext.base.dim
    labels = ext.total.labels[bd:]
    mutants = list(one_sided_mutants(kappa_of(ext), F3, 6))
    assert len(mutants) == 12
    paths = cocycle_paths(monkeypatch)
    for m, kappa in enumerate(mutants):
        table = dict(base.table)
        for p, v in kappa.items():
            table[p] = {**table.get(p, {}),
                        **{bd + k: x for k, x in v.items()}}
        probe = LeibnizAlgebra(F3, ext.total.dim, table, ext.total.labels,
                               ext.total.moduli, "probe")
        assert_fails_at_the_brute_force_witness(
            lambda: CentralExtensionModel(base, ext.kernel_moduli, kappa,
                                          f"bad{m}", labels), probe, bd)
    assert paths == {f"bad{m}": True for m in range(12)}


def test_a_cocycle_check_on_a_non_lie_base_agrees_with_brute_force():
    """On a base that is not Lie the walker skips no twin (x, y, z), y > z:
    J(x, y, z) + J(x, z, y) = kappa(x, [y, z] + [z, y]) need not vanish.
    Each kappa below fails at the brute-force witness of its total."""

    def fails_at_the_witness(base, kappa):
        table = dict(base.table)
        for p, c in kappa.items():
            table[p] = {**table.get(p, {}), base.dim: c}
        probe = LeibnizAlgebra(F3, base.dim + 1, table, base.labels + ["z"],
                               base.moduli + [0], "probe")
        assert_fails_at_the_brute_force_witness(
            lambda: CentralExtensionModel(
                base, [0], {p: {0: c} for p, c in kappa.items()}, "bumped",
                ["z"]), probe, base.dim)
        return first_brute_failure(probe, base.dim)

    # stl_3(dual@f3): [e_t, e_s] != -[e_s, e_t] on 20 pairs.  kappa = f o [,]
    # is a coboundary, hence a cocycle; each mutant bumps it on one pair
    base = build_stl(3, catalog_ring("dual", F3)).total
    asym = sorted(_asymmetric_pairs(base.table, F3))
    assert len(asym) == 20
    kappa = {p: sum(w.values()) % 3 for p, w in base.table.items()}
    for p in asym:
        bumped = {**kappa, p: (kappa.get(p, 0) + 1) % 3}
        fails_at_the_witness(base, {q: c for q, c in bumped.items() if c})
    # gl_2 (+) V, whose symmetric parts lie in V: kappa(1, v1) = 1, with
    # 1 = E11 + E22, first fails at the twin (E11, v1, E11), y > z
    base = hemisemidirect(F3)
    assert fails_at_the_witness(base, {(0, 4): 1, (3, 4): 1}) == (0, 4, 0)
