"""Exact linear algebra: frozen examples plus randomized oracle checks.

The Smith form is cross-checked two ways: against the determinantal-divisor
definition (gcds of k x k minors, computed here from scratch) and against
sympy's implementation on random matrices.  The echelon engines' fully
reduced rows, pivots and ranks are checked against sympy's reduced row
echelon form over GF(p) and QQ.
"""

import fractions
import itertools
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from stlhom.domains import F2, F3, F5, Q, Z, parse_scalar
from stlhom.linalg import (ContainmentError, F2Forward, FpForward,
                           HermiteBasis, QForward, SpanSolver,
                           SubquotientInvariants, describe_vector,
                           make_echelon,
                           moduli_invariants, present_quotient,
                           smith_normal_form, subquotient, vec_axpy, xgcd)

from oracles import smith_sizes

FIELDS = [F2, F3, F5, Q]


def dense_to_dicts(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


# dense matrices, read through the sparse engines


def dense_rows(dom, m):
    return [{j: dom.normalize(v) for j, v in enumerate(row)
             if dom.normalize(v)} for row in m]


def dense_rank(dom, m):
    """Rank of a dense matrix: the rank of an echelon of its rows."""
    return _echelon(dense_rows(dom, m), dom).rank


def dense_kernel(dom, m):
    """Basis of {x : m x = 0}: the relations among the columns of m."""
    cols = dense_rows(dom, [list(col) for col in zip(*m)])
    return SpanSolver(dom, len(m), cols).kernel()


def dense_matvec(dom, m, v):
    """m @ v for a dense m and a sparse v, as a dense list."""
    out = []
    for row in m:
        acc = dom.zero
        for j, x in v.items():
            acc = dom.add(acc, dom.mul(dom.normalize(row[j]), x))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# oracles


def minor_gcd_invariant_factors(m):
    """Invariant factors from determinantal divisors (independent oracle).

    d_k = gcd of all k x k minors; the k-th invariant factor is d_k/d_{k-1}.
    Only usable for tiny matrices, which is the point: it is a direct
    transcription of the definition.
    """
    nr, nc = len(m), len(m[0]) if m else 0

    def det(rows, cols):
        if not rows:
            return 1
        r0 = rows[0]
        return sum((-1) ** idx * m[r0][c] * det(rows[1:], cols[:idx] + cols[idx + 1:])
                   for idx, c in enumerate(cols))

    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                g = gcd(g, det(list(rows), list(cols)))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def sympy_snf_diag(m):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as snf
    if not m or not m[0]:
        return []
    d = snf(sympy.Matrix(m))
    out = []
    for t in range(min(d.shape)):
        v = int(d[t, t])
        if v:
            out.append(abs(v))
    out.sort()
    return out


def sympy_rref(vecs, width, dom):
    """({pivot: fully reduced row}, pivots) of span(vecs) over a field, by
    sympy's reduced row echelon form over GF(p) or QQ."""
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix
    if dom.name == "q":
        K = QQ
        to_k = lambda x: QQ(Fraction(x).numerator, Fraction(x).denominator)
        back = lambda e: Fraction(int(e.numerator), int(e.denominator))
    else:
        K = GF(dom.p)
        to_k = lambda x: K(int(x) % dom.p)
        back = lambda e: int(e) % dom.p
    if not vecs:
        return {}, []
    dense = [[to_k(v.get(j, 0)) for j in range(width)] for v in vecs]
    rref, pivots = DomainMatrix(dense, (len(vecs), width), K).rref()
    rows = {}
    for i, p in enumerate(pivots):
        entries = [back(e) for e in rref.to_list()[i]]
        rows[p] = {j: x for j, x in enumerate(entries) if x}
    return rows, list(pivots)


def sympy_in_span(vecs, v, width, dom):
    return (len(sympy_rref(vecs + [v], width, dom)[1])
            == len(sympy_rref(vecs, width, dom)[1]))


# ---------------------------------------------------------------------------
# frozen small cases


def test_xgcd_invariant():
    for a in range(-8, 9):
        for b in range(-8, 9):
            g, x, y = xgcd(a, b)
            assert g == abs(gcd(a, b))
            assert x * a + y * b == g


def test_kernel_of_2_4_over_z():
    basis = dense_kernel(Z, [[2, 4]])
    assert len(basis) == 1
    v = basis[0]
    # (2, -1) up to sign
    assert {k: abs(x) for k, x in v.items()} == {0: 2, 1: 1}
    assert not any(dense_matvec(Z, [[2, 4]], v))


def smith(m):
    """``smith_normal_form`` of a dense integer matrix."""
    entries = {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row)}
    return smith_normal_form(entries, len(m), len(m[0]) if m else 0)


def test_smith_of_2_4_0_6():
    sf = smith([[2, 4], [0, 6]])
    assert sf.diag == [2, 6]
    assert sf.rank == 2


def test_smith_matches_minor_gcd_oracle_on_fixed_cases():
    cases = [
        [[2, 4], [0, 6]],
        [[1, 2], [3, 4]],
        [[2, 0], [0, 2]],
        [[6, 10], [15, 4]],
        [[0, 0], [0, 0]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        # shapes present_quotient hands over: no relation columns (every
        # Hermite pivot was a unit), and rows no relation touches
        [[], [], []],
        [[0, 0, 0], [4, 6, 0], [0, 0, 0], [0, 10, 0]],
    ]
    for m in cases:
        sf = smith(m)
        assert sf.diag == minor_gcd_invariant_factors(m), m


def _echelon(vectors, dom):
    ech = make_echelon(dom)
    for v in vectors:
        ech.insert(v)
    return ech


def _subquotient(kernel_gens, image_gens, width, dom):
    """subquotient on two generating lists instead of their echelons."""
    return subquotient(_echelon(kernel_gens, dom), _echelon(image_gens, dom),
                       width, dom)


def test_subquotient_z2_mod_2z2():
    inv = _subquotient([{0: 1}, {1: 1}], [{0: 2}, {1: 2}], 2, Z)
    assert inv.invariant_factors == [2, 2]
    assert inv.describe() == "Z/2^2"
    assert inv.free_rank == 0


def test_subquotient_free_part():
    inv = _subquotient([{0: 1}, {1: 1}, {2: 1}], [{0: 2}], 3, Z)
    assert inv.invariant_factors == [2, 0, 0]
    assert inv.free_rank == 2 and inv.torsion == [2]


def test_subquotient_containment_violation():
    with pytest.raises(ContainmentError):
        _subquotient([{0: 1}], [{1: 1}], 2, F3)
    with pytest.raises(ContainmentError):
        # (1,0) is in the Q-span but not the Z-lattice of (2,0)
        _subquotient([{0: 2}], [{0: 1}], 2, Z)


def test_subquotient_field_dims():
    for dom in FIELDS:
        one = dom.one
        inv = _subquotient([{0: one, 1: one}, {1: one}], [{0: one, 1: one}],
                           2, dom)
        assert inv.dimension == 1
        assert inv.invariant_factors is None


def test_invariants_eq_and_describe():
    a = SubquotientInvariants("z", 3, [2, 2, 0])
    b = SubquotientInvariants("z", 3, [2, 2, 0])
    assert a == b
    assert a.describe() == "Z/2^2 + Z^1"
    assert SubquotientInvariants("f2", 0, None).describe() == "0"
    assert SubquotientInvariants("f3", 6, None).describe() == "f3^6"


@pytest.mark.parametrize("dom,coeff,text", [
    (F2, 1, "x"), (F3, 2, "2*x"), (F5, 4, "4*x"),
    (Q, Fraction(1, 2), "1/2*x"), (Z, -1, "-1*x"),
])
def test_describe_vector_on_every_domain(dom, coeff, text):
    # canonical scalars: the coefficient 1 is dropped, keys ascend
    labels = ["w", "x", "y"]
    one = dom.normalize(1)
    v = {2: one, 1: dom.normalize(coeff)}
    assert describe_vector(v, labels) == f"{text} + y"
    assert describe_vector({0: one}, labels) == "w"
    assert describe_vector({}, labels) == "0"


# ---------------------------------------------------------------------------
# echelon engines


def test_f2_echelon_matches_generic_field_engine():
    vecs = [{0: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 1}, {1: 1, 4: 1},
            {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}]
    fast = F2Forward()
    slow = FpForward(2)
    for v in vecs:
        assert fast.insert(dict(v)) == slow.insert(dict(v))
    assert sorted(fast.rows) == sorted(slow.rows)
    assert fast.row_dicts() == slow.row_dicts()
    assert sympy_rref(vecs, 5, F2) == (fast.row_dicts(), sorted(fast.rows))


def test_field_echelon_rows_fully_reduced():
    ech = make_echelon(F5)
    vecs = [{0: 1, 1: 2, 5: 1}, {1: 3, 2: 1}, {0: 2, 2: 4, 3: 1}, {1: 1, 5: 2}]
    for v in vecs:
        ech.insert(v)
    pivots = set(ech.rows)
    for p, row in ech.row_dicts().items():
        assert row[p] == 1
        for c in row:
            assert c == p or c not in pivots
    assert sympy_rref(vecs, 6, F5) == (ech.row_dicts(), sorted(ech.rows))


@given(st.sampled_from(["f2", "f3", "f5", "q"]),
       st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=5,
                                   max_size=5), st.booleans()),
                min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_row_dicts_are_the_rref_of_the_span(scal, steps):
    """row_dicts() and the sorted pivot keys of rows equal sympy's RREF,
    also when row_dicts() calls are interleaved with further inserts."""
    dom = parse_scalar(scal)
    ech = make_echelon(dom)
    vecs = []
    for row, look in steps:
        v = {j: dom.normalize(x) for j, x in enumerate(row)}
        v = {j: x for j, x in v.items() if x}
        ech.insert(dict(v))
        vecs.append(v)
        if look:
            assert (ech.row_dicts(), sorted(ech.rows)) == sympy_rref(
                vecs, 5, dom)
    assert (ech.row_dicts(), sorted(ech.rows)) == sympy_rref(vecs, 5, dom)


def test_hermite_membership_and_positive_pivots():
    h = HermiteBasis()
    h.insert({0: 4, 1: 2, 2: 1})
    h.insert({0: 6, 1: 2})
    h.insert({1: 8})
    # combinations of inserted vectors are members, others are not
    assert h.reduce({0: 10, 1: 4, 2: 1}) == {}
    assert h.reduce({0: 4, 1: 10, 2: 1}) == {}
    assert h.reduce({0: 1}) != {}
    rows = h.row_dicts()
    for p, row in rows.items():
        assert row[p] > 0
        assert min(row) == p


@pytest.mark.parametrize("scal", ["f2", "f3", "f5", "q", "z"])
def test_row_dicts_come_in_ascending_pivot_order(scal):
    # rows inserted with descending pivots; every engine hands them back
    # keyed by pivot, in ascending order
    ech = make_echelon(parse_scalar(scal))
    for v in ({3: 1}, {2: 1, 3: 1}, {1: 1}, {0: 1, 2: 1}):
        ech.insert(v)
    assert list(ech.row_dicts()) == sorted(ech.rows) == [0, 1, 2, 3]


def test_make_echelon_dispatch():
    assert isinstance(make_echelon(F2), F2Forward)
    assert isinstance(make_echelon(Q), QForward)
    assert isinstance(make_echelon(Z), HermiteBasis)
    assert isinstance(make_echelon(parse_scalar("f5")), FpForward)


# ---------------------------------------------------------------------------
# randomized properties

small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=4, max_cols=5, entries=small_entries):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def _dense(r, c, cells):
    m = [[0] * c for _ in range(r)]
    for i, j, v in cells:
        if c:
            m[i % r][j % c] = v
    return m


def sparse_matrices():
    """The shapes ``present_quotient`` hands to Smith: up to 22 x 20, at
    most 25 nonzero entries, some with no columns, entries small or of
    Hermite size (up to 2^40)."""
    entries = st.one_of(small_entries, st.integers(-2 ** 40, 2 ** 40))
    cells = st.lists(st.tuples(st.integers(0, 21), st.integers(0, 19),
                               entries), max_size=25)
    return st.builds(_dense, st.integers(1, 22), st.integers(0, 20), cells)


smith_inputs = st.one_of(matrices(), sparse_matrices())


@given(smith_inputs)
@settings(max_examples=120, deadline=None)
@example([[], [], []])
def test_smith_matches_sympy(m):
    sf = smith(m)
    assert sorted(sf.diag) == sympy_snf_diag(m)
    # divisibility chain
    for a, b in zip(sf.diag, sf.diag[1:]):
        assert b % a == 0


def test_smith_only_sees_small_matrices_on_z_builds(z_s3_stl3):
    # present_quotient eliminates the unit Hermite pivots first, so Smith
    # sees a few rows per quotient: on stl_3(Z[S3]) the d3 echelon holds
    # 1,089 rows, 1,074 of them with a unit pivot
    from stlhom.catalog import RING_BUILDERS, catalog_ring
    from stlhom.steinberg import build_stl
    with smith_sizes() as sizes:
        for name in sorted(RING_BUILDERS):
            for n in (3, 4):
                build_stl(n, catalog_ring(name, Z))
    assert len(sizes) == 4 * 2 * len(RING_BUILDERS)
    assert max(rows for rows, _ in sizes) <= 22
    assert max(cols for _, cols in sizes) <= 20
    assert len(z_s3_stl3.smith_sizes) == 4
    assert max(max(size) for size in z_s3_stl3.smith_sizes) <= 15


@given(matrices(max_rows=3, max_cols=3, entries=st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_smith_matches_minor_gcd_oracle(m):
    sf = smith(m)
    assert sf.diag == minor_gcd_invariant_factors(m)


@given(smith_inputs)
@settings(max_examples=100, deadline=None)
@example([[], [], []])
@example([[0, 0], [2 ** 40, 6], [0, 0], [3, 2 ** 39]])
def test_smith_transform_consistency(m):
    """U is unimodular and U*A = D*V^-1: row t of U*A is divisible by the
    t-th invariant factor, and zero beyond the rank."""
    import sympy
    nr, nc = len(m), len(m[0])
    sf = smith(m)
    U = [[sf.U.get(i, {}).get(k, 0) for k in range(nr)] for i in range(nr)]
    assert sympy.Matrix(U).det() in (1, -1)
    UA = [[sum(U[i][k] * m[k][j] for k in range(nr)) for j in range(nc)]
          for i in range(nr)]
    for t, row in enumerate(UA):
        if t < sf.rank:
            assert all(x % sf.diag[t] == 0 for x in row)
        else:
            assert not any(row)


@given(matrices(), st.sampled_from(["f2", "f3", "f5", "q"]))
@settings(max_examples=150, deadline=None)
def test_rank_nullity_and_kernel(m, scal):
    dom = parse_scalar(scal)
    basis = dense_kernel(dom, m)
    assert dense_rank(dom, m) + len(basis) == len(m[0])
    for v in basis:
        assert not any(dense_matvec(dom, m, v))
    # kernel vectors are independent
    ech = make_echelon(dom)
    for v in basis:
        assert ech.insert(v) is not None


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_integer_kernel_is_saturated(m):
    ncols = len(m[0])
    basis = dense_kernel(Z, m)
    for v in basis:
        assert not any(dense_matvec(Z, m, v))
    # rank-nullity against the rational rank
    assert dense_rank(Q, m) + len(basis) == ncols
    if basis:
        rows = {(i, j): v for i, b in enumerate(basis) for j, v in b.items()}
        sf = smith_normal_form(rows, len(basis), ncols)
        assert sf.diag == [1] * len(basis)   # primitive basis <=> saturated


@given(st.lists(st.lists(small_entries, min_size=5, max_size=5),
                min_size=1, max_size=6),
       st.sampled_from(["f2", "f3", "q", "z"]))
@settings(max_examples=120, deadline=None)
def test_echelon_reduce_kills_span_members(vecs, scal):
    dom = parse_scalar(scal)
    ech = make_echelon(dom)
    dvecs = []
    for row in vecs:
        d = {j: dom.normalize(v) for j, v in enumerate(row) if dom.normalize(v)}
        dvecs.append(d)
        ech.insert(dict(d))
    # an arbitrary (integer) combination of inserted vectors reduces to zero
    combo = {}
    for i, d in enumerate(dvecs):
        vec_axpy(combo, d, dom.from_int(i + 1) if dom.name != "z" else i + 1, dom)
    assert ech.reduce(combo) == {}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_subquotient_matches_relation_matrix_snf(data):
    """K/I for K free on an explicit basis: invariants come from the
    coefficient matrix alone, which we know by construction."""
    k = data.draw(st.integers(1, 3))
    w = k + data.draw(st.integers(0, 2))
    # unit upper-triangular basis => independent, spans a saturated-enough K
    basis = []
    for i in range(k):
        v = {i: 1}
        for j in range(i + 1, w):
            c = data.draw(small_entries)
            if c:
                v[j] = c
        basis.append(v)
    r = data.draw(st.integers(0, 3))
    C = [[data.draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(r)]
    image = []
    for row in C:
        g = {}
        for ci, b in zip(row, basis):
            if ci:
                vec_axpy(g, b, ci, Z)
        image.append(g)
    inv = _subquotient(basis, image, w, Z)
    expected = sympy_snf_diag(C) if C and k else []
    expected = [d for d in expected if d != 1]
    assert inv.torsion == expected
    rk = dense_rank(Q, C) if r else 0
    assert inv.free_rank == k - rk


# ---------------------------------------------------------------------------
# quotient presentations


def _present(relations, width, dom):
    return present_quotient(_echelon(relations, dom), width, dom)


def test_present_quotient_field_roundtrip():
    ech = _echelon([{0: Fraction(1), 1: Fraction(2)}], Q)
    pres = present_quotient(ech, 3, Q)
    assert pres.dim == 2
    assert pres.moduli == [0, 0]
    # coords kill the generator
    assert pres.coords({0: Fraction(1), 1: Fraction(2)}) == {}
    # coords are onto: free column -> coordinate -> free column
    free = [c for c in range(3) if c not in ech.rows]
    for idx, c in enumerate(free):
        assert pres.coords({c: Fraction(1)}) == {idx: 1}


def test_present_quotient_z_torsion():
    pres = _present([{0: 2}, {1: 3}], 2, Z)
    assert sorted(pres.moduli) == [2, 3] or pres.moduli == [6]
    # the class of (1,1) has order 6
    c = pres.coords({0: 1, 1: 1})
    seen = set()
    acc = {}
    for mult in range(1, 7):
        acc = pres.coords({0: mult, 1: mult})
        seen.add(tuple(sorted(acc.items())))
    assert acc == {}          # 6*(1,1) is in the lattice
    assert len(seen) == 6     # earlier multiples are all distinct


@pytest.mark.parametrize("dom,moduli", [
    (Z, [4, 0, 2, 2]), (Z, [3, 3]), (Z, [0]), (Z, []),
    (F3, [0, 0, 0]), (Q, []),
])
def test_moduli_invariants_match_the_subquotient(dom, moduli):
    # the group presented by per-coordinate moduli, as the subquotient
    # span(units + relations) / span(relations)
    width = len(moduli)
    units = [{c: dom.one} for c in range(width)]
    rel = [{c: m} for c, m in enumerate(moduli) if m]
    assert (moduli_invariants(dom, moduli)
            == _subquotient(units + rel, rel, width, dom))


def test_present_quotient_ambient_moduli():
    # (Z/4)^2 modulo the class of (2,0): the moduli are relation rows too
    pres = _present([{0: 2}, {0: 4}, {1: 4}], 2, Z)
    assert sorted(pres.moduli) == [2, 4]
    assert pres.coords({0: 2}) == {}
    assert pres.coords({0: 8, 1: 4}) == {}


def test_present_quotient_z_free_and_roundtrip():
    pres = _present([{0: 1, 1: 1}], 3, Z)
    assert pres.dim == 2 and pres.moduli == [0, 0]
    assert pres.coords({0: 1, 1: 1}) == {}
    # coords are onto Z^2: the 2 x 3 matrix of coords(e_j) has every
    # invariant factor 1, so each coordinate vector has a preimage
    images = [pres.coords({j: 1}) for j in range(3)]
    matrix = [[images[j].get(idx, 0) for j in range(3)]
              for idx in range(pres.dim)]
    assert minor_gcd_invariant_factors(matrix) == [1, 1]


relation_sets = st.lists(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=5)


@settings(max_examples=40, deadline=None)
@given(relation_sets)
# Hermite rows with unit pivots 0 and 1, row 0's tail meeting column 1,
# and one non-unit row: over Z, phi(e_0) = -e_2 - 2 phi(e_1)
@example([[1, 2, 1, 0], [0, 1, 3, 2], [0, 0, 2, 4]])
def test_present_quotient_matches_sympy(rows):
    # dom^4 / span(rows), presented off the echelon, has dimension 4 - rank
    # over a field (sympy's rank over GF(p) or QQ) and, over Z, the
    # invariants from sympy's invariant factors of the relation matrix; its
    # coordinates kill every relation, and over Z they are onto the group
    # with those moduli: the matrix of the coords(e_j) and the moduli
    # columns d_i e_i has every invariant factor 1
    import sympy
    from sympy.matrices.normalforms import invariant_factors
    width = 4
    for dom in (F2, F3, F5, Q, Z):
        gens = [{j: dom.normalize(x) for j, x in enumerate(row)
                 if dom.normalize(x)} for row in rows]
        pres = _present(gens, width, dom)
        if dom.is_field:
            rank = len(sympy_rref(gens, width, dom)[1])
            expected = SubquotientInvariants(dom.name, width - rank, None)
        else:
            factors = [abs(int(d)) for d in invariant_factors(
                sympy.Matrix(rows), domain=sympy.ZZ)] if rows else []
            rank = sum(1 for d in factors if d)
            torsion = sorted(d for d in factors if d > 1)
            expected = SubquotientInvariants(
                "z", len(torsion) + width - rank,
                torsion + [0] * (width - rank))
        assert moduli_invariants(dom, pres.moduli) == expected
        for g in gens:
            assert pres.coords(g) == {}
        if not dom.is_field:
            images = [pres.coords({j: 1}) for j in range(width)]
            matrix = [[images[j].get(idx, 0) for j in range(width)]
                      + [d * (k == idx) for k, d in enumerate(pres.moduli)]
                      for idx in range(pres.dim)]
            assert minor_gcd_invariant_factors(matrix) == [1] * pres.dim


# ---------------------------------------------------------------------------
# forward-only streaming engines


int_matrix = st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5),
                      min_size=1, max_size=8)


@given(int_matrix)
@settings(deadline=None)
def test_forward_rank_agrees_with_reduced_echelon(rows):
    for dom in FIELDS:
        fwd = make_echelon(dom)
        vecs = []
        for row in rows:
            v = {j: dom.normalize(x) for j, x in enumerate(row)}
            v = {j: x for j, x in v.items() if x}
            fwd.insert(dict(v))
            vecs.append(v)
        assert fwd.rank == len(sympy_rref(vecs, 5, dom)[1])


@given(int_matrix, st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       st.integers(0, 7))
def test_forward_residual_is_canonical(rows, probe, pick):
    """reduce() depends only on the class of v modulo the row span."""
    for dom in (F2, F3):
        fwd = make_echelon(dom)
        stored = []
        for row in rows:
            v = {j: dom.normalize(x) for j, x in enumerate(row)}
            v = {j: x for j, x in v.items() if x}
            if v:
                stored.append(v)
            fwd.insert(dict(v))
        v = {j: dom.normalize(x) for j, x in enumerate(probe)}
        v = {j: x for j, x in v.items() if x}
        r1 = fwd.reduce(v)
        if stored:
            w = dict(v)
            vec_axpy(w, stored[pick % len(stored)], dom.one, dom)
            r2 = fwd.reduce(w)
            assert r1 == r2
        # residual carries no pivot column
        assert not any(k in fwd.rows for k in r1)


@given(int_matrix, st.lists(st.integers(-6, 6), min_size=5, max_size=5))
@settings(deadline=None)
def test_qforward_matches_rational_echelon(rows, probe):
    fwd = QForward()
    vecs = []
    for row in rows:
        v = {j: x for j, x in enumerate(row) if x}
        fwd.insert(v)
        vecs.append(v)
    assert fwd.rank == len(sympy_rref(vecs, 5, Q)[1])
    v = {j: x for j, x in enumerate(probe) if x}
    r, d = fwd.reduce_tracked(v)
    # r == d*v modulo the span: d*v - r must reduce to zero
    check = {j: Fraction(d) * x for j, x in v.items()}
    for j, x in r.items():
        check[j] = check.get(j, Fraction(0)) - x
    check = {j: x for j, x in check.items() if x}
    assert sympy_in_span(vecs, check, 5, Q)
    assert fwd.insert(check) is None
    # and membership agreement: v in span(fwd) iff v in the oracle's span
    in_fwd = not r
    in_ech = sympy_in_span(vecs, v, 5, Q)
    assert in_fwd == in_ech


def test_qforward_accepts_fraction_input():
    fwd = QForward()
    assert fwd.insert({0: Fraction(1, 2), 1: Fraction(3, 4)}) == 0
    # stored row is primitive integer: 2x + 3y up to scaling
    assert fwd.rows[0] == {0: 2, 1: 3}
    r, d = fwd.reduce_tracked({0: Fraction(1), 1: Fraction(3, 2)})
    assert not r, "(1, 3/2) is a rational multiple of (1/2, 3/4)"


def test_qforward_multiplier_example():
    fwd = QForward()
    fwd.insert({0: 2, 1: 2})           # stored as (1, 1)
    r, d = fwd.reduce_tracked({0: 1, 1: 3})
    # residual must be off the pivot column 0: (0, y) with y/d = 3 - 1 = 2
    assert set(r) == {1}
    assert Fraction(r[1]) / d == 2


def _fraction_calls(fn) -> int:
    """Number of calls into ``fractions.py`` while ``fn()`` runs: every
    Fraction construction and every Fraction operation is one or more."""
    calls = 0

    def spy(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    sys.setprofile(spy)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_integer_q_work_constructs_no_fraction():
    from stlhom import build_sl, catalog_ring

    def inserts():
        fwd = QForward()
        for row in ([2, 4, 6, 0, 1], [3, 1, 0, 5, 2], [1, 1, 1, 1, 1],
                    [5, 5, 6, 5, 3], [0, 2, 3, 7, 1]):
            fwd.insert({j: x for j, x in enumerate(row) if x})
        assert fwd.rank == 4

    assert _fraction_calls(inserts) == 0
    assert _fraction_calls(lambda: build_sl(3, catalog_ring("ground", Q))) == 0
    # the spy does see a Fraction when one is made
    assert _fraction_calls(lambda: SpanSolver(Q, 1, [{0: 2}]).solve({0: 1}))


def _canonical_q(x) -> bool:
    """An int exactly when integral, else a Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


q_entries = st.builds(lambda a, b: Q.normalize(Fraction(a, b)),
                      st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))
q_vec = st.lists(q_entries, min_size=4, max_size=4).map(
    lambda row: {j: x for j, x in enumerate(row) if x})


@given(st.lists(q_vec, min_size=1, max_size=6), q_vec)
@settings(max_examples=100, deadline=None)
def test_q_engines_return_canonical_scalars_of_the_rref(vecs, probe):
    rref, pivots = sympy_rref(vecs, 4, Q)
    fwd = _echelon(vecs, Q)
    rows = fwd.row_dicts()
    assert rows == rref and list(rows) == pivots
    # the residual off the pivot columns is probe - sum probe[p] * rref_p
    want = dict(probe)
    for p in pivots:
        if p in want:
            vec_axpy(want, rref[p], -want[p], Q)
    got = fwd.reduce(probe)
    assert got == want
    solver = SpanSolver(Q, 4, vecs)
    coeffs = solver.solve(probe)
    assert (coeffs is not None) == (not want)
    if coeffs is not None:
        total = {}
        for i, c in coeffs.items():
            vec_axpy(total, vecs[i], c, Q)
        assert total == probe
    scalars = [x for r in rows.values() for x in r.values()]
    scalars += list(got.values()) + list((coeffs or {}).values())
    assert all(_canonical_q(x) for x in scalars), scalars


def test_q_solve_is_int_exactly_when_integral():
    solver = SpanSolver(Q, 1, [{0: 2}])
    half, two = solver.solve({0: 1}), solver.solve({0: 4})
    assert half == {0: Fraction(1, 2)} and type(half[0]) is Fraction
    assert two == {0: 2} and type(two[0]) is int


@given(int_matrix)
def test_forward_insert_of_dependent_rows_returns_none(rows):
    fwd = make_echelon(F3)
    inserted = []
    for row in rows:
        v = {j: x % 3 for j, x in enumerate(row)}
        v = {j: x for j, x in v.items() if x}
        piv = fwd.insert(dict(v))
        if piv is not None:
            inserted.append(v)
    # re-inserting anything already in the span is a no-op
    for v in inserted:
        assert fwd.insert(dict(v)) is None
