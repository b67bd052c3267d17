"""Test-side oracles for what the package guarantees by construction.

``CentralExtensionModel`` assembles its total as base bracket (+) kappa, so
the projection is a homomorphism and the kernel is central without a check;
these functions check both on the finished table, independently of how it
was assembled.  ``reference_smith_normal_form`` is the plain-scan Smith
reduction that the indexed one in the package must reproduce exactly.
``cocycle_paths`` and ``kappa_of`` let a test see which way an extension
or the symbolic cocycle was certified and rebuild an extension from a
changed kappa.  ``reference_cocycle`` is the plain keys^3 walk of the
symbolic cocycle identity that ``verify_cocycle`` must agree with.
``torus_weight`` reads a weight code of the package back as a weight.
"""

import stlhom.leibniz as leibniz
import stlhom.steinberg as steinberg
from stlhom.assoc import quotient_Rm
from stlhom.domains import Z
from stlhom.linalg import SmithForm, vec_axpy
from stlhom.steinberg import (CocycleSpace, SteinbergSymbolic, build_theta,
                              psi3, psi4)


def cocycle_paths(monkeypatch) -> dict:
    """Record, per carrier name, whether each cocycle check from here on
    visited the weight-filtered candidate triples (True: the checked
    algebra's grading is not trivial) or every candidate triple (False):
    that of each ``CentralExtensionModel`` (under its total's name) and of
    ``verify_cocycle`` (``psi-<n>(<ring>)``), whose module binds the walker
    by name, so both bindings are patched.  An extension with an empty
    kappa checks nothing and is not recorded."""
    paths: dict = {}
    inner = leibniz._check_identity

    def spy(alg, dim, inner_table, outer, what):
        if outer is not inner_table:
            paths[alg.name] = any(alg.grading.code)
        return inner(alg, dim, inner_table, outer, what)

    monkeypatch.setattr(leibniz, "_check_identity", spy)
    monkeypatch.setattr(steinberg, "_check_identity", spy)
    return paths


def reference_cocycle(n: int, ring, theta=None):
    """J(x,y,z) = psi(x,[y,z]) + psi([x,z],y) - psi([x,y],z) on the
    symbolic basis of stl_n(R), evaluated directly: psi from ``psi3`` /
    ``psi4`` on every pair of X keys, brackets from the X-parts of the
    engine's (psi vanishes on H).

    Returns (engine, space, J, first): J maps three basis keys to a sparse
    dict over the ``CocycleSpace`` ``space``, and ``first`` is the first
    triple in (x, y, z) lexicographic order with J != 0, or None when J
    vanishes on all keys^3 triples.
    """
    one = ring.dom.one
    if n == 4:
        rm, theta = quotient_Rm(ring, 2), theta or build_theta()
    else:
        rm = quotient_Rm(ring, 3)

    def psi(k1, k2):
        a, b = ("x", *k1[1:3], {k1[3]: one}), ("x", *k2[1:3], {k2[3]: one})
        return psi4(a, b, rm, theta) if n == 4 else psi3(a, b, rm)

    engine = SteinbergSymbolic(n, ring)
    basis = engine.basis_keys()
    xkeys = [k for k in basis if k[0] == "x"]
    psi_pairs = {(k1, k2): psi(k1, k2).coords
                 for k1 in xkeys for k2 in xkeys}
    space = CocycleSpace(n, rm)
    xparts = {(k1, k2): [(k, c) for k, c in
                         engine.bracket_keys(k1, k2).items() if k[0] == "x"]
              for k1 in basis for k2 in basis}
    neg = ring.dom.neg

    def J(x, y, z) -> dict:
        acc: dict = {}
        for k, c in xparts[(y, z)]:
            space.add_scaled(acc, psi_pairs.get((x, k), {}), c)
        for k, c in xparts[(x, z)]:
            space.add_scaled(acc, psi_pairs.get((k, y), {}), c)
        for k, c in xparts[(x, y)]:
            space.add_scaled(acc, psi_pairs.get((k, z), {}), neg(c))
        return acc

    first = next(((x, y, z) for x in basis for y in basis for z in basis
                  if J(x, y, z)), None)
    return engine, space, J, first


def kappa_of(ext) -> dict:
    """The kernel part of every nonzero table entry of an extension."""
    out = {}
    for p, w in ext.total.table.items():
        kern = ext.kernel_part(w)
        if kern:
            out[p] = kern
    return out


def check_homomorphism_on_basis(ext) -> None:
    """The projection total -> base maps [e_s, e_t] to the base bracket of
    the projections, on every nonzero table entry."""
    one = ext.total.dom.one
    for (s, t), w in ext.total.table.items():
        ps = ext.project({s: one})
        pt = ext.project({t: one})
        if not ext.base.eq_vec(ext.project(w), ext.base.bracket(ps, pt)):
            raise AssertionError(
                f"projection is not a homomorphism at ({s},{t})")


def check_kernel_central(ext) -> None:
    """No table entry with a kernel coordinate as a factor is nonzero."""
    bd = ext.base.dim
    for (s, t), w in ext.total.table.items():
        if (s >= bd or t >= bd) and w:
            raise AssertionError(
                f"kernel coordinate brackets nontrivially at ({s},{t})")


def full_sl_table(sl) -> dict:
    """The bracket table of ``sl`` solved afresh on every ordered pair of
    basis vectors (dim^2 gl brackets), keys in ascending order."""
    table = {}
    for s, u in enumerate(sl.basis):
        for t, v in enumerate(sl.basis):
            w = sl.gl.bracket(u, v)
            coeffs = sl.from_gl(w) if w else None
            if coeffs:
                table[(s, t)] = coeffs
    return table


def torus_weight(code: int, n: int) -> tuple:
    """The weight w in Z^n, entries in [-3, 3], whose code sum_k w_k 7^k
    is ``code`` (balanced base-7 digits)."""
    digits = []
    for _ in range(n):
        r = code % 7
        if r > 3:
            r -= 7
        digits.append(r)
        code = (code - r) // 7
    if code:
        raise ValueError("the code has an entry outside [-3, 3]")
    return tuple(digits)


def sl_to_gl(sl, v: dict) -> dict:
    """A vector in sl coordinates, written in gl coordinates."""
    out: dict = {}
    for t, c in v.items():
        vec_axpy(out, sl.basis[t], c, sl.dom)
    return out


def reference_smith_normal_form(entries: dict, nrows: int,
                                ncols: int) -> SmithForm:
    """The plain-scan Smith reduction: every pivot search, column swap and
    column operation scans all rows.  ``smith_normal_form`` keeps a column
    index instead but must make the same pivot choices, so its diagonal and
    row transform U must be equal to these."""
    rows: dict[int, dict] = {}
    for (i, j), val in entries.items():
        if val:
            rows.setdefault(i, {})[j] = int(val)
    U: dict[int, dict] = {i: {i: 1} for i in range(nrows)}

    def row_op(i: int, t: int, q: int) -> None:
        # A_i -= q * A_t, mirrored on U
        tgt = rows.setdefault(i, {})
        vec_axpy(tgt, rows.get(t, {}), -q, Z)
        if not tgt:
            del rows[i]
        vec_axpy(U.setdefault(i, {}), U.get(t, {}), -q, Z)

    def row_swap(i: int, t: int) -> None:
        ri, rt = rows.pop(i, None), rows.pop(t, None)
        if rt is not None:
            rows[i] = rt
        if ri is not None:
            rows[t] = ri
        U[i], U[t] = U.get(t, {}), U.get(i, {})

    def row_negate(i: int) -> None:
        if i in rows:
            rows[i] = {k: -x for k, x in rows[i].items()}
        U[i] = {k: -x for k, x in U.get(i, {}).items()}

    # column operations touch A only; V is not tracked
    def col_op(j: int, t: int, q: int) -> None:
        # A[:, j] -= q * A[:, t]
        for r in rows.values():
            c = r.get(t)
            if c:
                val = r.get(j, 0) - q * c
                if val:
                    r[j] = val
                else:
                    r.pop(j, None)

    def col_swap(j: int, t: int) -> None:
        for r in rows.values():
            a, b = r.pop(j, None), r.pop(t, None)
            if b is not None:
                r[j] = b
            if a is not None:
                r[t] = a

    diag: list[int] = []
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # select a pivot of minimal |value| in the region [t:, t:]
        best = None
        for i, row in rows.items():
            if i < t:
                continue
            for j, val in row.items():
                if j < t:
                    continue
                a = abs(val)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi, t)
        if bj != t:
            col_swap(bj, t)
        if rows[t][t] < 0:
            row_negate(t)

        while True:
            dirty = False
            # clear column t; a nonzero floor remainder is a smaller pivot
            for i in [i for i, r in rows.items() if i > t and t in r]:
                q = rows[i][t] // rows[t][t]
                if q:
                    row_op(i, t, q)
                if rows.get(i, {}).get(t):
                    row_swap(i, t)
                    dirty = True
            if dirty:
                continue
            # clear row t with column operations
            for j in [j for j in rows.get(t, {}) if j > t]:
                q = rows[t][j] // rows[t][t]
                if q:
                    col_op(j, t, q)
                if rows.get(t, {}).get(j):
                    col_swap(j, t)
                    dirty = True
            if dirty:
                continue
            if not any(i > t and t in r for i, r in rows.items()):
                break

        d = rows[t][t]
        # enforce the divisibility chain: fold an offending row into row t
        # and redo this pivot (strictly decreases |pivot|, so it terminates)
        offender = None
        for i, row in rows.items():
            if i <= t:
                continue
            for j, val in row.items():
                if j > t and val % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)   # A_t += A_offender
            continue
        diag.append(d)
        t += 1

    return SmithForm(diag, len(diag), U)
