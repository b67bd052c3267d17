"""Test-side oracles for what the package guarantees by construction.

``CentralExtensionModel`` assembles its total as base bracket (+) kappa, so
the projection is a homomorphism and the kernel is central without a check;
these functions check both on the finished table, independently of how it
was assembled.  ``reference_smith_normal_form`` is the plain-scan Smith
reduction that the indexed one in the package must reproduce exactly.
"""

from stlhom.domains import Z
from stlhom.linalg import SmithForm, vec_axpy


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
