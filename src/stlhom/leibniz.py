"""(Left) Leibniz algebras with exact structure constants, their low-degree
homology, and universal central extensions.

Conventions.  The bracket satisfies the (left) identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

and the chain differentials on tensor powers are

    d2(x (x) y)       = -[x, y]
    d3(x (x) y (x) z) = -[x, y] (x) z + [x, z] (x) y + x (x) [y, z]

so HL_n = ker d_n / im d_(n+1) with d_1 = 0.

Carriers may have per-coordinate torsion ``moduli`` (0 = free coordinate);
equality of elements and the Leibniz identity are then read modulo those.
Chain-complex computations (boundary, homology_hl, uce) require a free
carrier.
"""

from __future__ import annotations

from .assoc import AssocAlgebra
from .domains import ScalarDomain
from .linalg import (ExactMatrix, SpanSolver, SubspaceBasis, field_invariants,
                     make_echelon, moduli_invariants, present_quotient,
                     subquotient, vec_axpy)


class LeibnizAlgebra:
    """A Leibniz algebra on dom^dim (possibly with torsion coordinates).

    ``certified`` is set once the table is known to satisfy the Leibniz
    identity: by ``make_leibniz``, by the ``gl``/``sl`` builders, by a
    ``CentralExtensionModel``, or by a clean d2 . d3 = 0 stream.  A table
    wrapped directly starts uncertified.
    """

    __slots__ = ("dom", "dim", "labels", "table", "moduli", "name",
                 "certified")

    def __init__(self, dom: ScalarDomain, dim: int, table: dict,
                 labels: list[str], moduli: list[int], name: str):
        self.dom = dom
        self.dim = dim
        self.table = table          # (i, j) -> sparse bracket vector
        self.labels = labels
        self.moduli = moduli
        self.name = name
        self.certified = False

    def __repr__(self):
        return f"LeibnizAlgebra({self.name}, dim={self.dim}, dom={self.dom.name})"

    def is_free_carrier(self) -> bool:
        return not any(self.moduli)

    def reduce_vec(self, v: dict) -> dict:
        """Canonicalize modulo the coordinate moduli, dropping zeros."""
        if not any(self.moduli):
            return v
        out = {}
        moduli = self.moduli
        for k, x in v.items():
            m = moduli[k]
            if m:
                x %= m
            if x:
                out[k] = x
        return out

    def basis_bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def bracket(self, u: dict, v: dict) -> dict:
        dom = self.dom
        out: dict[int, object] = {}
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                w = table.get((i, j))
                if w:
                    vec_axpy(out, w, dom.mul(a, b), dom)
        return self.reduce_vec(out)

    def eq_vec(self, u: dict, v: dict) -> bool:
        if u == v:
            return True
        dom = self.dom
        diff = dict(u)
        vec_axpy(diff, v, dom.neg(dom.one), dom)
        return not self.reduce_vec(diff)

    def describe_element(self, v: dict) -> str:
        if not v:
            return "0"
        parts = []
        for k in sorted(v):
            c = v[k]
            lbl = self.labels[k]
            parts.append(lbl if c == self.dom.one else f"{c}*{lbl}")
        return " + ".join(parts)


class LeibnizIdentityError(ValueError):
    """The alleged bracket table violates the Leibniz identity."""

    def __init__(self, message, triple):
        super().__init__(message)
        self.triple = triple


def make_leibniz(dom: ScalarDomain, dim: int, table: dict,
                 labels: list[str] | None = None,
                 moduli: list[int] | None = None,
                 name: str = "leibniz") -> LeibnizAlgebra:
    """Validate a bracket table and wrap it as a ``LeibnizAlgebra``.

    The Leibniz identity is checked on every basis triple (modulo the
    carrier moduli); the first violation raises ``LeibnizIdentityError``
    with the witness triple.
    """
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    if len(labels) != dim:
        raise ValueError("label count does not match dimension")
    if moduli is None:
        moduli = [0] * dim
    if len(moduli) != dim:
        raise ValueError("moduli length does not match dimension")

    clean: dict = {}
    for (i, j), vec in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket index ({i},{j}) out of range")
        v = {}
        for k, c in vec.items():
            if not 0 <= k < dim:
                raise ValueError(f"bracket value index {k} out of range at "
                                 f"({i},{j})")
            c = dom.normalize(c)
            if c:
                v[k] = c
        if v:
            clean[(i, j)] = v

    alg = LeibnizAlgebra(dom, dim, clean, labels, moduli, name)
    _check_leibniz_identity(alg)
    alg.certified = True
    return alg


def _check_leibniz_identity(alg: LeibnizAlgebra) -> None:
    """Exhaustive check of [x,[y,z]] = [[x,y],z] - [[x,z],y] on basis
    triples."""
    _check_identity(alg, alg.dim, alg.table, alg.table,
                    "Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y]")


def _check_identity(alg: LeibnizAlgebra, dim: int, inner: dict,
                    outer: dict, what: str) -> None:
    """Raise ``LeibnizIdentityError`` at the first triple of basis vectors
    (x, y, z) = (e_i, e_j, e_k), i, j, k < dim, where

        o(x, [y, z]) - o([x, y], z) + o([x, z], y)

    is nonzero modulo the moduli of ``alg``.  [,] is the ``inner`` table
    and o the ``outer`` one, both (i, j) -> sparse vector.  With both equal
    to alg.table this is the Leibniz identity; with the base bracket inside
    and kappa outside it is the cocycle condition on kappa.

    For fixed (y, z), every term vanishes unless [x, y] or [x, z] is nonzero
    or o(x, .) is nonzero on the support of [y, z]; only those candidate x
    are visited.
    """
    if not outer:
        return
    dom = alg.dom
    signs = (dom.neg(dom.one), dom.one)
    byfirst: dict[int, dict[int, dict]] = {}
    bysecond: dict[int, set[int]] = {}
    for (i, j), w in inner.items():
        byfirst.setdefault(i, {})[j] = w
        bysecond.setdefault(j, set()).add(i)
    outer_bysecond: dict[int, set[int]] = {}
    for (i, j) in outer:
        outer_bysecond.setdefault(j, set()).add(i)
    empty_row: dict[int, dict] = {}
    empty_set: set[int] = set()

    for j in range(dim):
        row_j = byfirst.get(j, empty_row)
        for k in range(dim):
            w = row_j.get(k)
            cand = bysecond.get(j, empty_set) | bysecond.get(k, empty_set)
            if w:
                for t in w:
                    cand.update(outer_bysecond.get(t, empty_set))
            for i in cand:
                acc: dict = {}
                if w:
                    for t, c in w.items():
                        v = outer.get((i, t))
                        if v:
                            vec_axpy(acc, v, c, dom)
                row_i = byfirst.get(i, empty_row)
                for y, z, sign in zip((j, k), (k, j), signs):
                    b = row_i.get(y)
                    if b:
                        for t, c in b.items():
                            v = outer.get((t, z))
                            if v:
                                vec_axpy(acc, v, dom.mul(sign, c), dom)
                acc = alg.reduce_vec(acc)
                if acc:
                    lab = alg.labels
                    raise LeibnizIdentityError(
                        f"{what} fails at ({lab[i]}, {lab[j]}, {lab[k]}): "
                        f"the defect is {alg.describe_element(acc)}",
                        (i, j, k))


# ---------------------------------------------------------------------------
# matrix algebras gl_n(R) and sl_n(R)


class GlAlgebra(LeibnizAlgebra):
    """gl_n(R) on the basis E_ij(r_l), flat index (i*n + j)*dimR + l."""

    __slots__ = ("n", "ring")

    def eij_index(self, i: int, j: int, lam: int) -> int:
        return (i * self.n + j) * self.ring.dim + lam

    def eij(self, i: int, j: int, a: dict) -> dict:
        """E_ij(a) for a ring element a in coordinates."""
        base = (i * self.n + j) * self.ring.dim
        return {base + lam: c for lam, c in a.items()}


def build_gl(n: int, ring: AssocAlgebra) -> GlAlgebra:
    """The Leibniz (indeed Lie) algebra gl_n(R) via

    [E_ij(a), E_kl(b)] = delta_jk E_il(ab) - delta_li E_kj(ba).

    The table is certified without a check: it is the commutator bracket of
    the associative algebra M_n(R), whose associativity ``make_algebra``
    checked on R.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dom = ring.dom
    dr = ring.dim
    dim = n * n * dr

    def flat(i, j, lam):
        return (i * n + j) * dr + lam

    table: dict = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j != k and l != i:
                        continue
                    for lam in range(dr):
                        for mu in range(dr):
                            out: dict[int, object] = {}
                            if j == k:
                                for t, c in ring.basis_product(lam, mu).items():
                                    out[flat(i, l, t)] = c
                            if l == i:
                                for t, c in ring.basis_product(mu, lam).items():
                                    key = flat(k, j, t)
                                    cur = dom.sub(out.get(key, dom.zero), c)
                                    if cur:
                                        out[key] = cur
                                    else:
                                        out.pop(key, None)
                            if out:
                                table[(flat(i, j, lam), flat(k, l, mu))] = out

    labels = [f"E{i+1}{j+1}({ring.labels[lam]})"
              for i in range(n) for j in range(n) for lam in range(dr)]
    alg = GlAlgebra(dom, dim, table, labels, [0] * dim, f"gl{n}({ring.name})")
    alg.n = n
    alg.ring = ring
    alg.certified = True
    return alg


class SlAlgebra(LeibnizAlgebra):
    """sl_n(R) = [gl, gl] in its own coordinates, with gl translation."""

    __slots__ = ("n", "ring", "gl", "basis", "_solver")

    def to_gl(self, v: dict) -> dict:
        out: dict[int, object] = {}
        for t, c in v.items():
            vec_axpy(out, self.basis[t], c, self.dom)
        return out

    def from_gl(self, glvec: dict) -> dict:
        coeffs = self._solver.solve(glvec)
        if coeffs is None:
            raise ValueError("vector does not lie in sl_n(R)")
        return coeffs

    def eij(self, i: int, j: int, a: dict) -> dict:
        """E_ij(a) in sl coordinates (off-diagonal: i != j)."""
        if i == j:
            raise ValueError("eij is for off-diagonal positions")
        return self.from_gl(self.gl.eij(i, j, a))


def build_sl(n: int, ring: AssocAlgebra) -> SlAlgebra:
    """sl_n(R) = span of all gl brackets, with its induced bracket.

    dim = (n^2 - 1) dim R + dim[R, R]; checked.
    """
    gl = build_gl(n, ring)
    dom = gl.dom
    span = SubspaceBasis(dom, gl.dim)
    for w in gl.table.values():
        span.add(w)
    basis = span.vectors()
    dim = len(basis)
    expected = (n * n - 1) * ring.dim + commutator_rank(ring)
    if dim != expected:
        raise AssertionError(
            f"dim sl{n}({ring.name}) = {dim}, expected {expected}")

    solver = SpanSolver(dom, gl.dim, basis)
    table: dict = {}
    for s in range(dim):
        for t in range(dim):
            w = gl.bracket(basis[s], basis[t])
            if not w:
                continue
            coeffs = solver.solve(w)
            if coeffs is None:
                raise AssertionError("sl bracket left the span")
            if coeffs:
                table[(s, t)] = coeffs

    labels = []
    for b in basis:
        lead = min(b)
        labels.append(f"<{gl.labels[lead]}>")
    # certified without a check: sl is a bracket-closed subspace of the
    # certified gl, and each table entry is a solver-certified coordinate
    # vector of a gl bracket
    alg = SlAlgebra(dom, dim, table, labels, [0] * dim, f"sl{n}({ring.name})")
    alg.certified = True
    alg.n = n
    alg.ring = ring
    alg.gl = gl
    alg.basis = basis
    alg._solver = solver
    return alg


def commutator_rank(ring: AssocAlgebra) -> int:
    from .assoc import commutator_span
    return commutator_span(ring).rank


# ---------------------------------------------------------------------------
# boundaries and homology


def _require_free(L: LeibnizAlgebra, what: str) -> None:
    if not L.is_free_carrier():
        raise ValueError(f"{what} needs a free carrier, but {L.name} has "
                         f"torsion moduli")


def iter_d3_columns(L: LeibnizAlgebra):
    """Yield (flat column index, sparse column) of d3 over the basis cube.

    Columns are produced in lexicographic (i, j, k) order; zero columns are
    skipped.  d3(e_i (x) e_j (x) e_k) =
    -[e_i,e_j] (x) e_k + [e_i,e_k] (x) e_j + e_i (x) [e_j,e_k].
    """
    dim = L.dim
    dom = L.dom
    zero, add, neg = dom.zero, dom.add, dom.neg
    byfirst: dict[int, dict[int, dict]] = {}
    for (i, j), w in L.table.items():
        byfirst.setdefault(i, {})[j] = w
    empty: dict[int, dict] = {}
    for i in range(dim):
        row_i = byfirst.get(i, empty)
        idim = i * dim
        for j in range(dim):
            bij = row_i.get(j)
            row_j = byfirst.get(j, empty)
            base = (idim + j) * dim
            for k in range(dim):
                bik = row_i.get(k)
                bjk = row_j.get(k)
                if not (bij or bik or bjk):
                    continue
                col: dict[int, object] = {}
                if bij:
                    for t, c in bij.items():
                        col[t * dim + k] = neg(c)
                if bik:
                    for t, c in bik.items():
                        key = t * dim + j
                        cur = add(col.get(key, zero), c)
                        if cur:
                            col[key] = cur
                        else:
                            col.pop(key, None)
                if bjk:
                    for t, c in bjk.items():
                        key = idim + t
                        cur = add(col.get(key, zero), c)
                        if cur:
                            col[key] = cur
                        else:
                            col.pop(key, None)
                if col:
                    yield base + k, col


def _column_applier(mat: ExactMatrix):
    """A fast sparse 'multiply by mat' keyed on the vector's support."""
    cols = mat.columns()
    dom = mat.dom

    def apply(vec: dict) -> dict:
        out: dict[int, object] = {}
        for j, x in vec.items():
            col = cols.get(j)
            if col:
                vec_axpy(out, col, x, dom)
        return out

    return apply


def _d3_image(L: LeibnizAlgebra, d2: ExactMatrix):
    """Stream the d3 columns of L into an echelon of im(d3).

    On a basis triple d2 . d3 = 0 is the Leibniz identity, so an uncertified
    table gets that check column by column, and a clean pass certifies it;
    a certified table is streamed unchecked.
    """
    dom = L.dom
    img = make_echelon(dom)
    if L.certified:
        for _col, vec in iter_d3_columns(L):
            img.insert(vec)
        return img
    apply_d2 = _column_applier(d2)
    for col, vec in iter_d3_columns(L):
        if apply_d2(vec):
            raise AssertionError(
                f"d2 . d3 != 0 at column {col}: {L.name} violates the "
                f"Leibniz identity")
        img.insert(vec)
    L.certified = True
    return img


def boundary(L: LeibnizAlgebra, n: int) -> ExactMatrix:
    """The chain differential d_2 as an ExactMatrix; d_3 is only streamed
    (``iter_d3_columns``)."""
    _require_free(L, "boundary")
    if n != 2:
        raise ValueError("boundary implemented for n = 2")
    dim = L.dim
    rows: dict[int, dict] = {}
    for (i, j), w in L.table.items():
        col = i * dim + j
        for k, c in w.items():
            rows.setdefault(k, {})[col] = L.dom.neg(c)
    return ExactMatrix(L.dom, dim, dim * dim, rows)


class HomologyReport:
    """Outcome of one homology computation."""

    __slots__ = ("algebra_name", "degree", "invariants", "dim_chain",
                 "rank_out", "rank_in", "square_zero_checked")

    def __init__(self, algebra_name, degree, invariants, dim_chain,
                 rank_out, rank_in, square_zero_checked):
        self.algebra_name = algebra_name
        self.degree = degree
        self.invariants = invariants
        self.dim_chain = dim_chain
        self.rank_out = rank_out          # rank of d_degree
        self.rank_in = rank_in            # rank of d_(degree+1)
        # d2 . d3 = 0 holds: by certification or by the column check
        self.square_zero_checked = square_zero_checked

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "degree": self.degree,
            "invariants": self.invariants.describe(),
            "dimension": self.invariants.dimension,
            "invariant_factors": self.invariants.invariant_factors,
            "dim_chain": self.dim_chain,
            "rank_out": self.rank_out,
            "rank_in": self.rank_in,
            "square_zero_checked": self.square_zero_checked,
        }

    def __repr__(self):
        return (f"HomologyReport(HL_{self.degree}({self.algebra_name}) = "
                f"{self.invariants.describe()})")


def homology_hl(L: LeibnizAlgebra, degree: int) -> HomologyReport:
    """HL_degree(L) for degree in {1, 2}, by exact sparse elimination.

    Degree 2 streams the d3 columns straight into an echelon (see
    ``_d3_image``); over a field the homology dimension then needs only the
    two ranks, while over Z the kernel/image subquotient is presented and
    Smith-reduced.
    """
    _require_free(L, "homology")
    dom, dim = L.dom, L.dim
    d2 = boundary(L, 2)

    if degree == 1:
        # d1 = 0: HL_1 = L / im d2
        rank_in = d2.rank()
        if dom.is_field:
            inv = field_invariants(dom, dim - rank_in)
        else:
            units, img = make_echelon(dom), make_echelon(dom)
            for i in range(dim):
                units.insert({i: 1})
            for col in d2.columns().values():
                img.insert(col)
            inv = subquotient(units, img, dim, dom)
        return HomologyReport(L.name, 1, inv, dim, 0, rank_in, True)

    if degree != 2:
        raise ValueError("homology_hl implemented for degrees 1 and 2")

    pair = dim * dim
    rank_d2 = d2.rank()
    img = _d3_image(L, d2)
    rank_d3 = img.rank

    if dom.is_field:
        inv = field_invariants(dom, (pair - rank_d2) - rank_d3)
        return HomologyReport(L.name, 2, inv, pair, rank_d2, rank_d3, True)

    kern = make_echelon(dom)
    for v in d2.kernel_basis():
        kern.insert(v)
    inv = subquotient(kern, img, pair, dom)
    return HomologyReport(L.name, 2, inv, pair, rank_d2, rank_d3, True)


# ---------------------------------------------------------------------------
# structural facts


class StructuralReport:
    __slots__ = ("algebra_name", "dim", "is_perfect", "center_rank",
                 "center_basis", "abelianization_dim")

    def __init__(self, algebra_name, dim, is_perfect, center_rank,
                 center_basis, abelianization_dim):
        self.algebra_name = algebra_name
        self.dim = dim
        self.is_perfect = is_perfect
        self.center_rank = center_rank
        self.center_basis = center_basis
        self.abelianization_dim = abelianization_dim

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "dim": self.dim,
            "is_perfect": self.is_perfect,
            "center_rank": self.center_rank,
            "abelianization_dim": self.abelianization_dim,
        }


def is_central(L: LeibnizAlgebra, v: dict) -> bool:
    """Does v bracket to zero (mod moduli) with every basis vector?"""
    one = L.dom.one
    for j in range(L.dim):
        ej = {j: one}
        if L.bracket(v, ej) or L.bracket(ej, v):
            return False
    return True


def bracket_span(L: LeibnizAlgebra) -> SubspaceBasis:
    """Span of [L, L] plus the moduli relations of a torsion carrier."""
    span = SubspaceBasis(L.dom, L.dim)
    for w in L.table.values():
        span.add(w)
    if not L.dom.is_field:
        for c, m in enumerate(L.moduli):
            if m:
                span.add({c: m})
    return span


def _spans_everything(span: SubspaceBasis) -> bool:
    """Is span all of dom^width?  Over Z it must be unimodular, not just
    of full rank."""
    if span.rank != span.width:
        return False
    if span.dom.is_field:
        return True
    rows = span.engine.rows
    return all(rows[p][p] == 1 for p in rows)


def is_perfect(L: LeibnizAlgebra) -> bool:
    """Does [L, L] = L?"""
    return _spans_everything(bracket_span(L))


def structural_report(L: LeibnizAlgebra) -> StructuralReport:
    """Perfectness, two-sided center, and abelianization size.

    Over a torsion carrier 'perfect' means the brackets plus the moduli
    relations generate every coordinate, and centrality is read modulo the
    moduli (slack variables absorb multiples of each modulus).
    """
    dom, dim = L.dom, L.dim

    span = bracket_span(L)
    perfect = _spans_everything(span)
    abel = dim - span.rank

    # center: [x, e_j] = 0 = [e_j, x] for all j, modulo moduli
    ncond = 2 * dim * dim
    slack: list[tuple[int, int]] = []   # (condition row, modulus)
    rows_m: dict[int, dict] = {}
    for i in range(dim):
        for j in range(dim):
            w = L.basis_bracket(i, j)
            for k, c in w.items():
                rows_m.setdefault(j * dim + k, {})[i] = c
            for k, c in L.basis_bracket(j, i).items():
                rows_m.setdefault(dim * dim + j * dim + k, {})[i] = c
    ncols = dim
    if not dom.is_field and any(L.moduli):
        for j in range(dim):
            for k, m in enumerate(L.moduli):
                if m:
                    rows_m.setdefault(j * dim + k, {})[ncols] = m
                    ncols += 1
                    rows_m.setdefault(dim * dim + j * dim + k, {})[ncols] = m
                    ncols += 1
    mat = ExactMatrix(dom, ncond, ncols, rows_m)
    center = SubspaceBasis(dom, dim)
    basis_out = []
    for v in mat.kernel_basis():
        x = L.reduce_vec({k: c for k, c in v.items() if k < dim})
        if x and center.add(x):
            basis_out.append(x)
    for x in basis_out:
        if not is_central(L, x):
            raise AssertionError("center solve produced a non-central vector")
    return StructuralReport(L.name, dim, perfect, center.rank, basis_out, abel)


# ---------------------------------------------------------------------------
# central extensions


class CentralExtensionModel:
    """A central extension total -> base: the total is base (+) K, K in the
    top coordinates, with bracket [x, y] = ([x, y], kappa(x, y)).

    ``kappa`` maps a pair (s, t) of base indices to the kernel part of
    [e_s, e_t], a sparse vector over K, so the projection is a homomorphism
    and K is central by construction.  Over a certified base the total is a
    Leibniz algebra exactly when kappa satisfies the cocycle condition
    kappa(x,[y,z]) - kappa([x,y],z) + kappa([x,z],y) = 0 on base triples
    (modulo the kernel moduli); the constructor checks it and raises
    ``LeibnizIdentityError`` with the witness triple.  ``kernel_invariants``
    are read off the kernel moduli.  The universal model also maps tensor
    classes to coordinates (``tensor_coords``).
    """

    __slots__ = ("total", "base", "kernel_invariants", "tensor_coords",
                 "kernel_moduli")

    def __init__(self, base: LeibnizAlgebra, kernel_moduli: list[int],
                 kappa: dict, name: str, kernel_labels: list[str],
                 tensor_coords=None):
        if not base.certified:
            raise ValueError(f"the base {base.name} of a central extension "
                             f"must be a certified Leibniz algebra")
        bd = base.dim
        shifted = {p: {bd + k: c for k, c in w.items()}
                   for p, w in kappa.items()}
        table = dict(base.table)
        for p, w in shifted.items():
            table[p] = {**table.get(p, {}), **w}
        self.total = LeibnizAlgebra(
            base.dom, bd + len(kernel_moduli), table,
            list(base.labels) + list(kernel_labels),
            list(base.moduli) + list(kernel_moduli), name)
        self.base = base
        self.kernel_invariants = moduli_invariants(base.dom, kernel_moduli)
        self.tensor_coords = tensor_coords
        self.kernel_moduli = kernel_moduli
        _check_identity(self.total, bd, base.table, shifted,
                        "cocycle condition kappa(x,[y,z]) = kappa([x,y],z) "
                        "- kappa([x,z],y)")
        self.total.certified = True

    def project(self, v: dict) -> dict:
        bd = self.base.dim
        return {k: c for k, c in v.items() if k < bd}

    def kernel_part(self, v: dict) -> dict:
        bd = self.base.dim
        return {k - bd: c for k, c in v.items() if k >= bd}

    def check_homomorphism_on_basis(self) -> None:
        for (s, t), w in self.total.table.items():
            ps = self.project({s: self.total.dom.one})
            pt = self.project({t: self.total.dom.one})
            if not self.base.eq_vec(self.project(w), self.base.bracket(ps, pt)):
                raise AssertionError(
                    f"projection is not a homomorphism at ({s},{t})")

    def check_kernel_central(self) -> None:
        bd = self.base.dim
        for (s, t), w in self.total.table.items():
            if (s >= bd or t >= bd) and w:
                raise AssertionError(
                    f"kernel coordinate brackets nontrivially at ({s},{t})")


def uce(L: LeibnizAlgebra) -> CentralExtensionModel:
    """The universal central extension of a perfect Leibniz algebra.

    Model: (L (x) L)/im(d3) with bracket [u, v] = class(pi(u) (x) pi(v)),
    pi = -d2.  Coordinates are adapted: the first dim(L) coordinates are
    pi(v), so the projection is literally [I | 0]; the rest present the
    kernel ker(d2)/im(d3) = HL_2(L).  With chosen preimages w_s, pi(w_s) =
    e_s, L (x) L = ker(d2) (+) span(w_s), so that kernel is
    (L (x) L)/(im d3 + span w_s): one presentation on every domain, read
    off the d3 echelon with the w_s inserted (``present_quotient``).
    """
    _require_free(L, "uce")
    dom, dim = L.dom, L.dim
    one = dom.one
    pair = dim * dim
    d2 = boundary(L, 2)
    apply_d2 = _column_applier(d2)

    # choose preimages w_s with pi(w_s) = e_s, streaming d2 columns until
    # they span (unimodularly, over Z)
    head = SubspaceBasis(dom, dim)
    colsolver = SpanSolver(dom, dim)
    colindex: list[int] = []
    cols = d2.columns()
    for col in sorted(cols):
        vec = cols[col]
        colsolver.add(vec)
        colindex.append(col)
        head.add(vec)
        if _spans_everything(head):
            break
    else:
        raise ValueError(f"{L.name} is not perfect; uce undefined")

    neg_one = dom.neg(one)
    preimages: list[dict] = []
    for s in range(dim):
        coeffs = colsolver.solve({s: neg_one})   # d2 w_s = -e_s
        if coeffs is None:
            raise AssertionError(
                f"{L.labels[s]} has no preimage under the spanning d2 columns")
        w = {colindex[t]: c for t, c in coeffs.items()}
        preimages.append(w)

    # d2 w_s = -e_s, so L (x) L = ker(d2) (+) span(w_s) and, as im(d3) lies
    # in ker(d2), (L (x) L)/(im d3 + span w_s) presents ker(d2)/im(d3)
    rel = _d3_image(L, d2)
    for s, w in enumerate(preimages):
        if rel.insert(w) is None:
            raise AssertionError(
                f"the preimage of {L.labels[s]} adds no pivot to im(d3)")
    pres = present_quotient(rel, pair, dom)

    def tensor_coords(v: dict) -> dict:
        """Coordinates of the class of a tensor v in the adapted basis."""
        out = {s: dom.neg(c) for s, c in apply_d2(v).items()}  # pi = -d2
        for i, c in pres.coords(v).items():
            out[dim + i] = c
        return out

    # the kernel part of each base-pair bracket in the adapted basis
    kappa: dict = {}
    for s in range(dim):
        for t in range(dim):
            kern = pres.coords({s * dim + t: one})
            if kern:
                kappa[(s, t)] = kern
    return CentralExtensionModel(
        L, pres.moduli, kappa, f"uce({L.name})",
        [f"z{i}" for i in range(pres.dim)],
        tensor_coords=tensor_coords)
