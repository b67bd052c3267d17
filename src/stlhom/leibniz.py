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
Chain-complex computations (homology_hl, uce) require a free carrier.

Torus grading.  Each algebra carries one ``Grading``: an integer weight
code per basis vector, under the fixed linear code sum_k w_k 7^k of a weight
w in Z^n; all-zero codes are the trivial grading (every weight is 0).
``build_sl`` grades sl_n(R) by the torus: E_ij(r) has weight e_i - e_j and
the diagonal weight 0.  It checks, on the actual table, that every basis
vector is homogeneous, that [e_s, e_t] has weight wt(s) + wt(t), and that
each h_ij = [E_ij(1), E_ji(1)] acts by [x, h_ij] = -(a_i - a_j) x on every
basis vector x of weight a.  Then HL_2 in weight mu is killed by every
mu_i - mu_j: for a 2-cycle c = sum x (x) z of weight mu (sum [x, z] = 0),

    sum([x, h] (x) z + x (x) [z, h]) = d3(c (x) h) + sum [x, z] (x) h
                                     = d3(c (x) h),

and the left side is -(mu_i - mu_j) c.  A weight mu is *special* when
g = gcd(mu_i - mu_j) is not a unit of the domain (F_p: p | g; Q: g = 0;
Z: g != 1); HL_2 lives in the special weights only.  ``Grading.special``
applies this rule only on the grading of sl, whose h-action was checked.
The total of a ``CentralExtensionModel`` carries the codes its support
check certifies but claims no h-action: a homogeneous coboundary may put
a central kernel coordinate at a root weight, where h would have to act
by a nonzero scalar.  On a total, as under the trivial grading, every
code is special.

Weight blocks.  d2 and d3 preserve the total weight, so L (x) L and the d3
cube split into blocks, one per weight code mu, and ``iter_d3_columns`` walks
the cube block by block.  On a certified table im(d3)_mu lies in
ker(d2)_mu.  So once the columns streamed so far span ker(d2)_mu, every
later column of the block lies in their span, and skipping the rest of the
block leaves the echelon's span as the whole block would.  Over a field
"span" means equal rank; over Z the image must also have index 1 in the
kernel (``_d3_image``).  Only exactness is used, not the special-weight
rule; under the trivial grading the cube is one block.  Where [z, y] =
-[y, z], as on every pair of sl, the later of the twins (x, y, z) and
(x, z, y) is walked neither in a block nor by ``_check_identity``.
"""

from __future__ import annotations

from math import gcd

from .assoc import AssocAlgebra, commutator_span
from .domains import ScalarDomain
from .linalg import (SpanSolver, SubquotientInvariants, SubspaceBasis,
                     describe_vector, make_echelon, moduli_invariants,
                     present_quotient, subquotient, vec_axpy)


class Grading:
    """A grading of a basis: one integer weight code per basis vector,
    bucketed by code.

    A weight w in Z^n has the code sum_k w_k 7^k.  The code is linear, so
    the code of a sum of weights is the sum of their codes, and a table
    homogeneous in the weights is homogeneous in the codes.  Weights whose
    entries lie in [-3, 3], as every sum of up to three weights of sl_n
    does, have distinct codes and decode exactly (``weight``).  Elsewhere
    two weights may share a code, which only merges their blocks: the code
    is itself a grading.

    ``torus`` is (n, dom) on the grading of sl_n(R) that ``build_sl``
    checked, or on its shape (``_sl_codes``) in the size guard, and None
    elsewhere; ``special`` is selective only with it.
    """

    __slots__ = ("code", "buckets", "torus", "_special")

    def __init__(self, code: list[int], torus: tuple | None = None):
        self.code = code
        self.torus = torus
        self._special: dict[int, bool] = {}
        self.buckets: dict[int, list[int]] = {}   # code -> basis, ascending
        for s, c in enumerate(code):
            self.buckets.setdefault(c, []).append(s)

    def totals(self) -> list[int]:
        """The codes of the blocks: the weights of basis triples, ascending."""
        codes = list(self.buckets)
        sums = {a + b for a in codes for b in codes}
        return sorted({s + c for s in sums for c in codes})

    def pairs(self, mu: int) -> int:
        """The number of basis pairs (s, t) of weight mu."""
        get = self.buckets.get
        return sum(len(bucket) * len(get(mu - a, ()))
                   for a, bucket in self.buckets.items())

    def size(self, mu: int) -> int:
        """The number of basis vectors of weight mu."""
        return len(self.buckets.get(mu, ()))

    def weight(self, mu: int) -> tuple:
        """The torus weight in Z^n of code mu, entries in [-3, 3]."""
        out = []
        for _ in range(self.torus[0]):
            r = (mu + 3) % 7 - 3
            out.append(r)
            mu = (mu - r) // 7
        return tuple(out)

    def special(self, mu: int) -> bool:
        """Can HL_2 live in weight code mu (``special_weight``)?  True for
        every code of a grading without a torus."""
        if self.torus is None:
            return True
        ok = self._special.get(mu)
        if ok is None:
            ok = self._special[mu] = special_weight(self.torus[1],
                                                    self.weight(mu))
        return ok


def _root_code(i: int, j: int) -> int:
    """The code of the torus weight e_i - e_j (0 when i = j)."""
    return 7 ** i - 7 ** j


def _sl_codes(n: int, ring: AssocAlgebra) -> list[int]:
    """The weight codes of sl_n(R) from the ring alone, ascending: dim R
    basis vectors of each root weight e_i - e_j and (n - 1) dim R +
    rank [R, R] of weight 0 (the shape ``build_sl`` checks)."""
    codes = [_root_code(i, j) for i in range(n) for j in range(n) if i != j
             for _ in range(ring.dim)]
    codes += [0] * ((n - 1) * ring.dim + commutator_span(ring).rank)
    return sorted(codes)


class LeibnizAlgebra:
    """A Leibniz algebra on dom^dim (possibly with torsion coordinates).

    ``certified`` is set once the table is known to satisfy the Leibniz
    identity: by ``make_leibniz``, by the ``gl``/``sl`` builders or by a
    ``CentralExtensionModel``.  A table wrapped directly starts uncertified,
    and a d3 stream checks the identity on it first (``_d3_image``).

    ``grading`` is its one ``Grading`` (module docstring), under which its
    table is homogeneous: the trivial one unless ``build_sl`` or a
    ``CentralExtensionModel`` gives another.

    ``torsion`` (some modulus is nonzero) is decided once, here; nothing
    reassigns or mutates ``moduli`` after construction.
    """

    __slots__ = ("dom", "dim", "labels", "table", "moduli", "torsion",
                 "name", "certified", "grading")

    def __init__(self, dom: ScalarDomain, dim: int, table: dict,
                 labels: list[str], moduli: list[int], name: str,
                 grading: Grading | None = None):
        self.dom = dom
        self.dim = dim
        self.table = table          # (i, j) -> sparse bracket vector
        self.labels = labels
        self.moduli = moduli
        self.torsion = any(moduli)
        self.name = name
        self.certified = False
        self.grading = grading or Grading([0] * dim)

    def __repr__(self):
        return f"LeibnizAlgebra({self.name}, dim={self.dim}, dom={self.dom.name})"

    def reduce_vec(self, v: dict) -> dict:
        """Canonicalize modulo the coordinate moduli, dropping zeros."""
        if not self.torsion:
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


class LeibnizIdentityError(ValueError):
    """The alleged bracket table violates the Leibniz identity: ``triple``
    is the witness (x, y, z) and ``defect`` its sparse nonzero value."""

    def __init__(self, message, triple, defect):
        super().__init__(message)
        self.triple = triple
        self.defect = defect


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


def _asymmetric_pairs(table: dict, dom: ScalarDomain) -> set:
    """The pairs (s, t), in both orders, with [e_t, e_s] != -[e_s, e_t]
    exactly in ``table``; empty on a Lie table.  The walkers skip a twin
    on every other pair (``_check_identity``, ``iter_d3_columns``)."""
    neg = dom.neg
    out = set()
    for (s, t), w in table.items():
        if t < s and (t, s) in table:
            continue    # compared from (t, s)
        v = table.get((t, s))
        if v is None or v != {k: neg(c) for k, c in w.items()}:
            out.add((s, t))
            out.add((t, s))
    return out


def _check_identity(alg: LeibnizAlgebra, dim: int, inner: dict,
                    outer: dict, what: str) -> None:
    """Raise ``LeibnizIdentityError`` at the first triple of basis vectors
    (x, y, z) = (e_i, e_j, e_k), i, j, k < dim, where

        o(x, [y, z]) - o([x, y], z) + o([x, z], y)

    is nonzero modulo the moduli of ``alg``; the error carries the triple
    and this ``defect``.  [,] is the ``inner`` table and o the ``outer``
    one, both (i, j) -> sparse vector.  ``alg`` only supplies the domain,
    labels, moduli and grading.  With both tables equal to alg.table this is
    the Leibniz identity (``make_leibniz``, uncertified d3 streams); with the
    base bracket inside and kappa outside it is the cocycle condition on
    kappa (``CentralExtensionModel``); ``verify_cocycle`` puts the X-parts
    of the symbolic brackets inside and psi outside.

    For fixed (y, z), every term vanishes unless [x, y] or [x, z] is nonzero
    or o(x, .) is nonzero on the support of [y, z]; only those candidate x
    are visited.  ``alg.grading`` filters them further: its codes make
    both tables homogeneous (each entry (i, j) meets only coordinates of
    code code[i] + code[j]; ``_homogeneous_codes`` checks it, and an
    algebra carries no grading its table fails).  Every term of (x, y, z)
    then lies in coordinates of code code[x] + code[y] + code[z], so only
    the candidates for which some coordinate of an outer value has that
    code are visited; under the trivial grading that is every candidate.
    The candidates are visited in ascending order, and a triple that is not
    visited vanishes term by term or lies at a weight no coordinate of an
    outer value has, so the triple raised is the first failing one in
    (y, z, x) order.  A pair y > z that is antisymmetric inside
    (``_asymmetric_pairs``) is skipped: J(x, y, z) + J(x, z, y) =
    o(x, [y, z] + [z, y]) = 0, so (x, y, z) fails exactly when its earlier
    twin (x, z, y) does.
    """
    if not outer:
        return
    code = alg.grading.code
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
    empty_set: set[int] = set()
    empty_row: dict[int, dict] = {}
    asym = _asymmetric_pairs(inner, dom)
    # the codes of the outer values, and the codes code[y] + code[z] that
    # some x completes to one of them
    totals = {code[t] for v in outer.values() for t in v}
    reachable = {mu - c for mu in totals for c in set(code[:dim])}

    for j in range(dim):
        row_j = byfirst.get(j, empty_row)
        for k in range(dim):
            if k < j and (j, k) not in asym:
                continue
            rest = code[j] + code[k]
            if rest not in reachable:
                continue
            w = row_j.get(k)
            cand = bysecond.get(j, empty_set) | bysecond.get(k, empty_set)
            if w:
                for t in w:
                    cand.update(outer_bysecond.get(t, empty_set))
            cand = [i for i in cand if code[i] + rest in totals]
            for i in sorted(cand):
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
                if acc:
                    acc = alg.reduce_vec(acc)
                if acc:
                    lab = alg.labels
                    raise LeibnizIdentityError(
                        f"{what} fails at ({lab[i]}, {lab[j]}, {lab[k]}): "
                        f"the defect is {describe_vector(acc, lab)}",
                        (i, j, k), acc)


# ---------------------------------------------------------------------------
# matrix algebras gl_n(R) and sl_n(R)


class GlAlgebra(LeibnizAlgebra):
    """gl_n(R) on the basis E_ij(r_l), flat index (i*n + j)*dimR + l."""

    __slots__ = ("n", "ring")

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

    Its weight shape, ``_sl_codes``, is checked per weight.

    Only [e_s, e_t], s < t, is solved: the gl commutator is alternating and
    sl coordinates are unique, so (t, s) is stored as the negative of (s, t)
    (keys in ascending order) and [e_s, e_s] = 0.
    """
    gl = build_gl(n, ring)
    dom = gl.dom
    span = SubspaceBasis(dom, gl.dim)
    for w in gl.table.values():
        span.add(w)
    basis = span.vectors()
    dim = len(basis)
    grading = Grading([_gl_code(gl, min(b)) for b in basis], (n, dom))
    if sorted(grading.code) != _sl_codes(n, ring):
        raise AssertionError(f"the {dim} basis weights of sl{n}({ring.name}) "
                             f"are not the shape _sl_codes(n, R)")

    solver = SpanSolver(dom, gl.dim, basis)
    table: dict = {}
    for s in range(dim):
        for t in range(s):
            w = table.get((t, s))
            if w:
                table[(s, t)] = {k: dom.neg(c) for k, c in w.items()}
        for t in range(s + 1, dim):
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
    alg = SlAlgebra(dom, dim, table, labels, [0] * dim, f"sl{n}({ring.name})",
                    grading)
    alg.certified = True
    alg.n = n
    alg.ring = ring
    alg.gl = gl
    alg.basis = basis
    alg._solver = solver
    check_torus_grading(alg)
    return alg


def _gl_code(gl: GlAlgebra, index: int) -> int:
    """The weight code of the gl basis vector E_ij(r): that of e_i - e_j."""
    return _root_code(*divmod(index // gl.ring.dim, gl.n))


def check_torus_grading(sl: SlAlgebra) -> None:
    """Check the hypotheses of the special-weight rule on the actual table
    (module docstring): each basis vector of ``sl`` is homogeneous in gl of
    its weight code, each entry [e_s, e_t] has weight wt(s) + wt(t) (the
    support check ``_homogeneous_codes``), and each h_ij = [E_ij(1),
    E_ji(1)], i < j, acts on every basis vector of weight a by
    -(a_i - a_j).  Raises ``AssertionError`` on the first violation.
    """
    gl, grading, dom = sl.gl, sl.grading, sl.dom
    code = grading.code
    for s, b in enumerate(sl.basis):
        for k in b:
            if _gl_code(gl, k) != code[s]:
                raise AssertionError(
                    f"{sl.labels[s]} is not homogeneous of weight code "
                    f"{code[s]}: it meets {gl.labels[k]}")
    if _homogeneous_codes((sl.table,), code, sl.dim) is None:
        raise AssertionError(
            f"a bracket [e_s, e_t] of {sl.name} meets a basis vector not "
            f"of weight wt(s) + wt(t)")
    unit = sl.ring.unit
    weights = [grading.weight(mu) for mu in code]
    for i in range(sl.n):
        for j in range(i + 1, sl.n):
            h = sl.from_gl(gl.bracket(gl.eij(i, j, unit), gl.eij(j, i, unit)))
            for s, a in enumerate(weights):
                c = dom.from_int(a[j] - a[i])
                got = sl.bracket({s: dom.one}, h)
                if got != ({s: c} if c else {}):
                    raise AssertionError(
                        f"h{i+1}{j+1} does not act on {sl.labels[s]} by "
                        f"{c}: the bracket is {describe_vector(got, sl.labels)}")


def special_weight(dom: ScalarDomain, mu: tuple) -> bool:
    """Can HL_2 live in weight mu: is gcd(mu_i - mu_j) not a unit of dom?"""
    g = 0
    for x in mu:
        g = gcd(g, x - mu[0])
    if dom.p is not None:
        return g % dom.p == 0
    return g == 0 if dom.is_field else g != 1


# ---------------------------------------------------------------------------
# boundaries and homology


def _require_free(L: LeibnizAlgebra, what: str) -> None:
    if L.torsion:
        raise ValueError(f"{what} needs a free carrier, but {L.name} has "
                         f"torsion moduli")


def iter_d3_columns(L: LeibnizAlgebra, full=None):
    """Yield (flat column index, sparse column) of d3 over the basis cube,
    one torus-weight block at a time; zero columns are skipped.

    d3(e_i (x) e_j (x) e_k) = -[e_i,e_j] (x) e_k + [e_i,e_k] (x) e_j
    + e_i (x) [e_j,e_k] meets only pairs of the total weight
    mu = wt(i) + wt(j) + wt(k), so the cube splits into blocks by the code
    of mu (``L.grading``), walked in ascending code order.  Inside a block
    the triples come by i, then by the weight bucket of j and j, then by k.
    Under the trivial grading the cube is one block, in lexicographic
    (i, j, k) order.  Nothing is built per triple but the yielded columns.

    A triple (i, j, k) whose twin (i, k, j) came first (k ahead of j by
    weight bucket, then index) is skipped when [e_k, e_j] = -[e_j, e_k]
    (``_asymmetric_pairs``): the twins' columns sum to e_i (x) 0.

    ``full``, a predicate on block codes, lets the consumer end a block: it
    is asked before block mu is walked and again after each of its columns,
    and once it holds the rest of the block is skipped (``_d3_image``).
    """
    dim = L.dim
    dom = L.dom
    zero, add, neg = dom.zero, dom.add, dom.neg
    byfirst: dict[int, dict[int, dict]] = {}
    for (i, j), w in L.table.items():
        byfirst.setdefault(i, {})[j] = w
    empty: dict[int, dict] = {}
    grading = L.grading
    code, buckets = grading.code, grading.buckets
    by_weight = sorted(buckets.items())
    asym = _asymmetric_pairs(L.table, dom)

    def block(mu):
        for i in range(dim):
            row_i = byfirst.get(i, empty)
            idim = i * dim
            rest = mu - code[i]
            for b, js in by_weight:
                kb = rest - b
                ks = buckets.get(kb)
                if ks is None:
                    continue
                for pos, j in enumerate(js):
                    bij = row_i.get(j)
                    row_j = byfirst.get(j, empty)
                    base = (idim + j) * dim
                    # ks[:ahead]: the k whose twin (i, k, j) came first
                    ahead = len(ks) if kb < b else pos if kb == b else 0
                    walk = ks[ahead:]
                    if asym and ahead:
                        walk = [k for k in ks[:ahead] if (j, k) in asym] + walk
                    for k in walk:
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

    for mu in grading.totals():
        if full is None:
            yield from block(mu)
        elif not full(mu):
            for item in block(mu):
                yield item
                if full(mu):
                    break


def _d3_image(L: LeibnizAlgebra, kernel_rank, kernel_pivot=None,
              index=None):
    """Stream the d3 columns of L into an echelon of im(d3), each weight
    block only until it spans ker(d2) there.

    On a basis triple d2 . d3 = 0 is the Leibniz identity, so an uncertified
    table is checked first (``_check_leibniz_identity``, which raises
    ``LeibnizIdentityError`` with the witness triple) and then certified.

    d2 and d3 preserve the weight, and on a certified table
    im(d3)_mu lies in ker(d2)_mu, whose rank the caller gives as
    ``kernel_rank(mu)`` (in the rows kept by ``index``).  Over a field an
    image of that rank is the whole kernel, so every later column of the
    block reduces to zero and the block stops there (``iter_d3_columns``).
    Over Z an image of full rank has finite index; then image and kernel
    share their pivot columns, each image pivot entry is a multiple of the
    kernel's, and the index is the product of their ratios.  So a block
    over Z stops once, moreover, each of its pivots p has the entry
    ``kernel_pivot(p)``: the kernel's entry, or 1 where the kernel is not
    built, since an image entry of 1 forces the kernel's to 1.  The rows of
    a block are its own (the echelon rows stay homogeneous), so no block
    touches another's, and stopping leaves the span of the full stream.  A
    twin the stream skips (``iter_d3_columns``) is the negative of a column
    already inserted, so it would change no row on any domain.

    ``index`` renumbers the rows of the kept columns.
    """
    if not L.certified:
        _check_leibniz_identity(L)
        L.certified = True
    img = make_echelon(L.dom)
    rows = img.rows
    lattice = not L.dom.is_field
    block = None
    goal = 0
    loose: list[int] = []   # over Z: the block's pivots above their entry

    def full(mu):
        nonlocal block, goal
        if mu != block:
            block, goal = mu, img.rank + kernel_rank(mu)
            loose.clear()
        if img.rank < goal:
            return False
        if loose:
            loose[:] = [p for p in loose if rows[p][p] != kernel_pivot(p)]
        return not loose

    for _col, vec in iter_d3_columns(L, full):
        if index is not None:
            vec = {index[k]: c for k, c in vec.items()}
        p = img.insert(vec)
        if lattice and p is not None:
            loose.append(p)
    return img


def _d2_columns(L: LeibnizAlgebra) -> dict[int, dict]:
    """The nonzero columns of d2 in flat order: column i*dim + j is
    -[e_i, e_j], read off the table."""
    dim, neg = L.dim, L.dom.neg
    return {i * dim + j: {k: neg(c) for k, c in w.items()}
            for (i, j), w in sorted(L.table.items()) if w}


class HomologyReport:
    """Outcome of one homology computation."""

    __slots__ = ("algebra_name", "degree", "invariants", "dim_chain",
                 "rank_out", "rank_in")

    def __init__(self, algebra_name, degree, invariants, dim_chain,
                 rank_out, rank_in):
        self.algebra_name = algebra_name
        self.degree = degree
        self.invariants = invariants
        self.dim_chain = dim_chain
        self.rank_out = rank_out          # rank of d_degree
        self.rank_in = rank_in            # rank of d_(degree+1)

    def __repr__(self):
        return (f"HomologyReport(HL_{self.degree}({self.algebra_name}) = "
                f"{self.invariants.describe()})")


def homology_hl(L: LeibnizAlgebra, degree: int) -> HomologyReport:
    """HL_degree(L) for degree in {1, 2}, by exact sparse elimination.

    The d2 columns are read off the table into one echelon: degree 1
    presents L / im d2 off it (``present_quotient``) on every domain, and
    degree 2 takes rank d2 from it.  Degree 2 streams the d3 columns
    straight into an echelon (see ``_d3_image``); over a field the homology
    dimension then needs only the two ranks, while over Z ker d2 is the
    relation lattice of the d2 columns (``SpanSolver.kernel``) and the
    kernel/image subquotient is presented.

    Every block of ``L.grading`` is streamed, special or not, so this stays
    independent of the special-weight rule that ``uce`` uses.  A block
    stops once its image spans ker(d2)_mu (module docstring): at rank
    #pairs_mu - rank d2_mu, where the rows of the d2 echelon are
    homogeneous and rank d2_mu counts its pivots of weight mu; over Z, ker
    d2 is built first and the block stops once, moreover, its image has
    index 1 in it.  The reported ranks and invariants are those of the full
    stream.
    """
    _require_free(L, "homology")
    if degree not in (1, 2):
        raise ValueError("homology_hl implemented for degrees 1 and 2")
    dom, dim = L.dom, L.dim
    d2 = _d2_columns(L)
    img2 = make_echelon(dom)
    for col in d2.values():
        img2.insert(col)

    if degree == 1:
        # d1 = 0: HL_1 = L / im d2
        inv = moduli_invariants(dom, present_quotient(img2, dim, dom).moduli)
        return HomologyReport(L.name, 1, inv, dim, 0, img2.rank)

    # rank ker(d2)_mu = #pairs of weight mu - rank d2_mu, and the rows of
    # img2 are homogeneous, so rank d2_mu counts its pivots of weight mu
    grading = L.grading
    rank2: dict[int, int] = {}
    for p in img2.rows:
        mu = grading.code[p]
        rank2[mu] = rank2.get(mu, 0) + 1

    def kernel_rank(mu):
        return grading.pairs(mu) - rank2.get(mu, 0)

    pair = dim * dim
    if dom.is_field:
        img = _d3_image(L, kernel_rank)
        inv = SubquotientInvariants(dom.name, (pair - img2.rank) - img.rank)
    else:
        # ker d2: the relations among all pair columns, zero ones included
        cols = (d2.get(c, {}) for c in range(pair))
        kern = make_echelon(dom)
        for v in SpanSolver(dom, dim, cols).kernel():
            kern.insert(v)
        krows = kern.rows

        def kernel_pivot(p):
            row = krows.get(p)
            return row[p] if row else None

        img = _d3_image(L, kernel_rank, kernel_pivot)
        inv = subquotient(kern, img, pair, dom)
    return HomologyReport(L.name, 2, inv, pair, img2.rank, img.rank)


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

    # center: [x, e_j] = 0 = [e_j, x] for all j, modulo moduli.  Its
    # coordinates x_i, then one slack per (condition, modulus), are the
    # relations among the columns of these 2 dim^2 conditions.
    sq = dim * dim
    cols: list[dict] = [{} for _ in range(dim)]
    for (i, j), w in L.table.items():
        for k, c in w.items():
            cols[i][j * dim + k] = c
            cols[j][sq + i * dim + k] = c
    if not dom.is_field:
        for j in range(dim):
            for k, m in enumerate(L.moduli):
                if m:
                    cols.append({j * dim + k: m})
                    cols.append({sq + j * dim + k: m})
    center = SubspaceBasis(dom, dim)
    basis_out = []
    for v in SpanSolver(dom, 2 * sq, cols).kernel():
        x = L.reduce_vec({k: c for k, c in v.items() if k < dim})
        if x and center.add(x):
            basis_out.append(x)
    for x in basis_out:
        if not is_central(L, x):
            raise AssertionError("center solve produced a non-central vector")
    return StructuralReport(L.name, dim, perfect, center.rank, basis_out, abel)


# ---------------------------------------------------------------------------
# central extensions


def _homogeneous_codes(tables, base_code: list[int], dim: int):
    """The support check: extend the weight codes ``base_code`` of the first
    coordinates to all ``dim``, each further coordinate taking the code
    code[s] + code[t] of the first entry (s, t) of ``tables`` that meets it
    (None where no entry does).  Returns None if some entry (s, t) meets a
    coordinate of another code.  ``CentralExtensionModel`` checks its
    total's table over the base's codes, ``verify_cocycle`` the bracket and
    psi tables over the symbolic keys' codes."""
    code = base_code + [None] * (dim - len(base_code))
    for table in tables:
        for (s, t), w in table.items():
            mu = code[s] + code[t]
            for k in w:
                c = code[k]
                if c != mu:
                    if c is not None:
                        return None
                    code[k] = mu
    return code


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
    are read off the kernel moduli.  The class of a tensor e_s (x) e_t is
    the total bracket [e_s, e_t] (``tensor_coords``).

    The check runs in two steps.  The support check gives each kernel
    coordinate the code code(s) + code(t) of the first kappa entry (s, t)
    that meets it, and asks every kappa entry to meet only coordinates of
    its code.  The base's own table is homogeneous under its grading, so
    when this passes the total's table is homogeneous, and the total
    carries these codes as its ``grading`` (code 0 where no entry meets a
    kernel coordinate; no torus, see the module docstring).  Then every
    term of the cocycle condition on (x, y, z) lies in kernel coordinates
    of code code(x) + code(y) + code(z), and on a graded base the
    condition is checked on the candidate triples of a kernel code only
    (``_check_identity``): every other triple is 0.  When the support check
    fails, or the base is ungraded, the total's grading is trivial and
    every candidate triple is checked.  An empty kappa needs no check.
    """

    __slots__ = ("total", "base", "kernel_invariants", "kernel_moduli")

    def __init__(self, base: LeibnizAlgebra, kernel_moduli: list[int],
                 kappa: dict, name: str, kernel_labels: list[str]):
        if not base.certified:
            raise ValueError(f"the base {base.name} of a central extension "
                             f"must be a certified Leibniz algebra")
        bd = base.dim
        dim = bd + len(kernel_moduli)
        shifted = {p: {bd + k: c for k, c in w.items()}
                   for p, w in kappa.items()}
        table = dict(base.table)
        for p, w in shifted.items():
            table[p] = {**table.get(p, {}), **w}
        code = _homogeneous_codes((shifted,), base.grading.code, dim)
        self.total = LeibnizAlgebra(
            base.dom, dim, table, list(base.labels) + list(kernel_labels),
            list(base.moduli) + list(kernel_moduli), name,
            Grading([mu or 0 for mu in code]) if code else None)
        self.base = base
        self.kernel_invariants = moduli_invariants(base.dom, kernel_moduli)
        self.kernel_moduli = kernel_moduli
        if kappa:
            _check_identity(self.total, bd, base.table, shifted,
                            "cocycle condition kappa(x,[y,z]) = "
                            "kappa([x,y],z) - kappa([x,z],y)")
        self.total.certified = True

    def project(self, v: dict) -> dict:
        bd = self.base.dim
        return {k: c for k, c in v.items() if k < bd}

    def kernel_part(self, v: dict) -> dict:
        bd = self.base.dim
        return {k - bd: c for k, c in v.items() if k >= bd}

    def tensor_coords(self, v: dict) -> dict:
        """Coordinates of the class of a tensor v over base (x) base, pair
        (s, t) at flat index s * dim(base) + t: the sum of v_p [e_s, e_t]."""
        total = self.total
        dom, bd = total.dom, self.base.dim
        out: dict = {}
        for p, c in v.items():
            w = total.table.get(divmod(p, bd))
            if w:
                vec_axpy(out, w, c, dom)
        return total.reduce_vec(out)


def uce(L: LeibnizAlgebra) -> CentralExtensionModel:
    """The universal central extension of a perfect Leibniz algebra.

    Model: (L (x) L)/im(d3) with bracket [u, v] = class(pi(u) (x) pi(v)),
    where pi = -d2 is the bracket of the tensor factors, pi(x (x) y) =
    [x, y].  So the class of e_s (x) e_t is the total bracket [e_s, e_t],
    and the class of any tensor is read off the total's table
    (``CentralExtensionModel.tensor_coords``).  Coordinates are adapted: the
    first dim(L) coordinates are pi(v), so the projection is literally
    [I | 0]; the rest present the kernel ker(d2)/im(d3) = HL_2(L).  With
    chosen preimages w_s, pi(w_s) = e_s, L (x) L = ker(d2) (+) span(w_s),
    so that kernel is (L (x) L)/(im d3 + span w_s): one presentation on
    every domain, read off the d3 echelon with the w_s inserted
    (``present_quotient``).

    On a graded L every piece splits by weight: the w_s are homogeneous
    (checked), and in a weight mu that is not special (``Grading.special``,
    selective on the torus grading of sl only), some
    mu_i - mu_j is a unit that kills ker(d2)/im(d3) (module docstring), so
    (L (x) L)_mu = im(d3)_mu (+) span(w_s of weight mu) and every tensor
    of weight mu has class 0.  So only the pairs (s, t) of special weight
    wt(s) + wt(t) are kept, numbered in their flat order; only the d3
    triples of special total weight are streamed, only the w_s of special
    weight are inserted, and kappa vanishes off the special pairs, so a
    tensor's class is read off its special part.  Over a field each kernel
    coordinate then has one special weight, and the model checks the
    cocycle condition on the triples of those weights only
    (``CentralExtensionModel``); over Z the Smith basis may mix weights, and
    the check visits every candidate triple.

    A special block stops once its image spans ker(d2)_mu (module
    docstring).  L is perfect and the w_s are homogeneous, so d2 maps the
    pairs of weight mu onto L_mu and rank ker(d2)_mu = #pairs_mu - dim L_mu.
    Over Z the block must moreover have every Hermite pivot 1: a lattice
    with unit pivots is saturated, so at full rank it is the kernel.  (On
    int, upper2 and trunc3 over Z at n = 4 this stops at the same column as
    inserting the block's w_s first and waiting for a full unimodular
    block, so the w_s stay after the stream, with their check.)  A block of
    another weight keeps no rows and is not walked.  Over a field the
    pivots of a graded subspace are the union of its weight blocks' pivots
    and forward residuals are canonical, so this is the table of the full
    stream; over Z the kernel has the same invariants, in another basis.
    Under a grading without a torus every pair is special; under the
    trivial grading the cube is moreover one block.
    """
    _require_free(L, "uce")
    dom, dim = L.dom, L.dim
    one = dom.one

    # choose preimages w_s with pi(w_s) = e_s, streaming d2 columns until
    # they span (unimodularly, over Z)
    head = SubspaceBasis(dom, dim)
    colsolver = SpanSolver(dom, dim)
    colindex: list[int] = []
    for col, vec in _d2_columns(L).items():
        colsolver.add(vec)
        colindex.append(col)
        head.add(vec)
        if _spans_everything(head):
            break
    else:
        raise ValueError(f"{L.name} is not perfect; uce undefined")

    neg_one = dom.neg(one)
    preimages: list[tuple[int, dict]] = []   # (s, w_s)
    for s in range(dim):
        coeffs = colsolver.solve({s: neg_one})   # d2 w_s = -e_s
        if coeffs is None:
            raise AssertionError(
                f"{L.labels[s]} has no preimage under the spanning d2 columns")
        w = {colindex[t]: c for t, c in coeffs.items()}
        preimages.append((s, w))

    grading = L.grading
    code, special = grading.code, grading.special
    for s, w in preimages:
        if any(code[p // dim] + code[p % dim] != code[s] for p in w):
            raise AssertionError(
                f"the preimage of {L.labels[s]} is not homogeneous")
    pairs = [s * dim + t for s in range(dim) for t in range(dim)
             if special(code[s] + code[t])]
    index = None
    if len(pairs) < dim * dim:
        index = {p: c for c, p in enumerate(pairs)}
        preimages = [(s, {index[p]: c for p, c in w.items()})
                     for s, w in preimages if special(code[s])]

    # L is perfect and the w_s are homogeneous, so d2 maps the pairs of a
    # special weight mu onto L_mu: rank ker(d2)_mu = #pairs_mu - dim L_mu.
    # Blocks of other weights keep no rows.
    def kernel_rank(mu):
        if not special(mu):
            return 0
        return grading.pairs(mu) - grading.size(mu)

    # d2 w_s = -e_s, so L (x) L = ker(d2) (+) span w_s and, as im(d3) lies
    # in ker(d2), (L (x) L)/(im d3 + span w_s) presents ker(d2)/im(d3)
    rel = _d3_image(L, kernel_rank, lambda p: 1, index)
    for s, w in preimages:
        if rel.insert(w) is None:
            raise AssertionError(
                f"the preimage of {L.labels[s]} adds no pivot to im(d3)")
    pres = present_quotient(rel, len(pairs), dom)

    # the kernel part of each base-pair bracket in the adapted basis; zero
    # off the special pairs
    kappa: dict = {}
    for c, p in enumerate(pairs):
        kern = pres.coords({c: one})
        if kern:
            kappa[divmod(p, dim)] = kern
    return CentralExtensionModel(
        L, pres.moduli, kappa, f"uce({L.name})",
        [f"z{i}" for i in range(pres.dim)])
