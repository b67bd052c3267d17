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
-[y, z], as on every pair of sl, a block walks only the earlier of the
twins (x, y, z) and (x, z, y).  The identity walker reads no grading.

A block that carries homology never spans ker(d2)_mu, so that stop never
comes.  Over a field on sl's torus grading ``uce`` stops such a block at
the rank the homology expected there leaves instead: weight 0 at
#pairs_0 - dim sl_0 - dim HH_1(R), and a later block of an S_n-orbit of
weights at the rank the orbit's first block gained (permutation matrices
act on sl_n(R) by automorphisms that permute the weights).  Exactness
cannot certify that stop; the total's cocycle check does, afterwards.
With I the echelon streamed and w_s the preimages, every inserted column
lies in im(d3), and kappa o d3 = 0 puts every d3 column in I + span(w_s);
it lies in ker(d2) and d2 w_s = -e_s, so it lies in I, and I is the
image of the full stream.  If the check fails, ``uce`` streams again with
the stops by exactness.  ``homology_hl``, the oracle for ``uce``, and
every computation over Z keep the stops by exactness only.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .assoc import AssocAlgebra, commutator_span, hochschild_h1
from .domains import ScalarDomain
from .linalg import (SpanSolver, SubquotientInvariants, describe_vector,
                     make_echelon, moduli_invariants, present_quotient,
                     subquotient, vec_axpy)


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
    for d in moduli:
        # a bool is an int, and a field carrier has no torsion coordinate
        if type(d) is not int or d < 0 or (d and dom.is_field):
            raise ValueError(f"bad modulus {d!r}: expected an int >= 0, "
                             f"and 0 over a field")

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
    exactly in ``table``; empty on a Lie table.  ``iter_d3_columns`` skips
    a twin on every other pair, and ``steinberg._Tally`` reads the reversed
    bracket off the forward one there."""
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
    (x, y, z) = (e_i, e_j, e_k), i, j, k < dim, in (y, z, x) order, where

        J(x, y, z) = o(x, [y, z]) - o([x, y], z) + o([x, z], y)

    is nonzero modulo the moduli of ``alg``; the error carries the triple
    and this ``defect``.  [,] is the ``inner`` table and o the ``outer``
    one, both (i, j) -> sparse vector.  ``alg`` only supplies the domain,
    labels and moduli.  With both tables equal to alg.table this is the
    Leibniz identity (``make_leibniz``, uncertified d3 streams); with the
    base bracket inside and kappa outside it is the cocycle condition on
    kappa (``CentralExtensionModel``); ``verify_cocycle`` puts the X-parts
    of the symbolic brackets inside and psi outside.

    The walk is term-driven.  For each y in ascending order it adds up the
    nonzero terms of J(., y, .) from the table entries that produce them:
    o(x, t) for each coordinate t of [y, z], -o(t, z) for each coordinate
    t of [x, y], and o(a, y) for each inner pair (x, z) whose value meets
    a.  The sums are kept raw in one dict keyed by (z, x, coordinate),
    encoded as one int in that order, and reduced once per key (mod p, then
    the moduli).  So a triple with no nonzero term is never touched, memory
    is bounded by the terms of one y, and the triple raised is the smallest
    failing (z, x) of the first y that has one.
    """
    if not outer:
        return
    p, moduli, width = alg.dom.p, alg.moduli, alg.dim
    # the term of (x, y, z) at coordinate k is summed at key zo + xo + k,
    # with zo = z * zw and xo = x * width
    zw = dim * width
    in_first: dict[int, list] = {}    # y -> [(zo, [y, z])]
    in_second: dict[int, list] = {}   # y -> [(xo, [x, y])]
    in_meets: dict[int, list] = {}    # a -> [(zo + xo, [x, z]_a)]
    for (i, j), w in inner.items():
        items = tuple(w.items())
        in_first.setdefault(i, []).append((j * zw, items))
        in_second.setdefault(j, []).append((i * width, items))
        for a, c in items:
            in_meets.setdefault(a, []).append((j * zw + i * width, c))
    out_first: dict[int, list] = {}   # t -> [(zo, o(t, z))]
    out_second: dict[int, list] = {}  # t -> [(xo, o(x, t))]
    for (i, j), v in outer.items():
        items = tuple(v.items())
        out_first.setdefault(i, []).append((j * zw, items))
        out_second.setdefault(j, []).append((i * width, items))

    for y in range(dim):
        acc: dict[int, object] = {}
        get = acc.get
        for zo, w in in_first.get(y, ()):
            for t, c in w:
                for xo, v in out_second.get(t, ()):
                    base = zo + xo
                    for k, e in v:
                        k += base
                        acc[k] = get(k, 0) + c * e
        for xo, w in in_second.get(y, ()):
            for t, c in w:
                for zo, v in out_first.get(t, ()):
                    base = zo + xo
                    for k, e in v:
                        k += base
                        acc[k] = get(k, 0) - c * e
        for ao, v in out_second.get(y, ()):     # ao = a * width
            for base, c in in_meets.get(ao // width, ()):
                for k, e in v:
                    k += base
                    acc[k] = get(k, 0) + c * e
        bad = [k for k, e in acc.items() if (e % p if p else e)]
        if alg.torsion:
            bad = [k for k in bad
                   if not moduli[k % width] or acc[k] % moduli[k % width]]
        if bad:
            base = min(bad) // width * width
            z, x = divmod(base // width, dim)
            defect = alg.reduce_vec({k - base: acc[k] % p if p else acc[k]
                                     for k in bad if base <= k < base + width})
            lab = alg.labels
            raise LeibnizIdentityError(
                f"{what} fails at ({lab[x]}, {lab[y]}, {lab[z]}): "
                f"the defect is {describe_vector(defect, lab)}",
                (x, y, z), defect)


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
    checked on R.  Entries are made in (i, j, k, l, lam, mu) order, which
    fixes the order of ``table`` and so ``build_sl``'s basis over Z.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dom = ring.dom
    dr = ring.dim
    dim = n * n * dr
    prod = [[tuple(ring.basis_product(lam, mu).items()) for mu in range(dr)]
            for lam in range(dr)]
    block = [[(i * n + j) * dr for j in range(n)] for i in range(n)]

    table: dict = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j != k and l != i:
                        continue
                    left, right = block[i][j], block[k][l]
                    il, kj = block[i][l], block[k][j]
                    for lam in range(dr):
                        for mu in range(dr):
                            out: dict[int, object] = {}
                            if j == k:
                                for t, c in prod[lam][mu]:
                                    out[il + t] = c
                            if l == i:
                                for t, c in prod[mu][lam]:
                                    key = kj + t
                                    cur = dom.sub(out.get(key, 0), c)
                                    if cur:
                                        out[key] = cur
                                    else:
                                        out.pop(key, None)
                            if out:
                                table[(left + lam, right + mu)] = out

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

    Only [e_s, e_t], s < t, is computed: the gl commutator is alternating
    and sl coordinates are unique, so (t, s) is stored as the negative of
    (s, t) (keys in ascending order) and [e_s, e_s] = 0.  Each s's brackets
    are summed from gl's nonzero entries: the rows a in supp(e_s), each
    column c they meet and the t > s with c in supp(e_t).  A basis vector
    e_s = e_g of gl (one entry, 1) has coordinate w[g] in a bracket w; only
    the rest of w, which lies in the span, goes to the solver.
    """
    gl = build_gl(n, ring)
    dom = gl.dom
    span = make_echelon(dom)
    for w in gl.table.values():
        span.insert(w)
    basis = list(span.row_dicts().values())
    dim = len(basis)
    grading = Grading([_gl_code(gl, min(b)) for b in basis], (n, dom))
    if sorted(grading.code) != _sl_codes(n, ring):
        raise AssertionError(f"the {dim} basis weights of sl{n}({ring.name}) "
                             f"are not the shape _sl_codes(n, R)")

    solver = SpanSolver(dom, gl.dim, basis)
    rows: dict[int, list] = {}      # gl a -> [c with [e_a, e_c] != 0]
    for a, c in gl.table:
        rows.setdefault(a, []).append(c)
    owners: dict[int, list] = {}    # gl c -> [(t, e_t[c])]
    unit: dict[int, int] = {}       # gl g -> s with e_s = e_g
    mul, one = dom.mul, dom.one
    for t, b in enumerate(basis):
        for c, e in b.items():
            owners.setdefault(c, []).append((t, e))
        if len(b) == 1 and one in b.values():
            unit[next(iter(b))] = t
    table: dict = {}
    for s in range(dim):
        for t in range(s):
            w = table.get((t, s))
            if w:
                table[(s, t)] = {k: dom.neg(c) for k, c in w.items()}
        acc: dict[int, dict] = {}   # t -> [e_s, e_t] in gl
        for a, ca in basis[s].items():
            for c in rows.get(a, ()):
                for t, e in owners.get(c, ()):
                    if t > s:
                        vec_axpy(acc.setdefault(t, {}), gl.table[a, c],
                                 mul(ca, e), dom)
        for t in sorted(acc):
            w = acc[t]
            coeffs = {unit[g]: c for g, c in w.items() if g in unit}
            rest = {g: c for g, c in w.items() if g not in unit}
            if rest:
                extra = solver.solve(rest)
                if extra is None:
                    raise AssertionError("sl bracket left the span")
                vec_axpy(coeffs, extra, one, dom)
            if coeffs:
                table[(s, t)] = coeffs

    labels = []
    for b in basis:
        lead = min(b)
        labels.append(f"<{gl.labels[lead]}>")
    # certified without a check: sl is a bracket-closed subspace of the
    # certified gl, and each table entry is the exact coordinate vector of a
    # gl bracket (read at unit rows, the rest solver-certified)
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
              index=None, gains=None):
    """Stream the d3 columns of L into an echelon of im(d3), each weight
    block only until it has the rank ``kernel_rank(mu)``.

    On a basis triple d2 . d3 = 0 is the Leibniz identity, so an uncertified
    table is checked first (``_check_leibniz_identity``, which raises
    ``LeibnizIdentityError`` with the witness triple) and then certified.

    d2 and d3 preserve the weight, and on a certified table
    im(d3)_mu lies in ker(d2)_mu.  When the caller gives its rank as
    ``kernel_rank(mu)`` (in the rows kept by ``index``), the stop is exact:
    over a field an image of that rank is the whole kernel, so every later
    column of the block reduces to zero and the block stops there
    (``iter_d3_columns``).  A caller that gives a lower rank must certify
    the echelon itself (``uce``).  ``gains``, a dict if given, receives the
    rank each block added, written before the next block's
    ``kernel_rank`` is asked.
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
    if gains is None:
        gains = {}
    block = None
    start = goal = 0
    loose: list[int] = []   # over Z: the block's pivots above their entry

    def full(mu):
        nonlocal block, start, goal
        if mu != block:
            if block is not None:
                gains[block] = img.rank - start
            block, start = mu, img.rank
            goal = start + kernel_rank(mu)
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
    if block is not None:
        gains[block] = img.rank - start
    return img


def _d2_columns(L: LeibnizAlgebra):
    """Yield (flat index, column) for the nonzero columns of d2 in flat
    order: column i*dim + j is -[e_i, e_j], read off the table when it is
    asked for."""
    dim, neg, table = L.dim, L.dom.neg, L.table
    for i, j in sorted(table):
        w = table[i, j]
        if w:
            yield i * dim + j, {k: neg(c) for k, c in w.items()}


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
    d2 = dict(_d2_columns(L))
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
    """The two-sided center of an algebra: its rank and ``center_basis``,
    the rows of its echelon (over Z, a basis of the center lattice)."""

    __slots__ = ("center_rank", "center_basis")

    def __init__(self, center_rank, center_basis):
        self.center_rank = center_rank
        self.center_basis = center_basis


def is_central(L: LeibnizAlgebra, v: dict) -> bool:
    """Does v bracket to zero (mod moduli) with every basis vector?"""
    one = L.dom.one
    for j in range(L.dim):
        ej = {j: one}
        if L.bracket(v, ej) or L.bracket(ej, v):
            return False
    return True


def _spans_everything(eng, width: int, dom: ScalarDomain) -> bool:
    """Is the span held in ``eng`` all of dom^width?  Over Z it must be
    unimodular, not just of full rank: every Hermite pivot entry is 1."""
    if eng.rank != width:
        return False
    return dom.is_field or all(r[p] == 1 for p, r in eng.rows.items())


def is_perfect(L: LeibnizAlgebra) -> bool:
    """Does [L, L] = L, with the moduli relations of a torsion carrier?  The
    span grows row by row, moduli first and then the table, and the answer
    is True as soon as it is everything, before the rest is read."""
    dom, dim = L.dom, L.dim
    moduli = () if dom.is_field else (
        {c: m} for c, m in enumerate(L.moduli) if m)
    span = make_echelon(dom)
    for w in chain(moduli, L.table.values()):
        if _spans_everything(span, dim, dom):
            return True
        span.insert(w)
    return _spans_everything(span, dim, dom)


def structural_report(L: LeibnizAlgebra) -> StructuralReport:
    """The two-sided center of L.  Over a torsion carrier centrality is read
    modulo the moduli (slack variables absorb multiples of each modulus).
    Perfectness is ``is_perfect``'s; L/[L, L] is ``homology_hl(L, 1)``."""
    dom, dim = L.dom, L.dim

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
    center = make_echelon(dom)
    for v in SpanSolver(dom, 2 * sq, cols).kernel():
        center.insert(L.reduce_vec({k: c for k, c in v.items() if k < dim}))
    basis = list(center.row_dicts().values())
    for x in basis:
        if not is_central(L, x):
            raise AssertionError("center solve produced a non-central vector")
    return StructuralReport(center.rank, basis)


# ---------------------------------------------------------------------------
# central extensions


def _homogeneous_codes(tables, base_code: list[int], dim: int):
    """The support check: extend the weight codes ``base_code`` of the first
    coordinates to all ``dim``, each further coordinate taking the code
    code[s] + code[t] of the first entry (s, t) of ``tables`` that meets it
    (None where no entry does).  Returns None if some entry (s, t) meets a
    coordinate of another code.  ``CentralExtensionModel`` checks its
    total's table over the base's codes, ``check_torus_grading`` sl's
    table over its own."""
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

    The support check gives each kernel coordinate the code code(s) +
    code(t) of the first kappa entry (s, t) that meets it, and asks every
    kappa entry to meet only coordinates of its code.  The base's own table
    is homogeneous under its grading, so when this passes the total's table
    is homogeneous, and the total carries these codes as its ``grading``
    (code 0 where no entry meets a kernel coordinate; no torus, see the
    module docstring).  When it fails, or the base is ungraded, the total's
    grading is trivial.  The cocycle condition (``_check_identity``) reads
    no grading.  An empty kappa needs no check.
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


def uce(L: LeibnizAlgebra,
        hh1: SubquotientInvariants | None = None) -> CentralExtensionModel:
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
    coordinate then has one special weight, so the total is graded
    (``CentralExtensionModel``); over Z the Smith basis may mix weights,
    and the total is then ungraded.

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

    A block that carries homology never reaches that rank.  Over a field
    on sl's torus grading each block gets a lower target instead, the
    rank the homology expected there leaves (module docstring): weight 0
    stops at #pairs_0 - dim L_0 - dim HH_1(R) (``hh1``, else computed by
    ``hochschild_h1``), and a block whose sorted weight an earlier block
    had, one of its S_n-orbit, at the rank that block gained
    (``_d3_image``'s ``gains``).  The cocycle check of the total proves
    the streamed echelon is all of im(d3) (module docstring), so the table
    is that of the full stream.  If it raises, a target was too low, and
    ``uce`` streams once more with the targets #pairs_mu - dim L_mu; only
    that second check's ``LeibnizIdentityError`` reaches the caller.  An
    uncertified table still raises before any column is streamed
    (``_d3_image``).
    """
    _require_free(L, "uce")
    dom, dim = L.dom, L.dim
    one = dom.one

    # choose preimages w_s with pi(w_s) = e_s, streaming d2 columns until
    # they span (unimodularly, over Z)
    head = make_echelon(dom)
    colsolver = SpanSolver(dom, dim)
    colindex: list[int] = []
    for col, vec in _d2_columns(L):
        colsolver.add(vec)
        colindex.append(col)
        head.insert(vec)
        if _spans_everything(head, dim, dom):
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
    buckets = grading.buckets.items()
    pairs = sorted(s * dim + t for a, ss in buckets for b, ts in buckets
                   if special(a + b) for s in ss for t in ts)
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

    # over a field on sl's torus grading, a block may stop at the rank the
    # homology expected there leaves: weight 0 carries HH_1(R), and the
    # blocks of one S_n-orbit of weights carry isomorphic HL_2, so a later
    # one stops at the rank its orbit's first block gained
    gains: dict[int, int] = {}
    target = kernel_rank
    if dom.is_field and grading.torus is not None:
        if hh1 is None:
            hh1 = hochschild_h1(L.ring)
        first: dict[tuple, int] = {}    # sorted weight -> its first block

        def target(mu):
            rank = kernel_rank(mu)
            if not rank:
                return 0
            if not mu:
                return rank - hh1.dimension
            seen = first.setdefault(tuple(sorted(grading.weight(mu))), mu)
            return rank if seen == mu else gains[seen]

    while True:
        # d2 w_s = -e_s, so L (x) L = ker(d2) (+) span w_s and, as im(d3)
        # lies in ker(d2), (L (x) L)/(im d3 + span w_s) presents
        # ker(d2)/im(d3)
        rel = _d3_image(L, target, lambda p: 1, index, gains)
        for s, w in preimages:
            if rel.insert(w) is None:
                raise AssertionError(
                    f"the preimage of {L.labels[s]} adds no pivot to im(d3)")
        pres = present_quotient(rel, len(pairs), dom)

        # the kernel part of each base-pair bracket in the adapted basis;
        # zero off the special pairs
        kappa: dict = {}
        for c, p in enumerate(pairs):
            kern = pres.coords({c: one})
            if kern:
                kappa[divmod(p, dim)] = kern
        try:
            return CentralExtensionModel(
                L, pres.moduli, kappa, f"uce({L.name})",
                [f"z{i}" for i in range(pres.dim)])
        except LeibnizIdentityError:
            if target is kernel_rank:
                raise
            # some block stopped below the rank of its image: stream
            # again, each block to the rank of ker(d2) there
            target = kernel_rank
