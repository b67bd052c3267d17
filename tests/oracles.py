"""Test-side oracles for what the package guarantees by construction.

``CentralExtensionModel`` assembles its total as base bracket (+) kappa, so
the projection is a homomorphism and the kernel is central without a check;
these functions check both on the finished table, independently of how it
was assembled.  ``cocycle_paths`` and ``kappa_of`` let a test see whether
the total of an extension or of the symbolic cocycle was graded and
rebuild an extension from a changed kappa.  ``reference_cocycle`` is the plain
keys^3 walk of the symbolic cocycle identity that ``verify_cocycle`` must
agree with.
``torus_weight`` reads a weight code of the package back as a weight.
``fields`` reads a verifier's report as a dict of its attributes.
``s3_ring`` builds the group algebra of S_3, a ring off the catalog.
``smith_sizes`` records the shape of every Smith reduction in a block.
``full_span_is_perfect`` reads perfectness off the whole bracket span, the
reference for the early-stopping ``is_perfect``.
"""

import contextlib
import itertools

import stlhom.leibniz as leibniz
import stlhom.linalg as linalg
import stlhom.steinberg as steinberg
from stlhom.assoc import make_algebra
from stlhom.linalg import vec_axpy
from stlhom.steinberg import CocycleSpace, SteinbergSymbolic


def fields(report, *skip) -> dict:
    """The attributes of a report (its ``__slots__``) but ``skip``."""
    return {name: getattr(report, name) for name in type(report).__slots__
            if name not in skip}


def cocycle_paths(monkeypatch) -> dict:
    """Record, per carrier name, whether the total of each cocycle check
    from here on carries a nontrivial grading (True: the support check
    passed) or the trivial one (False): that of each
    ``CentralExtensionModel`` (under its total's name) and of
    ``verify_cocycle`` (``psi-<n>(<ring>)``, always False: its carrier is
    ungraded), whose module binds the walker by name, so both bindings are
    patched.  The walker itself reads no grading.  An extension with an
    empty kappa checks nothing and is not recorded."""
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
    symbolic basis of stl_n(R), evaluated directly: psi from
    ``CocycleSpace.value`` on every pair of X keys, brackets from the
    X-parts of the engine's (psi vanishes on H).

    Returns (engine, space, J, first): J maps three basis keys to a sparse
    dict over the ``CocycleSpace`` ``space``, and ``first`` is the first
    triple in (x, y, z) lexicographic order with J != 0, or None when J
    vanishes on all keys^3 triples.
    """
    one = ring.dom.one
    space = CocycleSpace(n, ring, theta)

    def psi(k1, k2):
        a, b = ("x", *k1[1:3], {k1[3]: one}), ("x", *k2[1:3], {k2[3]: one})
        return space.value(a, b)

    engine = SteinbergSymbolic(n, ring)
    basis = engine.basis_keys()
    xkeys = [k for k in basis if k[0] == "x"]
    psi_pairs = {(k1, k2): psi(k1, k2) for k1 in xkeys for k2 in xkeys}
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


def s3_ring(dom):
    """The group algebra dom[S_3], a 6-dim noncommutative ring off the
    catalog: basis the permutations of (0, 1, 2) in lexicographic order
    (the identity first), product (g.h)(i) = g(h(i))."""
    perms = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(perms)}
    structure = {(index[g], index[h]): {index[tuple(g[i] for i in h)]: 1}
                 for g in perms for h in perms}
    return make_algebra(dom, 6, structure,
                        labels=["".join(map(str, g)) for g in perms],
                        unit_index=0, name="s3")


def full_span_is_perfect(L) -> bool:
    """Does [L, L] = L?  Every moduli relation of a torsion carrier and
    every table entry go into one echelon, with no early stop; then the
    rank must be dim L and, over Z, every Hermite pivot entry 1."""
    dom = L.dom
    span = linalg.make_echelon(dom)
    if not dom.is_field:
        for c, m in enumerate(L.moduli):
            if m:
                span.insert({c: m})
    for w in L.table.values():
        span.insert(w)
    return span.rank == L.dim and (
        dom.is_field or all(row[p] == 1 for p, row in span.rows.items()))


@contextlib.contextmanager
def smith_sizes():
    """Yield a list that receives (rows, columns) of every
    ``smith_normal_form`` call made inside the block; ``present_quotient``
    looks it up on its module, so the recorder sees every call."""
    sizes: list = []
    inner = linalg.smith_normal_form

    def recorded(entries, nrows, ncols):
        sizes.append((nrows, ncols))
        return inner(entries, nrows, ncols)

    linalg.smith_normal_form = recorded
    try:
        yield sizes
    finally:
        linalg.smith_normal_form = inner
