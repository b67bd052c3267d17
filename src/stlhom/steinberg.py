"""Steinberg Leibniz algebras and their explicit central extensions.

This module has four layers:

* the index map theta on distinct-index quadruples over {1,2,3,4}, constant
  on orbits of the position action of G = {(1),(13),(24),(13)(24)};
* ``CocycleSpace(n, R, theta)``, the one home of W = R_2^6 (n = 4) resp.
  U = R_3^6 (n = 3), of theta and of the 2-cocycle psi valued there, plus
  a symbolic bracket engine, which yields the X-part of each bracket (all
  that psi reads), to certify the cocycle identity
  J(x,y,z) = psi(x,[y,z]) + psi([x,z],y) - psi([x,y],z) = 0 exhaustively;
* a concrete model of stl_n(R): the universal central extension of sl_n(R)
  modulo the central span N of all tensor classes E_ij(a)(x)E_kl(b) with
  j != k and i != l (the pairs whose bracket vanishes in sl);
* the hat extension of an stl model on W (+) stl (resp. U (+) stl) with
  bracket [(c,x),(c',y)] = (psi(x,y), [x,y]), whose cocycle condition is
  checked on every stl triple.

Index conventions: matrix positions i, j are 1-based throughout this module
(they appear in quadruples and labels); ring coordinates are 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .assoc import AssocAlgebra, hochschild_h1, quotient_Rm
from .leibniz import (CentralExtensionModel, LeibnizAlgebra,
                      LeibnizIdentityError, _asymmetric_pairs,
                      _check_identity, build_sl, is_central, is_perfect,
                      structural_report, uce)
from .linalg import (SpanSolver, SubquotientInvariants, describe_vector,
                     make_echelon, moduli_invariants, present_quotient,
                     subquotient, vec_axpy)

__all__ = [
    "ThetaMap", "build_theta", "corrupted_theta",
    "CocycleSpace",
    "SteinbergSymbolic", "CocycleReport", "verify_cocycle",
    "SteinbergModel", "build_stl",
    "CalculusReport", "verify_calculus",
    "HatModel", "build_hat", "SharpReport", "verify_sharp_relations",
    "Hl2Report", "hl2_report", "predicted_hl2",
]


# ---------------------------------------------------------------------------
# the index map theta


def _distinct(n: int, k: int) -> list[tuple]:
    """The k-tuples of pairwise distinct indices in 1..n, in lexicographic
    order."""
    return list(permutations(range(1, n + 1), k))


def _position_orbit(quad: tuple) -> list[tuple]:
    """Orbit of a quadruple under swapping slots (1,3), slots (2,4), or both."""
    a, b, c, d = quad
    return [quad, (c, b, a, d), (a, d, c, b), (c, d, a, b)]


class ThetaMap:
    """The 6-valued labeling of the 24 distinct-index quadruples.

    ``table`` maps each quadruple to a label in 1..6; ``representatives``
    holds, per label, the minimal quadruple of the orbit (equivalently the
    one-line form of the chosen coset representative).
    """

    __slots__ = ("table", "representatives")

    def __init__(self, table: dict, representatives: tuple):
        self.table = table
        self.representatives = representatives

    def __call__(self, quad: tuple) -> int:
        return self.table[quad]

    def validate(self) -> list[str]:
        """All defining properties, checked exhaustively; empty = good."""
        problems = []
        if self.table.get((1, 2, 3, 4)) != 1:
            problems.append("label of (1,2,3,4) is not 1")
        counts: dict[int, int] = {}
        for quad, m in self.table.items():
            counts[m] = counts.get(m, 0) + 1
            for other in _position_orbit(quad):
                if self.table.get(other) != m:
                    problems.append(f"labels differ on the orbit of {quad}")
                    break
            i, j, k, l = quad
            if self.table.get((k, l, i, j)) != m:
                problems.append(f"theta({quad}) != theta({(k, l, i, j)})")
            if self.table.get((i, l, k, j)) != m:
                problems.append(f"theta({quad}) != theta({(i, l, k, j)})")
        for m in range(1, 7):
            if counts.get(m) != 4:
                problems.append(f"label {m} has {counts.get(m, 0)} quadruples")
        return problems

    def to_dict(self) -> dict:
        return {"".join(map(str, q)): m for q, m in sorted(self.table.items())}


def build_theta() -> ThetaMap:
    """Label the quadruples by the coset partition of S4 over G.

    The coset of sigma acting on (1,2,3,4) is exactly the orbit of
    sigma((1,2,3,4)) under the position swaps above, so we partition the 24
    quadruples into those orbits.  The orbit of (1,2,3,4) gets label 1; the
    remaining orbits get 2..6 in lexicographic order of their minimal
    member (the labeling of those five is a free choice; any relabeling
    permutes the coordinates of W and nothing else).  Raises ValueError
    if the labeling fails ``ThetaMap.validate``.
    """
    seen: set[tuple] = set()
    orbits: list[list[tuple]] = []
    for q in _distinct(4, 4):
        if q in seen:
            continue
        orbit = sorted(set(_position_orbit(q)))
        seen.update(orbit)
        orbits.append(orbit)
    first = [o for o in orbits if (1, 2, 3, 4) in o]
    rest = sorted((o for o in orbits if (1, 2, 3, 4) not in o),
                  key=lambda o: o[0])
    table: dict[tuple, int] = {}
    reps = []
    for m, orbit in enumerate(first + rest, start=1):
        reps.append(min(orbit))
        for q in orbit:
            table[q] = m
    theta = ThetaMap(table, tuple(reps))
    problems = theta.validate()
    if problems:
        raise ValueError(f"theta breaks its defining properties: {problems}")
    return theta


def corrupted_theta(theta: ThetaMap) -> ThetaMap:
    """Negative control: swap the labels of two quadruples from different
    orbits.  This breaks constancy on orbits (and with it the symmetry
    theta((i,j,k,l)) = theta((i,l,k,j))), so the cocycle identity must fail.
    """
    table = dict(theta.table)
    a, b = (1, 2, 3, 4), (1, 2, 4, 3)
    table[a], table[b] = table[b], table[a]
    return ThetaMap(table, theta.representatives)


# ---------------------------------------------------------------------------
# the cocycle-value space and psi


class CocycleSpace:
    """W = R_2^6 (n = 4) or U = R_3^6 (n = 3), and the cocycle psi valued
    in it: the one place that pairs n with m, defaults theta and refuses
    it at n = 3 (both ``ValueError``, as is any n outside {3, 4}).

    ``theta`` is the index map psi reads (``build_theta()`` unless given;
    None for n = 3), ``quotient`` the presentation of R_m, and
    ``abar[x][y]`` the class of r_x r_y in R_m, read once.  Slots are
    labeled 1..6 for n = 4 and +1,+2,+3,-1,-2,-3 for n = 3 (row rules
    feed +i, column rules feed -j).  A value is a sparse dict over
    ``width`` = 6 * dim R_m coordinates, each reduced by the modulus
    inherited from R_m.
    """

    __slots__ = ("n", "ring", "theta", "quotient", "abar", "slots",
                 "width", "moduli", "labels")

    def __init__(self, n: int, ring: AssocAlgebra,
                 theta: ThetaMap | None = None):
        if n not in (3, 4):
            raise ValueError("cocycle spaces exist for n in {3, 4}")
        if n == 3 and theta is not None:
            raise ValueError("theta only parameterizes the n = 4 cocycle")
        self.n = n
        self.ring = ring
        self.theta = build_theta() if n == 4 and theta is None else theta
        self.quotient = quotient_Rm(ring, 2 if n == 4 else 3)
        d = self.quotient.dim
        self.abar = [[self.quotient.coords(ring.basis_product(x, y))
                      for y in range(ring.dim)] for x in range(ring.dim)]
        self.slots = (1, 2, 3, 4, 5, 6) if n == 4 else (1, 2, 3, -1, -2, -3)
        self.width = 6 * d
        self.moduli = list(self.quotient.moduli) * 6
        if n == 4:
            names = [f"eps{m}" for m in self.slots]
        else:
            names = [f"u({m:+d})" for m in self.slots]
        self.labels = [f"{s}.{t}" for s in names for t in range(d)]

    def slot_pos(self, slot: int) -> int:
        return slot - 1 if slot > 0 else 2 - slot

    def embed(self, slot: int, abar: dict) -> dict:
        base = self.slot_pos(slot) * self.quotient.dim
        return {base + t: c for t, c in abar.items() if c}

    def add_scaled(self, dst: dict, src: dict, c) -> None:
        dom = self.ring.dom
        for k, v in src.items():
            cur = dst.get(k, dom.zero)
            nv = dom.add(cur, dom.mul(c, v))
            m = self.moduli[k]
            if m:
                nv %= m
            if nv:
                dst[k] = nv
            elif k in dst:
                del dst[k]

    def psi(self, xs, ys) -> dict:
        """The pair rule on two lists of (X key, coefficient), expanded
        bilinearly.  n = 4: psi(X_ij(r), X_kl(s)) = eps_theta((i,j,k,l))
        (rs-bar) when i,j,k,l are pairwise distinct.  n = 3: the row rule
        psi(X_ij(r), X_ik(s)) = sign(j,k)(rs-bar)^(+i) and the column rule
        psi(X_ij(r), X_kj(s)) = sign(i,k)(rs-bar)^(-j).  Zero otherwise."""
        n, theta, abar, mul = self.n, self.theta, self.abar, self.ring.dom.mul
        out: dict = {}
        for (_, i, j, lam), ca in xs:
            for (_, k, l, mu), cb in ys:
                if n == 4:
                    if len({i, j, k, l}) != 4:
                        continue
                    slot, sgn = theta((i, j, k, l)), 1
                elif i == k and j != l:
                    slot, sgn = i, _sign(j, l)
                elif j == l and i != k:
                    slot, sgn = -j, _sign(i, k)
                else:
                    continue
                self.add_scaled(out, self.embed(slot, abar[lam][mu]),
                                mul(sgn, mul(ca, cb)))
        return out

    def value(self, x, y) -> dict:
        """psi on two basis element descriptors (``_check_descriptor``),
        bilinear in their ring elements; zero when either is diagonal
        (t or T), since psi vanishes on H."""
        _check_descriptor(x, self.n, self.ring)
        _check_descriptor(y, self.n, self.ring)
        if x[0] != "x" or y[0] != "x":
            return {}
        return self.psi([(("x", x[1], x[2], k), c) for k, c in x[3].items()],
                        [(("x", y[1], y[2], k), c) for k, c in y[3].items()])


def _sign(m: int, n: int) -> int:
    return 1 if m < n else -1


def _in_range(x, lo: int, hi: int) -> bool:
    """Is x an int (not a bool) with lo <= x < hi?"""
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x < hi


def _check_descriptor(desc, n: int, ring: AssocAlgebra) -> None:
    """Raise ValueError unless desc is ("x", i, j, a) with i != j in 1..n,
    ("t", a, b) or ("T", i, a) with i in 2..n, where the ring elements a, b
    are dicts from basis keys in range(dim R) to scalars of R: ints (not
    bools), or Fractions over Q."""
    scalars = (int, Fraction) if ring.dom.name == "q" else int

    def element(a) -> bool:
        return isinstance(a, dict) and all(
            _in_range(k, 0, ring.dim) and isinstance(c, scalars)
            and not isinstance(c, bool) for k, c in a.items())

    ok = (isinstance(desc, tuple) and desc
          and ((desc[0] == "x" and len(desc) == 4
                and _in_range(desc[1], 1, n + 1)
                and _in_range(desc[2], 1, n + 1) and desc[1] != desc[2]
                and element(desc[3]))
               or (desc[0] == "t" and len(desc) == 3
                   and element(desc[1]) and element(desc[2]))
               or (desc[0] == "T" and len(desc) == 3
                   and _in_range(desc[1], 2, n + 1) and element(desc[2]))))
    if not ok:
        raise ValueError(f"malformed basis element descriptor: {desc!r}")


# ---------------------------------------------------------------------------
# the symbolic bracket engine
#
# Basis keys of stl_n(R), over a ring basis r_0, ..., r_{d-1}:
#   ("x", i, j, lam)   X_ij(r_lam)
#   ("t", lam, mu)     t(r_lam, r_mu)
#   ("T", j, lam)      T_1j(r_lam, 1)
# The t/T keys span the diagonal part H.  Under the torus, X_ij(r) has
# weight e_i - e_j and H has weight 0, so the X-part of an element is
# canonical, and the X-part of [u, v] is the sum of its weight-(e_i - e_j)
# terms: 0 when u and v are both diagonal or are X_ij and X_ji.  psi reads
# only X-parts and vanishes on H, so the engine computes no more.


class SteinbergSymbolic:
    """X-parts of brackets on the symbolic X / t / T basis of stl_n(R)."""

    __slots__ = ("n", "ring", "dom")

    def __init__(self, n: int, ring: AssocAlgebra):
        if n < 3:
            raise ValueError("need n >= 3")
        self.n = n
        self.ring = ring
        self.dom = ring.dom

    # -- constructors -----------------------------------------------------

    def basis_keys(self) -> list[tuple]:
        n, d = self.n, self.ring.dim
        keys = [("x", i, j, lam)
                for i in range(1, n + 1) for j in range(1, n + 1) if i != j
                for lam in range(d)]
        keys += [("t", lam, mu) for lam in range(d) for mu in range(d)]
        keys += [("T", j, lam) for j in range(2, n + 1) for lam in range(d)]
        return keys

    def xvec(self, i: int, j: int, a: dict) -> dict:
        """X_ij(a) for a ring element a, expanded over the ring basis."""
        return {("x", i, j, lam): c for lam, c in a.items() if c}

    def describe_key(self, key: tuple) -> str:
        labels = self.ring.labels
        if key[0] == "x":
            return f"X{key[1]}{key[2]}({labels[key[3]]})"
        if key[0] == "t":
            return f"t({labels[key[1]]},{labels[key[2]]})"
        return f"T1{key[1]}({labels[key[2]]},1)"

    # -- brackets ----------------------------------------------------------

    def bracket_keys(self, k1: tuple, k2: tuple) -> dict:
        """The X-part of [k1, k2]; {} at weight 0."""
        t1, t2 = k1[0], k2[0]
        if t1 == "x" and t2 == "x":
            return self._x_x(k1, k2)
        if t2 == "x":
            return self._h_x(k1, k2)
        if t1 == "x":
            # every diagonal-vs-X rule is antisymmetric
            return _neg_sym(self._h_x(k2, k1), self.dom)
        return {}

    def _x_x(self, k1, k2) -> dict:
        _, i, j, lam = k1
        _, k, l, mu = k2
        ring = self.ring
        if j == k and i == l:
            return {}       # [X_ij, X_ji] has weight 0: it lies in H
        if j == k:
            return self.xvec(i, l, ring.basis_product(lam, mu))
        if i == l:
            return _neg_sym(self.xvec(k, j, ring.basis_product(mu, lam)),
                            self.dom)
        return {}

    def _h_x(self, hkey, xkey) -> dict:
        """[h, X_ij(r_lam)] for a single diagonal key h."""
        _, i, j, lam = xkey
        ring, dom = self.ring, self.dom
        m = {lam: dom.one}
        if hkey[0] == "t":
            a = {hkey[1]: dom.one}
            b = {hkey[2]: dom.one}
            comm = ring.commutator(a, b)
            if i == 1:
                return self.xvec(1, j, ring.multiply(comm, m))
            if j == 1:
                return _neg_sym(self.xvec(i, 1, ring.multiply(m, comm)), dom)
            return {}
        # hkey = T_1q(c, 1)
        _, q, clam = hkey
        c0 = {clam: dom.one}
        if i == 1 and j == q:
            val = ring.multiply(c0, m)
            vec_axpy(val, ring.multiply(m, c0), dom.one, dom)
            return self.xvec(1, q, val)
        if i == q and j == 1:
            val = ring.multiply(c0, m)
            vec_axpy(val, ring.multiply(m, c0), dom.one, dom)
            return _neg_sym(self.xvec(q, 1, val), dom)
        if i == 1:
            return self.xvec(1, j, ring.multiply(c0, m))
        if j == 1:
            return _neg_sym(self.xvec(i, 1, ring.multiply(m, c0)), dom)
        if j == q:
            return self.xvec(i, q, ring.multiply(m, c0))
        if i == q:
            return _neg_sym(self.xvec(q, j, ring.multiply(c0, m)), dom)
        return {}


def _neg_sym(v: dict, dom) -> dict:
    return {k: dom.neg(c) for k, c in v.items()}


# ---------------------------------------------------------------------------
# cocycle verification


class CocycleReport:
    __slots__ = ("n", "ring_name", "ok", "triples_checked", "witness",
                 "theta_table")

    def __init__(self, n, ring_name, ok, triples_checked, witness,
                 theta_table):
        self.n = n
        self.ring_name = ring_name
        self.ok = ok
        self.triples_checked = triples_checked
        self.witness = witness
        self.theta_table = theta_table

    def __repr__(self):
        tag = "pass" if self.ok else f"FAIL at {self.witness}"
        return (f"CocycleReport(n={self.n}, ring={self.ring_name}, "
                f"{self.triples_checked} triples, {tag})")


def verify_cocycle(n: int, ring: AssocAlgebra,
                   theta: ThetaMap | None = None) -> CocycleReport:
    """Check J(x,y,z) = psi(x,[y,z]) + psi([x,z],y) - psi([x,y],z) = 0 on
    every ordered triple of the K symbolic basis keys.

    The X-parts of the brackets are computed by the symbolic engine; psi by
    ``CocycleSpace.psi``.  The triples are walked by ``_check_identity``, the
    walker that certifies every Leibniz table, with the bracket X-parts
    inside and psi outside; it sums only the nonzero terms, and where psi
    is 0 (as when W = 0) there are none and no bracket is computed.  So a
    pass reports K^3 triples, and a failure the first failing triple in
    (y, z, x) order and the count of triples up to and including it.
    ``theta`` may be supplied (n = 4 only) to run a negative control with a
    corrupted labeling; n and theta are checked by ``CocycleSpace``.
    Failures are report content, not exceptions.
    """
    space = CocycleSpace(n, ring, theta)
    engine = SteinbergSymbolic(n, ring)
    basis = engine.basis_keys()
    K = len(basis)
    index = {key: s for s, key in enumerate(basis)}
    psi = space.psi
    one = ring.dom.one

    # outside: psi on X-key pairs, in W/U coordinates shifted past the keys;
    # inside: the X-parts of all pairwise brackets (psi vanishes on H),
    # not needed where psi is 0 (as when W = 0): every J term is then 0
    xidx = [s for s, key in enumerate(basis) if key[0] == "x"]
    outer: dict = {}
    for s in xidx:
        for t in xidx:
            val = psi([(basis[s], one)], [(basis[t], one)])
            if val:
                outer[(s, t)] = {K + c: v for c, v in val.items()}
    inner: dict = {}
    for s, k1 in enumerate(basis if outer else ()):
        for t, k2 in enumerate(basis):
            xs = {index[k]: c for k, c in engine.bracket_keys(k1, k2).items()}
            if xs:
                inner[(s, t)] = xs
    carrier = LeibnizAlgebra(ring.dom, K + space.width, {},
                             [engine.describe_key(k) for k in basis]
                             + space.labels, [0] * K + space.moduli,
                             f"psi-{n}({ring.name})")

    theta_table = None if space.theta is None else space.theta.to_dict()
    try:
        _check_identity(carrier, K, inner, outer, "the cocycle identity "
                        "psi(x,[y,z]) - psi([x,y],z) + psi([x,z],y) = 0")
    except LeibnizIdentityError as exc:
        x, y, z = exc.triple
        lab = carrier.labels
        witness = {"x": lab[x], "y": lab[y], "z": lab[z],
                   "value": describe_vector(exc.defect, lab)}
        return CocycleReport(n, ring.name, False, (y * K + z) * K + x + 1,
                             witness, theta_table)
    return CocycleReport(n, ring.name, True, K ** 3, None, theta_table)


# ---------------------------------------------------------------------------
# the concrete stl model


class SteinbergModel:
    """stl_n(R) realized as uce(sl_n(R)) / N, with tagged generator images.

    ``extension`` is the central extension stl -> sl; ``x_basis`` maps
    (i, j, lam) to the coordinates of X_ij(r_lam) in the total algebra.
    ``hl2`` holds the invariants of HL_2(stl), the image of N in
    ker(uce(sl) -> sl).  The images of T_ij(a,b) and t(a,b) are derived
    brackets (cached per ring-basis pair).
    """

    __slots__ = ("n", "ring", "extension", "x_basis", "hl2", "_tcache")

    def __init__(self, n, ring, extension, x_basis, hl2):
        self.n = n
        self.ring = ring
        self.extension = extension
        self.x_basis = x_basis
        self.hl2 = hl2
        self._tcache: dict = {}

    @property
    def total(self) -> LeibnizAlgebra:
        return self.extension.total

    @property
    def kernel_invariants(self) -> SubquotientInvariants:
        return self.extension.kernel_invariants

    def x_image(self, i: int, j: int, a: dict) -> dict:
        """X_ij(a) in total coordinates, for a ring element a."""
        dom = self.total.dom
        out: dict = {}
        for lam, c in a.items():
            if c:
                vec_axpy(out, self.x_basis[(i, j, lam)], c, dom)
        return self.total.reduce_vec(out)

    def T_image(self, i: int, j: int, a: dict, b: dict) -> dict:
        """T_ij(a,b) = [X_ij(a), X_ji(b)] in total coordinates."""
        dom = self.total.dom
        out: dict = {}
        for lam, ca in a.items():
            for mu, cb in b.items():
                c = dom.mul(ca, cb)
                if not c:
                    continue
                key = (i, j, lam, mu)
                w = self._tcache.get(key)
                if w is None:
                    w = self.total.bracket(self.x_basis[(i, j, lam)],
                                           self.x_basis[(j, i, mu)])
                    self._tcache[key] = w
                vec_axpy(out, w, c, dom)
        return self.total.reduce_vec(out)

    def t_image(self, a: dict, b: dict, j: int = 2) -> dict:
        """t(a,b) = T_1j(a,b) - T_1j(ba,1); independent of j (checked by
        verify_calculus)."""
        dom = self.total.dom
        out = self.T_image(1, j, a, b)
        ba = self.ring.multiply(b, a)
        vec_axpy(out, self.T_image(1, j, ba, self.ring.unit),
                 dom.neg(dom.one), dom)
        return self.total.reduce_vec(out)

    def h_generators(self) -> list[dict]:
        """The f-normal-form spanning family of H: all t(r_lam, r_mu) plus
        all T_1j(r_lam, 1)."""
        d = self.ring.dim
        one = self.total.dom.one
        gens = [self.t_image({lam: one}, {mu: one})
                for lam in range(d) for mu in range(d)]
        gens += [self.T_image(1, j, {lam: one}, self.ring.unit)
                 for j in range(2, self.n + 1) for lam in range(d)]
        return gens

    def __repr__(self):
        return (f"SteinbergModel(n={self.n}, ring={self.ring.name}, "
                f"dim={self.total.dim}, "
                f"kernel={self.kernel_invariants.describe()})")


def build_stl(n: int, ring: AssocAlgebra) -> SteinbergModel:
    """Concrete stl_n(R): quotient the universal central extension of
    sl_n(R) by the span N of the tensor classes at disjoint positions.

    Construction-time assertions: (a) the kernel of stl -> sl has exactly
    the invariants of HH_1(R), (b) stl is perfect, (c) the defining
    generator relations hold on the X images.  X_ij(a) is the class of
    E_ip(a)(x)E_pj(1) at the first pivot p; by bilinearity (c) gives
    [X_iq(a), X_qj(1)] = X_ij(a) at every pivot q, and N is central, as
    each generator's image in sl is that of [X_ij(a), X_kl(b)] = 0 at
    disjoint positions.

    By (b), uce(sl) -> stl is the universal central extension of stl, so
    HL_2(stl) = ker(uce(sl) -> stl): the image of N in ker(uce(sl) -> sl)
    (Casas-Corral, Comm. Algebra 2009).  Its invariants are read off the
    N generators here and kept as ``model.hl2``; no d3 cube of stl is
    streamed; none is formed when uce's kernel is 0.  HH_1(R) is computed
    once, for (a) and for ``uce``'s weight-0 stop.
    """
    if n not in (3, 4, 5):
        raise ValueError("stl models are built for n in {3, 4, 5}")
    sl = build_sl(n, ring)
    hh1 = hochschild_h1(ring)
    ext = uce(sl, hh1)
    dom = sl.dom
    one = dom.one
    m = ext.total.dim - sl.dim

    # the class of u (x) v is the bracket [u, v] of the total, whose first
    # coordinates are those of sl
    pos = _distinct(n, 2)
    d = ring.dim
    # E_ij(r_lam) and E_ij(1) in sl coordinates, each solved for once
    eij = {(i, j, lam): sl.eij(i - 1, j - 1, {lam: one})
           for (i, j) in pos for lam in range(d)}
    eij_one = {(i, j): sl.eij(i - 1, j - 1, ring.unit) for (i, j) in pos}
    ngens: list[dict] = []
    for (i, j) in (pos if m else ()):   # m = 0: every kernel part is 0
        for (k, l) in pos:
            if j == k or i == l:
                continue
            for lam in range(d):
                ei = eij[(i, j, lam)]
                for mu in range(d):
                    coords = ext.total.bracket(ei, eij[(k, l, mu)])
                    if coords:
                        ngens.append(ext.kernel_part(coords))

    # the kernel dom^m / (kernel moduli), and the image of N in it: one
    # echelon of N + moduli gives both the stl kernel and HL_2(stl)
    moduli_rows = [{c: mod} for c, mod in enumerate(ext.kernel_moduli) if mod]
    rel, nrel = make_echelon(dom), make_echelon(dom)
    for g in moduli_rows:
        rel.insert(g)
    for g in ngens + moduli_rows:
        nrel.insert(g)
    pres = present_quotient(nrel, m, dom)
    q = pres.dim
    invariants = moduli_invariants(dom, pres.moduli)
    hl2 = subquotient(nrel, rel, m, dom)

    if invariants != hh1:
        raise AssertionError(
            f"kernel of stl{n}({ring.name}) -> sl is "
            f"{invariants.describe()}, but HH1(R) is {hh1.describe()}")

    kappa: dict = {}
    for p, w in ext.total.table.items():
        kern = pres.coords(ext.kernel_part(w))
        if kern:
            kappa[p] = kern
    model_ext = CentralExtensionModel(
        sl, list(pres.moduli), kappa, f"stl{n}({ring.name})",
        [f"hh1_{t}" for t in range(q)])
    total = model_ext.total

    # X_ij(a) := class of E_ip(a)(x)E_pj(1) at the first pivot p; see (c)
    x_basis: dict = {}
    for (i, j) in pos:
        p = next(p for p in range(1, n + 1) if p != i and p != j)
        for lam in range(d):
            x_basis[(i, j, lam)] = total.bracket(eij[(i, p, lam)],
                                                 eij_one[(p, j)])

    model = SteinbergModel(n, ring, model_ext, x_basis, hl2)
    _check_generator_relations(model, pos)
    if not is_perfect(total):
        raise AssertionError(f"{total.name} is not perfect")
    return model


def _check_generator_relations(model: SteinbergModel, pos: list) -> None:
    """Product, twisted-product and disjoint-zero relations on X images;
    at every pivot, so X_ij(a) does not depend on it (``build_stl``)."""
    total, ring, x_basis = model.total, model.ring, model.x_basis
    dom = total.dom
    d = ring.dim
    images: dict = {}   # (p, q, lam, mu) -> X_pq(r_lam r_mu), built once

    def ximg(p, q, lam, mu):
        key = (p, q, lam, mu)
        if key not in images:
            images[key] = model.x_image(p, q, ring.basis_product(lam, mu))
        return images[key]

    for (i, j) in pos:
        for (k, l) in pos:
            if j == k and i == l:
                continue        # [X_ij(a), X_ji(b)] defines T, no relation
            for lam in range(d):
                for mu in range(d):
                    got = total.bracket(x_basis[(i, j, lam)],
                                        x_basis[(k, l, mu)])
                    if j == k:
                        want = ximg(i, l, lam, mu)
                    elif i == l:
                        want = _neg_sym(ximg(k, j, mu, lam), dom)
                    else:
                        want = {}
                    if not total.eq_vec(got, want):
                        raise AssertionError(
                            f"generator relation fails at "
                            f"[X{i}{j}(r{lam}), X{k}{l}(r{mu})]")


# ---------------------------------------------------------------------------
# relation checks shared by the verifiers


class _Tally:
    """Instance counts per relation name, in first-seen order, and the
    first failure's message (the witness).  ``asym`` holds the pairs of
    basis vectors of ``alg`` on which its table is not antisymmetric, read
    when the tally is made (``_asymmetric_pairs``)."""

    __slots__ = ("alg", "asym", "counts", "witness")

    def __init__(self, alg: LeibnizAlgebra):
        self.alg = alg
        self.asym = _asymmetric_pairs(alg.table, alg.dom)
        self.counts: dict[str, int] = {}
        self.witness = None

    def fail(self, msg: str) -> None:
        if self.witness is None:
            self.witness = msg

    def check(self, name: str, ok: bool, msg: str) -> None:
        """Count one instance of ``name``; ``msg`` is the witness if not ok."""
        self.counts[name] = self.counts.get(name, 0) + 1
        if not ok:
            self.fail(msg)

    def bracket(self, name: str, u: dict, v: dict, want: dict, msg: str,
                rev_msg: str | None = None) -> None:
        """One instance of ``name``: [u, v] = want and [v, u] = -want.
        Unless some pair of supp(u) x supp(v) is in ``asym``, [v, u] =
        -[u, v] exactly, so the reverse holds exactly when the forward does
        and is not bracketed again."""
        alg, asym = self.alg, self.asym
        ok = alg.eq_vec(alg.bracket(u, v), want)
        self.check(name, ok, msg)
        if asym and any((s, t) in asym for s in u for t in v):
            ok = alg.eq_vec(alg.bracket(v, u), _neg_sym(want, alg.dom))
        if not ok:
            self.fail(msg if rev_msg is None else rev_msg)


def _carrier_solver(alg: LeibnizAlgebra, gens: list[dict]) -> SpanSolver:
    """Solve over span(gens) in the carrier of ``alg``: the generators come
    first, then one relation row per torsion coordinate."""
    solver = SpanSolver(alg.dom, alg.dim, gens)
    for c, mod in enumerate(alg.moduli):
        if mod:
            solver.add({c: mod})
    return solver


# ---------------------------------------------------------------------------
# structure calculus verification


class CalculusReport:
    __slots__ = ("n", "ring_name", "ok", "checks", "witness")

    def __init__(self, n, ring_name, ok, checks, witness):
        self.n = n
        self.ring_name = ring_name
        self.ok = ok
        self.checks = checks
        self.witness = witness

    def __repr__(self):
        tag = "pass" if self.ok else f"FAIL: {self.witness}"
        return (f"CalculusReport(n={self.n}, ring={self.ring_name}, "
                f"{sum(self.checks.values())} instances, {tag})")


def verify_calculus(model: SteinbergModel) -> CalculusReport:
    """Exhaustively check the diagonal-part calculus in the concrete model:

    * the T recombination identity T_ij(a,bc) = T_ik(ab,c) + T_kj(ca,b) and
      the unit antisymmetry T_kj(c,1) + T_jk(c,1) = 0;
    * independence of t(a,b) from the defining column index;
    * all nine diagonal-vs-X bracket rules;
    * every T_ij(a,b) decomposes over the t / T_1j(.,1) family, and the
      center of the model sits inside that diagonal span.

    a, b, c range over the ring basis; failures become report content.
    """
    n, ring = model.n, model.ring
    total = model.total
    dom = total.dom
    one = dom.one
    d = ring.dim
    basis = [{lam: one} for lam in range(d)]
    unit = ring.unit
    mul = ring.multiply
    T, xi = model.T_image, model.x_image
    # X_pq(r_z), already reduced: the value of xi(p, q, basis[z])
    xb = model.x_basis
    tally = _Tally(total)
    check, bracket = tally.check, tally.bracket

    # the ring elements the rules read, each numbered once in ``elems``:
    # the basis first (r_x has id x), the products ab[x][y] = r_x r_y (id
    # abid[x][y]), the unit (id uid), and per basis triple (ab)c, (ca)b,
    # (cb)a, (ba)c and abc + cba (ids triple[x, y, z])
    elems, eid = [], {}

    def ident(u):
        key = tuple(sorted(u.items()))
        if key not in eid:
            eid[key] = len(elems)
            elems.append(u)
        return eid[key]

    for b in basis:
        ident(b)
    ab = [[mul(a, b) for b in basis] for a in basis]
    abid = [[ident(prod) for prod in row] for row in ab]
    uid = ident(unit)
    triple = {}
    for x, y, z in product(range(d), repeat=3):
        four = (mul(ab[x][y], basis[z]), mul(ab[z][x], basis[y]),
                mul(ab[z][y], basis[x]), mul(ab[y][x], basis[z]))
        same = dict(four[0])
        vec_axpy(same, four[2], one, dom)
        triple[x, y, z] = [ident(prod) for prod in (*four, same)]
    # T_ij(u, v) and X_pq(product), each computed once, keyed by the ids of
    # their ring arguments; tb starts with the basis pairs, the rest come
    # on demand (t_at)
    tb = {(i, j, x, y): T(i, j, a, b) for (i, j) in _distinct(n, 2)
          for x, a in enumerate(basis) for y, b in enumerate(basis)}
    xp = {(p, q, m): xi(p, q, elems[m]) for (p, q) in _distinct(n, 2)
          for m in sorted({m for ids in triple.values() for m in ids})}

    def t_at(i, j, u, v):
        w = tb.get((i, j, u, v))
        if w is None:
            w = tb[i, j, u, v] = T(i, j, elems[u], elems[v])
        return w

    # T recombination
    for (i, j, k) in _distinct(n, 3):
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    lhs = t_at(i, j, x, abid[y][z])
                    rhs = dict(t_at(i, k, abid[x][y], z))
                    vec_axpy(rhs, t_at(k, j, abid[z][x], y), one, dom)
                    check("T-recombination", total.eq_vec(lhs, rhs),
                          f"T{i}{j}(a,bc) != T{i}{k}(ab,c)+T{k}{j}(ca,b)")

    # unit antisymmetry
    for (k, j) in _distinct(n, 2):
        for z in range(d):
            s = dict(t_at(k, j, z, uid))
            vec_axpy(s, t_at(j, k, z, uid), one, dom)
            check("T-unit-antisymmetry", not total.reduce_vec(s),
                  f"T{k}{j}(c,1) + T{j}{k}(c,1) != 0")

    # column independence of t
    for j in range(3, n + 1):
        for a in basis:
            for b in basis:
                check("t-column-independence",
                      total.eq_vec(model.t_image(a, b, j=2),
                                   model.t_image(a, b, j=j)),
                      f"t(a,b) differs between columns 2 and {j}")

    # the nine diagonal-vs-X rules
    for (i, j, k, l) in _distinct(n, 4):
        for x in range(d):
            for y in range(d):
                t_ab = tb[i, j, x, y]
                for z in range(d):
                    bracket("TX-disjoint-zero", t_ab, xb[k, l, z], {},
                            f"[T{i}{j}, X{k}{l}] != 0")

    for (i, j, k) in _distinct(n, 3):
        for x in range(d):
            for y in range(d):
                t_ab = tb[i, j, x, y]
                for z in range(d):
                    abc, cab, cba, bac, same = triple[x, y, z]
                    # (rule, position of X, ring product, negated value)
                    for name, p, q, m, neg in (
                            ("TX-same-row", i, k, abc, False),
                            ("TX-into-column", k, i, cab, True),
                            ("TX-same-column", k, j, cba, False),
                            ("TX-from-row", j, k, bac, True)):
                        want = xp[p, q, m]
                        bracket(name, t_ab, xb[p, q, z],
                                _neg_sym(want, dom) if neg else want,
                                f"{name} fails at T{i}{j}/X{p}{q}",
                                f"{name} reversed fails at T{i}{j}/X{p}{q}")
                    # same-position rule: [T_ij(a,b), X_ij(c)] = X_ij(abc+cba)
                    bracket("TX-same-position", t_ab, xb[i, j, z],
                            xp[i, j, same], f"TX-same-position fails at T{i}{j}",
                            f"TX-same-position reversed fails at T{i}{j}")

    # t against X: first row, first column, and neither
    for a in basis:
        for b in basis:
            comm = ring.commutator(a, b)
            t_ab = model.t_image(a, b)
            for z, c in enumerate(basis):
                comm_c, c_comm = mul(comm, c), mul(c, comm)
                for i in range(2, n + 1):
                    bracket("tX-first-row", t_ab, xb[1, i, z],
                            xi(1, i, comm_c),
                            f"[t(a,b), X1{i}(c)] != X1{i}((ab-ba)c)",
                            f"[X1{i}(c), t(a,b)] != -X1{i}((ab-ba)c)")
                    bracket("tX-first-column", t_ab, xb[i, 1, z],
                            _neg_sym(xi(i, 1, c_comm), dom),
                            f"[t(a,b), X{i}1(c)] != -X{i}1(c(ab-ba))",
                            f"[X{i}1(c), t(a,b)] reversed rule fails")
                for (j, k) in _distinct(n, 2):
                    if j != 1 and k != 1:
                        bracket("tX-interior-zero", t_ab, xb[j, k, z], {},
                                f"[t(a,b), X{j}{k}(c)] != 0")

    # decomposition of H over the normal form, and center inside H
    hsolver = _carrier_solver(total, model.h_generators())
    for (i, j) in _distinct(n, 2):
        for x in range(d):
            for y in range(d):
                check("H-decomposition",
                      hsolver.solve(tb[i, j, x, y]) is not None,
                      f"T{i}{j}(a,b) escapes the t/T normal form")
    for v in structural_report(total).center_basis:
        check("center-inside-H", hsolver.solve(v) is not None,
              "a central element escapes the diagonal subalgebra")

    return CalculusReport(n, ring.name, tally.witness is None, tally.counts,
                          tally.witness)


# ---------------------------------------------------------------------------
# the hat extension


class HatModel:
    """W (+) stl (resp. U (+) stl) with bracket ((c,x),(c',y)) |->
    (psi(x,y), [x,y]).

    ``extension`` is the central extension hat -> stl, whose kappa is psi on
    pairs of stl basis vectors.  Coordinates put stl first and the
    cocycle-value block after it, so the stl inclusion is the identity on
    coordinates.  ``space`` is the ``CocycleSpace`` psi was read from, with
    its theta (None for n = 3).
    """

    __slots__ = ("stl", "extension", "space")

    def __init__(self, stl, extension, space):
        self.stl = stl
        self.extension = extension
        self.space = space

    @property
    def total(self) -> LeibnizAlgebra:
        return self.extension.total

    def include_w(self, coords: dict) -> dict:
        sd = self.stl.total.dim
        return {sd + k: c for k, c in coords.items() if c}

    def __repr__(self):
        return (f"HatModel(n={self.stl.n}, ring={self.stl.ring.name}, "
                f"dim={self.total.dim} = {self.stl.total.dim} + "
                f"{self.space.width})")


def build_hat(model: SteinbergModel,
              theta: ThetaMap | None = None) -> HatModel:
    """The hat extension of the stl_n(R) model by W (n = 4) or U (n = 3).

    n and R are the model's; ``CocycleSpace(n, R, theta)`` refuses n = 5
    and a theta at n = 3.  psi is transported to the concrete model
    through the canonical X-part decomposition of each basis vector and
    becomes the kappa of a ``CentralExtensionModel``, which checks the
    cocycle condition on every stl triple: a concrete, independent
    confirmation that psi is a cocycle.  The stl total carries the grading
    its own support check certified (sl's weights, HH_1 at weight 0),
    under which each W slot has the weight of its position class, so the
    hat total is graded by those six weights, unless psi fails the support
    check.
    """
    n, ring = model.n, model.ring
    space = CocycleSpace(n, ring, theta)
    stl_alg = model.total
    one = ring.dom.one

    # canonical X-part of every stl basis vector: solve over the image
    # family [X images | t images | T images | torsion relations] — any two
    # solutions differ only in the diagonal part, which psi ignores
    xkeys = [("x", i, j, lam) for (i, j) in _distinct(n, 2)
             for lam in range(ring.dim)]
    solver = _carrier_solver(stl_alg, [model.x_basis[k[1:]] for k in xkeys]
                             + model.h_generators())
    xdecomp: list[list] = []
    for s in range(stl_alg.dim):
        sol = solver.solve({s: one})
        if sol is None:
            raise AssertionError(
                f"basis vector {stl_alg.labels[s]} escapes the X + diagonal "
                f"decomposition of {stl_alg.name}")
        xdecomp.append([(xkeys[idx], c) for idx, c in sorted(sol.items())
                        if idx < len(xkeys) and c])

    # psi on each pair of stl basis vectors, bilinear in their X-parts
    kappa: dict = {}
    for s, xs in enumerate(xdecomp):
        for t, xt in enumerate(xdecomp):
            val = space.psi(xs, xt)
            if val:
                kappa[(s, t)] = val
    ext = CentralExtensionModel(
        stl_alg, list(space.moduli), kappa, f"hat-stl{n}({ring.name})",
        space.labels)
    if not is_perfect(ext.total):
        raise AssertionError(f"{ext.total.name} is not perfect")
    return HatModel(model, ext, space)


# ---------------------------------------------------------------------------
# sharp relations


class SharpReport:
    """Counts per sharp relation, the first failure (witness), perfectness
    of the hat and whether its center holds the cocycle block."""

    __slots__ = ("n", "ring_name", "ok", "relations", "witness",
                 "perfect", "center_contains_kernel")

    def __init__(self, n, ring_name, ok, relations, witness, perfect,
                 center_contains_kernel):
        self.n = n
        self.ring_name = ring_name
        self.ok = ok
        self.relations = relations
        self.witness = witness
        self.perfect = perfect
        self.center_contains_kernel = center_contains_kernel

    def __repr__(self):
        tag = "pass" if self.ok else f"FAIL: {self.witness}"
        return f"SharpReport(n={self.n}, ring={self.ring_name}, {tag})"


def verify_sharp_relations(hat: HatModel) -> SharpReport:
    """Check every defining relation of the sharp presentation on the images
    (0, X_ij(a)) inside the hat model, on all ring-basis pairs, plus
    perfectness (``is_perfect``) and that every coordinate of the cocycle
    block is central.  X_ij(r_x) is read from the stl model's ``x_basis``;
    only the products X_ik(ab) are assembled by ``x_image``."""
    n, ring = hat.stl.n, hat.stl.ring
    total = hat.total
    dom = total.dom
    one = dom.one
    d = ring.dim
    X, space = hat.stl.x_image, hat.space
    # X_pq(r_z), already reduced: the value of X(p, q, r_z)
    xb = hat.stl.x_basis
    tally = _Tally(total)
    check, bracket = tally.check, tally.bracket
    # ab[x][y] = r_x r_y, computed once; its class in R_m is space.abar[x][y]
    ab = [[ring.basis_product(x, y) for y in range(d)] for x in range(d)]

    # two-sided product relation
    for (i, j, k) in _distinct(n, 3):
        for x in range(d):
            for y in range(d):
                bracket("two-sided-product", xb[i, j, x], xb[j, k, y],
                        X(i, k, ab[x][y]),
                        f"[X{i}{j}#, X{j}{k}#] != X{i}{k}#(ab)",
                        f"[X{j}{k}#, X{i}{j}#] != -X{i}{k}#(ab)")

    # the cocycle block commutes with every generator image
    for (i, j) in _distinct(n, 2):
        for x in range(d):
            for k in range(space.width):
                bracket("kernel-commutes", xb[i, j, x],
                        hat.include_w({k: one}), {},
                        f"[X{i}{j}#, {space.labels[k]}] != 0")

    # squares vanish
    for (i, j) in _distinct(n, 2):
        for x in range(d):
            for y in range(d):
                check("same-position-zero",
                      not total.bracket(xb[i, j, x], xb[i, j, y]),
                      f"[X{i}{j}#(a), X{i}{j}#(b)] != 0")

    if n == 4:
        for (i, j, k) in _distinct(n, 3):
            for x in range(d):
                for y in range(d):
                    check("same-row-zero",
                          not total.bracket(xb[i, j, x], xb[i, k, y]),
                          f"[X{i}{j}#, X{i}{k}#] != 0")
                    check("same-column-zero",
                          not total.bracket(xb[i, j, x], xb[k, j, y]),
                          f"[X{i}{j}#, X{k}{j}#] != 0")
        for (i, j, k, l) in _distinct(n, 4):
            slot = space.theta((i, j, k, l))
            for x in range(d):
                for y in range(d):
                    want = hat.include_w(space.embed(slot, space.abar[x][y]))
                    check("disjoint-cocycle-value",
                          total.eq_vec(total.bracket(xb[i, j, x],
                                                     xb[k, l, y]), want),
                          f"[X{i}{j}#, X{k}{l}#] != eps_{slot}(ab)")
    else:
        for (i, j, k) in _distinct(n, 3):
            for x in range(d):
                for y in range(d):
                    prod = space.abar[x][y]
                    for name, slot, u, v, msg in (
                            ("same-row-cocycle-value", i, xb[i, j, x],
                             xb[i, k, y], f"[X{i}{j}#, X{i}{k}#] != "
                             f"sign({j},{k})(ab)^(+{i})"),
                            ("same-column-cocycle-value", -i, xb[j, i, x],
                             xb[k, i, y], f"[X{j}{i}#, X{k}{i}#] != "
                             f"sign({j},{k})(ab)^(-{i})")):
                        want = hat.include_w(space.embed(slot, prod))
                        if _sign(j, k) < 0:
                            want = _neg_sym(want, dom)
                        check(name, total.eq_vec(total.bracket(u, v), want),
                              msg)

    perfect = is_perfect(total)
    center_ok = True
    for k in range(space.width):
        if not is_central(total, hat.include_w({k: one})):
            center_ok = False
            tally.fail(f"{space.labels[k]} is not central")

    ok = tally.witness is None and perfect and center_ok
    return SharpReport(n, ring.name, ok, tally.counts, tally.witness,
                       perfect, center_ok)


# ---------------------------------------------------------------------------
# homology comparison


class Hl2Report:
    __slots__ = ("n", "ring_name", "computed", "predicted", "ok", "stl_dim")

    def __init__(self, n, ring_name, computed, predicted, ok, stl_dim):
        self.n = n
        self.ring_name = ring_name
        self.computed = computed
        self.predicted = predicted
        self.ok = ok
        self.stl_dim = stl_dim

    def __repr__(self):
        tag = "match" if self.ok else "MISMATCH"
        return (f"Hl2Report(n={self.n}, ring={self.ring_name}, "
                f"computed={self.computed.describe()}, "
                f"predicted={self.predicted.describe()}, {tag})")


def predicted_hl2(n: int, ring: AssocAlgebra) -> SubquotientInvariants:
    """The invariants of the cocycle-value space ``CocycleSpace(n, R)``:
    six copies of R_2 (n = 4), six copies of R_3 (n = 3); zero beyond."""
    if n < 3:
        raise ValueError("predictions cover n >= 3")
    if n >= 5:
        return moduli_invariants(ring.dom, [])
    return moduli_invariants(ring.dom, CocycleSpace(n, ring).moduli)


def hl2_report(model: SteinbergModel) -> Hl2Report:
    """Compare HL_2 of the concrete stl model, which ``build_stl`` read off
    the N presentation (``model.hl2``), with the predicted cocycle-value
    space; over Z the comparison is by invariant factors.  Torsion carriers
    are covered too, and nothing is streamed."""
    predicted = predicted_hl2(model.n, model.ring)
    return Hl2Report(model.n, model.ring.name, model.hl2, predicted,
                     model.hl2 == predicted, model.total.dim)
