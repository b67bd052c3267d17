"""Sparse exact linear algebra over F_p, Q and Z.

Vectors are dicts ``{column: scalar}`` with no explicit zeros.  The work
horses are four echelon engines, one per domain family, sharing one
duck-typed API (``insert``, ``reduce``, ``rank``, the pivot-keyed ``rows``
and ``row_dicts()`` in ascending pivot order); ``make_echelon(dom)`` is the
one place that picks and builds an engine, and every span, ideal and center
in the package is held in one:

* ``F2Forward``   -- GF(2); rows are Python ints used as bitmasks.
* ``FpForward``   -- F_3 and F_5; dict rows with pivot entry 1.
* ``QForward``    -- Q; fraction-free primitive integer rows.
* ``HermiteBasis``-- integer row lattices in Hermite echelon form (pivots
                     positive, extended-gcd insertion).

The field engines keep forward rows: a row starts at its pivot but may carry
other rows' pivot columns, so an insert never touches the stored rows.  The
fully reduced rows (the reduced row echelon form of the span) are built on
demand by ``row_dicts()``.

On top of the engines: span solvers (``SpanSolver``), which express targets
in a generating family and give the relations among its generators, so a
kernel is the relation module of a matrix's columns and no matrix type is
needed; and one reading of a quotient dom^width/span(R) off the echelon R
was inserted into (``present_quotient``), one map from each column to its
coordinates: over a field the non-pivot columns, and each pivot column's
residual; over Z, the Smith form of the few Hermite rows left once the
rows with a unit pivot have eliminated their pivot columns, whose
unimodular row transform gives the coordinates.  ``present_quotient`` is
the only caller of ``smith_normal_form``, which holds that small matrix
and its transform in dense lists.  The invariants of a subquotient
span(K)/span(I) (``subquotient``) are those of the quotient presentation
of I's coordinates in a basis of K, solved for by a ``SpanSolver`` over K.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .domains import ScalarDomain, Z as _ZDOM


def lsb(mask: int) -> int:
    """Index of the least significant set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) = x*a + y*b`` and ``g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_axpy(dst: dict, src: dict, c, dom: ScalarDomain) -> None:
    """In-place ``dst += c * src`` with zero dropping (c must be nonzero)."""
    if dom.p is not None:
        p = dom.p
        for k, x in src.items():
            val = (dst.get(k, 0) + c * x) % p
            if val:
                dst[k] = val
            elif k in dst:
                del dst[k]
    else:
        for k, x in src.items():
            val = dst.get(k, 0) + c * x
            if val:
                dst[k] = val
            elif k in dst:
                del dst[k]


def vec_combine(u: dict, v: dict, cu: int, cv: int) -> dict:
    """Integer combination ``cu*u + cv*v`` as a fresh dict."""
    out = {k: cu * x for k, x in u.items()} if cu else {}
    for k, x in v.items():
        val = out.get(k, 0) + cv * x
        if val:
            out[k] = val
        elif k in out:
            del out[k]
    return out


def describe_vector(v: dict, labels) -> str:
    """``label`` or ``c*label`` per nonzero key, ascending, joined by
    `` + ``; ``"0"`` for the empty vector."""
    if not v:
        return "0"
    return " + ".join(labels[k] if c == 1 else f"{c}*{labels[k]}"
                      for k, c in sorted(v.items()))


def mask_of(v: dict) -> int:
    """GF(2) bitmask of a dict vector (coefficients taken mod 2)."""
    m = 0
    for k, x in v.items():
        if x & 1:
            m |= 1 << k
    return m


def dict_of_mask(m: int) -> dict:
    out = {}
    while m:
        j = lsb(m)
        out[j] = 1
        m &= m - 1
    return out


# ---------------------------------------------------------------------------
# echelon engines


class HermiteBasis:
    """Basis of an integer row lattice, maintained in Hermite echelon form.

    Pivot entries are positive; each pivot column is minimal in its row.
    ``reduce`` performs floor-division reduction, so a vector belongs to the
    lattice iff its residual is empty.  Entries above a pivot are not
    reduced: the rows are a basis, not the canonical Hermite form.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v: dict) -> int | None:
        """Grow the lattice by ``v``; return a new pivot column or None."""
        v = {k: x for k, x in v.items() if x}
        rows = self.rows
        while v:
            j = min(v)
            r = rows.get(j)
            if r is None:
                if v[j] < 0:
                    v = {k: -x for k, x in v.items()}
                rows[j] = v
                return j
            a = r[j]
            b = v[j]
            q, rem = divmod(b, a)
            if rem == 0:
                vec_axpy(v, r, -q, _ZDOM)
                continue
            g, x, y = xgcd(a, b)
            # Unimodular 2x2 update: span{r, v} is preserved, the new pivot
            # row has leading entry g, the companion has leading entry 0.
            rows[j] = vec_combine(r, v, x, y)
            v = vec_combine(r, v, -(b // g), a // g)
        return None

    def reduce(self, v: dict) -> dict:
        """Floor-reduce ``v`` by the lattice; empty residual iff member."""
        v = {k: x for k, x in v.items() if x}
        rows = self.rows
        out = {}
        while v:
            j = min(v)
            r = rows.get(j)
            if r is not None:
                q = v[j] // r[j]
                if q:
                    vec_axpy(v, r, -q, _ZDOM)
            if j in v:
                out[j] = v.pop(j)
        return out

    def row_dicts(self) -> dict[int, dict]:
        return dict(sorted(self.rows.items()))


# ---------------------------------------------------------------------------
# forward-only streaming echelons
#
# A forward field engine reduces a vector to a canonical residual: it carries
# no pivot column at all, and v = (row-span part) + (off-pivot part) is a
# direct-sum decomposition once one row per pivot exists.  That canonical
# projection is all that rank counts, membership, quotient representatives
# and coordinate extraction need, and skipping back-reduction on insert
# avoids the catastrophic mid-phase fill of a fully reduced form on large
# streams.


def _back_substitute(rows: dict[int, dict], p: int | None) -> dict[int, dict]:
    """Fully reduced rows of forward rows with pivot coefficient 1.

    Works from the rightmost pivot leftwards, so every pivot column a row
    meets belongs to a row that is already fully reduced; each hit is
    cleared once and adds support at non-pivot columns only.  ``p`` is the
    prime, or None for canonical Q entries (kept canonical).
    """
    out: dict[int, dict] = {}
    for j in sorted(rows, reverse=True):
        r = dict(rows[j])
        for q in [q for q in r if q in out]:
            c = r[q]
            for k, x in out[q].items():
                val = r.get(k, 0) - c * x
                if p is not None:
                    val %= p
                elif val.denominator == 1:
                    val = val.numerator
                if val:
                    r[k] = val
                else:
                    del r[k]
        out[j] = r
    return dict(sorted(out.items()))


class F2Forward:
    """Forward echelon over GF(2), rows stored as int bitmasks."""

    __slots__ = ("rows", "_pivunion")

    def __init__(self):
        self.rows: dict[int, int] = {}   # pivot column -> mask
        self._pivunion = 0               # OR of all pivot bits

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_mask(self, m: int) -> int:
        rows = self.rows
        pu = self._pivunion
        while True:
            hit = m & pu
            if not hit:
                return m
            # xor clears the lowest pivot bit; it may toggle higher pivot
            # bits on, but the lowest hit strictly increases, so this stops
            m ^= rows[lsb(hit)]

    def insert_mask(self, m: int) -> int | None:
        """Add a row; return its new pivot column, or None if dependent."""
        m = self.reduce_mask(m)
        if not m:
            return None
        j = lsb(m)
        self.rows[j] = m
        self._pivunion |= 1 << j
        return j

    # dict-vector facade so all engines interoperate
    def insert(self, v: dict) -> int | None:
        return self.insert_mask(mask_of(v))

    def reduce(self, v: dict) -> dict:
        return dict_of_mask(self.reduce_mask(mask_of(v)))

    def row_dicts(self) -> dict[int, dict]:
        return _back_substitute(
            {j: dict_of_mask(m) for j, m in self.rows.items()}, 2)


class FpForward:
    """Forward echelon mod a prime, rows as dicts with pivot coeff 1."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        v = dict(v)
        rows = self.rows
        p = self.p
        cand = [j for j in v if j in rows]
        heapq.heapify(cand)
        while cand:
            hit = heapq.heappop(cand)
            if hit not in v:
                continue
            c = v[hit]
            for k, x in rows[hit].items():
                old = v.get(k)
                nv = ((old or 0) - c * x) % p
                if nv:
                    if old is None and k in rows and k > hit:
                        heapq.heappush(cand, k)
                    v[k] = nv
                else:
                    v.pop(k, None)
        return v

    def insert(self, v: dict) -> int | None:
        r = self.reduce(v)
        if not r:
            return None
        j = min(r)
        c = r[j]
        if c != 1:
            inv = pow(c, -1, self.p)
            r = {k: (inv * x) % self.p for k, x in r.items()}
        self.rows[j] = r
        return j

    def row_dicts(self) -> dict[int, dict]:
        return _back_substitute(self.rows, self.p)


class QForward:
    """Fraction-free forward echelon for rational spans of integer rows.

    Rows are primitive integer vectors (content 1, positive pivot).
    ``reduce_tracked(v)`` returns (r, d) with r an integer vector congruent
    to d*v modulo the row span and supported off the pivot columns; d is a
    positive Fraction.  Rational input is pre-scaled by the lcm of its
    denominators (folded into d).  The reduction keeps d as a coprime pair
    of ints, so ``insert`` builds no Fraction; ``reduce`` and ``row_dicts``
    return canonical Q scalars (ints where the division is exact)."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict) -> tuple[dict, int, int]:
        """(r, dn, dd): ``reduce_tracked`` with d = dn/dd in lowest terms."""
        dn, dd = lcm(*[x.denominator for x in v.values()]), 1
        w = {k: int(x * dn) for k, x in v.items() if x}
        rows = self.rows
        cand = [j for j in w if j in rows]
        heapq.heapify(cand)
        while cand:
            hit = heapq.heappop(cand)
            if hit not in w:
                continue
            row = rows[hit]
            p = row[hit]
            c = w[hit]
            g = gcd(p, c)
            a, b = p // g, c // g
            # w <- a*w - b*row (kills column `hit`, scales the class by a)
            if a != 1:
                for k in w:
                    w[k] *= a
                g = gcd(a, dd)
                dn *= a // g
                dd //= g
            for k, x in row.items():
                old = w.get(k)
                nv = (old or 0) - b * x
                if nv:
                    if old is None and k in rows and k > hit:
                        heapq.heappush(cand, k)
                    w[k] = nv
                else:
                    w.pop(k, None)
            if w:
                g2 = 0
                for x in w.values():
                    g2 = gcd(g2, x)
                    if g2 == 1:
                        break
                if g2 > 1:
                    for k in w:
                        w[k] //= g2
                    g = gcd(dn, g2)
                    dn //= g
                    dd *= g2 // g
        return w, dn, dd

    def reduce_tracked(self, v: dict) -> tuple[dict, Fraction]:
        r, dn, dd = self._reduce(v)
        return r, Fraction(dn, dd)

    def insert(self, v: dict) -> int | None:
        r = self._reduce(v)[0]
        if not r:
            return None
        j = min(r)
        if r[j] < 0:
            r = {k: -x for k, x in r.items()}
        self.rows[j] = r
        return j

    def reduce(self, v: dict) -> dict:
        r, dn, dd = self._reduce(v)
        return {k: _ratio(x * dd, dn) for k, x in r.items()}

    def row_dicts(self) -> dict[int, dict]:
        return _back_substitute(
            {j: {k: _ratio(x, r[j]) for k, x in r.items()}
             for j, r in self.rows.items()}, None)


def _ratio(a: int, b: int):
    """The canonical Q scalar a/b: an int when b divides a."""
    return a // b if a % b == 0 else Fraction(a, b)


def make_echelon(dom: ScalarDomain):
    """The echelon engine of a domain: one per domain family."""
    if dom.name == "f2":
        return F2Forward()
    if dom.name == "q":
        return QForward()
    if dom.is_field:
        return FpForward(dom.p)
    return HermiteBasis()


class SpanSolver:
    """Express target vectors as combinations of a fixed generating family.

    Inserts the generators with unit tails into an augmented echelon; a
    target is solvable iff its head reduces to zero, and the tail then holds
    the coefficients (with respect to the *original* generator indices, even
    when the generators are dependent).  Over Z solvability means lattice
    membership.  The rows whose head vanishes carry the relations among the
    generators in their tails (``kernel``).
    """

    __slots__ = ("dom", "width", "count", "_eng")

    def __init__(self, dom: ScalarDomain, width: int, vectors=()):
        self.dom = dom
        self.width = width
        self.count = 0
        self._eng = make_echelon(dom)
        for v in vectors:
            self.add(v)

    def add(self, v: dict) -> int:
        """Append one generator; returns its index."""
        idx = self.count
        self.count += 1
        row = dict(v)
        row[self.width + idx] = self.dom.one
        self._eng.insert(row)
        return idx

    def solve(self, target: dict) -> dict | None:
        """Coefficients {generator index: scalar} with sum = target, or None."""
        res = self._eng.reduce(target)
        w = self.width
        if any(k < w for k in res):
            return None
        neg = self.dom.neg
        return {k - w: neg(x) for k, x in res.items()}

    def kernel(self) -> list[dict]:
        """Basis of the relations {c : sum c_i v_i = 0} among the generators.

        These are the tails of the echelon rows whose pivot lies in the
        tail, in pivot order.  Over Z the echelon of [generators | I] is in
        Hermite form, so the relation lattice comes out saturated (it is the
        kernel of a homomorphism).
        """
        w = self.width
        return [{k - w: x for k, x in row.items()}
                for p, row in self._eng.row_dicts().items() if p >= w]


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm:
    """Result of a Smith reduction of an integer matrix.

    ``diag`` lists the nonzero invariant factors d_1 | d_2 | ... | d_r (all
    positive); ``rank`` is r.  ``U`` (row-major, {row: {column: entry}}) is
    the unimodular row transform with U @ A @ V = D; the column transform V
    is not tracked.
    """

    __slots__ = ("diag", "rank", "U")

    def __init__(self, diag, rank, U):
        self.diag = diag
        self.rank = rank
        self.U = U

    def __repr__(self):
        return f"SmithForm(diag={self.diag}, rank={self.rank})"


def smith_normal_form(entries: dict, nrows: int, ncols: int) -> SmithForm:
    """Smith normal form of an integer matrix given as {(i, j): value}, with
    its unimodular row transform.

    The matrix and U are held dense: ``present_quotient``, the only caller,
    eliminates the unit pivots first, so the matrices that reach here are
    small (at most 22 x 20 on the catalog rings over Z at n = 3, 4).  Step t
    moves the first entry of minimal |value| in the region [t:, t:]
    (row-major) to (t, t), then clears column t with row operations and
    row t with column operations, both by floor division; a nonzero
    remainder is a smaller pivot and is picked next.  A row with an entry
    the pivot does not divide is folded into row t and step t is redone.
    After a remainder or a fold |pivot| falls within one more pick, so the
    reduction terminates.
    """
    A = [[0] * ncols for _ in range(nrows)]
    for (i, j), val in entries.items():
        A[i][j] = int(val)
    U = [[int(i == k) for k in range(nrows)] for i in range(nrows)]
    diag: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        best = min(((abs(A[i][j]), i, j) for i in range(t, nrows)
                    for j in range(t, ncols) if A[i][j]), default=None)
        if best is None:
            break
        _, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        U[t], U[bi] = U[bi], U[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        d = A[t][t]
        for i in range(t + 1, nrows):
            q = A[i][t] // d
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                U[i] = [x - q * y for x, y in zip(U[i], U[t])]
        for j in range(t + 1, ncols):   # V is not tracked
            q = A[t][j] // d
            if q:
                for row in A:
                    row[j] -= q * row[t]
        if (any(A[i][t] for i in range(t + 1, nrows))
                or any(A[t][t + 1:])):
            continue    # a remainder: pick again
        # enforce the divisibility chain
        offender = next((i for i in range(t + 1, nrows)
                         if any(x % d for x in A[i][t + 1:])), None)
        if offender is not None:
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
            continue
        diag.append(d)
        t += 1
    return SmithForm(diag, len(diag),
                     {i: {k: x for k, x in enumerate(row) if x}
                      for i, row in enumerate(U)})


# ---------------------------------------------------------------------------
# subquotients


class ContainmentError(ValueError):
    """Raised when the alleged image generators do not lie in the kernel."""


class SubquotientInvariants:
    """Isomorphism invariants of span(kernel)/span(image).

    Over a field only ``dimension`` is set.  Over Z, ``invariant_factors``
    lists the nontrivial torsion factors in ascending divisibility order
    followed by one 0 per free summand (so ``[2, 2, 0]`` means
    Z/2 + Z/2 + Z); ``dimension`` then counts all summands.
    """

    __slots__ = ("domain_name", "dimension", "invariant_factors")

    def __init__(self, domain_name: str, dimension: int,
                 invariant_factors: list[int] | None = None):
        self.domain_name = domain_name
        self.dimension = dimension
        self.invariant_factors = invariant_factors

    @property
    def free_rank(self) -> int:
        if self.invariant_factors is None:
            return self.dimension
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def torsion(self) -> list[int]:
        if self.invariant_factors is None:
            return []
        return [d for d in self.invariant_factors if d]

    @property
    def is_trivial(self) -> bool:
        return self.dimension == 0 and not self.torsion

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubquotientInvariants)
                and self.domain_name == other.domain_name
                and self.dimension == other.dimension
                and self.invariant_factors == other.invariant_factors)

    def __repr__(self):
        if self.invariant_factors is None:
            return f"SubquotientInvariants({self.domain_name}, dim={self.dimension})"
        return (f"SubquotientInvariants(z, factors={self.invariant_factors})")

    def describe(self) -> str:
        """Human-readable shape, e.g. ``f2^6`` or ``Z/2^6 + Z^1``."""
        if self.invariant_factors is None:
            return "0" if self.dimension == 0 else f"{self.domain_name}^{self.dimension}"
        parts = []
        tors = self.torsion
        i = 0
        while i < len(tors):
            j = i
            while j < len(tors) and tors[j] == tors[i]:
                j += 1
            parts.append(f"Z/{tors[i]}^{j - i}" if j - i > 1 else f"Z/{tors[i]}")
            i = j
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def moduli_invariants(dom: ScalarDomain, moduli) -> SubquotientInvariants:
    """Invariants of the group with one coordinate per modulus: Z/d for
    d > 0, a free summand for 0 (over a field every modulus is 0)."""
    if dom.is_field:
        return SubquotientInvariants(dom.name, len(moduli))
    factors = (sorted(d for d in moduli if d)
               + [0] * sum(1 for d in moduli if not d))
    return SubquotientInvariants("z", len(factors), factors)


def subquotient(kern, img, width: int,
                dom: ScalarDomain) -> SubquotientInvariants:
    """Invariants of span(K)/span(I) inside dom^width, where ``kern`` and
    ``img`` are the ``make_echelon(dom)`` engines that K and I were inserted
    into.  Neither engine is changed.

    Every image generator must lie in the span (lattice, over Z) of the
    kernel generators, otherwise ``ContainmentError`` is raised.  The
    coordinates of the image rows in the kernel basis present the
    subquotient as dom^rank(K)/span(coordinates) (``present_quotient``).
    """
    solver = SpanSolver(dom, width, kern.row_dicts().values())
    rel = make_echelon(dom)
    for p, row in img.row_dicts().items():
        coeffs = solver.solve(row)
        if coeffs is None:
            raise ContainmentError(
                f"image vector with pivot {p} is not contained in the kernel span")
        rel.insert(coeffs)
    return moduli_invariants(dom, present_quotient(rel, kern.rank, dom).moduli)


# ---------------------------------------------------------------------------
# quotient presentations (used for R/I_m, for central kernels, and for the
# second-stage quotients in the Steinberg construction)


class QuotientPresentation:
    """Coordinates on dom^width / span(R), read off an echelon of R.

    ``dim`` is the number of retained coordinates and ``moduli[i]`` the
    modulus of coordinate i (0 = free; over a field always 0).  ``coords``
    maps an ambient vector to quotient coordinates linearly, through the
    coordinates ``cols[j]`` of each e_j, is onto, and vanishes exactly on
    span(R).
    """

    __slots__ = ("dim", "moduli", "dom", "cols")

    def __init__(self, dim, moduli, dom, cols):
        self.dim = dim
        self.moduli = moduli
        self.dom = dom
        self.cols = cols        # ambient column -> {coordinate: entry}

    def coords(self, v: dict) -> dict:
        acc: dict = {}
        cols, dom = self.cols, self.dom
        for j, x in v.items():
            col = cols.get(j)
            if col:
                vec_axpy(acc, col, x, dom)
        out = {}
        for idx in sorted(acc):
            d = self.moduli[idx]
            val = acc[idx] % d if d else acc[idx]
            if val:
                # a sum of Q scalars may be an integral Fraction
                out[idx] = val if type(val) is int else dom.normalize(val)
        return out


def present_quotient(ech, width: int, dom: ScalarDomain) -> QuotientPresentation:
    """Present dom^width / span(R) with coordinates, where ``ech`` is the
    ``make_echelon(dom)`` engine that R was inserted into.

    Over a field the coordinates are the non-pivot columns of ``ech`` (not
    keys of its pivot-keyed ``rows``); a pivot column maps to its residual
    under ``ech``.  Over Z a Hermite row with pivot entry 1 says
    e_p = -(its tail) modulo the lattice.  ``phi`` writes each such e_p in
    the remaining columns C, walking p downwards so that a tail only meets
    columns already written; phi(v) = v modulo the lattice and phi kills
    the unit rows, so Z^width / span(R) = Z^C / span(phi(other rows)).
    Only those few rows go through a Smith reduction; retained coordinates
    are the rows of its transform U whose invariant factor is not 1, and
    ``cols`` holds U after phi.  No second echelon of the relations is built.
    """
    rows = ech.rows
    if dom.is_field:
        index = {c: i for i, c in enumerate(
            c for c in range(width) if c not in rows)}
        cols = {c: {i: dom.one} for c, i in index.items()}
        # a residual lies off the pivot columns
        for p in (rows if index else ()):
            cols[p] = {index[j]: x
                       for j, x in ech.reduce({p: dom.one}).items()}
        return QuotientPresentation(len(index), [0] * len(index), dom, cols)

    def image(row: dict) -> dict:
        # phi(row), with e_k for a column k that phi does not (yet) write
        out: dict[int, int] = {}
        for k, x in row.items():
            vec_axpy(out, phi.get(k, {k: 1}), x, _ZDOM)
        return out

    phi: dict[int, dict] = {}
    for p in sorted((p for p, r in rows.items() if r[p] == 1), reverse=True):
        phi[p] = {k: -x for k, x in image(rows[p]).items() if k != p}
    cols = [c for c in range(width) if c not in phi]
    index = {c: i for i, c in enumerate(cols)}
    others = [p for p in sorted(rows) if p not in phi]
    entries = {(index[k], col): x for col, p in enumerate(others)
               for k, x in image(rows[p]).items()}
    sf = smith_normal_form(entries, len(cols), len(others))
    kept: list[int] = []
    moduli: list[int] = []
    for tt in range(len(cols)):
        d = sf.diag[tt] if tt < sf.rank else 0
        if d != 1:
            kept.append(tt)
            moduli.append(d)
    U_cols: dict[int, dict] = {}
    for idx, tt in enumerate(kept):
        for i, c in sf.U.get(tt, {}).items():
            U_cols.setdefault(cols[i], {})[idx] = c
    for p, img in phi.items():
        col: dict[int, int] = {}
        for k, x in img.items():
            if k in U_cols:
                vec_axpy(col, U_cols[k], x, _ZDOM)
        if col:
            U_cols[p] = col
    return QuotientPresentation(len(kept), moduli, _ZDOM, U_cols)
