"""Unital associative algebras with exact structure constants.

An algebra is a free module over the scalar domain with a distinguished
basis and a multiplication table.  The unit need not be a basis element: it
is stored as a coordinate vector, either taken from ``unit_index`` or found
by solving the two-sided unit equations.

Also here: commutator spans, the ideals I_m = m*R + R*[R,R] (built from
their generators as the paper defines them; the identity
[a,b]c = [a,bc] - b[a,c] makes them two-sided), presentations of the
quotients R_m = R/I_m (coordinates and moduli; ``CocycleSpace`` reads the
classes of products), first Hochschild homology, and the JSON ring format
used by the CLI.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .domains import SCALARS, ScalarDomain
from .linalg import (SpanSolver, make_echelon, subquotient, vec_axpy,
                     QuotientPresentation, present_quotient,
                     SubquotientInvariants)


class AssocAlgebra:
    """Finite-dimensional unital associative algebra over an exact domain."""

    __slots__ = ("dom", "dim", "labels", "table", "unit", "unit_index", "name")

    def __init__(self, dom: ScalarDomain, dim: int, table: dict,
                 unit: dict, unit_index: int | None, labels: list[str],
                 name: str):
        self.dom = dom
        self.dim = dim
        self.table = table            # (i, j) -> sparse product vector
        self.unit = unit              # coordinate vector of 1
        self.unit_index = unit_index  # set when 1 is a basis element
        self.labels = labels
        self.name = name

    def __repr__(self):
        return f"AssocAlgebra({self.name}, dim={self.dim}, dom={self.dom.name})"

    def basis_product(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def multiply(self, u: dict, v: dict) -> dict:
        """Bilinear product of two coordinate vectors."""
        dom = self.dom
        out: dict[int, object] = {}
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                prod = table.get((i, j))
                if prod:
                    vec_axpy(out, prod, dom.mul(a, b), dom)
        return out

    def commutator(self, u: dict, v: dict) -> dict:
        uv = self.multiply(u, v)
        vu = self.multiply(v, u)
        vec_axpy(uv, vu, self.dom.neg(self.dom.one), self.dom)
        return uv


def make_algebra(dom: ScalarDomain, dim: int, structure: dict,
                 labels: list[str] | None = None,
                 unit_index: int | None = None,
                 name: str = "ring") -> AssocAlgebra:
    """Validate structure constants and build an ``AssocAlgebra``.

    ``structure`` maps ``(i, j)`` to a sparse product vector ``{k: coeff}``.
    Associativity is checked on every basis triple; the unit is checked at
    ``unit_index`` if given, otherwise solved for (and must exist).
    Violations raise ``ValueError`` naming a witness.
    """
    if labels is None:
        labels = [f"r{i}" for i in range(dim)]
    if len(labels) != dim:
        raise ValueError("label count does not match dimension")

    table: dict = {}
    for (i, j), vec in structure.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"structure index ({i},{j}) out of range")
        clean = {}
        for k, c in vec.items():
            if not 0 <= k < dim:
                raise ValueError(f"product index {k} out of range at ({i},{j})")
            c = dom.normalize(c)
            if c:
                clean[k] = c
        if clean:
            table[(i, j)] = clean

    alg = AssocAlgebra(dom, dim, table, {}, unit_index, labels, name)

    # associativity on basis triples
    for i in range(dim):
        for j in range(dim):
            pij = alg.basis_product(i, j)
            for k in range(dim):
                left = alg.multiply(pij, {k: dom.one})
                right = alg.multiply({i: dom.one}, alg.basis_product(j, k))
                if left != right:
                    raise ValueError(
                        f"associativity fails at ({labels[i]}, {labels[j]}, "
                        f"{labels[k]}): ({labels[i]}*{labels[j]})*{labels[k]} "
                        f"= {left} but {labels[i]}*({labels[j]}*{labels[k]}) "
                        f"= {right}")

    if unit_index is not None:
        u = {unit_index: dom.one}
        for j in range(dim):
            ej = {j: dom.one}
            if alg.multiply(u, ej) != ej or alg.multiply(ej, u) != ej:
                raise ValueError(
                    f"basis element {labels[unit_index]} is not a unit "
                    f"(fails on {labels[j]})")
        alg.unit = u
    else:
        alg.unit = _solve_unit(alg)
        # remember when the unit happens to be a basis vector anyway
        if len(alg.unit) == 1:
            (idx, c), = alg.unit.items()
            if c == dom.one:
                alg.unit_index = idx
    return alg


def _solve_unit(alg: AssocAlgebra) -> dict:
    """Solve u*e_j = e_j = e_j*u for the unit's coordinate vector."""
    dom, dim = alg.dom, alg.dim
    # unknown u = sum u_i e_i; stack equations over pairs (side, j, k)
    width = 2 * dim * dim
    cols = []
    for i in range(dim):
        col: dict[int, object] = {}
        for j in range(dim):
            for k, c in alg.basis_product(i, j).items():
                col[(j * dim) + k] = c
            for k, c in alg.basis_product(j, i).items():
                col[dim * dim + (j * dim) + k] = c
        cols.append(col)
    target: dict[int, object] = {}
    for j in range(dim):
        target[(j * dim) + j] = dom.one
        target[dim * dim + (j * dim) + j] = dom.one
    solver = SpanSolver(dom, width, cols)
    u = solver.solve(target)
    if u is None:
        raise ValueError(f"algebra {alg.name!r} has no unit over {dom.name}")
    return {i: c for i, c in u.items() if c}


# ---------------------------------------------------------------------------
# commutators, ideals, quotients


def commutator_span(alg: AssocAlgebra):
    """Echelon (``make_echelon``) of the span, or lattice over Z, of all
    commutators [r_i, r_j]."""
    span = make_echelon(alg.dom)
    one = alg.dom.one
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            c = alg.commutator({i: one}, {j: one})
            if c:
                span.insert(c)
    return span


def ideal_Im(alg: AssocAlgebra, m: int):
    """Echelon (``make_echelon``) of I_m = m*R + R*[R,R], spanned by the
    m*e_i and the e_i*c for c in a basis of [R,R].

    I_m is a two-sided ideal of every associative unital ring, with no
    closure step: [a,b]c = [a,bc] - b[a,c] puts [R,R]*R inside R*[R,R], so
    R*[R,R]*R = R*[R,R].  The identity needs associativity, which
    ``make_algebra`` has checked on every basis triple.
    """
    dom = alg.dom
    span = make_echelon(dom)
    m_scal = dom.from_int(m)
    if m_scal:
        for i in range(alg.dim):
            span.insert({i: m_scal})
    one = dom.one
    for c in commutator_span(alg).row_dicts().values():
        for i in range(alg.dim):
            span.insert(alg.multiply({i: one}, c))
    return span


def quotient_Rm(alg: AssocAlgebra, m: int) -> QuotientPresentation:
    """Present R_m = R/I_m: ``dim``, ``moduli`` and ``coords``, which maps
    R onto R_m and vanishes exactly on I_m.  As I_m is two-sided, the
    product of two ring elements has a well-defined class, which
    ``coords`` reads off the product in R (``CocycleSpace.abar``)."""
    return present_quotient(ideal_Im(alg, m), alg.dim, alg.dom)


# ---------------------------------------------------------------------------
# Hochschild homology in degree one


def hochschild_h1(alg: AssocAlgebra) -> SubquotientInvariants:
    """HH_1(R) = ker(b1)/im(b2) for the bar-type differentials

    b1(a (x) b) = ab - ba,
    b2(a (x) b (x) c) = ab (x) c - a (x) bc + ca (x) b.
    """
    dom, dim = alg.dom, alg.dim
    one = dom.one
    pair = dim * dim

    # ker b1: the relations among the commutators [e_i, e_j], in (i, j) order
    commutators = (alg.commutator({i: one}, {j: one})
                   for i in range(dim) for j in range(dim))
    kern, image = make_echelon(dom), make_echelon(dom)
    for v in SpanSolver(dom, dim, commutators).kernel():
        kern.insert(v)
    for i in range(dim):
        for j in range(dim):
            pij = alg.basis_product(i, j)
            for k in range(dim):
                col: dict[int, object] = {}
                # ab (x) c
                for t, c in pij.items():
                    col[t * dim + k] = c
                # - a (x) bc
                for t, c in alg.basis_product(j, k).items():
                    key = i * dim + t
                    cur = col.get(key, dom.zero)
                    cur = dom.sub(cur, c)
                    if cur:
                        col[key] = cur
                    elif key in col:
                        del col[key]
                # + ca (x) b
                for t, c in alg.basis_product(k, i).items():
                    key = t * dim + j
                    cur = col.get(key, dom.zero)
                    cur = dom.add(cur, c)
                    if cur:
                        col[key] = cur
                    elif key in col:
                        del col[key]
                if col:
                    image.insert(col)

    return subquotient(kern, image, pair, dom)


# ---------------------------------------------------------------------------
# JSON ring format


def _coeff_to_json(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return int(c)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coeff_from_json(c, dom: ScalarDomain):
    """An exact coefficient: a JSON int or a rational string such as "-3/4".

    Floats and bools are rejected rather than truncated or read as 0/1, and
    a fraction must make sense in ``dom`` (integral over Z, denominator
    prime to p over F_p).
    """
    exact_str = isinstance(c, str) and _RATIONAL.fullmatch(c)
    if not exact_str and (isinstance(c, bool) or not isinstance(c, int)):
        raise ValueError(f"coefficient {c!r} is not an int or an exact "
                         f"rational string")
    try:
        return dom.normalize(Fraction(c) if exact_str else c)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficient {c} is not a {dom.name} scalar: "
                         f"{exc}") from None


def _index_from_json(x, dim: int, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < dim:
        raise ValueError(f"{what} {x!r} is not an int in [0, {dim})")
    return x


def save_ring_json(alg: AssocAlgebra, path: str) -> None:
    if alg.unit_index is None:
        raise ValueError(
            "the JSON ring format requires the unit to be a basis element")
    quads = []
    for (i, j) in sorted(alg.table):
        for k in sorted(alg.table[(i, j)]):
            quads.append([i, j, k, _coeff_to_json(alg.table[(i, j)][k])])
    doc = {
        "name": alg.name,
        "scalar": alg.dom.name,
        "dim": alg.dim,
        "unit_index": alg.unit_index,
        "structure": quads,
        "labels": alg.labels,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_ring_json(path: str) -> AssocAlgebra:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"ring file {path} does not hold a JSON object")
    for field in ("name", "scalar", "dim", "unit_index", "structure"):
        if field not in doc:
            raise ValueError(f"ring file {path} is missing {field!r}")
    if not isinstance(doc["name"], str):
        raise ValueError(f"name {doc['name']!r} in {path} is not a string")
    dom = SCALARS.get(doc["scalar"]) if isinstance(doc["scalar"], str) else None
    if dom is None:
        raise ValueError(f"unknown scalar {doc['scalar']!r} in {path}")
    dim, quads = doc["dim"], doc["structure"]
    if not isinstance(quads, list):
        raise ValueError(f"structure in {path} is not a list")
    # a unital algebra of dim d has a nonzero product e_i * e_j for every j,
    # so the file itself bounds the dimension (and the cubic validation)
    if (isinstance(dim, bool) or not isinstance(dim, int)
            or not 1 <= dim <= len(quads)):
        raise ValueError(f"dim {dim!r} in {path} is not an int in "
                         f"[1, {len(quads)}] (the number of structure "
                         f"entries)")
    structure: dict = {}
    for quad in quads:
        if not isinstance(quad, list) or len(quad) != 4:
            raise ValueError(f"malformed structure entry {quad!r} in {path}")
        i, j, k = (_index_from_json(x, dim, "structure index")
                   for x in quad[:3])
        entry = structure.setdefault((i, j), {})
        if k in entry:
            raise ValueError(f"repeated structure entry {(i, j, k)} in {path}")
        entry[k] = _coeff_from_json(quad[3], dom)
    unit_index = _index_from_json(doc["unit_index"], dim, "unit_index")
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(lbl, str) for lbl in labels)):
        raise ValueError(f"labels in {path} are not a list of strings")
    return make_algebra(dom, dim, structure, labels=labels,
                        unit_index=unit_index, name=doc["name"])
