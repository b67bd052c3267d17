"""Exact scalar domains: the prime fields F_2, F_3, F_5, the rationals, and
the ring of integers.

Scalars are plain Python objects (``int`` for F_p and Z, ``fractions.Fraction``
for Q) kept in canonical form: F_p elements always live in ``range(p)``.  A
``ScalarDomain`` bundles the arithmetic; hot loops elsewhere specialize on the
representation (GF(2) rows become bitmask ints) and only fall back to these
methods in generic code.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarDomain:
    """Arithmetic for one exact coefficient domain.

    ``p`` is the prime for F_p and ``None`` for Q and Z.  ``is_field`` is
    False exactly for Z.  Domain objects are stateless singletons; compare
    them by identity or by ``name``.
    """

    __slots__ = ("name", "p", "is_field")

    def __init__(self, name: str, p: int | None, is_field: bool):
        self.name = name
        self.p = p
        self.is_field = is_field

    def __repr__(self) -> str:
        return f"ScalarDomain({self.name})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarDomain) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("ScalarDomain", self.name))

    # -- canonical values ------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.name == "q" else 0

    @property
    def one(self):
        return Fraction(1) if self.name == "q" else 1

    def from_int(self, n: int):
        """Canonical image of the integer ``n`` in this domain."""
        if self.p is not None:
            return n % self.p
        if self.name == "q":
            return Fraction(n)
        return int(n)

    def normalize(self, x):
        """Coerce ``x`` (an int, not a bool, or a Fraction) to canonical
        form; raise ``ValueError`` on anything else."""
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"{x!r} is not an exact scalar (an int or a "
                             f"Fraction)")
        if self.p is not None:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        if self.name == "q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            return pow(a, -1, self.p)
        if self.name == "q":
            return Fraction(1) / a
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not invertible in Z")


F2 = ScalarDomain("f2", 2, True)
F3 = ScalarDomain("f3", 3, True)
F5 = ScalarDomain("f5", 5, True)
Q = ScalarDomain("q", None, True)
Z = ScalarDomain("z", None, False)

SCALARS = {d.name: d for d in (F2, F3, F5, Q, Z)}


def parse_scalar(token: str) -> ScalarDomain:
    """Look up a domain by its CLI token (``f2 | f3 | f5 | q | z``)."""
    try:
        return SCALARS[token.lower()]
    except KeyError:
        raise ValueError(f"unknown scalar domain {token!r}; expected one of "
                         f"{sorted(SCALARS)}") from None
