"""Exact scalar domains: the prime fields F_2, F_3, F_5, the rationals, and
the ring of integers.

Scalars are plain Python objects kept in canonical form: ``int`` for F_p
(always in ``range(p)``) and Z; over Q an ``int`` when integral, else a
``fractions.Fraction``, compared by value (``Fraction(2) == 2``, with equal
hashes), so integral rational work runs on int arithmetic.  A
``ScalarDomain`` bundles the arithmetic; hot loops elsewhere specialize on the
representation (GF(2) rows become bitmask ints) and only fall back to these
methods in generic code.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarDomain:
    """Arithmetic for one exact coefficient domain.

    ``p`` is the prime for F_p and ``None`` for Q and Z.  ``is_field`` is
    False exactly for Z.  Canonical scalars are ints, except over Q: int
    when integral, else Fraction; compared by value.  Domain objects are
    stateless singletons; compare them by identity or by ``name``.
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

    zero = 0
    one = 1

    def from_int(self, n: int):
        """Canonical image of the integer ``n`` in this domain."""
        if self.p is not None:
            return n % self.p
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
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator
            if self.name != "q":
                raise ValueError(f"{x} is not an integer")
            return x
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
            return self.normalize(1 / Fraction(a))
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
