"""The canonical scalars of each domain.

Over Q a scalar is an ``int`` when it is integral and a ``Fraction``
otherwise; the two compare (and hash) by value, so integral rational work
runs on plain int arithmetic without changing any comparison.
"""

from fractions import Fraction

import pytest

from stlhom.domains import F3, Q, Z


def test_integral_rationals_are_ints():
    for x in (Q.one, Q.zero, Q.from_int(3), Q.normalize(Fraction(4, 2)),
              Q.normalize(3), Q.inv(Fraction(1, 2)), Q.inv(-1)):
        assert type(x) is int, repr(x)
    assert (Q.one, Q.zero, Q.from_int(3)) == (1, 0, 3)
    assert Q.normalize(Fraction(4, 2)) == 2
    assert Q.inv(Fraction(1, 2)) == 2


def test_non_integral_rationals_stay_fractions():
    for x, want in ((Q.normalize(Fraction(1, 2)), Fraction(1, 2)),
                    (Q.normalize(Fraction(-6, 4)), Fraction(-3, 2)),
                    (Q.inv(2), Fraction(1, 2)),
                    (Q.inv(Fraction(2, 3)), Fraction(3, 2))):
        assert type(x) is Fraction and x == want


def test_fraction_inputs_are_accepted_and_inexact_ones_refused():
    assert Q.normalize(Fraction(6, 3)) == 2
    assert Z.normalize(Fraction(6, 3)) == 2
    assert F3.normalize(Fraction(1, 2)) == 2
    with pytest.raises(ValueError, match="not an integer"):
        Z.normalize(Fraction(1, 2))
    for dom in (Q, Z, F3):
        for bad in (0.5, 1.0, "1", "1/2", True, False):
            with pytest.raises(ValueError, match="not an exact scalar"):
                dom.normalize(bad)


def test_integral_fraction_and_int_compare_as_keys_and_values():
    assert hash(Fraction(2)) == hash(2)
    assert {Fraction(2): 1} == {2: 1}
    assert {0: Fraction(2)} == {0: 2}
    assert Fraction(2) in {2} and 2 in {Fraction(2)}
