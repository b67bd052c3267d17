"""The 6-valued index map on distinct-index quadruples."""

from itertools import permutations

import pytest

from stlhom.steinberg import build_theta, corrupted_theta

QUADS = [q for q in permutations((1, 2, 3, 4))]


def orbit(q):
    a, b, c, d = q
    return {q, (c, b, a, d), (a, d, c, b), (c, d, a, b)}


def test_validate_is_clean():
    assert build_theta().validate() == []


def test_anchor_and_fiber_sizes():
    theta = build_theta()
    assert theta((1, 2, 3, 4)) == 1
    counts = {}
    for q in QUADS:
        counts[theta(q)] = counts.get(theta(q), 0) + 1
    assert counts == {m: 4 for m in range(1, 7)}


def test_constant_on_position_orbits():
    theta = build_theta()
    for q in QUADS:
        assert {theta(p) for p in orbit(q)} == {theta(q)}


def test_pair_swap_symmetries():
    theta = build_theta()
    for (i, j, k, l) in QUADS:
        assert theta((i, j, k, l)) == theta((k, l, i, j))
        assert theta((i, j, k, l)) == theta((i, l, k, j))


def test_representatives_are_orbit_minima_in_label_order():
    theta = build_theta()
    reps = theta.representatives
    assert len(reps) == 6
    assert reps[0] == (1, 2, 3, 4)
    assert list(reps[1:]) == sorted(reps[1:])
    for m, rep in enumerate(reps, start=1):
        assert theta(rep) == m
        assert rep == min(orbit(rep))


def test_hand_checked_labels():
    theta = build_theta()
    # the full orbit of the anchor
    for q in [(1, 2, 3, 4), (3, 2, 1, 4), (1, 4, 3, 2), (3, 4, 1, 2)]:
        assert theta(q) == 1
    # minima of the remaining orbits, in lexicographic order
    assert theta((1, 2, 4, 3)) == 2
    assert theta((1, 3, 2, 4)) == 3
    assert theta((2, 1, 3, 4)) == 4
    assert theta((2, 1, 4, 3)) == 5
    assert theta((3, 1, 4, 2)) == 6
    # a non-minimal member resolved through its orbit
    assert theta((1, 4, 2, 3)) == theta(min(orbit((1, 4, 2, 3)))) == 3


def test_rejects_non_quadruples():
    theta = build_theta()
    with pytest.raises(KeyError):
        theta((1, 1, 2, 3))
    with pytest.raises(KeyError):
        theta((1, 2, 3))


def test_to_dict_shape():
    d = build_theta().to_dict()
    assert len(d) == 24
    assert d["1234"] == 1
    assert d["2143"] == 5
    assert set(d.values()) == {1, 2, 3, 4, 5, 6}
    assert list(d) == sorted(d)


def test_corruption_swaps_exactly_two_quadruples():
    theta = build_theta()
    bad = corrupted_theta(theta)
    moved = {q for q in QUADS if bad(q) != theta(q)}
    assert moved == {(1, 2, 3, 4), (1, 2, 4, 3)}
    assert bad((1, 2, 3, 4)) == theta((1, 2, 4, 3))
    assert bad.validate() != []
    # the original is untouched
    assert theta.validate() == []


def test_build_theta_refuses_a_labeling_that_fails_validate(monkeypatch):
    # with singleton "orbits" every quadruple gets its own label, so the
    # labels are not 1..6 with four quadruples each
    import stlhom.steinberg as stb
    monkeypatch.setattr(stb, "_position_orbit", lambda quad: [quad])
    with pytest.raises(ValueError, match="defining properties"):
        build_theta()
