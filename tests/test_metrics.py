import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperhomology.metrics import (
    PiValue,
    SqrtValue,
    circle_sample,
    critical_radii,
    distance_matrix_sample,
    euclidean_sample,
    evenly_spaced_circle_sample,
    exact_sqrt,
    hard_sphere,
    midpoint,
    rational_sqrt,
)


def test_pi_value_ordering_and_arithmetic():
    third = PiValue(Fraction(1, 3))
    sixth = PiValue(Fraction(1, 6))
    assert sixth < third
    assert third == PiValue(Fraction(2, 6))
    assert float(third) == pytest.approx(math.pi / 3)
    assert third / 2 == sixth
    assert sixth * 2 == third
    assert sixth < 1.0  # mixed comparison via float
    with pytest.raises(ValueError):
        PiValue(-1)


def test_pi_value_equals_plain_numbers_only_at_zero():
    assert PiValue(0) == 0 and PiValue(0) == 0.0 and PiValue(0) == Fraction(0)
    assert hash(PiValue(0)) == hash(0)
    assert len({0, PiValue(0)}) == 1
    assert PiValue(1) != math.pi
    assert PiValue(Fraction(1, 2)) != math.pi / 2
    assert len({math.pi, PiValue(1)}) == 2


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None


def test_midpoint_stays_exact_per_domain():
    assert midpoint(Fraction(1, 2), Fraction(3, 2)) == Fraction(1)
    assert midpoint(PiValue(Fraction(1, 6)), PiValue(Fraction(1, 2))) == PiValue(
        Fraction(1, 3)
    )
    assert midpoint(0.5, Fraction(3, 2)) == pytest.approx(1.0)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=0, max_value=100, max_denominator=10**4),
    st.fractions(min_value=0, max_value=100, max_denominator=10**4),
)
def test_midpoint_is_the_least_dyadic_above_a_of_smallest_denominator(x, y):
    assume(x != y)
    a, b = (exact_sqrt(square) for square in sorted((x, y)))
    assume(isinstance(a, SqrtValue) or isinstance(b, SqrtValue))
    r = midpoint(a, b)
    d = r.denominator
    assert isinstance(r, Fraction) and d & (d - 1) == 0
    assert a < r < b
    # the multiple of 1/d just below r is not above a, and when d > 1 the
    # multiples of 2/d next to r (an odd multiple of 1/d) miss (a, b)
    assert r - Fraction(1, d) <= a
    assert d == 1 or r + Fraction(1, d) >= b


def test_hard_sphere_radius_zero_is_complete():
    sample = euclidean_sample([(0, 0), (1, 0), (5, 5), (2, 3)])
    h = hard_sphere(sample, 0, 2)
    assert len(h.level(1)) == 4
    assert len(h.level(2)) == 6


def test_hard_sphere_equilateral_boundary():
    side = Fraction(3)
    tri = distance_matrix_sample([[0, side, side], [side, 0, side], [side, side, 0]])
    just_below = side / 2 - Fraction(1, 10**9)
    assert len(hard_sphere(tri, just_below, 2).level(2)) == 3
    # the boundary radius itself excludes every pair (strict inequality)
    assert hard_sphere(tri, side / 2, 3).level(2) == ()
    assert len(hard_sphere(tri, just_below, 3).level(3)) == 1


def test_hard_sphere_exact_at_circle_boundary():
    twelve = evenly_spaced_circle_sample(12)
    at_third = hard_sphere(twelve, PiValue(Fraction(1, 3)), 3)
    assert at_third.level(3) == ()
    below = hard_sphere(twelve, math.pi / 3 - 1e-6, 3)
    assert len(below.level(3)) == 4
    assert len(below.level(1)) == 12


def test_hard_sphere_monotone_in_radius():
    sample = euclidean_sample([(0, 0), (2, 1), (4, 0), (1, 3)])
    radii = critical_radii(sample, 3)
    smaller = hard_sphere(sample, radii[0] / 2, 3)
    for k in range(len(radii)):
        probe = midpoint(radii[k], radii[k + 1]) if k + 1 < len(radii) else radii[-1] * 2
        bigger_r = hard_sphere(sample, probe, 3)
        assert bigger_r.edges <= smaller.edges


def test_hard_sphere_validation():
    sample = euclidean_sample([(0,), (1,)])
    with pytest.raises(ValueError):
        hard_sphere(sample, -1, 2)
    with pytest.raises(ValueError):
        hard_sphere(sample, 1, 0)


def test_critical_radii_examples():
    two = euclidean_sample([(0,), (2,)])
    assert critical_radii(two, 2) == [1]
    side = Fraction(5)
    tri = distance_matrix_sample([[0, side, side], [side, 0, side], [side, side, 0]])
    assert critical_radii(tri, 2) == [Fraction(5, 2)]
    line = euclidean_sample([(0,), (1,), (3,)])
    assert critical_radii(line, 2) == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    with pytest.raises(ValueError):
        critical_radii(euclidean_sample([(0,)]), 2)


def test_critical_radii_are_exact_square_roots():
    sample = euclidean_sample([(0, 0), (1, 1), (3, 0)])
    # squared distances 2, 9 and 5
    radii = critical_radii(sample, 2)
    assert radii == [SqrtValue(Fraction(1, 2)), SqrtValue(Fraction(5, 4)), Fraction(3, 2)]
    assert radii[0] < radii[1] < radii[2] < math.inf
    assert radii[1] * 2 == SqrtValue(5) and radii[1] / 2 == SqrtValue(Fraction(5, 16))
    assert SqrtValue(2) != math.sqrt(2) and hash(SqrtValue(2)) == hash(SqrtValue(2))
    between = midpoint(radii[0], radii[1])
    assert isinstance(between, Fraction) and radii[0] < between < radii[1]
    assert radii[1] < midpoint(radii[1], radii[2]) < radii[2]
    # at the boundary radius the pair is excluded, just inside it is kept
    assert hard_sphere(sample, radii[0], 2).level(2) == ((0, 2), (1, 2))
    with pytest.raises(ValueError):
        SqrtValue(Fraction(9, 4))


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        distance_matrix_sample([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        distance_matrix_sample([[0, 0], [0, 0]])  # coincident points
    with pytest.raises(ValueError):
        distance_matrix_sample([[1, 1], [1, 0]])  # nonzero diagonal
    # triangle inequality deliberately not enforced
    distance_matrix_sample([[0, 1, 10], [1, 0, 1], [10, 1, 0]])


def test_euclidean_coincident_points_rejected():
    with pytest.raises(ValueError):
        euclidean_sample([(0, 0), (0, 0)])


def test_float_circle_points_at_arc_zero_rejected():
    # -1e-20 reduces modulo 2 pi to 2 pi itself, the same point as 0
    with pytest.raises(ValueError, match="coincide"):
        circle_sample(radians=[-1e-20, 0.0, 1.0])
    assert circle_sample(radians=[-1e-20, 1.0]).metric.angles[0] == 0.0


def test_circle_samples_modes():
    exact = circle_sample([0, Fraction(1, 2), 1])
    d = exact.metric.distance(exact.ids[0], exact.ids[2])
    assert d == PiValue(1)
    floaty = circle_sample(radians=[0.0, 1.0, 4.0])
    assert floaty.metric.distance(0, 2) == pytest.approx(2 * math.pi - 4.0)
    with pytest.raises(ValueError):
        circle_sample([0, 2])  # same point mod 2*pi
    with pytest.raises(ValueError):
        circle_sample()


def test_ids_handling():
    named = euclidean_sample([(0,), (1,)], ids=[10, 20])
    assert named.ids == (10, 20)
    assert named.metric.distance_sq(10, 20) == 1
    mapping = euclidean_sample({7: (0, 0), 3: (1, 1)})
    assert mapping.ids == (3, 7)
    with pytest.raises(ValueError):
        euclidean_sample([(0,), (1,)], ids=[1, 1])
