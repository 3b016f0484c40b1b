import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperhomology.filtration import build_filtration
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

from oracles import first_coinciding_pair, fraction_half_distances


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
    assert midpoint(exact_sqrt(2), 2.0) == pytest.approx((2**0.5 + 2) / 2)
    assert midpoint(PiValue(Fraction(1, 2)), exact_sqrt(2)) == pytest.approx((math.pi / 2 + 2**0.5) / 2)


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
    root = a if isinstance(a, SqrtValue) else b
    for low, high in ((b, a), (root, root)):
        with pytest.raises(ValueError, match="a < b"):
            midpoint(low, high)
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


LARGE_PRIMES = (10**9 + 7, 998244353, 2**61 - 1)

# small ints give perfect-square distances; floats convert exactly, with
# power-of-two denominators of up to 2^1074
coordinates = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(LARGE_PRIMES)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


def exact_row(row):
    return tuple(Fraction(x) for x in row)


@st.composite
def euclidean_rows(draw, max_points=6):
    """Two or more distinct coordinate rows of one dimension, 1 to 3."""
    row = st.tuples(*[coordinates] * draw(st.integers(1, 3)))
    return draw(st.lists(row, min_size=2, max_size=max_points, unique_by=exact_row))


@settings(max_examples=100, deadline=None)
@given(euclidean_rows(), st.integers(1, 3))
@example([(0, 0), (3, 4), (Fraction(1, 3), Fraction(2, 7)), (0.1, Fraction(5, 8))], 2)
@example([(0, 0), (1, 1), (5, 0), (6, 1 + Fraction(1, 10**20))], 2)
def test_grid_radii_and_steps_match_the_fraction_oracle(rows, n_max):
    sample = euclidean_sample(rows)
    radii = fraction_half_distances(rows)
    assert critical_radii(sample, n_max) == radii
    down = radii[::-1]
    expected = [(down[0], math.inf, down[0] * 2)]
    expected += [(lo, hi, midpoint(lo, hi)) for hi, lo in zip(down, down[1:])]
    expected.append((0, down[-1], down[-1] / 2))
    steps = build_filtration(sample, n_max)
    assert [(s.lower, s.upper, s.representative) for s in steps] == expected
    assert all(s.hypergraph == hard_sphere(sample, s.representative, n_max) for s in steps)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_reports_the_first_coinciding_pair(data):
    pool = data.draw(euclidean_rows(max_points=3))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))
    ids = data.draw(st.permutations(range(len(rows))))
    points = dict(zip(ids, rows))
    pair = first_coinciding_pair(points)
    if pair is None:
        assert euclidean_sample(points).ids == tuple(sorted(ids))
    else:
        with pytest.raises(ValueError, match=f"^points {pair[0]} and {pair[1]} coincide$"):
            euclidean_sample(points)


def test_grid_names_the_first_coinciding_pair_in_id_order():
    a, b = (0, Fraction(1, 3)), (2, 5)
    with pytest.raises(ValueError, match="^points 0 and 3 coincide$"):
        euclidean_sample([a, b, b, a])
    with pytest.raises(ValueError, match="^points 0 and 2 coincide$"):
        euclidean_sample([(0.5,), (1,), (Fraction(1, 2),)])


def test_euclidean_keys_stay_fractions():
    # isom --tolerance compares float(key): the keys stay the exact d^2
    sample = euclidean_sample([(0, Fraction(1, 3)), (Fraction(2, 7), 0.5)])
    d2 = Fraction(2, 7) ** 2 + Fraction(1, 6) ** 2
    assert sample.metric.distance_sq(0, 1) == sample.metric.distance_key(0, 1) == d2
    assert sample.metric.pair_keys([0, 1]) == {(0, 1): d2}
    assert all(type(k) is Fraction for k in sample.metric.pair_keys([0, 1]).values())
