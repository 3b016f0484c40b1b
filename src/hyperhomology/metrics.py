"""Finite metric point samples and hard-sphere hypergraph construction.

Three metric kinds are supported:

* Euclidean coordinates with rational entries -- comparisons run on an
  integer grid (the coordinates times their common denominator L), on the
  int squared distances L^2 d^2, so no radius is ever misclassified;
* an explicit symmetric matrix of rational dissimilarities (the triangle
  inequality is deliberately not enforced);
* arc length on the unit circle, either with angles that are exact
  rational multiples of pi (fully exact comparisons) or float radians.

Radii may be ints, Fractions, floats (exact dyadic rationals),
:class:`PiValue` for exact rational multiples of pi, or :class:`SqrtValue`
for the irrational half distances of Euclidean samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .hypergraphs import Hypergraph, _check_vertex


def as_fraction(x) -> Fraction:
    """Exact rational value of a number (floats convert exactly)."""
    if isinstance(x, PiValue):
        raise TypeError("cannot coerce a multiple of pi to a plain rational")
    if isinstance(x, bool):
        raise TypeError("boolean is not a number here")
    return Fraction(x)


@total_ordering
class PiValue:
    """An exact non-negative rational multiple of pi."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        self.coeff = Fraction(coeff)
        if self.coeff < 0:
            raise ValueError("negative multiple of pi not allowed here")

    def __float__(self):
        return float(self.coeff) * math.pi

    def __add__(self, other):
        if isinstance(other, PiValue):
            return PiValue(self.coeff + other.coeff)
        return NotImplemented

    def __mul__(self, other):
        return PiValue(self.coeff * Fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PiValue(self.coeff / Fraction(other))

    def __eq__(self, other):
        if isinstance(other, PiValue):
            return self.coeff == other.coeff
        if isinstance(other, (int, float, Fraction)):
            # pi is irrational, so only zero is also a plain number
            return not self.coeff and other == 0
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, PiValue):
            return self.coeff < other.coeff
        if isinstance(other, (int, float, Fraction)):
            return float(self) < float(other)
        return NotImplemented

    def __hash__(self):
        return hash(("PiValue", self.coeff)) if self.coeff else hash(0)

    def __repr__(self):
        return f"PiValue({self.coeff})"


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    num, den = value.numerator, value.denominator
    if num < 0:
        raise ValueError("negative value")
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def exact_sqrt(square) -> "Fraction | SqrtValue":
    """Square root of a non-negative rational: a Fraction when it is rational,
    a :class:`SqrtValue` otherwise."""
    square = square if isinstance(square, Fraction) else Fraction(square)
    if (root := rational_sqrt(square)) is not None:
        return root
    value = object.__new__(SqrtValue)  # rational_sqrt has checked it: skip __init__
    value.square = square
    return value


@total_ordering
class SqrtValue:
    """The exact square root of a non-negative rational that is not a square.

    Being irrational, it equals no plain number; it orders exactly against
    rationals and other square roots by comparing squares.  Build it with
    :func:`exact_sqrt`, which returns a Fraction for rational roots.
    """

    __slots__ = ("square",)

    def __init__(self, square):
        self.square = Fraction(square)
        if self.square < 0 or rational_sqrt(self.square) is not None:
            raise ValueError(f"{square} is negative or a rational square")

    def __float__(self):
        return math.sqrt(self.square)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other >= 0:
            return exact_sqrt(self.square * other * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other > 0:
            return exact_sqrt(self.square / (Fraction(other) * other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, SqrtValue):
            return self.square == other.square
        if isinstance(other, (int, float, Fraction)):
            return False
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, SqrtValue):
            return self.square < other.square
        if isinstance(other, float) and not math.isfinite(other):
            return float(self) < other
        if isinstance(other, (int, float, Fraction)):
            return other > 0 and self.square < Fraction(other) ** 2
        return NotImplemented

    def __hash__(self):
        return hash(("SqrtValue", self.square))

    def __repr__(self):
        return f"SqrtValue({self.square})"


def _square(radius) -> Fraction:
    """Exact square of a non-negative radius that is not a multiple of pi."""
    if isinstance(radius, SqrtValue):
        return radius.square
    r = as_fraction(radius)
    if r < 0:
        raise ValueError("radius must be non-negative")
    return r * r


def midpoint(a, b):
    """A radius strictly between a < b, exact unless a float is involved.

    Two rationals or two multiples of pi give their exact midpoint, and any
    float gives the float midpoint.  Where a square root is involved the
    midpoint has no exact form here, so the dyadic rational of least
    denominator above a is returned, which lies strictly below b.
    """
    root_a, root_b, rational = a.__class__ is SqrtValue, b.__class__ is SqrtValue, (int, Fraction)
    if not (root_a or root_b):
        if isinstance(a, PiValue) and isinstance(b, PiValue):
            return PiValue((a.coeff + b.coeff) / 2)
        if isinstance(a, rational) and isinstance(b, rational):
            return (Fraction(a) + Fraction(b)) / 2
    if not ((root_a or isinstance(a, rational)) and (root_b or isinstance(b, rational))):
        return (float(a) + float(b)) / 2.0
    # the squares are compared and searched as integer ratios, cheaper than Fractions
    low_num, low_den = (a.square if root_a else _square(a)).as_integer_ratio()
    high_num, high_den = (b.square if root_b else _square(b)).as_integer_ratio()
    if low_num * high_den >= high_num * low_den:
        raise ValueError("midpoint needs a < b")
    scale = 1
    while True:
        # m / scale with m = isqrt(floor(low * scale^2)) + 1 is the least
        # multiple of 1/scale whose square exceeds low
        m = math.isqrt(low_num * scale * scale // low_den) + 1
        if m * m * high_den < high_num * scale * scale:
            return Fraction(m, scale)
        scale *= 2


class EuclideanMetric:
    """Euclidean metric with exact rational coordinates, read from ``grid``:
    each point times ``scale``, the least common denominator of them all."""

    kind = "euclidean"

    def __init__(self, coords: dict[int, tuple[Fraction, ...]]):
        dims = {len(c) for c in coords.values()}
        if len(dims) > 1:
            raise ValueError("coordinate dimension mismatch")
        self.coords = coords
        self.scale = math.lcm(*(c.denominator for row in coords.values() for c in row))
        self.grid = {
            i: tuple(c.numerator * (self.scale // c.denominator) for c in row)
            for i, row in coords.items()
        }
        at: dict = {}
        for i in sorted(coords):
            at.setdefault(self.grid[i], []).append(i)
        if clashes := [same for same in at.values() if len(same) > 1]:
            i, j = min(clashes)[:2]  # the first coinciding pair in id order
            raise ValueError(f"points {i} and {j} coincide")

    def _grid_sq(self, i: int, j: int) -> int:  # scale^2 d(i, j)^2
        return sum((a - b) ** 2 for a, b in zip(self.grid[i], self.grid[j]))

    def distance_sq(self, i: int, j: int) -> Fraction:
        return Fraction(self._grid_sq(i, j), self.scale**2)

    def distance_key(self, i: int, j: int) -> Fraction:
        # exact key: comparisons of squared distances order like distances
        return self.distance_sq(i, j)

    def separation_exceeds(self, i: int, j: int, radius) -> bool:
        """Exact test d(i, j) > 2 * radius."""
        if isinstance(radius, PiValue):
            return math.sqrt(float(self.distance_sq(i, j))) > 2.0 * float(radius)
        return self.distance_sq(i, j) > 4 * _square(radius)

    def pair_keys(self, ids):
        return {(i, j): self.distance_sq(i, j) for i, j in combinations(ids, 2)}

    def half_distances(self, ids) -> tuple[dict, dict]:
        """Each pair's int key scale^2 d^2, and each distinct key's half distance."""
        keys = {(i, j): self._grid_sq(i, j) for i, j in combinations(ids, 2)}
        square = (2 * self.scale) ** 2
        return keys, {key: exact_sqrt(Fraction(key, square)) for key in set(keys.values())}


class DistanceMatrixMetric:
    """Explicit symmetric dissimilarity matrix with exact rational entries.

    Only symmetry, non-negativity and d(p, q) = 0 iff p = q are enforced;
    the triangle inequality is intentionally not checked, so arbitrary
    dissimilarity data is accepted.
    """

    kind = "matrix"

    def __init__(self, ids: Sequence[int], matrix: Sequence[Sequence]):
        n = len(ids)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("distance matrix shape does not match point count")
        exact = [[as_fraction(v) for v in row] for row in matrix]
        for a in range(n):
            if exact[a][a] != 0:
                raise ValueError("distance matrix diagonal must be zero")
            for b in range(a + 1, n):
                if exact[a][b] != exact[b][a]:
                    raise ValueError("distance matrix must be symmetric")
                if exact[a][b] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        self.index = {pid: k for k, pid in enumerate(ids)}
        self.matrix = exact

    def distance(self, i: int, j: int) -> Fraction:
        return self.matrix[self.index[i]][self.index[j]]

    def distance_key(self, i: int, j: int) -> Fraction:
        return self.distance(i, j)

    def separation_exceeds(self, i: int, j: int, radius) -> bool:
        if isinstance(radius, PiValue):
            return float(self.distance(i, j)) > 2.0 * float(radius)
        # both sides are non-negative, so compare squares
        return self.distance(i, j) ** 2 > 4 * _square(radius)

    def pair_keys(self, ids):
        return {(i, j): self.distance(i, j) for i, j in combinations(ids, 2)}

    def half_distances(self, ids) -> tuple[dict, dict]:
        keys = self.pair_keys(ids)
        return keys, {key: key / 2 for key in set(keys.values())}


class CircleMetric:
    """Arc-length metric on the unit circle.

    In exact mode angles are rational multiples of pi and every distance is
    a :class:`PiValue`; comparisons against PiValue radii are then exact.
    In float mode angles are radians and comparisons are float-strict.
    """

    kind = "circle"

    def __init__(self, angles: dict[int, Fraction] | dict[int, float], exact: bool):
        self.exact = exact
        if exact:
            self.angles = {i: Fraction(a) % 2 for i, a in angles.items()}
        else:
            # a tiny negative angle reduces to 2 pi itself: reduce again, to 0
            self.angles = {i: float(a) % (2 * math.pi) % (2 * math.pi) for i, a in angles.items()}
        seen = {}
        for i, a in self.angles.items():
            if a in seen:
                raise ValueError(f"points {seen[a]} and {i} coincide on the circle")
            seen[a] = i

    def _arc(self, i: int, j: int):
        if self.exact:
            diff = abs(self.angles[i] - self.angles[j])
            return min(diff, 2 - diff)
        diff = abs(self.angles[i] - self.angles[j])
        return min(diff, 2 * math.pi - diff)

    def distance(self, i: int, j: int):
        arc = self._arc(i, j)
        return PiValue(arc) if self.exact else arc

    def distance_key(self, i: int, j: int):
        return self._arc(i, j)

    def separation_exceeds(self, i: int, j: int, radius) -> bool:
        d = self.distance(i, j)
        if self.exact and isinstance(radius, PiValue):
            return d.coeff > 2 * radius.coeff
        if isinstance(radius, PiValue):
            return float(d) > 2.0 * float(radius)
        _square(radius)  # rejects negative radii
        return float(d) > 2.0 * float(radius)

    def pair_keys(self, ids):
        return {(i, j): self._arc(i, j) for i, j in combinations(ids, 2)}

    def half_distances(self, ids) -> tuple[dict, dict]:
        keys = self.pair_keys(ids)
        half = {key: PiValue(key) / 2 if self.exact else key / 2.0 for key in set(keys.values())}
        return keys, half


@dataclass(frozen=True)
class MetricPointSample:
    """A finite labelled point set equipped with one of the metric kinds."""

    ids: tuple[int, ...]
    metric: EuclideanMetric | DistanceMatrixMetric | CircleMetric

    def __len__(self):
        return len(self.ids)

    def separation_exceeds(self, i: int, j: int, radius) -> bool:
        return self.metric.separation_exceeds(i, j, radius)


def _ids_and_values(points, ids):
    if isinstance(points, Mapping):
        if ids is not None:
            raise ValueError("pass ids either in the mapping or separately, not both")
        items = sorted(points.items())
        return tuple(k for k, _ in items), [v for _, v in items]
    values = list(points)
    if ids is None:
        return tuple(range(len(values))), values
    ids = tuple(_check_vertex(i) for i in ids)
    if len(ids) != len(values) or len(set(ids)) != len(ids):
        raise ValueError("ids must be distinct and match the number of points")
    return ids, values


def euclidean_sample(points, ids: Sequence[int] | None = None) -> MetricPointSample:
    """Sample from coordinate rows; coordinates become exact rationals."""
    ids, rows = _ids_and_values(points, ids)
    coords = {
        i: tuple(as_fraction(c) for c in row) for i, row in zip(ids, rows)
    }
    return MetricPointSample(ids, EuclideanMetric(coords))


def distance_matrix_sample(matrix, ids: Sequence[int] | None = None) -> MetricPointSample:
    """Sample from an explicit symmetric dissimilarity matrix, a row per point."""
    ids, rows = _ids_and_values(list(matrix), ids)
    return MetricPointSample(ids, DistanceMatrixMetric(ids, rows))


def circle_sample(
    angles_over_pi: Iterable | None = None,
    *,
    radians: Iterable[float] | None = None,
    ids: Sequence[int] | None = None,
) -> MetricPointSample:
    """Unit-circle sample.

    ``angles_over_pi`` takes rationals measured in units of pi (exact mode);
    ``radians`` takes plain float angles.
    """
    if (angles_over_pi is None) == (radians is None):
        raise ValueError("pass exactly one of angles_over_pi or radians")
    if angles_over_pi is not None:
        ids, values = _ids_and_values(angles_over_pi, ids)
        metric = CircleMetric({i: Fraction(v) for i, v in zip(ids, values)}, exact=True)
    else:
        ids, values = _ids_and_values(radians, ids)
        metric = CircleMetric({i: float(v) for i, v in zip(ids, values)}, exact=False)
    return MetricPointSample(ids, metric)


def evenly_spaced_circle_sample(count: int) -> MetricPointSample:
    """count equally spaced exact points on the unit circle."""
    if count < 1:
        raise ValueError("need at least one point")
    return circle_sample([Fraction(2 * k, count) for k in range(count)])


def hard_sphere(sample: MetricPointSample, radius, n_max: int) -> Hypergraph:
    """Hard-sphere hypergraph: n-subsets with pairwise distance > 2*radius.

    Levels run from 1 to n_max; the level-1 edges are all the points, and
    the boundary radius d/2 itself excludes the pair (strict inequality).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not isinstance(radius, PiValue):
        _square(radius)  # rejects negative radii
    ids = sorted(sample.ids)
    far = {i: set() for i in ids}
    for i, j in combinations(ids, 2):
        if sample.separation_exceeds(i, j, radius):
            far[i].add(j)
            far[j].add(i)

    edges: list[tuple[int, ...]] = [(i,) for i in ids]

    def extend(clique: tuple[int, ...], candidates: list[int]):
        if len(clique) == n_max:
            return
        for k, v in enumerate(candidates):
            edges.append(clique + (v,))
            extend(clique + (v,), [w for w in candidates[k + 1 :] if w in far[v]])

    for k, v in enumerate(ids):
        extend((v,), [w for w in ids[k + 1 :] if w in far[v]])
    return Hypergraph(frozenset(sample.ids), frozenset(edges))


def critical_radii(sample: MetricPointSample, n_max: int) -> list:
    """Sorted distinct half pairwise distances, as exact values.

    The hard-sphere hypergraph (every level up to n_max) is constant on each
    open interval between consecutive values.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(sample) < 2:
        raise ValueError("need at least two points")
    # keys order like distances in every metric
    _, radii = sample.metric.half_distances(sorted(sample.ids))
    return [radii[key] for key in sorted(radii)]
