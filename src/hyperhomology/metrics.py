"""Finite metric point samples and hard-sphere hypergraph construction.

Three metric kinds are supported:

* Euclidean coordinates with rational entries -- comparisons run on exact
  squared distances, so no radius is ever misclassified;
* an explicit symmetric matrix of rational dissimilarities (the triangle
  inequality is deliberately not enforced);
* arc length on the unit circle, either with angles that are exact
  rational multiples of pi (fully exact comparisons) or float radians.

Radii may be ints, Fractions, floats (exact dyadic rationals) or
:class:`PiValue` for exact rational multiples of pi.
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


def _double(radius):
    if isinstance(radius, PiValue):
        return PiValue(2 * radius.coeff)
    return 2 * radius


def midpoint(a, b):
    """Midpoint of two radii, staying exact when both live in one domain."""
    if isinstance(a, PiValue) and isinstance(b, PiValue):
        return PiValue((a.coeff + b.coeff) / 2)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return (Fraction(a) + Fraction(b)) / 2
    return (float(a) + float(b)) / 2.0


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        raise ValueError("negative value")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class EuclideanMetric:
    """Euclidean metric with exact rational coordinates."""

    kind = "euclidean"

    def __init__(self, coords: dict[int, tuple[Fraction, ...]]):
        dims = {len(c) for c in coords.values()}
        if len(dims) > 1:
            raise ValueError("coordinate dimension mismatch")
        self.coords = coords
        ids = sorted(coords)
        for i, j in combinations(ids, 2):
            if coords[i] == coords[j]:
                raise ValueError(f"points {i} and {j} coincide")

    def distance_sq(self, i: int, j: int) -> Fraction:
        return sum((a - b) ** 2 for a, b in zip(self.coords[i], self.coords[j]))

    def distance_key(self, i: int, j: int) -> Fraction:
        # exact key: comparisons of squared distances order like distances
        return self.distance_sq(i, j)

    def separation_exceeds(self, i: int, j: int, radius) -> bool:
        """Exact test d(i, j) > 2 * radius."""
        if isinstance(radius, PiValue):
            return math.sqrt(float(self.distance_sq(i, j))) > 2.0 * float(radius)
        r = as_fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        return self.distance_sq(i, j) > 4 * r * r

    def half_distance(self, i: int, j: int):
        root = rational_sqrt(self.distance_sq(i, j))
        if root is not None:
            return root / 2
        return math.sqrt(float(self.distance_sq(i, j))) / 2.0

    def pair_keys(self, ids):
        return {(i, j): self.distance_sq(i, j) for i, j in combinations(ids, 2)}


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
        r = as_fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        return self.distance(i, j) > 2 * r

    def half_distance(self, i: int, j: int) -> Fraction:
        return self.distance(i, j) / 2

    def pair_keys(self, ids):
        return {(i, j): self.distance(i, j) for i, j in combinations(ids, 2)}


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
            self.angles = {i: float(a) % (2 * math.pi) for i, a in angles.items()}
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
        r = as_fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        return float(d) > 2.0 * float(r)

    def half_distance(self, i: int, j: int):
        d = self.distance(i, j)
        return d / 2 if self.exact else d / 2.0

    def pair_keys(self, ids):
        return {(i, j): self._arc(i, j) for i, j in combinations(ids, 2)}


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
    """Sample from an explicit symmetric dissimilarity matrix."""
    if ids is None:
        ids = tuple(range(len(matrix)))
    else:
        ids = tuple(_check_vertex(i) for i in ids)
    return MetricPointSample(ids, DistanceMatrixMetric(ids, matrix))


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
    if not isinstance(radius, PiValue) and as_fraction(radius) < 0:
        raise ValueError("radius must be non-negative")
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
    """Sorted distinct half pairwise distances.

    The hard-sphere hypergraph (every level up to n_max) is constant on each
    open interval between consecutive values.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(sample) < 2:
        raise ValueError("need at least two points")
    keys = sample.metric.pair_keys(sorted(sample.ids))
    seen = {}
    for pair, key in sorted(keys.items(), key=lambda kv: kv[1]):
        if key not in seen:
            seen[key] = sample.metric.half_distance(*pair)
    return sorted(seen.values(), key=float)
