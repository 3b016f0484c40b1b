"""Hard-sphere filtrations and persistent Betti numbers.

Shrinking the exclusion radius only adds edges, so the hard-sphere
hypergraphs at decreasing radii form an increasing filtration.  Persistent
Betti numbers are the exact ranks of the homology maps induced by the
chain-level inclusions of the embedded (Inf or Sup) complexes.

The embedded complexes of the steps are nested, so they form one filtered
chain complex.  ``persistent_betti`` builds a basis of it in which every
vector has a birth step, runs one column reduction (with clearing) on the
boundaries in that basis, and reads every Betti number, rank and bar off
the resulting bars: a bar is a class born at one step that dies at a later
one, and the rank of H_n(step i) -> H_n(step j) counts the degree-n bars
alive from i through j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .chains import (
    DEFAULT_SIMPLEX_CAP,
    ChainComplex,
    _edge_chains,
    ambient_complex,
    largest_inside,
    smallest_containing,
)
from .errors import InvariantViolation
from .fields import QQ
from .hypergraphs import Hypergraph
from .linalg import Echelon, SparseMatrix
from .metrics import (
    CircleMetric,
    MetricPointSample,
    PiValue,
    half_distances_by_key,
    hard_sphere,
    midpoint,
)


@dataclass(frozen=True)
class FiltrationStep:
    """One constancy interval of the hard-sphere family.

    The hypergraph is constant for radii in the open interval
    (lower, upper); the representative is an exact radius inside it (a
    float only for float circle samples).  Steps are listed by decreasing
    radius, so hypergraphs grow with the step index.
    """

    lower: object
    upper: object
    representative: object
    hypergraph: Hypergraph


def build_filtration(sample: MetricPointSample, n_max: int) -> tuple[FiltrationStep, ...]:
    """All hard-sphere hypergraphs of a sample, one step per radius interval.

    Steps are ordered by decreasing radius: the first step (radius above
    the largest half distance) holds the vertices only, the last (radius
    below the smallest half distance) is the full hard-sphere hypergraph
    at radius 0.  Step k adds the pairs at the k-th largest distinct
    distance, compared by exact key, and each edge enters with its
    closest pair.
    """
    if len(sample) < 1:
        raise ValueError("need at least one point")
    if len(sample) == 1:
        only = hard_sphere(sample, 0, n_max)
        return (FiltrationStep(0, math.inf, 1, only),)
    keys = sample.metric.pair_keys(sorted(sample.ids))
    radius_of = half_distances_by_key(sample, keys)
    order = sorted(radius_of, reverse=True)
    step_of = {key: k for k, key in enumerate(order, start=1)}
    by_step: list[list] = [[] for _ in range(len(order) + 1)]
    for e in hard_sphere(sample, 0, n_max).edges:
        by_step[max((step_of[keys[pair]] for pair in combinations(e, 2)), default=0)].append(e)

    radii = [radius_of[key] for key in order]
    intervals = [(radii[0], math.inf, radii[0] * 2)]
    intervals += [(lo, hi, midpoint(lo, hi)) for hi, lo in zip(radii, radii[1:])]
    intervals.append((0, radii[-1], radii[-1] / 2))
    vertices = frozenset(sample.ids)
    edges: set = set()
    steps = []
    for (lower, upper, rep), new in zip(intervals, by_step):
        edges.update(new)
        steps.append(FiltrationStep(lower, upper, rep, Hypergraph(vertices, frozenset(edges))))
    for earlier, later in zip(steps, steps[1:]):
        if not earlier.hypergraph.edges <= later.hypergraph.edges:
            raise InvariantViolation("filtration steps are not nested")
    return tuple(steps)


@dataclass(frozen=True)
class PersistentBettiTable:
    """Exact ranks of induced homology maps between filtration steps.

    bars lists every (degree, born, dies) of the filtered complex, in all
    degrees: a class born at step ``born`` that does not survive to step
    ``dies`` (None for classes alive at the last step).
    """

    kind: str
    degrees: tuple[int, ...]
    step_radii: tuple[object, ...]
    betti_by_step: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, int, int, int], ...]  # (degree, i, j, rank)
    bars: tuple[tuple[int, int, int | None], ...]
    _ranks: dict = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ranks", {(d, i, j): r for d, i, j, r in self.entries})

    def rank(self, degree: int, i: int, j: int) -> int:
        if i == j:
            row = self.betti_by_step[i]
            return row[degree] if degree < len(row) else 0
        try:
            return self._ranks[(degree, i, j)]
        except KeyError:
            raise KeyError(f"no entry for degree {degree}, steps {i}->{j}") from None

    def csv_rows(self) -> list[list]:
        rows = [["degree", "r_i", "r_j", "beta_i", "beta_j", "rank"]]
        for d, i, j, r in self.entries:
            bi = self.betti_by_step[i][d] if d < len(self.betti_by_step[i]) else 0
            bj = self.betti_by_step[j][d] if d < len(self.betti_by_step[j]) else 0
            rows.append(
                [d, float(self.step_radii[i]), float(self.step_radii[j]), bi, bj, r]
            )
        return rows

    def barcode(self) -> list[dict]:
        """The bars of the table's degrees, by degree, birth and death.

        A bar recorded as (degree, born, dies) is a class appearing at step
        `born` and not surviving to step `dies` (dies = None for classes
        alive at the end).
        """
        never = len(self.betti_by_step)
        bars = []
        for d in self.degrees:
            ends = sorted(
                (born, never if dies is None else dies)
                for degree, born, dies in self.bars
                if degree == d
            )
            for born, dies in ends:
                bars.append(
                    {
                        "degree": d,
                        "born_step": born,
                        "dies_step": None if dies == never else dies,
                    }
                )
        return bars


def _unit_basis(ambient: ChainComplex, hypergraphs: Sequence) -> tuple[list, list] | None:
    """Filtered basis of ambient edges, when every step spans a subcomplex.

    An edge is born at the first step holding it.  If each edge's boundary
    only reaches edges born no later, the edge span of every step is closed
    under the boundary, hence is its Inf and its Sup.  The basis is then the
    born edges ordered by (birth, index).  Returns None otherwise.
    """
    birth: dict = {}
    previous: frozenset = frozenset()
    for k, h in enumerate(hypergraphs):
        for e in h.edges - previous:
            birth[e] = k
        previous = h.edges
    born = [[birth.get(e) for e in level] for level in ambient.labels]
    for n in range(1, ambient.top_degree + 1):
        below = [math.inf if b is None else b for b in born[n - 1]]  # unborn: after every step
        for b, col in zip(born[n], ambient.boundaries[n].columns()):
            if b is not None and max(map(below.__getitem__, col), default=b) > b:
                return None
    births, columns, position = [], [], []
    for n, level in enumerate(born):
        order = sorted((b, k) for k, b in enumerate(level) if b is not None)
        births.append([b for b, _ in order])
        position.append({k: p for p, (_, k) in enumerate(order)})
        if n:
            boundary = ambient.boundaries[n].columns()
            rows = position[n - 1]
            columns.append(
                [{rows[i]: v for i, v in boundary[k].items()} for _, k in order]
            )
        else:
            columns.append([{} for _ in order])
    return births, columns


def _echelon_basis(ambient: ChainComplex, hypergraphs: Sequence, kind: str) -> tuple[list, list]:
    """Filtered basis of the nested Inf (or Sup) complexes of the steps.

    One echelon per degree is extended by the embedded complex of each step
    in turn; a row is born at the step that added it, so the rows born up to
    step k span that step's complex.  Boundaries are written as coordinates
    in those rows and checked to stay inside the step of their column.
    """
    build = largest_inside if kind == "inf" else smallest_containing
    field = ambient.field
    top = ambient.top_degree
    echelons = [Echelon(field) for _ in range(top + 1)]
    keys: list[list[int]] = [[] for _ in range(top + 1)]
    births: list[list[int]] = [[] for _ in range(top + 1)]
    for k, h in enumerate(hypergraphs):
        _, span, boundary = _edge_chains(h, field, ambient)
        embeddings, _ = build(field, ambient.dims, span, boundary)
        for n, embedding in enumerate(embeddings):
            for col in embedding.columns():
                key = echelons[n].add(col)
                if key is not None:
                    keys[n].append(key)
                    births[n].append(k)
            if echelons[n].dimension != embedding.ncols:
                raise InvariantViolation(
                    f"embedded complexes are not nested at step {k}, degree {n}"
                )
    columns = [[{} for _ in births[0]]]
    for n in range(1, top + 1):
        basis = [echelons[n].rows[key] for key in keys[n]]
        images = ambient.boundaries[n] @ SparseMatrix.from_columns(field, ambient.dim(n), basis)
        position = {key: p for p, key in enumerate(keys[n - 1])}
        level = []
        for image, born in zip(images.columns(), births[n]):
            coefficients: dict = {}
            residual = echelons[n - 1].reduce(image, coefficients)
            column = {position[i]: v for i, v in coefficients.items()}
            if residual or (column and births[n - 1][max(column)] > born):
                raise InvariantViolation(
                    f"boundary leaves the step-{born} subcomplex at degree {n}"
                )
            level.append(column)
        columns.append(level)
    dims = tuple(len(b) for b in births)
    ChainComplex(
        field,
        dims,
        tuple(
            SparseMatrix.from_columns(field, dims[n - 1] if n else 0, columns[n])
            for n in range(top + 1)
        ),
    ).validate()
    return births, columns


def _bars(births: list, columns: list, field) -> list[tuple[int, int, int | None]]:
    """(degree, born, dies) of every bar of positive length.

    columns[n][j] is the boundary of degree-n basis vector j in the
    positions of degree n - 1, both ordered by birth.  Degrees are reduced
    from the top down, so that a vector already known to pair with a
    vector one degree up is a cycle and its column is skipped (clearing).
    """
    bars = []
    paired: dict[int, int] = {}  # position in degree n -> birth of its killer
    for n in range(len(births) - 1, -1, -1):
        echelon = Echelon(field)
        below: dict[int, int] = {}
        for j, born in enumerate(births[n]):
            if j in paired:
                if paired[j] > born:
                    bars.append((n, born, paired[j]))
                continue
            key = echelon.add(columns[n][j]) if n else None
            if key is None:
                bars.append((n, born, None))
            else:
                below[key] = born
        paired = below
    return bars


def _alive(bars: list, degree: int, count: int) -> list[list[int]]:
    """table[i][j], for i <= j: the degree bars born at or before step i
    that are still alive at step j."""
    by_birth: list[list[int]] = [[] for _ in range(count)]
    for d, born, dies in bars:
        if d == degree:
            by_birth[born].append(count if dies is None else dies)
    deaths = [0] * (count + 1)  # bars born so far, by the step they die at
    table = [[0] * count for _ in range(count)]
    for i in range(count):
        for dies in by_birth[i]:
            deaths[dies] += 1
        alive = 0
        for j in range(count - 1, i - 1, -1):
            alive += deaths[j + 1]
            table[i][j] = alive
    return table


def persistent_betti(
    steps: Sequence[FiltrationStep],
    degrees: Sequence[int],
    kind: str = "inf",
    *,
    all_pairs: bool = False,
    field=QQ,
    cap: int = DEFAULT_SIMPLEX_CAP,
) -> PersistentBettiTable:
    """Ranks of H_n(step_i) -> H_n(step_j) along the inclusion order.

    kind selects the Inf or the Sup complex of each step; both nest along
    the filtration, and the maps are induced by chain inclusion inside the
    common ambient of the final (largest) step, whose closure obeys the
    vertex cap (see ``ambient_complex``).  When every step's edges already
    span a subcomplex, both kinds are that span.
    """
    if kind not in ("inf", "sup"):
        raise ValueError("kind must be 'inf' or 'sup'")
    degrees = tuple(degrees)
    if any(d < 0 for d in degrees):
        raise ValueError(f"degrees must be non-negative, got {list(degrees)}")
    steps = list(steps)
    for earlier, later in zip(steps, steps[1:]):
        if not earlier.hypergraph.edges <= later.hypergraph.edges:
            raise ValueError("steps must be nested increasingly")
    if not steps:
        raise ValueError("empty filtration")
    ambient = ambient_complex(steps[-1].hypergraph, "closure", field=field, cap=cap)
    hypergraphs = [s.hypergraph for s in steps]
    births, columns = _unit_basis(ambient, hypergraphs) or _echelon_basis(
        ambient, hypergraphs, kind
    )
    bars = _bars(births, columns, field)

    count = len(steps)
    ranks = [
        _alive(bars, n, count) for n in range(max(len(births), max(degrees, default=-1) + 1))
    ]
    betti_by_step = tuple(
        tuple(ranks[n][i][i] for n in range(len(births))) for i in range(count)
    )
    pairs = (
        [(i, j) for i in range(count) for j in range(i + 1, count)]
        if all_pairs
        else [(i, i + 1) for i in range(count - 1)]
    )
    entries = []
    for d in degrees:
        for i, j in pairs:
            r = ranks[d][i][j]
            if r > min(ranks[d][i][i], ranks[d][j][j]):
                raise InvariantViolation(
                    f"induced rank {r} exceeds min Betti at degree {d}, steps {i}->{j}"
                )
            entries.append((d, i, j, r))
    return PersistentBettiTable(
        kind,
        degrees,
        tuple(s.representative for s in steps),
        betti_by_step,
        tuple(entries),
        tuple(bars),
    )


def emptiness_threshold(sample: MetricPointSample, n: int):
    """Least radius at which the level-n hard-sphere hypergraph is empty.

    Defined for circle samples only.  Equals half the best achievable
    minimum pairwise arc distance among n points, hence never exceeds
    pi/n; level 1 never empties, giving +infinity.
    """
    if not isinstance(sample.metric, CircleMetric):
        raise ValueError("emptiness threshold is defined for circle samples")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return math.inf
    if n > len(sample):
        # no n-subsets at all: empty from radius 0 on
        return PiValue(0) if sample.metric.exact else 0.0
    best = None
    ids = sorted(sample.ids)
    for subset in combinations(ids, n):
        worst = min(
            sample.metric.distance_key(i, j) for i, j in combinations(subset, 2)
        )
        if best is None or worst > best:
            best = worst
    if sample.metric.exact:
        return PiValue(Fraction(best) / 2)
    return float(best) / 2.0
