"""Hard-sphere filtrations and persistent Betti numbers.

Shrinking the exclusion radius only adds edges, and at radius 0 every pair
of distinct points is separated, so every set of at most n_max points is an
edge from the step of its latest pair on: the filtration is the flag
(Vietoris-Rips) filtration of the pairs by decreasing distance.  Persistent
Betti numbers are the exact ranks of the homology maps induced by the
chain-level inclusions of the embedded (Inf or Sup) complexes, which nest
into one filtered chain complex.  ``persistent_betti`` builds a basis of it
in which every vector has a birth step (the simplices, when every step is
simplicial), pairs births with deaths by a reduction of the coboundaries
in that basis, with clearing, and reads every Betti number, rank and bar
off the bars: a bar is a class born at one step that dies at a later one,
and the rank of H_n(step i) -> H_n(step j) counts the degree-n bars alive
from i through j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Sequence

from .chains import ChainComplex, ambient_complex
from .chains import _check_closure_cap, _check_square_zero, _edge_chains, _in_field
from .chains import _integer_columns, largest_inside, smallest_containing
from .errors import InvariantViolation
from .fields import QQ
from .hypergraphs import Hypergraph
from .linalg import Echelon, SparseMatrix, _nonzero, _quotient
from .metrics import CircleMetric, MetricPointSample, PiValue, midpoint


class _PairSteps:
    """The step at which each pair of a sample's points enters its
    hard-sphere filtration, of which there are ``count`` steps."""

    def __init__(self, ids: list, step: dict, n_max: int, count: int):
        self.ids, self.step, self.count = ids, step, count
        self.top = min(n_max, len(ids))  # the most vertices of an edge

    def levels(self):
        """Per degree, each edge mapped to its step, the latest among its
        pairs; edges in sorted order."""
        level, step = {(i,): 0 for i in self.ids}, self.step
        for k in range(2, self.top + 1):
            yield level
            # the pairs of s: its long faces' and its end pair (no name keeps the level below)
            level = {
                s: max(level[s[:-1]], level[s[1:]], step[s[0]][s[-1]])
                for s in combinations(self.ids, k)
            }
        yield level


class FiltrationStep:
    """One constancy interval of the hard-sphere family.

    The hypergraph is constant for radii in the open interval
    (lower, upper); the representative is an exact radius inside it (a
    float only for float circle samples).  Steps are listed by decreasing
    radius, so hypergraphs grow with the step index.  A step of
    ``build_filtration`` builds its hypergraph when it is first read.
    """

    __slots__ = ("lower", "upper", "representative", "_hypergraph", "_pairs")

    def __init__(self, lower, upper, representative, hypergraph: Hypergraph):
        self.lower, self.upper, self.representative = lower, upper, representative
        self._hypergraph, self._pairs = hypergraph, None

    @property
    def hypergraph(self) -> Hypergraph:
        if self._hypergraph is None:
            pairs, k = self._pairs
            edges = (s for level in pairs.levels() for s, born in level.items() if born <= k)
            self._hypergraph = Hypergraph(frozenset(pairs.ids), frozenset(edges))
        return self._hypergraph


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
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ids = sorted(sample.ids)
    keys, radius_of = sample.metric.half_distances(ids)
    order = sorted(radius_of, reverse=True)
    step_of = {key: k for k, key in enumerate(order, start=1)}
    step: dict = {i: {} for i in ids}
    for (i, j), key in keys.items():
        step[i][j] = step_of[key]
    radii = [radius_of[key] for key in order]
    intervals = [(0, math.inf, 1)]
    if radii:
        intervals = [(radii[0], math.inf, radii[0] * 2)]
        intervals += [(lo, hi, midpoint(lo, hi)) for hi, lo in zip(radii, radii[1:])]
        intervals.append((0, radii[-1], radii[-1] / 2))
    pairs = _PairSteps(ids, step, n_max, len(intervals))
    steps = []
    for k, (lower, upper, rep) in enumerate(intervals):
        steps.append(FiltrationStep(lower, upper, rep, None))
        steps[-1]._pairs = (pairs, k)
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

    def to_csv(self) -> str:
        """The entries under a header, as ``csv.writer`` writes them (float radii, CRLF)."""
        radii = [repr(float(r)) for r in self.step_radii]
        rows = [
            f"{d},{radii[i]},{radii[j]},{self.rank(d, i, i)},{self.rank(d, j, j)},{r}\r\n"
            for d, i, j, r in self.entries
        ]
        return "degree,r_i,r_j,beta_i,beta_j,rank\r\n" + "".join(rows)

    def barcode(self) -> list[dict]:
        """The bars of the table's degrees, by degree, birth and death.

        A bar recorded as (degree, born, dies) is a class appearing at step
        `born` and not surviving to step `dies` (dies = None for classes
        alive at the end).
        """
        never = len(self.betti_by_step)
        return [
            {"degree": d, "born_step": born, "dies_step": None if dies == never else dies}
            for d in self.degrees
            for born, dies in sorted(
                (born, never if dies is None else dies) for n, born, dies in self.bars if n == d
            )
        ]


def _simplex_basis(levels, field) -> tuple[list, list] | None:
    """Filtered basis of simplices, when every step spans a subcomplex.

    levels[n] maps each degree-n simplex to its birth step, in sorted order;
    the basis is ordered by (birth, simplex).  Boundary columns are built over
    Z, checked there to square to zero and to reach only faces born no later
    (else None is returned), and returned as field coboundaries.  The span of
    each step is closed under the boundary, hence is its Inf and its Sup.
    """
    births, columns, labels = [], [], []
    for n, level in enumerate(levels):
        labels.append(sorted(level, key=level.__getitem__))  # stable: (birth, simplex)
        born = sorted(level.values())
        if n:
            below = births[n - 1]  # labels[n - 1] gains any missing face, then is dropped
            ints = _integer_columns(labels[n], labels[n - 1])
            missing = len(labels[n - 1]) > len(below)
            if missing or any(col and below[max(col)] > b for col, b in zip(ints, born)):
                return None  # a face is missing or born later
            if n >= 2:
                _check_square_zero(n - 1, columns[-1], ints, labels)
            columns.append(ints)
            labels[n - 1] = None  # only labels[n] may name a failure
        births.append(born)
    level = labels = None  # released before the columns are transposed
    return births, [_in_field(field, _transposed(c, len(b))) for c, b in zip(columns, births)]


def _transposed(columns: list, nrows: int) -> list[dict]:
    """The rows of the columns.  Each column is released once read; the row
    keys are made first, lest they pin the memory of the released columns."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for j in list(range(len(columns))):
        col, columns[j] = columns[j], None
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _hypergraph_levels(hypergraphs: Sequence) -> list[dict]:
    """Per degree, each edge of the last hypergraph mapped to the first step
    holding it, in sorted order."""
    birth: dict = {}
    for k in range(len(hypergraphs) - 1, -1, -1):  # the earliest step is written last
        birth.update(dict.fromkeys(hypergraphs[k].edges, k))
    last = hypergraphs[-1]
    levels = last.levels()
    return [{e: birth[e] for e in levels.get(n, ())} for n in range(1, last.max_cardinality() + 1)]


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
        embeddings = build(field, ambient.dims, span, boundary)[0]
        for n, embedding in enumerate(embeddings):
            for col in embedding.columns():
                if (key := echelons[n].add(col)) is not None:
                    keys[n].append(key)
                    births[n].append(k)
            if echelons[n].dimension != embedding.ncols:
                message = f"embedded complexes are not nested at step {k}, degree {n}"
                raise InvariantViolation(message)
    columns = []  # of degrees 1 to top
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
                message = f"boundary leaves the step-{born} subcomplex at degree {n}"
                raise InvariantViolation(message)
            level.append(column)
        columns.append(level)
    for n in range(1, top):
        _check_square_zero(n, columns[n - 1], columns[n], None, field.characteristic)
    return births, [_transposed(c, len(b)) for c, b in zip(columns, births)]


def _bars(births: list, coboundaries: list, field) -> list[tuple[int, int, int | None]]:
    """(degree, born, dies) of every bar of positive length, by degree from
    the top down, each degree by position.  coboundaries[n][i] is the
    coboundary of degree-n basis vector i in degree n + 1, all ordered by
    birth.  From degree 0 up, each degree's columns are reduced last to
    first, each only until its least index is no earlier column's pivot j,
    the death of the class born with the column (de Silva, Morozov and
    Vejdemo-Johansson 2011); a pivot one degree down reduces to zero and is
    skipped (clearing, as in Ripser), and a column reduced to zero never dies."""
    p, bars, cleared = field.characteristic, [], {}
    for n, (born, up) in enumerate(zip(births, coboundaries + [()])):
        dies, reduced = list(born), {}  # a cleared position, like a bar of length 0, is no bar
        for i in range(len(born) - 1, -1, -1):
            col = up[i] if up and i not in cleared else ()
            while col and (row := reduced.get(j := min(col))) is not None:
                factor = col[j] * pow(row[j], -1, p) % p if p else _quotient(col[j], row[j])
                col = _nonzero({c: col.get(c, 0) - factor * row.get(c, 0) for c in col | row}, p)
            if col:
                reduced[j], dies[i] = col, births[n + 1][j]
            elif i not in cleared:
                dies[i] = None
        bars = [(n, b, d) for b, d in zip(born, dies) if d != b] + bars
        cleared = reduced
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
) -> PersistentBettiTable:
    """Ranks of H_n(step_i) -> H_n(step_j) along the inclusion order.

    kind selects the Inf or the Sup complex of each step; both nest along
    the filtration, and the maps are induced by chain inclusion.  The
    largest edge of the final step obeys the simplex cap of a closure (see
    ``ambient_complex``), checked before any simplex is listed.  When every
    step's edges already span a subcomplex, both kinds are that span, and
    no closure ambient is built.
    """
    if kind not in ("inf", "sup"):
        raise ValueError("kind must be 'inf' or 'sup'")
    degrees = tuple(degrees)
    if any(d < 0 for d in degrees):
        raise ValueError(f"degrees must be non-negative, got {list(degrees)}")
    steps = list(steps)
    # all the steps of one build_filtration, in order, are nested by construction
    flag = steps[0]._pairs[0] if steps and steps[0]._pairs else None
    if flag is None or [s._pairs for s in steps] != [(flag, k) for k in range(flag.count)]:
        flag = None
        for earlier, later in zip(steps, steps[1:]):
            if not earlier.hypergraph.edges <= later.hypergraph.edges:
                raise ValueError("steps must be nested increasingly")
    if not steps:
        raise ValueError("empty filtration")
    _check_closure_cap(flag.top if flag else steps[-1].hypergraph.max_cardinality())
    levels = flag.levels() if flag else _hypergraph_levels([s.hypergraph for s in steps])
    basis = _simplex_basis(levels, field)
    if basis is None:
        ambient = ambient_complex(steps[-1].hypergraph, "closure", field=field)
        basis = _echelon_basis(ambient, [s.hypergraph for s in steps], kind)
    births, bars = basis[0], _bars(*basis, field)

    count = len(steps)
    ranks = [_alive(bars, n, count) for n in range(max(len(births), max(degrees, default=-1) + 1))]
    betti_by_step = tuple(tuple(r[i][i] for r in ranks[: len(births)]) for i in range(count))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count) if all_pairs or j == i + 1]
    entries = []
    for d in degrees:
        for i, j in pairs:
            r = ranks[d][i][j]
            if r > min(ranks[d][i][i], ranks[d][j][j]):
                raise InvariantViolation(
                    f"induced rank {r} exceeds min Betti at degree {d}, steps {i}->{j}"
                )
            entries.append((d, i, j, r))
    radii = tuple(s.representative for s in steps)
    return PersistentBettiTable(kind, degrees, radii, betti_by_step, tuple(entries), tuple(bars))


def emptiness_threshold(sample: MetricPointSample, n: int):
    """Least radius at which the level-n hard-sphere hypergraph is empty.

    Defined for circle samples only.  Equals half the best achievable
    minimum pairwise arc distance among n points, hence never exceeds
    pi/n; level 1 never empties, giving +infinity.  Level n first appears
    at the step of its earliest n-subset, read off the flag births of
    ``build_filtration(sample, n)``, and that step's upper radius is the
    threshold.
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
    steps = build_filtration(sample, n)
    *_, level = steps[0]._pairs[0].levels()
    return steps[min(level.values())].upper
