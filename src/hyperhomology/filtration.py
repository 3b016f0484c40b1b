"""Hard-sphere filtrations and persistent Betti numbers.

Shrinking the exclusion radius only adds edges, and at radius 0 every pair
of distinct points is separated, so every set of at most n_max points is an
edge from the step of its latest pair on: the filtration is the flag
(Vietoris-Rips) filtration of the pairs by decreasing distance.  Persistent
Betti numbers are the exact ranks of the homology maps induced by the
chain-level inclusions of the embedded (Inf or Sup) complexes, which nest
into one filtered chain complex.  ``persistent_betti`` builds a basis of it
in which every vector has a birth step, pairs births with deaths by a
reduction of the coboundaries in that basis, with clearing, and reads every
Betti number, rank and bar off the bars: a bar is a class born at one step
that dies at a later one, and the rank of H_n(step i) -> H_n(step j) counts
the degree-n bars alive from i through j.  When every step is simplicial
the basis is the simplices, each an integer rank in the combinatorial
number system, as in Ripser (Bauer 2021): faces' ranks are computed, not
looked up, and no simplex tuple is made.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, count, islice
from math import comb
from typing import Sequence

from .chains import ChainComplex, ambient_complex, largest_inside, smallest_containing
from .chains import _check_closure_cap, _check_square_zero, _edge_chains
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

    def births(self) -> list[list[int]]:
        """Per degree, each edge's step by rank (``_rank_basis``): tau + v, v
        its largest position, is born with tau or tau's latest pair with v."""
        ids, step, levels = self.ids, self.step, [[0] * len(self.ids)]
        latest = pairs = [[step[ids[-1 - v]][ids[-1 - u]] for u in range(v)] for v in range(len(ids))]
        for n in range(1, self.top):
            levels.append([a if a > b else b for with_v in latest for a, b in zip(levels[-1], with_v)])
            latest = [  # rho + w below v: rho's latest pair with v, or w's
                [x if x > s else s for w, s in enumerate(p) for x in with_v[: comb(w, n)]]
                for p, with_v in zip(pairs, latest)
            ] if n + 1 < self.top else None
        return levels


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
            pairs, k = self._pairs  # the simplices of a size in sorted order: descending rank
            levels = enumerate(pairs.births(), 1)
            edges = (s for m, b in levels for s, t in zip(combinations(pairs.ids, m), b[::-1]) if t <= k)
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
        top = max(self.degrees, default=-1) + 1
        betti = [(*row, *[0] * (top - len(row))) for row in self.betti_by_step]
        rows = [
            f"{d},{radii[i]},{radii[j]},{betti[i][d]},{betti[j][d]},{r}\r\n"
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


class _Labels:
    """A degree's simplices by basis position, decoded from their ranks for a certificate."""

    def __init__(self, ids: list, order: list, size: int):
        self.ids, self.order, self.size = ids, order, size

    def __getitem__(self, j: int) -> tuple:
        skip = comb(len(self.ids), self.size) - 1 - self.order[j]  # rank r: r places from the last
        return next(islice(combinations(self.ids, self.size), skip, None))


def _rank_basis(ids: list, levels: list, field) -> tuple[list, list] | None:
    """Filtered basis of simplices, when every step spans a subcomplex.

    Positions u_0 < ... < u_n (position u holds ids[-1 - u]) have rank
    sum comb(u_i, i + 1), and levels[n] maps degree-n ranks to births (a
    list over all ranks, or a dict); descending rank is ascending simplex.
    sigma = tau + v, v its largest position, has boundary tau minus each
    face of tau plus v, of rank the face's + comb(v, n), a vertex being the
    empty simplex plus v.  Each column is checked over Z as it is built
    (from degree 2 on) and must reach only faces present and born no later
    (else None); its coboundary rows are written alongside, in the field.
    """
    one, minus = field.from_int(1), field.from_int(-1)
    births, coboundaries, deep, up, faces, lower = [[0]], [], None, [0], [0], [{}]  # from degree -1
    for n, level in enumerate(levels):
        sparse = isinstance(level, dict)
        ranks = sorted(level, reverse=True) if sparse else range(len(level))[::-1]
        order = sorted(ranks, key=level.__getitem__)
        born, below, rows = [level[r] for r in order], births[-1], [{} for _ in births[-1]]
        largest, shift = [comb(v, n + 1) for v in range(len(ids) + 1)], [comb(v, n) for v in range(len(ids))]

        def built():
            for j, r in enumerate(order):
                v = bisect_right(largest, r) - 1
                tau, up = faces[r - largest[v]], shift[v]
                col = {tau: 1}
                rows[tau][j] = one
                for k, s in lower[tau].items():
                    col[f := faces[deep[k] + up]] = -s
                    rows[f][j] = minus if s > 0 else one
                if below[max(col)] > born[j]:
                    raise KeyError(r)  # a face born later
                yield col

        try:  # the top degree's columns are checked as they are built, and not kept
            columns = built() if n + 1 == len(levels) and n > 1 else list(built())
            if n > 1:
                _check_square_zero(n - 1, lower, columns, {n: _Labels(ids, order, n + 1)})
        except KeyError:  # a face is missing or born later
            return None
        births.append(born)
        coboundaries.append(rows)
        deep, up, lower = up, order, columns  # ranks by position, degrees n - 1 and n
        if n + 1 < len(levels):  # positions by rank: of the ranks present, or the inverse permutation
            faces = dict(zip(order, count())) if sparse else sorted(ranks, key=order.__getitem__)
    return births[1:], coboundaries[1:]


def _hypergraph_ranks(hypergraphs: Sequence) -> tuple[list, list] | None:
    """The vertices of the last hypergraph and, per degree, the rank of each
    of its edges (``_rank_basis``) mapped to the first step holding it; None
    for a directed edge out of vertex order."""
    ids = sorted(hypergraphs[-1].vertices)
    at, levels = {x: len(ids) - 1 - k for k, x in enumerate(ids)}, [{} for _ in ids]
    for k in range(len(hypergraphs) - 1, -1, -1):  # the earliest step is written last
        for e in hypergraphs[k].edges:
            if list(e) != sorted(e):
                return None
            levels[len(e) - 1][sum(comb(at[x], i) for i, x in enumerate(reversed(e), 1))] = k
    return ids, levels[: hypergraphs[-1].max_cardinality()]


def _echelon_basis(ambient: ChainComplex, hypergraphs: Sequence, kind: str) -> tuple[list, list]:
    """Filtered basis of the nested Inf (or Sup) complexes of the steps.

    One echelon per degree is extended by the embedded complex of each step
    in turn; a row is born at the step that added it, so the rows born up to
    step k span that step's complex.  Boundaries are written as coordinates
    in those rows and checked to stay inside the step of their column.
    """
    build = largest_inside if kind == "inf" else smallest_containing
    field, top = ambient.field, ambient.top_degree
    echelons = [Echelon(field) for _ in range(top + 1)]
    keys, births = [[] for _ in range(top + 1)], [[] for _ in range(top + 1)]
    for k, h in enumerate(hypergraphs):
        _, span, boundary = _edge_chains(h, field, ambient)
        embeddings = build(field, ambient.dims, span, boundary)[0]
        for n, embedding in enumerate(embeddings):
            for col in embedding.columns():
                if (key := echelons[n].add(col)) is not None:
                    keys[n].append(key)
                    births[n].append(k)
            if echelons[n].dimension != embedding.ncols:
                raise InvariantViolation(f"embedded complexes are not nested at step {k}, degree {n}")
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
                raise InvariantViolation(f"boundary leaves the step-{born} subcomplex at degree {n}")
            level.append(column)
        columns.append(level)
    for n in range(1, top):
        _check_square_zero(n, columns[n - 1], columns[n], None, field.characteristic)
    return births, [SparseMatrix._of(field, len(b), c).transpose().columns() for c, b in zip(columns, births)]


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


def _alive(bars: list, degree: int, count: int, width: int) -> list[list[int]]:
    """table[i][j - i], for i <= j < i + width: the degree bars born at or
    before step i that are still alive at step j."""
    by_birth: list[list[int]] = [[] for _ in range(count)]
    for d, born, dies in bars:
        if d == degree:
            by_birth[born].append(count if dies is None else dies)
    deaths, alive, table = [0] * (count + 1), 0, []  # of the bars born so far: by death, alive at i
    for i in range(count):
        for dies in by_birth[i]:
            deaths[dies] += 1
        alive += len(by_birth[i]) - deaths[i]
        table.append(row := [alive])
        for j in range(i + 1, min(i + width, count)):
            row.append(row[-1] - deaths[j])
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
    ranked = (flag.ids, flag.births()) if flag else _hypergraph_ranks([s.hypergraph for s in steps])
    basis = ranked and _rank_basis(*ranked, field)
    if basis is None:
        ambient = ambient_complex(steps[-1].hypergraph, "closure", field=field)
        basis = _echelon_basis(ambient, [s.hypergraph for s in steps], kind)
    births, bars = basis[0], _bars(*basis, field)

    count = len(steps)
    width = count if all_pairs else 2  # only the cells read: the diagonal and the pairs
    ranks = [_alive(bars, n, count, width) for n in range(max(len(births), max(degrees, default=-1) + 1))]
    betti_by_step = tuple(tuple(r[i][0] for r in ranks[: len(births)]) for i in range(count))
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count if all_pairs else min(i + 2, count))]
    entries = []
    for d in degrees:
        for i, j in pairs:
            r = ranks[d][i][j - i]
            if r > min(ranks[d][i][0], ranks[d][j][0]):
                raise InvariantViolation(f"induced rank {r} exceeds min Betti at degree {d}, steps {i}->{j}")
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
    return steps[min(steps[0]._pairs[0].births()[-1])].upper
