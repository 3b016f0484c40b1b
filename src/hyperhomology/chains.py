"""Graded chain complexes built from hyperedge bases.

A hyperedge with k vertices sits in degree k - 1.  The i-th face of an
edge drops the vertex at position i (sorted position for unordered edges,
coordinate position for directed ones) and carries sign (-1)^i, so the
boundary of a degree-n basis edge is the usual alternating sum over its
n + 1 faces.

Every complex here is built from the edges of a hypergraph by one builder,
``_edge_chains``.  With no ambient, its coordinates in degree n are the
degree-n edges followed by the faces of the degree-(n+1) edges that are not
edges themselves; the edges' boundary columns are built over the integers,
where d d e = 0 is checked on every edge (so it holds over every field).
Inside an ambient a subcomplex has the ambient's differential, so its
coordinates, columns and d d = 0 certificate are the ambient's.  A closure
or full-simplex ambient is the edge-chain complex of a hypergraph closed
under vertex deletion; where only its dims and Betti numbers are read, they
come from the nerve of the maximal edges (``_closure_homology``), and the
closure is built only when the nerve would be larger.  Inf and Sup are
found around the edge span of any hypergraph from one loop of eliminations
(``_eliminated``), one per degree, of the edges' boundary columns outside
the edges one degree down: Inf's kernel in that degree, Sup's rows one
degree down, each side assembled only where it is read; an edge with no
face outside the edges is its own kernel vector, with its boundary column
as its image.  Homology reads them through their boundary images and one
echelon of each subspace; the image echelons are built from the top degree
down, skipping by clearing the images of basis vectors that lead at a key
one degree up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb
from typing import Sequence

from . import linalg
from .errors import InvariantViolation, check_cap
from .fields import QQ
from .hypergraphs import Edge, Hypergraph, delta_closure
from .linalg import SparseMatrix


def face(edge: Edge, i: int) -> Edge:
    return edge[:i] + edge[i + 1 :]


def _integer_columns(edges: Sequence[Edge], codomain: list[Edge]) -> list[dict[int, int]]:
    """Integer boundary columns of the edges over the codomain labels; a
    face absent from them is appended to the codomain list."""
    index = {e: k for k, e in enumerate(codomain)}
    columns = []
    for e in edges:
        col: dict[int, int] = {}
        sign = 1
        for i in range(len(e)):
            f = face(e, i)
            row = index.get(f)
            if row is None:
                index[f] = row = len(codomain)
                codomain.append(f)
            col[row] = col.get(row, 0) + sign
            sign = -sign
        if len(col) < len(e):  # coinciding faces may cancel
            col = {i: v for i, v in col.items() if v}
        columns.append(col)
    return columns


def _in_field(field, columns: list[dict[int, int]]) -> list[dict]:
    """The integer columns with their entries mapped into the field: the
    same columns when every entry is its own image (always over Q)."""
    values = set(chain.from_iterable(c.values() for c in columns)) if field.characteristic else ()
    scalars = {v: field.from_int(v) for v in values}
    if all(v == s for v, s in scalars.items()):
        return columns
    return [{i: s for i, v in col.items() if (s := scalars[v])} for col in columns]


@dataclass(frozen=True)
class ChainComplex:
    """Exact chain complex: per-degree dimensions and boundary matrices.

    boundaries[n] maps degree n to degree n - 1; boundaries[0] is the empty
    matrix.  Degrees beyond the top are zero-dimensional.
    """

    field: object
    dims: tuple[int, ...]
    boundaries: tuple[SparseMatrix, ...]
    labels: tuple[tuple[Edge, ...], ...] | None = None

    def __post_init__(self):
        if len(self.boundaries) != len(self.dims):
            raise ValueError("one boundary per degree expected")
        for n, b in enumerate(self.boundaries):
            if b.shape != (self.dims[n - 1] if n else 0, self.dims[n]):
                raise ValueError(f"boundary {n} has shape {b.shape}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.top_degree else 0

    def boundary_or_zero(self, n: int) -> SparseMatrix:
        if 1 <= n <= self.top_degree:
            return self.boundaries[n]
        return SparseMatrix.zeros(self.field, self.dim(n - 1), self.dim(n))

    # set on the instance once validate() passes, or by ambient_complex after
    # the integer check of its edges; a failure is never kept
    _validated = False

    def validate(self) -> None:
        """Raise InvariantViolation unless every composite boundary is zero,
        read mod the field's characteristic (``_check_square_zero``).

        The complex is immutable, so a check that passed is not repeated.
        """
        if self._validated:
            return
        columns, p = [b.columns() for b in self.boundaries], self.field.characteristic
        for n in range(1, self.top_degree):
            _check_square_zero(n, columns[n], columns[n + 1], self.labels, p)
        object.__setattr__(self, "_validated", True)


def _check_square_zero(n: int, lower, upper, labels, p: int = 0) -> None:
    """Raise InvariantViolation unless d_n d_{n+1} = 0: upper lists the columns
    of d_{n+1}, lower[k] is column k of d_n, and sums are exact, read mod p
    for a prime p; over Z (p = 0) that implies d d = 0 over every field.  The
    certificate is the least nonzero (row, column): degree, column label, row."""
    nonzero = []
    for j, col in enumerate(upper):
        plus, minus, unit = [], [], not p  # over Z, a column passes if its +1 and -1 rows agree
        for k, t in col.items() if unit else ():
            same, opposite = (t, -t) if t == 1 or t == -1 else (None, None)
            for i, s in lower[k].items():
                if s == same:
                    plus.append(i)
                elif s == opposite:
                    minus.append(i)
                else:
                    unit = False  # a product other than +1 and -1: the column is summed
                    break
            if not unit:
                break
        plus.sort()
        minus.sort()
        if unit and plus == minus:
            continue
        acc: dict[int, int] = {}
        for k, t in col.items():
            for i, s in lower[k].items():
                acc[i] = acc.get(i, 0) + t * s
        nonzero += [(i, j) for i, v in acc.items() if (v % p if p else v)]
    if nonzero:
        i, j = min(nonzero)
        label = labels[n + 1][j] if labels else f"basis column {j}"
        raise InvariantViolation(
            f"boundary squared is nonzero in degree {n + 1}",
            certificate={"degree": n + 1, "chain": str(label), "row": i},
        )


def _check_closure_cap(size: int) -> None:
    """Raise ResourceCapError when the closure of a size-vertex edge, the
    full simplex on its vertices, exceeds the simplex cap."""
    check_cap(size, "simplex", f"closure of a {size}-vertex edge")


def ambient_complex(
    h: Hypergraph,
    mode: str = "closure",
    *,
    max_degree: int | None = None,
    field=QQ,
) -> ChainComplex:
    """Chain complex of the deletion closure or of a full simplex.

    closure mode uses the closure of h; full_simplex mode spans all subsets
    of the vertex set of h up to max_degree (ValueError if negative).  Both
    check the simplex cap (``errors.check_cap``) before building anything:
    the closure of a k-vertex edge is the full simplex on its k vertices, so
    there the cap bounds the largest edge.  Either way the complex is the
    edge-chain complex of a deletion-closed hypergraph, on its sorted
    levels, and comes back validated: d d = 0 was checked over Z.
    """
    if mode == "closure":
        _check_closure_cap(h.max_cardinality())
        closed = delta_closure(h)
    elif mode == "full_simplex":
        if h.directed:
            raise ValueError("full simplex ambient applies to unordered hypergraphs")
        vs = sorted(h.vertices)
        check_cap(len(vs), "simplex", f"full simplex on {len(vs)} vertices")
        degree = max_degree if max_degree is not None else max(h.max_cardinality() - 1, 0)
        if degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {degree}")
        faces = (f for k in range(1, degree + 2) for f in combinations(vs, k))
        closed = Hypergraph(h.vertices, frozenset(faces))
    else:
        raise ValueError(f"unknown ambient mode {mode!r}")
    labels, _, boundary = _edge_chains(closed, field, None)
    dims = tuple(len(level) for level in labels)
    boundaries = [SparseMatrix.zeros(field, 0, dims[0])] if dims else []
    for n in range(1, len(dims)):
        boundaries.append(SparseMatrix._of(field, dims[n - 1], boundary[n]))
    complex_ = ChainComplex(field, dims, tuple(boundaries), labels=labels)
    object.__setattr__(complex_, "_validated", True)
    return complex_


def _betti_numbers(dims, columns, field) -> tuple[int, ...]:
    """dims[n] - rank d_n - rank d_{n+1}, the ranks read by ``linalg.pivots``
    from the boundary columns of a chain complex."""
    ranks = [*map(len, linalg.pivots(columns, field)), 0]
    return tuple(d - ranks[n] - ranks[n + 1] for n, d in enumerate(dims))


def _closure_homology(h: Hypergraph, field) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dims and Betti numbers of the deletion closure of h, under the simplex
    cap, read from the nerve of its maximal edges.

    The full simplices on the maximal edges cover the closure, and each
    nonempty intersection of them is a simplex, so over any field the closure
    has the homology of the nerve (Borsuk 1948; Bjorner 1995, section 10),
    and f_k = sum over nerve simplices s of (-1)^(|s|+1) binom(|meet s|, k+1).
    Directed input (two orderings of one vertex set meet in no simplex), and
    a nerve larger than the sum of 2^|e| - 1 over the maximal edges e, which
    bounds the closure's size, fall back to ``ambient_complex``.
    """
    top = h.max_cardinality() - 1
    _check_closure_cap(top + 1)
    levels = None if h.directed else _nerve(_maximal_edges(h))
    if levels is None:
        closure = ambient_complex(h, "closure", field=field)
        columns = [b.columns() for b in closure.boundaries]
        return closure.dims, _betti_numbers(closure.dims, columns, field)
    dims, sign = [0] * (top + 1), 1
    for level in levels:
        for _, meet in level:
            common = meet.bit_count()
            for k in range(common):
                dims[k] += sign * comb(common, k + 1)
        sign = -sign
    # degrees 0..top need the nerve's simplices up to degree top + 1; above
    # top its homology is the closure's, zero
    simplices = frozenset(s for level in levels[: top + 2] for s, _ in level)
    nerve = Hypergraph(frozenset(chain.from_iterable(simplices)), simplices)
    labels, _, boundary = _edge_chains(nerve, field, None)
    numbers = _betti_numbers(list(map(len, labels)), boundary, field)
    return tuple(dims), (numbers + (0,) * top)[: top + 1]


def _maximal_edges(h: Hypergraph) -> list[int]:
    """The maximal edges of unordered h as vertex bit masks: visited by
    decreasing size, an edge is kept unless it lies in one kept already."""
    bit = {v: 1 << k for k, v in enumerate(sorted(h.vertices))}
    kept: list[int] = []
    for e in sorted(h.edges, key=len, reverse=True):
        mask = sum(bit[v] for v in e)
        if all(mask & ~k for k in kept):
            kept.append(mask)
    return kept


def _nerve(maximal: list[int]) -> list[list[tuple[Edge, int]]] | None:
    """The nerve of the maximal edges, per size, each simplex (a tuple of
    positions in maximal) with the mask of its common vertices; None as soon
    as it has more simplices than the closure can have."""
    bound = sum(2 ** m.bit_count() - 1 for m in maximal)
    level = [((j,), m) for j, m in enumerate(maximal)]
    levels, count = [], len(level)
    while level:
        levels.append(level)
        above = []
        for simplex, meet in level:
            for j in range(simplex[-1] + 1, len(maximal)):
                if common := meet & maximal[j]:
                    above.append((simplex + (j,), common))
                    count += 1
                    if count > bound:
                        return None
        level = above
    return levels


@dataclass(frozen=True)
class EmbeddedComplex:
    """A subcomplex of the chains on some edge labels, with explicit embeddings.

    embeddings[n] has the internal degree-n basis vectors as columns, in
    the coordinates labels[n], and images[n] their boundaries in labels[n-1]:
    embeddings[n-1] times the internal boundary, of the same rank and (for
    ``betti(representatives=True)``) canonical kernel, as the embeddings have
    independent columns.  Echelons of embeddings[n] (``span_echelons``; ``_sup``
    keeps its unit rows and those of ``_outside_echelon``) and images[n]
    (``image_echelons``, cleared at the ``leads``) answer every question about
    those subspaces; they and the internal chain complex ``complex`` (matrix
    dumps, the Hodge Laplacian, structural checks) are built on first read,
    and kept, with the leads, outside equality and repr.
    """

    field: object
    labels: tuple[tuple[Edge, ...], ...]
    embeddings: tuple[SparseMatrix, ...]
    images: tuple[SparseMatrix, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(e.ncols for e in self.embeddings)

    @cached_property
    def span_echelons(self) -> tuple[linalg.Echelon, ...]:
        """Sup's are kept by ``_sup``.  Inf's embedding columns are its
        canonical kernel vectors: each is 1 at its own free column, its
        largest index on increasing span positions, and held otherwise on
        earlier pivot columns, so they are an echelon's rows as they stand."""
        return tuple(_keyed_echelon(self.field, e.columns()) for e in self.embeddings)

    @cached_property
    def leads(self) -> tuple[dict[int, int], ...]:
        """Per degree, {p: k} for basis vectors b_k each the only one of them
        nonzero at position p, where it is 1.  ``_sup`` keeps Sup's span
        units and ``_inf`` Inf's kernel vectors at their free columns; a
        complex built otherwise has none."""
        return tuple({} for _ in self.embeddings)

    @cached_property
    def image_echelons(self) -> tuple[linalg.Echelon, ...]:
        """Per degree, the echelon of the images, built from the top degree
        down with clearing: the images of ``_cleared`` are skipped."""
        echelons, above = [], {}
        for n in range(len(self.images) - 1, -1, -1):
            skip, echelon = self._cleared(n, above), linalg.Echelon(self.field)
            for k, col in enumerate(self.images[n].columns()):
                if col and k not in skip:
                    echelon.add(col)
            echelons.append(echelon)
            above = echelon.rows
        return tuple(reversed(echelons))

    def _cleared(self, n: int, above: dict) -> set[int]:
        """The degree-n leads that clearing skips (Chen and Kerber 2011): b_k,
        leading at p, when above, the image echelon one degree up, has a row
        keyed at p in the span of the leads.  That always holds when the
        leads are the whole basis (Inf's); for units (Sup's), when they hold
        the row's support, as units at 0..m-1 do.  The row is a cycle whose
        coefficients on the skipped b_k form a triangular matrix with unit
        diagonal, so every skipped image is a combination of those kept."""
        leads = self.leads[n]
        spans = len(leads) in (self.embeddings[n].ncols, 1 + max(leads, default=-1))
        return {leads[p] for p in above if p in leads and (spans or leads.keys() >= above[p].keys())}

    @cached_property
    def complex(self) -> ChainComplex:
        dims = self.dims
        boundaries = [SparseMatrix.zeros(self.field, 0, dims[0])] if dims else []
        for n in range(1, len(dims)):
            restricted = linalg.solve_matrix(self.embeddings[n - 1], self.images[n])
            if restricted is None:
                raise _not_inside(n)
            boundaries.append(restricted)
        sub = ChainComplex(self.field, dims, tuple(boundaries))
        sub.validate()
        return sub


def _keyed_echelon(field, columns: list[dict]) -> linalg.Echelon:
    """The echelon of the columns, with no elimination when they are 1 at
    distinct largest indices (Inf's, see ``span_echelons``)."""
    echelon = linalg.Echelon(field)
    echelon.rows = {max(col): col for col in columns if col}
    if len(echelon.rows) < len(columns) or any(row[k] != 1 for k, row in echelon.rows.items()):
        return linalg.Echelon(field, columns)
    return echelon


def _not_inside(n: int) -> InvariantViolation:
    return InvariantViolation(f"boundary does not stay inside the subcomplex at degree {n}")


def _edge_chains(h: Hypergraph, field, ambient: ChainComplex | None):
    """Per degree n: labels, the positions of the degree-n edges of h among
    them, and the labels' boundary columns, read at those positions.  Inside
    an ambient (ValueError if of another characteristic) these are its own,
    certified by ``ambient.validate()``; otherwise the labels are the
    degree-n edges, then the faces of the degree-(n+1) edges that are not
    edges, and d d e = 0 is checked over Z on every edge e.
    """
    levels = h.levels()
    if ambient is not None:
        if field.characteristic != ambient.field.characteristic:
            raise ValueError(f"the ambient is over {ambient.field.name}, not {field.name}")
        if ambient.labels is None:
            raise ValueError("the ambient has no labels, so h's edges cannot be found in it")
        ambient.validate()
        labels = ambient.labels
        index = {(n, e): k for n, level in enumerate(labels) for k, e in enumerate(level)}
        if absent := [e for e in h.sorted_edges() if (len(e) - 1, e) not in index]:
            raise ValueError(f"edge {absent[0]} is missing from the ambient basis")
        span = [[index[n, e] for e in levels.get(n + 1, ())] for n in range(len(labels))]
        return labels, span, [b.columns() for b in ambient.boundaries]
    edges = [levels.get(n + 1, ()) for n in range(h.max_cardinality())]
    labels = [list(level) for level in edges]
    boundary, lower = [], {}
    for n, level in enumerate(edges):
        columns = _integer_columns(level, labels[n - 1]) if n else [{}] * len(level)
        if n >= 2:  # lower: the boundaries of the degree-(n-1) edges, then of the other faces
            faces = sorted({k for col in columns for k in col} - lower.keys())
            below = [labels[n - 1][k] for k in faces]
            lower.update(zip(faces, _integer_columns(below, list(labels[n - 2]))))
            _check_square_zero(n - 1, lower, columns, edges)
        lower = dict(enumerate(columns))
        boundary.append(_in_field(field, columns))
    return tuple(map(tuple, labels)), [list(range(len(level))) for level in edges], boundary


def _outside_echelon(field, span, boundary, n: int) -> tuple[linalg.Echelon, list[int]]:
    """The tagged echelon of the boundary columns of span[n] (none above the
    top degree) without their span[n-1] coordinates.  With the units of
    span[n-1], its real-keyed rows untagged are an echelon of Sup's degree
    n - 1, as a unit row clears only its own coordinate and tags, below
    every real index, never change which real key is eliminated."""
    inside, cols = set(span[n - 1]) if n else (), span[n] if n < len(span) else ()
    columns = [{i: v for i, v in boundary[n][j].items() if i not in inside} for j in cols]
    return linalg._tagged_echelon(field, columns)


def _eliminated(field, span, boundary):
    """The one Inf/Sup elimination loop: ``_outside_echelon`` of each degree
    from 0 to one above the top, read by ``_inf`` in the same degree and by
    ``_sup`` one degree down."""
    return (_outside_echelon(field, span, boundary, n) for n in range(len(span) + 1))


def _inf(field, labels, span, boundary, eliminated) -> EmbeddedComplex:
    """Largest subcomplex inside the span of the given basis vectors.

    span[n] lists degree-n positions among labels[n], boundary[n][j] is the
    boundary column of position j, and eliminated is ``_eliminated`` of
    them.  Degree n is the kernel of the part of the boundary of span[n]
    outside span[n-1], on its canonical basis (the tag-keyed rows), each
    vector leading at its free column, its last in span order.  A one-entry
    vector's image is its boundary column, and one product forms the rest;
    an image on span[n-1], checked here, is inside Inf, as d d = 0 holds on
    the columns (``_edge_chains``).
    """
    dims, embeddings, images, leads = list(map(len, labels)), [], [], []
    for n, (cols, (tagged, _)) in enumerate(zip(span, eliminated)):
        kernel = linalg._kernel(tagged, len(cols))
        down = SparseMatrix._of(field, dims[n - 1] if n else 0, [boundary[n][j] for j in cols])
        mixed = SparseMatrix._of(field, len(cols), [vec for vec in kernel if len(vec) > 1])
        products = iter((down @ mixed).columns())
        image = [boundary[n][cols[min(vec)]] if len(vec) == 1 else next(products) for vec in kernel]
        inside = set(span[n - 1]) if n else ()
        if not all(i in inside for col in image for i in col):
            raise _not_inside(n)
        embedded = [{cols[k]: v for k, v in vec.items()} for vec in kernel]
        embeddings.append(SparseMatrix._of(field, dims[n], embedded))
        images.append(SparseMatrix._of(field, down.nrows, image))
        leads.append({cols[max(vec)]: k for k, vec in enumerate(kernel)})
    inf = EmbeddedComplex(field, labels, tuple(embeddings), tuple(images))
    vars(inf)["leads"] = tuple(leads)
    return inf


def _sup(field, labels, span, boundary, eliminated) -> EmbeddedComplex:
    """Smallest subcomplex containing the span of the given basis vectors.

    Arguments as for ``_inf``.  Degree n is spanned by span[n] and the
    boundaries of span[n+1]; of these columns, in that order, each one that
    adds a row to the degree's echelon, read off degree n + 1 of the loop,
    is kept.  The images, a unit's boundary column or zero for a kept
    boundary, are inside Sup by construction; the units lead.
    """
    dims, embeddings, images, echelons = list(map(len, labels)), [], [], []
    for n, (cols, (tagged, found)) in enumerate(zip(span, islice(eliminated, 1, None))):
        echelon, units = linalg.Echelon(field), {j: {j: field.one} for j in cols}
        rows = ((k, row) for k, row in tagged.rows.items() if k >= 0)
        echelon.rows = units | {k: {c: v for c, v in row.items() if c >= 0} for k, row in rows}
        kept = [*units.values(), *(boundary[n + 1][span[n + 1][k]] for k in found)]
        image = [boundary[n][j] for j in cols] + [{}] * len(found)
        embeddings.append(SparseMatrix._of(field, dims[n], kept))
        images.append(SparseMatrix._of(field, dims[n - 1] if n else 0, image))
        echelons.append(echelon)
    sup = EmbeddedComplex(field, labels, tuple(embeddings), tuple(images))
    leads = tuple(dict(zip(cols, range(len(cols)))) for cols in span)
    vars(sup).update(span_echelons=tuple(echelons), leads=leads)
    return sup


def inf_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Largest subcomplex whose chains and boundaries stay in the edge span.

    Degreewise the span of the degree-n edges intersected with the boundary
    preimage of the span of the degree-(n-1) edges: a kernel problem on the
    boundaries of the edges, the ambient's columns when one is given (in an
    ``ambient_complex`` the edges' own, so the complex does not depend on it).
    """
    labels, span, boundary = _edge_chains(h, field, ambient)
    return _inf(field, labels, span, boundary, _eliminated(field, span, boundary))


def sup_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Smallest subcomplex containing the edge span.

    Degreewise the span of the degree-n edges plus the boundaries of the
    degree-(n+1) edges, over a reduced column basis.
    """
    labels, span, boundary = _edge_chains(h, field, ambient)
    return _sup(field, labels, span, boundary, _eliminated(field, span, boundary))


def _inf_and_sup(h: Hypergraph, field, ambient) -> tuple[EmbeddedComplex, EmbeddedComplex]:
    """``inf_complex`` and ``sup_complex`` of h from one ``_edge_chains``."""
    return _around_span(field, *_edge_chains(h, field, ambient))


def _around_span(field, labels, span, boundary) -> tuple[EmbeddedComplex, EmbeddedComplex]:
    """Inf and Sup around the span of ``_edge_chains`` output, both read
    from one run of ``_eliminated``."""
    eliminated = list(_eliminated(field, span, boundary))
    return _inf(field, labels, span, boundary, eliminated), _sup(field, labels, span, boundary, eliminated)


def face_table(closed: Hypergraph) -> dict[Edge, tuple[Edge, ...]]:
    """Explicit face maps: each edge of length >= 2 maps to its face tuple."""
    edges = closed.sorted_edges()
    return {e: tuple(face(e, i) for i in range(len(e))) for e in edges if len(e) >= 2}


def delta_identity_check(table: dict[Edge, tuple[Edge, ...]]) -> bool:
    """Verify d_i d_j = d_{j-1} d_i for i < j on every tabulated element.

    Intermediate faces of length >= 2 must themselves be tabulated;
    a missing intermediate is a malformed table and raises.
    """

    def apply(e: Edge, i: int) -> Edge:
        if len(e) == 1:
            raise ValueError("no faces below degree 0")
        if e not in table:
            raise ValueError(f"face table is missing {e}")
        faces = table[e]
        if len(faces) != len(e):
            raise ValueError(f"face table arity mismatch at {e}")
        return faces[i]

    for e in table:
        n = len(e) - 1
        if n < 2:
            continue
        for j in range(1, n + 1):
            for i in range(j):
                if apply(apply(e, j), i) != apply(apply(e, i), j - 1):
                    return False
    return True
