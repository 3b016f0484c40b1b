"""Graded chain complexes built from hyperedge bases.

A hyperedge with k vertices sits in degree k - 1.  The i-th face of an
edge drops the vertex at position i (sorted position for unordered edges,
coordinate position for directed ones) and carries sign (-1)^i, so the
boundary of a degree-n basis edge is the usual alternating sum over its
n + 1 faces.

Every complex here is built from the edges of a hypergraph and their faces
by one builder, ``_edge_chains``.  Its coordinates in degree n are the
degree-n edges followed by the faces of the degree-(n+1) edges that are
not edges themselves (or an ambient's labels, when one is given).  The
boundary columns of the edges are built over the integers and d d e = 0 is
checked there on every edge (over Z it holds over every field) before the
entries are mapped into the coefficient field.  A closure or full-simplex
ambient is the edge-chain complex of a hypergraph closed under vertex
deletion, where every coordinate is an edge; the infimum and supremum
complexes are found around the edge span of any hypergraph.  Homology reads
them through the boundary images that their builders return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

from . import linalg
from .errors import InvariantViolation, check_cap
from .fields import QQ
from .hypergraphs import Edge, Hypergraph, delta_closure
from .linalg import SparseMatrix


def face(edge: Edge, i: int) -> Edge:
    return edge[:i] + edge[i + 1 :]


def _integer_columns(
    edges: Sequence[Edge], codomain: list[Edge], missing: str
) -> list[dict[int, int]]:
    """Integer boundary columns of the edges over the codomain labels; a
    face absent from them is rejected (missing="error") or appended to the
    codomain list (missing="extend")."""
    index = {e: k for k, e in enumerate(codomain)}
    columns = []
    for e in edges:
        col: dict[int, int] = {}
        sign = 1
        for i in range(len(e)):
            f = face(e, i)
            row = index.get(f)
            if row is None:
                if missing == "error":
                    raise ValueError(f"face {f} of {e} is not in the degree-{len(f) - 1} basis")
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
    values = set(chain.from_iterable(col.values() for col in columns))
    scalars = {v: field.from_int(v) for v in values}
    if all(v == s for v, s in scalars.items()):
        return columns
    return [{i: s for i, v in col.items() if (s := scalars[v])} for col in columns]


def _not_a_complex(n: int, nonzero, labels) -> InvariantViolation:
    """The failure for a nonzero composite boundary d_n d_{n+1}, certified by
    the smallest (row, column) position among its nonzero entries."""
    i, j = min(nonzero)
    label = labels[n + 1][j] if labels else f"basis column {j}"
    return InvariantViolation(
        f"boundary squared is nonzero in degree {n + 1}",
        certificate={"degree": n + 1, "chain": str(label), "row": i},
    )


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
        """Raise InvariantViolation unless every composite boundary is zero.

        The complex is immutable, so a check that passed is not repeated.
        """
        if self._validated:
            return
        for n in range(1, self.top_degree):
            product = (self.boundaries[n] @ self.boundaries[n + 1]).columns()
            if any(product):
                nonzero = [(i, j) for j, col in enumerate(product) for i in col]
                raise _not_a_complex(n, nonzero, self.labels)
        object.__setattr__(self, "_validated", True)


def _check_square_zero(n: int, lower, upper: list[dict[int, int]], labels) -> None:
    """Raise InvariantViolation unless d_n d_{n+1} = 0 over Z, where upper
    lists the integer columns of d_{n+1} and lower[k] is column k of d_n:
    the same check and certificate as ``ChainComplex.validate``.  Over Z it
    implies d d = 0 over every field."""
    nonzero = []
    for j, col in enumerate(upper):
        acc: dict[int, int] = {}
        for k, t in col.items():
            for i, s in lower[k].items():
                acc[i] = acc.get(i, 0) + t * s
        if any(acc.values()):
            nonzero += [(i, j) for i, v in acc.items() if v]
    if nonzero:
        raise _not_a_complex(n, nonzero, labels)


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
    of the vertex set of h up to max_degree.  Both check the simplex cap
    (``errors.check_cap``) before building anything: the closure of a
    k-vertex edge is the full simplex on its k vertices, so there the cap
    bounds the largest edge.  Either way the complex is the edge-chain
    complex of a deletion-closed hypergraph, on its sorted levels, and comes
    back validated: d d = 0 was checked over Z on every edge.
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
        faces = (f for k in range(1, degree + 2) for f in combinations(vs, k))
        closed = Hypergraph(h.vertices, frozenset(faces))
    else:
        raise ValueError(f"unknown ambient mode {mode!r}")
    labels, _, boundary = _edge_chains(closed, field, None)
    dims = tuple(len(level) for level in labels)
    boundaries = [SparseMatrix.zeros(field, 0, dims[0])] if dims else []
    for n in range(1, len(dims)):
        columns = list(boundary[n].values())
        boundaries.append(SparseMatrix.from_columns(field, dims[n - 1], columns))
    complex_ = ChainComplex(field, dims, tuple(boundaries), labels=labels)
    object.__setattr__(complex_, "_validated", True)
    return complex_


@dataclass(frozen=True)
class EmbeddedComplex:
    """A subcomplex of the chains on some edge labels, with explicit embeddings.

    embeddings[n] has the internal degree-n basis vectors as columns, in
    the coordinates labels[n], and images[n] their boundaries in labels[n-1]:
    embeddings[n-1] times the internal boundary, of the same rank and
    canonical kernel, since the embeddings have independent columns.  The
    internal chain complex ``complex`` is solved for and validated on first
    read (matrix dumps, the Hodge Laplacian, the structural checks).
    """

    field: object
    labels: tuple[tuple[Edge, ...], ...]
    embeddings: tuple[SparseMatrix, ...]
    images: tuple[SparseMatrix, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(e.ncols for e in self.embeddings)

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


def _not_inside(n: int) -> InvariantViolation:
    return InvariantViolation(f"boundary does not stay inside the subcomplex at degree {n}")


def _edge_chains(h: Hypergraph, field, ambient: ChainComplex | None):
    """Per degree n: labels, the positions of the degree-n edges of h among
    them, and a map from each such position to its edge's boundary column.

    The labels are the ambient's, or else the degree-n edges followed by the
    faces of the degree-(n+1) edges that are not edges.  d d e = 0 is
    checked over Z on every edge e, through the faces of its faces.
    """
    levels = h.levels()
    top = max(h.max_cardinality(), len(ambient.labels) if ambient else 0)
    edges = [levels.get(n + 1, ()) for n in range(top)]
    labels = [list(level) for level in (edges if ambient is None else ambient.labels)]
    labels += [[] for _ in range(top - len(labels))]  # an edge above the ambient is missing
    missing = "extend" if ambient is None else "error"
    span, boundary, lower = [], [], {}
    for n, level in enumerate(labels):
        index = {e: k for k, e in enumerate(level)}
        if absent := [e for e in edges[n] if e not in index]:
            raise ValueError(f"edge {absent[0]} is missing from the ambient basis")
        span.append([index[e] for e in edges[n]])
        columns = _integer_columns(edges[n], labels[n - 1], missing) if n else [{}] * len(span[0])
        if n >= 2:  # lower: the boundaries of the degree-(n-1) edges, then of the other faces
            faces = sorted({k for col in columns for k in col} - lower.keys())
            below = [labels[n - 1][k] for k in faces]
            lower.update(zip(faces, _integer_columns(below, list(labels[n - 2]), "extend")))
            _check_square_zero(n - 1, lower, columns, edges)
        lower = dict(zip(span[n], columns))
        boundary.append(dict(zip(span[n], _in_field(field, columns))))
    return tuple(map(tuple, labels)), span, boundary


def largest_inside(field, dims, span, boundary) -> tuple[tuple[SparseMatrix, ...], ...]:
    """Largest subcomplex inside the span of the given basis vectors.

    dims[n] is the dimension of degree n, span[n] lists degree-n basis
    positions and boundary[n][j] is the boundary column of position j.
    Degree n of the result is the kernel of the part of the boundary of
    span[n] outside span[n-1].  Returns per degree the embedding matrix of
    that kernel's canonical basis, and the matrix of their boundaries.
    """
    embeddings, images = [], []
    for n, cols in enumerate(span):
        below, inside = (dims[n - 1], set(span[n - 1])) if n else (0, set())
        down = [boundary[n][j] for j in cols]
        outside = [{i: v for i, v in col.items() if i not in inside} for col in down]
        kernel = linalg.kernel_basis(SparseMatrix.from_columns(field, below, outside))
        embedded = [{cols[k]: v for k, v in vec.items()} for vec in kernel]
        embeddings.append(SparseMatrix.from_columns(field, dims[n], embedded))
        kernel_matrix = SparseMatrix.from_columns(field, len(cols), kernel)
        images.append(SparseMatrix.from_columns(field, below, down) @ kernel_matrix)
    return tuple(embeddings), tuple(images)


def smallest_containing(field, dims, span, boundary) -> tuple[tuple[SparseMatrix, ...], ...]:
    """Smallest subcomplex containing the span of the given basis vectors.

    Arguments as for ``largest_inside``.  Degree n of the result is spanned
    by span[n] and the boundaries of span[n+1]; of these columns, in that
    order, each one outside the span of the earlier ones is kept.  Returns
    per degree the embedding matrix and the matrix of the boundaries of its
    columns, each zero (a kept boundary; the caller ensures d d = 0) or
    offered as a degree-(n-1) generator, so inside the result by construction.
    """
    top = len(span) - 1
    embeddings, images = [], []
    for n, cols in enumerate(span):
        pairs = [({j: field.one}, boundary[n][j]) for j in cols]
        if n < top:
            pairs += [(col, {}) for j in span[n + 1] if (col := boundary[n + 1][j])]
        stacked = SparseMatrix.from_columns(field, dims[n], [c for c, _ in pairs])
        kept = [pairs[k] for k in linalg.independent_columns(stacked)]
        embeddings.append(SparseMatrix.from_columns(field, dims[n], [c for c, _ in kept]))
        below = dims[n - 1] if n else 0
        images.append(SparseMatrix.from_columns(field, below, [d for _, d in kept]))
    return tuple(embeddings), tuple(images)


def _embedded(build, edge_chains, field) -> EmbeddedComplex:
    """The subcomplex that ``build`` finds around an edge span, given the
    ``_edge_chains`` of its hypergraph, with the boundary images it returns.
    Those stay inside it: d d = 0 was checked over Z on every edge, so an Inf
    image does once it is supported on the edges, checked here, and a Sup
    image always does (``smallest_containing``)."""
    labels, span, boundary = edge_chains
    embeddings, images = build(field, [len(level) for level in labels], span, boundary)
    if build is largest_inside:
        for n in range(1, len(images)):
            inside = set(span[n - 1])
            if not all(i in inside for col in images[n].columns() for i in col):
                raise _not_inside(n)
    return EmbeddedComplex(field, labels, embeddings, images)


def inf_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Largest subcomplex whose chains and boundaries stay in the edge span.

    Degreewise the span of the degree-n edges intersected with the boundary
    preimage of the span of the degree-(n-1) edges: a kernel problem on the
    boundaries of the edges, in the ambient's labels when one is given (the
    complex does not depend on them).
    """
    return _embedded(largest_inside, _edge_chains(h, field, ambient), field)


def sup_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Smallest subcomplex containing the edge span.

    Degreewise the span of the degree-n edges plus the boundaries of the
    degree-(n+1) edges, over a reduced column basis.
    """
    return _embedded(smallest_containing, _edge_chains(h, field, ambient), field)


def _inf_and_sup(h: Hypergraph, field, ambient) -> tuple[EmbeddedComplex, EmbeddedComplex]:
    """``inf_complex`` and ``sup_complex`` of h from one ``_edge_chains``."""
    edge_chains = _edge_chains(h, field, ambient)
    return (
        _embedded(largest_inside, edge_chains, field),
        _embedded(smallest_containing, edge_chains, field),
    )


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
