"""Graded chain complexes built from hyperedge bases.

A hyperedge with k vertices sits in degree k - 1.  The i-th face of an
edge drops the vertex at position i (sorted position for unordered edges,
coordinate position for directed ones) and carries sign (-1)^i, so the
boundary of a degree-n basis edge is the usual alternating sum over its
n + 1 faces.  The boundaries of a closure or full-simplex ambient are built
once over the integers and checked there (d d = 0 over Z holds over every
field) before their entries are mapped into the coefficient field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from . import linalg
from .errors import InvariantViolation, ResourceCapError
from .fields import QQ
from .hypergraphs import Edge, Hypergraph, delta_closure
from .linalg import SparseMatrix

DEFAULT_SIMPLEX_CAP = 16


def face(edge: Edge, i: int) -> Edge:
    return edge[:i] + edge[i + 1 :]


@dataclass(frozen=True)
class GradedBasis:
    """Ordered edge labels per degree; labels[n] holds (n+1)-vertex edges."""

    labels: tuple[tuple[Edge, ...], ...]
    directed: bool

    def __post_init__(self):
        for n, level in enumerate(self.labels):
            if len(set(level)) != len(level):
                raise ValueError(f"duplicate labels in degree {n}")
            if any(len(e) != n + 1 for e in level):
                raise ValueError(f"degree {n} must hold edges of cardinality {n + 1}")

    @property
    def top_degree(self) -> int:
        return len(self.labels) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.labels)

    def index(self, n: int) -> dict[Edge, int]:
        return {e: k for k, e in enumerate(self.labels[n])}


def closure_basis(h: Hypergraph) -> GradedBasis:
    """Basis of the deletion closure of h, degrees 0..top, sorted labels."""
    closed = delta_closure(h)
    top = closed.max_cardinality()
    levels = [closed.level(n + 1) for n in range(top)]
    return GradedBasis(tuple(levels), h.directed)


def hypergraph_basis(h: Hypergraph) -> GradedBasis:
    """Basis spanned by the edges of h itself (degrees may be ragged)."""
    top = h.max_cardinality()
    levels = [h.level(n + 1) for n in range(top)]
    return GradedBasis(tuple(levels), h.directed)


def full_simplex_basis(
    vertices: Iterable[int], max_degree: int, cap: int = DEFAULT_SIMPLEX_CAP
) -> GradedBasis:
    """All subsets of the vertex set up to max_degree, as an unordered basis."""
    vs = sorted(set(vertices))
    if len(vs) > cap:
        raise ResourceCapError(
            f"full simplex on {len(vs)} vertices exceeds the cap of {cap}"
        )
    levels = []
    for n in range(max_degree + 1):
        if n + 1 > len(vs):
            break
        levels.append(tuple(combinations(vs, n + 1)))
    return GradedBasis(tuple(levels), directed=False)


def _integer_boundary(
    basis: GradedBasis, n: int, missing: str
) -> tuple[list[dict[int, int]], tuple[Edge, ...]]:
    """Integer columns of the boundary from degree n to degree n - 1, and
    the codomain labels (see ``boundary_matrix``)."""
    if n < 1 or n > basis.top_degree:
        raise ValueError(f"no boundary at degree {n}")
    codomain = list(basis.labels[n - 1])
    index = {e: k for k, e in enumerate(codomain)}
    columns = []
    for e in basis.labels[n]:
        col: dict[int, int] = {}
        sign = 1
        for i in range(len(e)):
            f = face(e, i)
            row = index.get(f)
            if row is None:
                if missing == "error":
                    raise ValueError(f"face {f} of {e} is not in the degree-{n-1} basis")
                index[f] = row = len(codomain)
                codomain.append(f)
            col[row] = col.get(row, 0) + sign
            sign = -sign
        if len(col) < len(e):  # coinciding faces may cancel
            col = {i: v for i, v in col.items() if v}
        columns.append(col)
    return columns, tuple(codomain)


def _in_field(field, nrows: int, columns: list[dict[int, int]]) -> SparseMatrix:
    """The matrix with the given integer columns, entries mapped into the field."""
    scalars = {v: field.from_int(v) for col in columns for v in col.values()}
    entries = {
        (i, j): scalars[v]
        for j, col in enumerate(columns)
        for i, v in col.items()
        if scalars[v]
    }
    return SparseMatrix(field, nrows, len(columns), entries)


def boundary_matrix(
    basis: GradedBasis, n: int, field=QQ, *, missing: str = "error"
) -> tuple[SparseMatrix, tuple[Edge, ...]]:
    """Boundary from degree n to degree n - 1 over the given basis.

    Codomain labels absent from the basis are either rejected
    (missing="error") or appended to an extended codomain
    (missing="extend"); the codomain labels actually used are returned.
    """
    columns, codomain = _integer_boundary(basis, n, missing)
    return _in_field(field, len(codomain), columns), codomain


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
        for n in range(1, len(self.dims)):
            b = self.boundaries[n]
            if b.shape != (self.dims[n - 1], self.dims[n]):
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

    # set on the instance once validate() passes, or by chain_complex_from_basis
    # after its integer check; a failure is never kept
    _validated = False

    def validate(self) -> None:
        """Raise InvariantViolation unless every composite boundary is zero.

        The complex is immutable, so a check that passed is not repeated.
        """
        if self._validated:
            return
        for n in range(1, self.top_degree):
            product = self.boundaries[n] @ self.boundaries[n + 1]
            if not product.is_zero():
                raise _not_a_complex(n, product.entries, self.labels)
        object.__setattr__(self, "_validated", True)


def _check_square_zero(columns: list[list[dict[int, int]]], labels) -> None:
    """Raise InvariantViolation unless d_n d_{n+1} = 0 over Z for the integer
    boundaries columns[n - 1] = d_n, the same check and certificate as
    ``ChainComplex.validate``.  Over Z it implies d d = 0 over every field."""
    for n in range(1, len(columns)):
        lower, nonzero = columns[n - 1], []
        for j, col in enumerate(columns[n]):
            acc: dict[int, int] = {}
            for k, t in col.items():
                for i, s in lower[k].items():
                    acc[i] = acc.get(i, 0) + t * s
            if any(acc.values()):
                nonzero += [(i, j) for i, v in acc.items() if v]
        if nonzero:
            raise _not_a_complex(n, nonzero, labels)


def chain_complex_from_basis(basis: GradedBasis, field=QQ) -> ChainComplex:
    """Chain complex on a face-closed basis (raises if a face is missing).

    The boundaries are built and checked (d d = 0) once, over the integers,
    and only then mapped into the field; the complex is returned validated.
    """
    dims = basis.dims()
    columns = [_integer_boundary(basis, n, "error")[0] for n in range(1, len(dims))]
    _check_square_zero(columns, basis.labels)
    boundaries = [SparseMatrix.zeros(field, 0, dims[0] if dims else 0)]
    for n in range(1, len(dims)):
        boundaries.append(_in_field(field, dims[n - 1], columns[n - 1]))
        columns[n - 1] = None  # the integer copy is not kept beside the field one
    complex_ = ChainComplex(field, dims, tuple(boundaries), labels=basis.labels)
    object.__setattr__(complex_, "_validated", True)
    return complex_


def empty_complex(field=QQ) -> ChainComplex:
    return ChainComplex(field, (), (), labels=())


def ambient_complex(
    h: Hypergraph,
    mode: str = "closure",
    *,
    vertices: Iterable[int] | None = None,
    max_degree: int | None = None,
    field=QQ,
    cap: int = DEFAULT_SIMPLEX_CAP,
) -> ChainComplex:
    """Chain complex of the deletion closure or of a full simplex.

    closure mode uses the closure of h; full_simplex mode spans all subsets
    of the given vertex set up to max_degree (vertex count capped).
    """
    if mode == "closure":
        if not h.edges:
            return empty_complex(field)
        return chain_complex_from_basis(closure_basis(h), field)
    if mode == "full_simplex":
        if h.directed:
            raise ValueError("full simplex ambient applies to unordered hypergraphs")
        vs = set(h.vertices if vertices is None else vertices)
        if not {v for e in h.edges for v in e} <= vs:
            raise ValueError("ambient vertices must cover the hypergraph support")
        degree = max_degree if max_degree is not None else max(h.max_cardinality() - 1, 0)
        basis = full_simplex_basis(vs, degree, cap=cap)
        return chain_complex_from_basis(basis, field)
    raise ValueError(f"unknown ambient mode {mode!r}")


@dataclass(frozen=True)
class EmbeddedComplex:
    """A subcomplex of an ambient chain complex with explicit embeddings.

    embeddings[n] has the internal degree-n basis vectors as columns, in
    ambient coordinates; the internal boundaries are the ambient boundaries
    restricted to those columns.
    """

    ambient: ChainComplex
    complex: ChainComplex
    embeddings: tuple[SparseMatrix, ...]

    def dim(self, n: int) -> int:
        return self.complex.dim(n)


def _edge_indices(ambient: ChainComplex, h, n: int) -> list[int]:
    if ambient.labels is None:
        raise ValueError("ambient complex must carry labels")
    index = {e: k for k, e in enumerate(ambient.labels[n])}
    out = []
    for e in h.level(n + 1):
        if e not in index:
            raise ValueError(f"edge {e} is missing from the ambient basis")
        out.append(index[e])
    return out


def _restricted_complex(
    ambient: ChainComplex, embeddings: tuple[SparseMatrix, ...]
) -> EmbeddedComplex:
    """Package per-degree embedding matrices as an EmbeddedComplex."""
    field = ambient.field
    dims = tuple(e.ncols for e in embeddings)
    if not dims:
        return EmbeddedComplex(ambient, empty_complex(field), ())
    boundaries = [SparseMatrix.zeros(field, 0, dims[0])]
    for n in range(1, len(dims)):
        image = ambient.boundary_or_zero(n) @ embeddings[n]
        restricted = linalg.solve_matrix(embeddings[n - 1], image)
        if restricted is None:
            raise InvariantViolation(
                f"boundary does not stay inside the subcomplex at degree {n}"
            )
        boundaries.append(restricted)
    sub = ChainComplex(field, dims, tuple(boundaries))
    sub.validate()
    return EmbeddedComplex(ambient, sub, embeddings)


def largest_inside(
    c: ChainComplex, span: Sequence[Sequence[int]]
) -> tuple[SparseMatrix, ...]:
    """Largest subcomplex of c inside the span of the given basis vectors.

    span[n] lists degree-n basis indices of c.  Degree n of the result is
    the set of combinations of span[n] whose boundary has no component
    outside span[n-1]: the kernel of that outside part of the boundary.
    Returns one embedding matrix per degree, columns in c's coordinates.
    """
    embeddings = []
    for n in range(c.top_degree + 1):
        cols = span[n]
        inside = set(span[n - 1]) if n else set()
        col_map = {j: k for k, j in enumerate(cols)}
        row_map: dict[int, int] = {}
        entries = {}
        for (i, j), v in c.boundaries[n].entries.items():
            if j in col_map and i not in inside:
                row = row_map.setdefault(i, len(row_map))
                entries[(row, col_map[j])] = v
        constraint = SparseMatrix(c.field, len(row_map), len(cols), entries)
        kernel = [
            {cols[k]: v for k, v in vec.items()} for vec in linalg.kernel_basis(constraint)
        ]
        embeddings.append(SparseMatrix.from_columns(c.field, c.dim(n), kernel))
    return tuple(embeddings)


def smallest_containing(
    c: ChainComplex, span: Sequence[Sequence[int]]
) -> tuple[SparseMatrix, ...]:
    """Smallest subcomplex of c containing the span of the given basis vectors.

    Degree n of the result is spanned by the basis vectors span[n] and the
    boundaries of span[n+1]; of these columns, in that order, each one
    outside the span of the earlier ones is kept.
    """
    one = c.field.one
    embeddings = []
    for n in range(c.top_degree + 1):
        cols = [{i: one} for i in span[n]]
        if n < c.top_degree:
            boundary = c.boundaries[n + 1].columns()
            cols += [boundary[j] for j in span[n + 1] if boundary[j]]
        stacked = SparseMatrix.from_columns(c.field, c.dim(n), cols)
        kept = [cols[j] for j in linalg.independent_columns(stacked)]
        embeddings.append(SparseMatrix.from_columns(c.field, c.dim(n), kept))
    return tuple(embeddings)


def _edge_spans(ambient: ChainComplex, h) -> list[list[int]]:
    return [_edge_indices(ambient, h, n) for n in range(ambient.top_degree + 1)]


def inf_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Largest subcomplex whose chains and boundaries stay in the edge span.

    Degreewise this is the span of the degree-n edges intersected with the
    boundary preimage of the span of the degree-(n-1) edges, computed as a
    kernel problem inside the closure ambient (the result does not depend
    on that choice).
    """
    if ambient is None:
        ambient = ambient_complex(h, "closure", field=field)
    return _restricted_complex(ambient, largest_inside(ambient, _edge_spans(ambient, h)))


def sup_complex(
    h: Hypergraph,
    field=QQ,
    ambient: ChainComplex | None = None,
) -> EmbeddedComplex:
    """Smallest subcomplex containing the edge span.

    Degreewise the span of the degree-n edges plus the boundaries of the
    degree-(n+1) edges, over a reduced column basis.
    """
    if ambient is None:
        ambient = ambient_complex(h, "closure", field=field)
    return _restricted_complex(
        ambient, smallest_containing(ambient, _edge_spans(ambient, h))
    )


def face_table(basis: GradedBasis) -> dict[Edge, tuple[Edge, ...]]:
    """Explicit face maps: each edge of length >= 2 maps to its face tuple."""
    table = {}
    for level in basis.labels[1:]:
        for e in level:
            table[e] = tuple(face(e, i) for i in range(len(e)))
    return table


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
