"""Exact sparse linear algebra over the rationals or Z/p.

Matrices are stored in coordinate form (dict keyed by (row, col)); all
reductions run exact Gaussian elimination with the pivot row chosen by
sparsity.  A deliberately naive dense elimination lives in the test suite
as an independent oracle for these routines.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = dict(entries) if entries else {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if not v:
                raise ValueError("explicit zero entry stored")

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n: int) -> "SparseMatrix":
        one = field.one
        return cls(field, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_columns(cls, field, nrows: int, columns: Sequence[dict]) -> "SparseMatrix":
        entries = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    entries[(i, j)] = v
        return cls(field, nrows, len(columns), entries)

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence]) -> "SparseMatrix":
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                scalar = field.from_int(v) if isinstance(v, int) else v
                if scalar:
                    entries[(i, j)] = scalar
        return cls(field, len(rows), ncols, entries)

    def get(self, i: int, j: int):
        return self.entries.get((i, j), self.field.zero)

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self) -> list[dict]:
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def rows(self) -> list[dict]:
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.field,
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        by_row = self.rows()
        other_rows = other.rows()
        entries = {}
        for i, row in enumerate(by_row):
            acc: dict = {}
            for k, a in row.items():
                for j, b in other_rows[k].items():
                    cur = acc.get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            for j, v in acc.items():
                if v:
                    entries[(i, j)] = v
        return SparseMatrix(self.field, self.nrows, other.ncols, entries)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            cur = entries.get(key)
            s = v if cur is None else cur + v
            if s:
                entries[key] = s
            elif cur is not None:
                del entries[key]
        return SparseMatrix(self.field, self.nrows, self.ncols, entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> list[list]:
        dense = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    def to_coordinate_text(self) -> str:
        """Coordinate exchange format: one "row col value" line per nonzero."""
        lines = [f"{self.nrows} {self.ncols}"]
        for (i, j) in sorted(self.entries):
            lines.append(f"{i} {j} {self.entries[(i, j)]}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _reduce_rows(rows: list[dict], ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows.

    Pivot columns are processed left to right; among candidate rows the
    sparsest is picked.  Pivots are normalized to 1 and eliminated both
    below and above, so the result is the canonical RREF.
    Returns the nonzero echelon rows and their pivot columns.
    """
    work = [dict(r) for r in rows if r]
    echelon: list[dict] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        candidates = [r for r in work if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        work.remove(pivot)
        inv = pivot[col]
        pivot = {c: v / inv for c, v in pivot.items()}
        for target in (work, echelon):
            for r in target:
                factor = r.get(col)
                if factor is None:
                    continue
                for c, v in pivot.items():
                    cur = r.get(c)
                    s = -factor * v if cur is None else cur - factor * v
                    if s:
                        r[c] = s
                    elif cur is not None:
                        del r[c]
        work = [r for r in work if r]
        echelon.append(pivot)
        pivot_cols.append(col)
    return echelon, pivot_cols


def rank(matrix: SparseMatrix) -> int:
    _, pivots = _reduce_rows(matrix.rows(), matrix.ncols)
    return len(pivots)


def kernel_basis(matrix: SparseMatrix) -> list[dict]:
    """Basis of the right kernel, one vector per free column.

    The basis is canonical: vector k has a 1 at the k-th free column and
    support otherwise only on pivot columns.
    """
    echelon, pivot_cols = _reduce_rows(matrix.rows(), matrix.ncols)
    pivot_set = set(pivot_cols)
    one = matrix.field.one
    basis = []
    for free in range(matrix.ncols):
        if free in pivot_set:
            continue
        vec = {free: one}
        for row, pcol in zip(echelon, pivot_cols):
            v = row.get(free)
            if v:
                vec[pcol] = -v
        basis.append(vec)
    return basis


def independent_columns(matrix: SparseMatrix) -> list[int]:
    """Greedy left-to-right selection of a column basis of the column space."""
    reducer = Echelon(matrix.field)
    keep = []
    for j, col in enumerate(matrix.columns()):
        if reducer.add(col) is not None:
            keep.append(j)
    return keep


class Echelon:
    """Incremental echelon of sparse vectors keyed by their largest index.

    Each stored row has coefficient 1 at its key and support only on smaller
    indices.  ``reduce`` returns the normal form of a vector: it differs from
    the vector by an element of the span and is zero at every key, so it is
    zero exactly for members of the span.  The rows are a basis of the span,
    and ``reduce`` can report a vector's coordinates in it.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, dict] = {}

    def reduce(self, vector: dict, coefficients: dict | None = None) -> dict:
        """Normal form of vector.  A dict passed as coefficients receives,
        per key, the multiple of that row that was subtracted, so the vector
        is its normal form plus those multiples of the rows."""
        vec = dict(vector)
        rows = self.rows
        # keys eliminated largest first; a row only adds smaller indices
        pending = [-i for i in vec if i in rows]
        heapq.heapify(pending)
        while pending:
            key = -heapq.heappop(pending)
            factor = vec.get(key)
            if factor is None:
                continue
            if coefficients is not None:
                coefficients[key] = factor
            for c, v in rows[key].items():
                cur = vec.get(c)
                s = -factor * v if cur is None else cur - factor * v
                if s:
                    vec[c] = s
                    if cur is None and c in rows:
                        heapq.heappush(pending, -c)
                elif cur is not None:
                    del vec[c]
        return vec

    def add(self, vector: dict) -> int | None:
        """Add the vector's normal form as a row; returns its key, or None
        when the vector is already in the span."""
        residual = self.reduce(vector)
        if not residual:
            return None
        key = max(residual)
        inv = residual[key]
        self.rows[key] = {c: v / inv for c, v in residual.items()}
        return key

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def solve_matrix(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix | None:
    """Solve A X = B exactly; returns None when any column is unsolvable.

    Free variables are set to zero, so the solution is canonical.
    """
    if a.nrows != b.nrows:
        raise ValueError("A and B must have matching row counts")
    ncols = a.ncols + b.ncols
    rows = []
    b_rows = b.rows()
    for i, row in enumerate(a.rows()):
        merged = dict(row)
        for j, v in b_rows[i].items():
            merged[a.ncols + j] = v
        rows.append(merged)
    echelon, pivot_cols = _reduce_rows(rows, ncols)
    if any(p >= a.ncols for p in pivot_cols):
        return None
    entries = {}
    for row, pcol in zip(echelon, pivot_cols):
        for c, v in row.items():
            if c >= a.ncols and v:
                entries[(pcol, c - a.ncols)] = v
    return SparseMatrix(a.field, a.ncols, b.ncols, entries)


def solve(a: SparseMatrix, b: dict) -> dict | None:
    """Solve A x = b for a single sparse right-hand side."""
    rhs = SparseMatrix(a.field, a.nrows, 1, {(i, 0): v for i, v in b.items() if v})
    x = solve_matrix(a, rhs)
    if x is None:
        return None
    return {i: v for (i, _), v in x.entries.items()}


def columns_in_span(basis: SparseMatrix, probe: SparseMatrix) -> bool:
    """True iff every column of probe lies in the column span of basis."""
    reducer = Echelon(basis.field)
    for col in basis.columns():
        reducer.add(col)
    return all(reducer.contains(col) for col in probe.columns())


def image_rank_modulo(
    vectors: Iterable[dict], modulo: SparseMatrix, field, nrows: int
) -> int:
    """Rank of a family of vectors in the quotient by the span of ``modulo``."""
    cols = list(modulo.columns()) + list(vectors)
    stacked = SparseMatrix.from_columns(field, nrows, cols)
    return rank(stacked) - rank(modulo)
