"""Exact sparse linear algebra over the rationals or Z/p.

A matrix is a list of column dicts (row index to nonzero value), as every
chain builder makes them and every elimination reads them; a product is a
sum of scaled columns.  A Q scalar is an int, or a Fraction when not
integral, and a Z/p scalar is an int in [0, p).  Every rank, kernel, solve
and span question is answered by one exact elimination: ``Echelon``, an
incremental echelon of sparse vectors keyed by their largest index, fed the
columns left to right.  Kernels and solves tag column j with -1 at index
j - ncols, below every row index, so a row keyed by a tag records a column
dependency (a zero column's row is set, with no elimination) and a
right-hand side reduced to tags alone records its solution.
Every Betti number of a chain complex is read from one top-down
reduction with clearing, ``pivots``, and ``filtration`` pairs bars
by the dual reduction of coboundaries; an echelon kept for a subspace is
extended in a ``copy`` that shares its rows.
Each routine reads ``field.characteristic`` once: when it is a prime p, an
int loop reduces mod p and inverts with ``pow(x, -1, p)``.  A deliberately
naive dense elimination in the test suite is the independent oracle.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence


class SparseMatrix:
    """Immutable sparse matrix over an exact field, stored by columns.

    ``columns()`` returns the stored column dicts, which are read-only.  The
    constructor (entries keyed by (row, col)) and ``from_columns`` copy and
    check their input; ``_of`` stores computed and already checked columns."""

    __slots__ = ("field", "nrows", "ncols", "_columns")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        columns: list[dict] = [{} for _ in range(ncols)]
        for (i, j), v in (entries or {}).items():
            if not 0 <= j < ncols:
                raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if not v:
                raise ValueError("explicit zero entry stored")
            columns[j][i] = v
        _check(field, nrows, columns)
        self.field, self.nrows, self.ncols, self._columns = field, nrows, ncols, columns

    @classmethod
    def _of(cls, field, nrows: int, columns: list[dict]) -> "SparseMatrix":
        matrix = object.__new__(cls)
        matrix.field, matrix.nrows, matrix.ncols, matrix._columns = field, nrows, len(columns), columns
        return matrix

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "SparseMatrix":
        return cls._of(field, nrows, [{} for _ in range(ncols)])

    @classmethod
    def identity(cls, field, n: int) -> "SparseMatrix":
        return cls._of(field, n, [{i: field.one} for i in range(n)])

    @classmethod
    def from_columns(cls, field, nrows: int, columns: Sequence[dict]) -> "SparseMatrix":
        """Matrix with copies of the given columns, their zero values dropped."""
        copies = [
            col.copy() if all(col.values()) else {i: v for i, v in col.items() if v}
            for col in columns
        ]
        _check(field, nrows, copies)
        return cls._of(field, nrows, copies)

    def columns(self) -> list[dict]:
        return self._columns

    @property
    def entries(self) -> dict:
        """The nonzero entries keyed by (row, col), built on each access."""
        return {(i, j): v for j, col in enumerate(self._columns) for i, v in col.items()}

    def transpose(self) -> "SparseMatrix":
        rows: list[dict] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows[i][j] = v
        return SparseMatrix._of(self.field, self.ncols, rows)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        mine, p = self._columns, self.field.characteristic
        product = []
        for col in other._columns:
            acc: dict = {}
            for k, b in col.items():
                for i, a in mine[k].items():
                    cur = acc.get(i)
                    acc[i] = a * b if cur is None else cur + a * b
            product.append(_nonzero(acc, p))
        return SparseMatrix._of(self.field, self.nrows, product)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        p = self.field.characteristic
        total = [
            _nonzero({i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()}, p)
            for a, b in zip(self._columns, other._columns)
        ]
        return SparseMatrix._of(self.field, self.nrows, total)

    def __eq__(self, other) -> bool:
        same_kind = isinstance(other, SparseMatrix) and self.nrows == other.nrows
        return same_kind and self._columns == other._columns

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self._columns)

    def nnz(self) -> int:
        return sum(map(len, self._columns))

    def to_coordinate_text(self) -> str:
        """Coordinate exchange format: one "row col value" line per nonzero,
        a Z/p value written "v (mod p)"."""
        p = self.field.characteristic
        suffix = f" (mod {p})" if p else ""
        lines = [f"{self.nrows} {self.ncols}"]
        lines += [f"{i} {j} {v}{suffix}" for (i, j), v in sorted(self.entries.items())]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _check(field, nrows: int, columns: list[dict]) -> None:
    """Raise unless every row index lies in [0, nrows) and, over Z/p, every value in [0, p)."""
    rows = list(chain.from_iterable(columns))
    if rows and (min(rows) < 0 or max(rows) >= nrows):
        raise IndexError(f"row index outside [0, {nrows}) stored")
    p = field.characteristic
    values = list(chain.from_iterable(col.values() for col in columns)) if p else ()
    if values and (min(values) < 0 or max(values) >= p):
        raise ValueError(f"entry outside [0, {p}) stored over Z/{p}")


class Echelon:
    """Incremental echelon of sparse vectors keyed by their largest index.

    Its only state is its rows: each stored row has coefficient 1 at its key
    and support only on smaller indices.  ``reduce`` returns the normal form
    of a vector: it differs from the vector by an element of the span and is
    zero at every key, so it is zero exactly for members of the span.  The
    rows are a basis of the span, and ``reduce`` can report a vector's
    coordinates in it.  Over Q, ``reduce`` and ``add`` return and store
    integral values as ints, whatever the types of the vector and the rows,
    so rows set by hand need no other bookkeeping.
    """

    def __init__(self, field, vectors: Iterable[dict] = ()):
        self.field = field
        self.rows: dict[int, dict] = {}
        _added(self, vectors)

    def reduce(self, vector: dict, coefficients: dict | None = None) -> dict:
        """Normal form of vector.  A dict passed as coefficients receives,
        per key, the multiple of that row that was subtracted, so the vector
        is its normal form plus those multiples of the rows."""
        vec, p = dict(vector), self.field.characteristic
        # keys eliminated largest first; a row only adds smaller indices
        pending = [-i for i in vec if i in self.rows]
        if p:
            if pending:  # else the vector is its own normal form
                heapq.heapify(pending)
                _reduce_mod_p(vec, self.rows, pending, coefficients, p)
        else:  # with the normal-form pass, as any vector may hold Fractions
            heapq.heapify(pending)
            _reduce_exact(vec, self.rows, pending, coefficients)
        return vec

    def add(self, vector: dict) -> int | None:
        """Add the vector's normal form as a row; returns its key, or None
        when the vector is already in the span."""
        residual = self.reduce(vector)
        if not residual:
            return None
        key = max(residual)
        pivot, p = residual[key], self.field.characteristic
        if pivot != 1:  # scaled to 1; -1 by negation, as p - v is -v over Q (p = 0)
            if pivot == p - 1:
                residual = {c: p - v for c, v in residual.items()}
            elif p:
                inv = pow(pivot, -1, p)
                residual = {c: v * inv % p for c, v in residual.items()}
            else:
                residual = {c: _quotient(v, pivot) for c, v in residual.items()}
        self.rows[key] = residual
        return key

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)

    def copy(self) -> "Echelon":
        """The same rows, to extend apart; ``add`` never changes a stored row."""
        other = Echelon(self.field)
        other.rows = dict(self.rows)
        return other

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _reduce_exact(vec: dict, rows: dict, pending: list, coefficients) -> None:
    """Echelon.reduce over Q, in place on vec; integral values end as ints."""
    while pending:
        key = -heapq.heappop(pending)
        factor = vec.get(key)
        if factor is None:
            continue
        if coefficients is not None:
            coefficients[key] = factor
        for c, v in rows[key].items():
            cur = vec.get(c)
            if cur is None:
                vec[c] = -factor * v
                if c in rows:
                    heapq.heappush(pending, -c)
            elif s := cur - factor * v:
                vec[c] = s
            else:
                del vec[c]
    for values in (vec, coefficients or {}):  # integral Fractions become ints
        for c, v in values.items():
            if v.__class__ is not int and v.denominator == 1:
                values[c] = v.numerator


def _quotient(a, b):
    """Exact a / b over Q: an int when it is integral, else a Fraction."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _reduce_mod_p(vec: dict, rows: dict, pending: list, coefficients, p: int) -> None:
    """Echelon.reduce over Z/p, in place on vec, every value kept in [0, p)."""
    while pending:
        key = -heapq.heappop(pending)
        factor = vec.get(key)
        if factor is None:
            continue
        if coefficients is not None:
            coefficients[key] = factor
        negated = p - factor
        for c, v in rows[key].items():
            cur = vec.get(c)
            if cur is None:
                vec[c] = negated * v % p
                if c in rows:
                    heapq.heappush(pending, -c)
            elif s := (cur + negated * v) % p:
                vec[c] = s
            else:
                del vec[c]


def _nonzero(column: dict, p: int) -> dict:
    """The nonzero values, reduced into [0, p) when p is nonzero, and over Q
    with integral values as ints."""
    if p:
        return {i: r for i, v in column.items() if (r := v % p)}
    return {
        i: v if v.__class__ is int or v.denominator != 1 else v.numerator
        for i, v in column.items()
        if v
    }


def _added(reducer: Echelon, vectors: Iterable[dict]) -> list[int]:
    """Positions of the vectors that add a row to the echelon, in order."""
    return [k for k, vec in enumerate(vectors) if reducer.add(vec) is not None]


def _tagged_echelon(field, columns: Sequence[dict]) -> tuple[Echelon, list[int]]:
    """Echelon of the columns, column j tagged with -1 at index j - len(columns),
    and the positions of the columns that add a row keyed by a real index.

    Every row's tag part t satisfies (row part) = -(columns @ t).  A column
    that adds a row keyed by a tag depends on the earlier columns: that row
    is the kernel vector with 1 at the column and support on the earlier
    columns that added rows keyed by real indices (the greedy pivot columns).
    A zero column is its own kernel vector: its row, 1 at its tag, is set
    as adding the column would store it, and no other row holds that tag.
    """
    minus_one, shift, echelon, found = field.from_int(-1), len(columns), Echelon(field), []
    for j, col in enumerate(columns):
        if not col:
            echelon.rows[j - shift] = {j - shift: field.one}
        elif echelon.add({**col, j - shift: minus_one}) >= 0:
            found.append(j)
    return echelon, found


def _kernel(echelon: Echelon, ncols: int) -> list[dict]:
    """The canonical kernel basis of the ncols columns of a ``_tagged_echelon``:
    its rows keyed by a tag, which were added in tag order, on the columns."""
    return [{c + ncols: v for c, v in row.items()} for key, row in echelon.rows.items() if key < 0]


def rank(matrix: SparseMatrix) -> int:
    return len(_added(Echelon(matrix.field), matrix.columns()))


def kernel_basis(matrix: SparseMatrix) -> list[dict]:
    """Basis of the right kernel, one vector per free column.

    The basis is canonical: vector k has a 1 at the k-th free column and
    support otherwise only on pivot columns.
    """
    return _kernel(_tagged_echelon(matrix.field, matrix.columns())[0], matrix.ncols)


def independent_columns(matrix: SparseMatrix) -> list[int]:
    """Greedy left-to-right selection of a column basis of the column space."""
    return _added(Echelon(matrix.field), matrix.columns())


def solve_matrix(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix | None:
    """Solve A X = B exactly; returns None when any column is unsolvable.

    Free variables are set to zero, so the solution is canonical: each
    column of B reduces to tags alone, and those are its coordinates on the
    pivot columns of A.
    """
    if a.nrows != b.nrows:
        raise ValueError("A and B must have matching row counts")
    (reducer, _), shift, solution = _tagged_echelon(a.field, a.columns()), a.ncols, []
    for col in b.columns():
        residual = reducer.reduce(col)
        if any(i >= 0 for i in residual):
            return None
        solution.append({c + shift: v for c, v in residual.items()})
    return SparseMatrix._of(a.field, a.ncols, solution)


def solve(a: SparseMatrix, b: dict) -> dict | None:
    """Solve A x = b for a single sparse right-hand side."""
    x = solve_matrix(a, SparseMatrix.from_columns(a.field, a.nrows, [b]))
    return None if x is None else x.columns()[0]


def columns_in_span(basis: SparseMatrix, probe: SparseMatrix) -> bool:
    """True iff every column of probe lies in the column span of basis."""
    return all(map(Echelon(basis.field, basis.columns()).contains, probe.columns()))


def pivots(columns: Sequence, field) -> list[dict]:
    """Per degree, {key: position} of each boundary column that adds a row
    to its degree's echelon, from the top degree down, each degree left to
    right.  The columns index the basis one degree down, so a position that
    is a key one degree up reduces to zero and is skipped (Chen-Kerber
    clearing)."""
    found: list[dict] = [{} for _ in columns]
    for n in range(len(columns) - 1, 0, -1):
        echelon = Echelon(field)
        skip = found[n + 1] if n + 1 < len(columns) else {}
        for j, col in enumerate(columns[n]):
            if j not in skip and (key := echelon.add(col)) is not None:
                found[n][key] = j
    return found


def image_rank_modulo(vectors: Iterable[dict], modulo: SparseMatrix, field) -> int:
    """Rank of a family of vectors in the quotient by the span of ``modulo``:
    how many of them still add a row to the echelon of its columns."""
    return len(_added(Echelon(field, modulo.columns()), vectors))
