"""Independent dense oracles used to cross-check the package.

Everything here is deliberately textbook and self-contained: dense
list-of-list matrices over fractions.Fraction (or over Z/p, as ints reduced
with ``%`` and inverted with ``pow(x, -1, p)``), first-nonzero pivoting, and
a from-scratch simplicial boundary construction.  Nothing imports the
package's linear algebra, except four oracles that check a construction
rather than an elimination, and ``homology_bars``, which checks one
reduction against another.  ``quotient_map_surjective`` ranks the map
C/Inf -> C/Sup on the coset bases of two ``quotient_complex`` results.
``closure_embedded`` builds the Inf or Sup complex the old way, inside the
whole deletion-closure ambient.  ``largest_inside`` and
``smallest_containing`` build Inf and Sup around any span with none of the
package's shared elimination: Inf from the canonical kernel of
``linalg.kernel_basis`` and one image product, Sup with one
``Echelon.add`` per unit and per boundary column.  ``plain_image_echelons``
eliminates every image column of an embedded complex, with no clearing,
and ``permuted_closure`` gives a closure ambient whose degree-1 labels are
out of sorted order.  ``pairwise_persistence`` computes persistence the
slow way, through the package's per-step embedded complexes
and one ``induced_homology_rank`` problem per pair of steps, and
``homology_bars`` pairs a filtered basis by the homology reduction
(``linalg.pivots``) that the package's cohomology reduction replaced.
``tuple_simplex_basis`` is the filtered simplex basis built the package's
former way, from ``flag_levels`` dicts keyed by simplex tuples, where the
package now computes faces from integer ranks.
``dense_induced_rank`` is the independent check of those induced ranks: it
reads only an embedded complex's stored embeddings and boundary images and
eliminates densely.  ``four_term_by_cochain_quotients`` builds the
four-stage sequence as quotients of the closure cochains, with no duality,
and takes the largest deletion-closed part from
``lower_associated_by_subsets``, which enumerates every subset of an edge.
``persistence_csv`` writes a persistence table's rows of Python values with
``csv.writer``, as the package did before it formatted its own CSV text.
``typed`` pairs each value of a vector or of echelon rows with its type, for
comparisons that tell an int from an equal Fraction.
The group oracles work on permutations of range(n) as plain image tuples,
check every pair of elements, and walk all n! maps for vertex symmetries and
isometries.  The point-sample oracles sum squared distances in Fraction
arithmetic from the raw coordinate rows, with no integer grid, and take
square roots with the package's ``exact_sqrt``.  The circle emptiness
threshold is taken over every n-subset of the sample, with no filtration.
"""

import csv
import io
import math
from fractions import Fraction
from itertools import combinations, permutations

from hyperhomology import linalg
from hyperhomology.chains import (
    ChainComplex,
    EmbeddedComplex,
    _check_square_zero,
    _in_field,
    _integer_columns,
    ambient_complex,
    inf_complex,
    sup_complex,
)
from hyperhomology.errors import InvariantViolation
from hyperhomology.fields import QQ
from hyperhomology.homology import betti, induced_homology_rank, quotient_complex
from hyperhomology.hypergraphs import Hypergraph
from hyperhomology.linalg import SparseMatrix
from hyperhomology.metrics import PiValue, exact_sqrt


def _scalars(rows, p):
    """Dense Fractions, or ints reduced into [0, p) for a prime p."""
    return [[x % p if p else Fraction(x) for x in row] for row in rows]


def _ratio(a, b, p):
    return a * pow(b, -1, p) % p if p else a / b


def _minus(a, b, p):
    return (a - b) % p if p else a - b


def dense_rank(rows, p=None):
    """Rank by plain Gaussian elimination with first-nonzero pivoting, over
    Q, or over Z/p when a prime p is given."""
    m = _scalars(rows, p)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        chosen = None
        for r in range(pivot_row, n_rows):
            if m[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        m[pivot_row], m[chosen] = m[chosen], m[pivot_row]
        pivot = m[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            if m[r][col] != 0:
                factor = _ratio(m[r][col], pivot, p)
                for c in range(col, n_cols):
                    m[r][c] = _minus(m[r][c], factor * m[pivot_row][c], p)
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def dense_kernel_dimension(rows, n_cols):
    return n_cols - dense_rank(rows) if rows else n_cols


def simplicial_boundary_dense(simplices_by_dim, dim):
    """Dense boundary matrix of a simplicial complex, rebuilt from scratch.

    Faces are obtained by deleting one vertex of the sorted simplex; the
    sign alternates with the deleted position.  The entries are ints.
    """
    domain = simplices_by_dim.get(dim, [])
    codomain = simplices_by_dim.get(dim - 1, [])
    index = {s: i for i, s in enumerate(codomain)}
    matrix = [[0] * len(domain) for _ in codomain]
    for j, simplex in enumerate(domain):
        sign = 1
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1 :]
            matrix[index[face]][j] += sign
            sign = -sign
    return matrix


def simplicial_betti(edges, p=None):
    """Betti numbers of a simplicial complex given as a set of sorted tuples.

    Independent route: dense boundaries + dense ranks over Fraction, or over
    Z/p when a prime p is given.
    """
    by_dim = {}
    for e in edges:
        by_dim.setdefault(len(e) - 1, []).append(tuple(e))
    for dim in by_dim:
        by_dim[dim] = sorted(by_dim[dim])
    if not by_dim:
        return ()
    top = max(by_dim)
    betti = []
    for dim in range(top + 1):
        n_here = len(by_dim.get(dim, []))
        rank_down = dense_rank(simplicial_boundary_dense(by_dim, dim), p) if dim >= 1 else 0
        rank_up = (
            dense_rank(simplicial_boundary_dense(by_dim, dim + 1), p)
            if dim + 1 <= top
            else 0
        )
        betti.append(n_here - rank_down - rank_up)
    return tuple(betti)


def powerset_closure(edges):
    """All nonempty subsets of the given edges, by brute enumeration."""
    out = set()
    for e in edges:
        items = sorted(e)
        for k in range(1, len(items) + 1):
            out.update(combinations(items, k))
    return out


def subsequence_closure(edges):
    """All nonempty subsequences of the given directed edges, one bit mask
    of positions at a time."""
    out = set()
    for e in edges:
        for mask in range(1, 2 ** len(e)):
            out.add(tuple(v for i, v in enumerate(e) if mask >> i & 1))
    return out


def lower_associated_by_subsets(h):
    """The largest deletion-closed part of h: the edges whose every nonempty
    subset (subsequence, if directed) is an edge, by brute enumeration."""
    kept = {
        e
        for e in h.edges
        if all(s in h.edges for k in range(1, len(e) + 1) for s in combinations(e, k))
    }
    return Hypergraph(h.vertices, frozenset(kept), h.directed)


def superset_closure(edges, ambient):
    """All supersets within ambient of the given edges, by brute force."""
    ambient = sorted(ambient)
    out = set()
    for k in range(1, len(ambient) + 1):
        for candidate in combinations(ambient, k):
            if any(set(e) <= set(candidate) for e in edges):
                out.add(candidate)
    return out


def sparse_to_dense(matrix):
    dense = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for (i, j), v in matrix.entries.items():
        dense[i][j] = Fraction(str(v)) if not isinstance(v, (int, Fraction)) else Fraction(v)
    return dense


def typed(values: dict) -> dict:
    """A vector, or echelon rows, with each value paired with its type, so an
    int and an equal Fraction differ."""
    return {k: typed(v) if isinstance(v, dict) else (v.__class__, v) for k, v in values.items()}


def fixed_subspace_dimension(edge_list, generators):
    """Dimension of the subspace of formal sums fixed by all generators.

    Solves (P_g - I) x = 0 for all g at once, densely.  Generators act by
    permuting the basis of directed edges.
    """
    index = {e: i for i, e in enumerate(edge_list)}
    rows = []
    for g in generators:
        for e in edge_list:
            image = g(e)
            if image == e:
                continue
            row = [Fraction(0)] * len(edge_list)
            row[index[e]] = Fraction(1)
            row[index[image]] = Fraction(-1)
            rows.append(row)
    if not rows:
        return len(edge_list)
    return dense_kernel_dimension(rows, len(edge_list))


def dense_rref(rows, n_cols, p=None):
    """Reduced row echelon form by Gauss-Jordan elimination, over Q, or
    over Z/p when a prime p is given.

    Pivots are chosen first-nonzero, left to right, among the first n_cols
    columns only, so augmented columns to their right ride along.  Every
    pivot is 1 with zeros above and below it.  Returns the reduced rows and
    the pivot columns.
    """
    m = _scalars(rows, p)
    pivots = []
    for col in range(n_cols):
        top = len(pivots)
        chosen = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if chosen is None:
            continue
        m[top], m[chosen] = m[chosen], m[top]
        pivot = m[top][col]
        m[top] = [_ratio(x, pivot, p) for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [_minus(a, factor * b, p) for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def dense_kernel(rows, n_cols, p=None):
    """Canonical right kernel basis, one vector per free column in order.

    The vector of free column f is 1 at f, zero at every other free column,
    and minus column f of the reduced rows at the pivot columns.
    """
    m, pivots = dense_rref(rows, n_cols, p)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        x = [0] * n_cols
        x[free] = 1
        for r, col in enumerate(pivots):
            x[col] = _minus(0, m[r][free], p)
        basis.append(x)
    return basis


def dense_solve(columns, target, p=None):
    """One solution x of sum_k x_k columns[k] = target, free variables zero,
    over Q, or over Z/p when a prime p is given.

    Gauss-Jordan elimination on the augmented matrix; None when the target
    is outside the column span.
    """
    n_cols = len(columns)
    augmented = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    m, pivots = dense_rref(augmented, n_cols, p)
    if any(m[r][n_cols] != 0 for r in range(len(pivots), len(m))):
        return None
    x = [0] * n_cols
    for r, col in enumerate(pivots):
        x[col] = m[r][n_cols]
    return x


def _unit(i, dim):
    return [Fraction(int(k == i)) for k in range(dim)]


def quotient_representatives(sub_columns, dim):
    """Greedy coset representatives of a quotient by the span of sub_columns.

    Unit vectors are tried in index order; e_i is kept when it raises the
    rank of the subspace plus the units kept so far.
    """
    kept = []
    current = dense_rank(list(map(list, zip(*sub_columns))))
    for i in range(dim):
        trial = list(sub_columns) + [_unit(j, dim) for j in kept + [i]]
        r = dense_rank(list(map(list, zip(*trial))))
        if r > current:
            kept.append(i)
            current = r
    return tuple(kept)


def quotient_coordinates(sub_columns, reps, vector):
    """Coordinates of vector in the quotient basis e_reps modulo sub_columns.

    Solves [S | e_reps] x = vector densely and keeps the e_reps part, which
    is unique because S and e_reps together span the whole space directly.
    """
    dim = len(vector)
    x = dense_solve(list(sub_columns) + [_unit(i, dim) for i in reps], vector)
    return x[len(sub_columns):]


def quotient_map_surjective(by_inf, by_sup):
    """Whether the map (C mod Inf) -> (C mod Sup), x + Inf to x + Sup, hits
    everything in every degree, given the ``quotient_complex`` of one
    ambient by each: the dense rank of the C/Inf coset representatives in
    the C/Sup quotient coordinates."""
    field = by_inf.ambient.field
    pairs = enumerate(zip(by_inf.representatives, by_sup.representatives))
    for n, (inf_reps, sup_reps) in pairs:
        columns = [by_sup.project_vector(n, {j: field.one}) for j in inf_reps]
        rows = [[col.get(i, 0) for col in columns] for i in range(len(sup_reps))]
        if dense_rank(rows, field.characteristic) != len(sup_reps):
            return False
    return True


def pairwise_persistence(steps, degrees, kind="inf", *, all_pairs=False, field=QQ):
    """Persistence of nested steps, one rank problem per pair of steps.

    Builds the Inf (or Sup) complex of every step in the ambient of the
    last one, and solves H_n(step i) -> H_n(step j) for each pair.  Returns
    (betti_by_step, entries, bars): entries as in ``persistent_betti`` for
    the consecutive (or all) pairs, bars as (degree, born, dies) for the
    given degrees, derived from the all-pairs ranks by inclusion-exclusion.
    """
    steps = list(steps)
    build = inf_complex if kind == "inf" else sup_complex
    ambient = ambient_complex(steps[-1].hypergraph, "closure", field=field)
    embedded = [build(s.hypergraph, field=field, ambient=ambient) for s in steps]
    betti_by_step = tuple(betti(e).betti for e in embedded)
    count = len(steps)

    def beta(i, d):
        return betti_by_step[i][d] if d < len(betti_by_step[i]) else 0

    ranks = {}
    for d in degrees:
        for i in range(count):
            ranks[(d, i, i)] = beta(i, d)
            for j in range(i + 1, count):
                r = induced_homology_rank(embedded[i], embedded[j], d)
                if r > min(beta(i, d), beta(j, d)):
                    raise InvariantViolation(f"rank {r} exceeds min Betti at {d}, {i}->{j}")
                ranks[(d, i, j)] = r
    pairs = (
        [(i, j) for i in range(count) for j in range(i + 1, count)]
        if all_pairs
        else [(i, i + 1) for i in range(count - 1)]
    )
    entries = tuple((d, i, j, ranks[(d, i, j)]) for d in degrees for i, j in pairs)

    def r(d, i, j):
        return ranks[(d, i, j)] if i >= 0 else 0

    bars = []
    for d in degrees:
        for born in range(count):
            for dies in range(born, count):
                alive_to_dies = r(d, born, dies) - r(d, born - 1, dies)
                if dies + 1 < count:
                    alive_past = r(d, born, dies + 1) - r(d, born - 1, dies + 1)
                else:
                    alive_past = 0
                bars += [(d, born, dies + 1 if dies + 1 < count else None)] * (
                    alive_to_dies - alive_past
                )
    return betti_by_step, entries, bars


def persistence_csv(table):
    """The CSV text of a ``PersistentBettiTable``: a header, then per entry
    the degree, both step radii as floats, both Betti numbers and the rank,
    written by ``csv.writer``."""
    rows = [["degree", "r_i", "r_j", "beta_i", "beta_j", "rank"]]
    radii = [float(r) for r in table.step_radii]
    for d, i, j, r in table.entries:
        rows.append([d, radii[i], radii[j], table.rank(d, i, i), table.rank(d, j, j), r])
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def flag_levels(pairs):
    """Per degree, each simplex of a ``build_filtration`` sample (its
    ``_pairs`` object) mapped to its step, the latest among its pairs, in
    sorted order: the package's former tuple route, one dict per degree."""
    level, step = {(i,): 0 for i in pairs.ids}, pairs.step
    levels = [level]
    for k in range(2, pairs.top + 1):
        level = {
            s: max(level[s[:-1]], level[s[1:]], step[s[0]][s[-1]])
            for s in combinations(pairs.ids, k)
        }
        levels.append(level)
    return levels


def tuple_simplex_basis(levels, field):
    """The package's former filtered basis of simplices, built from tuples:
    labels sorted by (birth, simplex), integer boundary columns from face
    tuples (``chains._integer_columns``), checked by
    ``chains._check_square_zero`` and transposed into field coboundaries."""
    births, columns, labels = [], [], []
    for n, level in enumerate(levels):
        labels.append(sorted(level, key=level.__getitem__))
        born = sorted(level.values())
        if n:
            ints = _integer_columns(labels[n], labels[n - 1])
            if n >= 2:
                _check_square_zero(n - 1, columns[-1], ints, labels)
            columns.append(ints)
        births.append(born)
    coboundaries = []
    for cols, born in zip(columns, births):
        rows = [{} for _ in born]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i][j] = v
        coboundaries.append(_in_field(field, rows))
    return births, coboundaries


def homology_bars(births, columns, field):
    """(degree, born, dies) of every bar of positive length, by degree from
    the top down, by the homology reduction.  columns[n][j] is the boundary
    of degree-n basis vector j in the positions of degree n - 1, both
    ordered by birth, so ``linalg.pivots`` pairs each key with the column
    that kills it; a position that neither is a key one degree up nor adds a
    row is a class that never dies."""
    found = linalg.pivots(columns, field) + [{}]
    bars = []
    for n in range(len(births) - 1, -1, -1):
        killers, added = found[n + 1], set(found[n].values())
        for j, born in enumerate(births[n]):
            if j in killers:
                if (dies := births[n + 1][killers[j]]) > born:
                    bars.append((n, born, dies))
            elif j not in added:
                bars.append((n, born, None))
    return bars


def _dense_columns(matrix):
    """The columns of a sparse matrix as dense lists, values as stored."""
    return [[col.get(i, 0) for i in range(matrix.nrows)] for col in matrix.columns()]


def dense_induced_rank(source, target, n, p=None):
    """Rank of H_n(source) -> H_n(target) for two embedded complexes on the
    same labels, by dense elimination alone, over Q or over Z/p when a prime
    p is given: dim(Z_n(source) + B_n(target)) - dim B_n(target), in label
    coordinates.  The cycles are the ``dense_kernel`` of the source images
    mapped through its embedding; they must lie in the target's span, checked
    by ``dense_rank``.  Ranks of vector families are taken as ranks of the
    matrix with the vectors as rows."""
    if n >= len(source.images):
        return 0
    rows = [list(row) for row in zip(*_dense_columns(source.images[n]))]
    kernel = dense_kernel(rows, source.images[n].ncols, p)
    embedding = _dense_columns(source.embeddings[n])
    width = source.embeddings[n].nrows
    cycles = [
        [sum(z[k] * col[i] for k, col in enumerate(embedding)) for i in range(width)]
        for z in kernel
    ]
    span = _dense_columns(target.embeddings[n])
    if dense_rank(span + cycles, p) != dense_rank(span, p):
        raise InvariantViolation(f"degree-{n} cycles do not lie in the target subcomplex")
    up = _dense_columns(target.images[n + 1]) if n + 1 < len(target.images) else []
    return dense_rank(up + cycles, p) - dense_rank(up, p)


def closure_embedded(h, kind="inf", field=QQ):
    """The Inf (or Sup) complex of h built inside its deletion closure.

    Degree n of Inf is the kernel of the closure boundary restricted to the
    degree-n edge columns and to the rows of non-edges; degree n of Sup is
    spanned by the degree-n edges and the closure boundaries of the
    degree-(n+1) edges, independent columns kept left to right.  The
    internal boundaries solve (closure boundary) @ embedding in the
    embedding one degree down.
    """
    ambient = ambient_complex(h, "closure", field=field)
    top = ambient.top_degree
    span = []
    for n in range(top + 1):
        index = {e: k for k, e in enumerate(ambient.labels[n])}
        span.append([index[e] for e in h.level(n + 1)])
    columns = [b.columns() for b in ambient.boundaries]
    embeddings = []
    for n in range(top + 1):
        if kind == "inf":
            inside = set(span[n - 1]) if n else set()
            outside = [
                {i: v for i, v in columns[n][j].items() if i not in inside} for j in span[n]
            ]
            constraint = SparseMatrix.from_columns(field, ambient.dim(n - 1), outside)
            kept = [
                {span[n][k]: v for k, v in vec.items()}
                for vec in linalg.kernel_basis(constraint)
            ]
        else:
            generators = [{j: field.one} for j in span[n]]
            if n < top:
                generators += [columns[n + 1][j] for j in span[n + 1] if columns[n + 1][j]]
            stacked = SparseMatrix.from_columns(field, ambient.dim(n), generators)
            kept = [generators[k] for k in linalg.independent_columns(stacked)]
        embeddings.append(SparseMatrix.from_columns(field, ambient.dim(n), kept))
    dims = tuple(e.ncols for e in embeddings)
    boundaries = [SparseMatrix.zeros(field, 0, dims[0])] if dims else []
    for n in range(1, top + 1):
        image = ambient.boundaries[n] @ embeddings[n]
        boundaries.append(linalg.solve_matrix(embeddings[n - 1], image))
    sub = ChainComplex(field, dims, tuple(boundaries))
    sub.validate()
    return EmbeddedComplex(
        field,
        ambient.labels,
        tuple(embeddings),
        tuple(ambient.boundaries[n] @ embeddings[n] for n in range(top + 1)),
    )


def largest_inside(field, dims, span, boundary):
    """Largest subcomplex inside the span of the given basis vectors, the
    package's Inf found independently of its elimination loop.

    dims[n] is the dimension of degree n, span[n] lists degree-n basis
    positions and boundary[n][j] is the boundary column of position j.
    Degree n is the canonical kernel (``linalg.kernel_basis``) of the
    columns of span[n] with their span[n-1] coordinates dropped, and its
    images are one product of the span[n] boundary columns with it.
    Returns the embedding matrices and the image matrices, per degree.
    """
    embeddings, images = [], []
    for n, cols in enumerate(span):
        below, inside = (dims[n - 1], set(span[n - 1])) if n else (0, set())
        outside = [{i: v for i, v in boundary[n][j].items() if i not in inside} for j in cols]
        kernel = linalg.kernel_basis(SparseMatrix.from_columns(field, below, outside))
        embedded = [{cols[k]: v for k, v in vec.items()} for vec in kernel]
        embeddings.append(SparseMatrix.from_columns(field, dims[n], embedded))
        down = SparseMatrix.from_columns(field, below, [boundary[n][j] for j in cols])
        images.append(down @ SparseMatrix.from_columns(field, len(cols), kernel))
    return tuple(embeddings), tuple(images)


def smallest_containing(field, dims, span, boundary):
    """Smallest subcomplex containing the span of the given basis vectors, as
    the package's Sup builder ``chains._sup`` finds it, with its own
    echelon per degree.

    Degree n is fed the units of span[n], then the nonzero boundary columns
    of span[n+1], each through one ``Echelon.add``; the columns that add a
    row are kept.  Returns per degree the embedding matrix, the matrix of
    the boundaries of its columns (a unit's, or zero for a kept boundary),
    and the echelon.
    """
    top = len(span) - 1
    embeddings, images, echelons = [], [], []
    for n, cols in enumerate(span):
        pairs = [({j: field.one}, boundary[n][j]) for j in cols]
        if n < top:
            pairs += [(col, {}) for j in span[n + 1] if (col := boundary[n + 1][j])]
        echelon = linalg.Echelon(field)
        kept = [(c, d) for c, d in pairs if echelon.add(c) is not None]
        embeddings.append(SparseMatrix.from_columns(field, dims[n], [c for c, _ in kept]))
        below = dims[n - 1] if n else 0
        images.append(SparseMatrix.from_columns(field, below, [d for _, d in kept]))
        echelons.append(echelon)
    return tuple(embeddings), tuple(images), tuple(echelons)


def permuted_closure(h, field=QQ):
    """The closure ambient of h with its degree-1 labels reversed, and the
    boundary columns of degree 1 and rows of degree 2 moved with them: a
    chain complex on the same simplices whose degree-1 span positions
    decrease."""
    ambient = ambient_complex(h, "closure", field=field)
    if ambient.top_degree < 1:
        return ambient
    labels, boundaries, last = list(ambient.labels), list(ambient.boundaries), ambient.dim(1) - 1
    labels[1] = labels[1][::-1]
    boundaries[1] = SparseMatrix.from_columns(field, ambient.dim(0), boundaries[1].columns()[::-1])
    if ambient.top_degree > 1:
        moved = [{last - i: v for i, v in col.items()} for col in boundaries[2].columns()]
        boundaries[2] = SparseMatrix.from_columns(field, last + 1, moved)
    return ChainComplex(field, ambient.dims, tuple(boundaries), labels=tuple(labels))


def plain_image_echelons(embedded):
    """Per degree, the echelon of every nonzero image column of an embedded
    complex, left to right, with no clearing."""
    return [linalg.Echelon(embedded.field, filter(None, m.columns())) for m in embedded.images]


def _reversed_complex(c):
    """Reindex so the transposed boundaries form a chain complex again.

    Degree m of the result is degree top - m of the input with boundary
    equal to the transpose of the input boundary one degree up.
    """
    top = c.top_degree
    dims = tuple(c.dim(top - m) for m in range(top + 1))
    boundaries = [SparseMatrix.zeros(c.field, 0, dims[0])]
    for m in range(1, top + 1):
        boundaries.append(c.boundaries[top - m + 1].transpose())
    return ChainComplex(c.field, dims, tuple(boundaries))


def four_term_by_cochain_quotients(h, field=QQ):
    """The four-stage sequence of h built as quotients of closure cochains,
    as ``FourTermReport.as_dict()``.

    The cochains are the closure chains with the boundaries transposed and
    the degrees reversed.  The complement of the edge span has an inward
    part (``largest_inside``) and an outward hull (``smallest_containing``);
    the middle stages are the ``quotient_complex`` of the cochains by each.
    The maps are surjective when the inward part lies in the outward hull
    and the outward hull misses every edge of the largest deletion-closed
    part of h, whose closure chains give the last stage.
    """
    if not h.edges:
        empty = list(betti(ChainComplex(field, (), (), labels=())).betti)
        return {
            "stage_dims": [[]] * 4,
            "stage_betti": [empty] * 4,
            "surjective": [True] * 3,
            "all_identity": True,
        }
    ambient = ambient_complex(h, "closure", field=field)
    lower = lower_associated_by_subsets(h)
    top = ambient.top_degree
    cochains = _reversed_complex(ambient)

    def positions(g):
        # degree m of the cochains is degree top - m of the closure
        return [
            {k for k, e in enumerate(ambient.labels[top - m]) if e in g.edges}
            for m in range(top + 1)
        ]

    in_h, in_lower = positions(h), positions(lower)
    complement = [
        [i for i in range(cochains.dim(m)) if i not in in_h[m]] for m in range(top + 1)
    ]
    columns = [b.columns() for b in cochains.boundaries]
    inward, _ = largest_inside(field, cochains.dims, complement, columns)
    outward = smallest_containing(field, cochains.dims, complement, columns)[0]
    stage2 = quotient_complex(cochains, inward)
    stage3 = quotient_complex(cochains, outward)

    def unreverse(values):
        padded = list(values) + [0] * (top + 1 - len(values))
        return [padded[top - n] for n in range(top + 1)]

    b4 = list(betti(ambient_complex(lower, field=field)).betti)
    dims = [
        list(ambient.dims),
        unreverse(stage2.complex.dims),
        unreverse(stage3.complex.dims),
        unreverse([len(indices) for indices in in_lower]),
    ]
    inward_in_outward = all(
        stage3.echelons[m].contains(col) for m in range(top + 1) for col in inward[m].columns()
    )
    outward_misses_lower = not any(
        i in in_lower[m] for m in range(top + 1) for col in outward[m].columns() for i in col
    )
    surjective = [True, inward_in_outward, outward_misses_lower]
    return {
        "stage_dims": dims,
        "stage_betti": [
            list(betti(ambient).betti),
            unreverse(betti(stage2.complex).betti),
            unreverse(betti(stage3.complex).betti),
            b4 + [0] * (top + 1 - len(b4)),
        ],
        "surjective": surjective,
        "all_identity": all(d == dims[0] for d in dims) and all(surjective),
    }


# ------------------------------------------------------------------ groups
# A permutation of range(n) is its image tuple; compose(a, b) is a after b.


def _compose(a, b):
    return tuple(a[k] for k in b)


def _inverse(a):
    out = [0] * len(a)
    for k, v in enumerate(a):
        out[v] = k
    return tuple(out)


def generated_by_pairs(gens, n):
    """The group generated by gens: multiply all pairs until nothing is new."""
    elements = {tuple(range(n))} | set(gens)
    while True:
        new = {_compose(a, b) for a in elements for b in elements} - elements
        if not new:
            return elements
        elements |= new


def is_group_by_pairs(elements, n):
    """Identity, every inverse and every product of two elements present."""
    elements = set(elements)
    return tuple(range(n)) in elements and all(
        _inverse(a) in elements and all(_compose(a, b) in elements for b in elements)
        for a in elements
    )


def is_normal_by_pairs(sub, group):
    """sub inside group, and g h g^-1 in sub for every g in group and h in sub."""
    sub, group = set(sub), set(group)
    return sub <= group and all(
        _compose(_compose(g, h), _inverse(g)) in sub for g in group for h in sub
    )


def brute_isometries(sample, tolerance=0):
    """Sorted image tuples of every distance-preserving bijection of a sample.

    Walks all n! vertex maps and compares every pair of points with its
    image; a non-zero tolerance bounds the difference of the float keys.
    """
    ids = tuple(sorted(sample.ids))
    key = sample.metric.distance_key

    def preserves(images):
        for a, b in combinations(ids, 2):
            d1, d2 = key(a, b), key(images[a], images[b])
            if tolerance:
                if abs(float(d1) - float(d2)) > tolerance:
                    return False
            elif d1 != d2:
                return False
        return True

    return sorted(images for images in permutations(ids) if preserves(dict(zip(ids, images))))


def brute_vertex_maps(h, kind):
    """Sorted image tuples of every vertex bijection of h that maps each edge
    onto some edge (kind "homeo") or onto itself (kind "stab").

    Walks all n! vertex maps.  An undirected edge is compared as a set of
    vertices, a directed one coordinate by coordinate.
    """
    ids = tuple(sorted(h.vertices))
    shape = tuple if h.directed else frozenset
    edges = {shape(e) for e in h.edges}

    def keeps(look):
        pairs = [(shape(e), shape(look[v] for v in e)) for e in h.edges]
        if kind == "homeo":
            return all(image in edges for _, image in pairs)
        return all(image == edge for edge, image in pairs)

    return sorted(images for images in permutations(ids) if keeps(dict(zip(ids, images))))


def fraction_half_distances(rows):
    """Sorted distinct half distances of Euclidean coordinate rows: each
    squared distance summed in Fraction arithmetic, then exact_sqrt(d^2 / 4)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    squares = {sum((a - b) ** 2 for a, b in zip(p, q)) for p, q in combinations(rows, 2)}
    return [exact_sqrt(Fraction(square) / 4) for square in sorted(squares)]


def first_coinciding_pair(points):
    """The first pair of ids (i, j), i < j in id order, whose coordinate rows
    are equal as Fractions, or None; points maps ids to rows."""
    rows = {i: [Fraction(x) for x in row] for i, row in points.items()}
    pairs = combinations(sorted(rows), 2)
    return next(((i, j) for i, j in pairs if rows[i] == rows[j]), None)


def emptiness_threshold_by_subsets(sample, n):
    """Half the largest least pairwise arc of an n-subset of a circle
    sample, over every n-subset: +infinity for n = 1, and 0 when the sample
    has fewer than n points."""
    if n == 1:
        return math.inf
    metric = sample.metric
    if n > len(sample):
        return PiValue(0) if metric.exact else 0.0
    best = max(
        min(metric.distance_key(i, j) for i, j in combinations(subset, 2))
        for subset in combinations(sorted(sample.ids), n)
    )
    return PiValue(Fraction(best) / 2) if metric.exact else float(best) / 2.0
