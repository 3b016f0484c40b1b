"""Independent dense oracles used to cross-check the package.

Everything here is deliberately textbook and self-contained: dense
list-of-list matrices over fractions.Fraction, first-nonzero pivoting, and
a from-scratch simplicial boundary construction.  Nothing imports the
package's linear algebra, except ``pairwise_persistence``: it computes
persistence the slow way, through the package's per-step embedded
complexes and one induced-rank problem per pair of steps.
"""

from fractions import Fraction
from itertools import combinations

from hyperhomology.chains import ambient_complex, inf_complex, sup_complex
from hyperhomology.errors import InvariantViolation
from hyperhomology.fields import QQ
from hyperhomology.homology import betti, induced_homology_rank


def dense_rank(rows):
    """Rank by plain Gaussian elimination with first-nonzero pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
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
                factor = m[r][col] / pivot
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[pivot_row][c]
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
    sign alternates with the deleted position.
    """
    domain = simplices_by_dim.get(dim, [])
    codomain = simplices_by_dim.get(dim - 1, [])
    index = {s: i for i, s in enumerate(codomain)}
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for j, simplex in enumerate(domain):
        sign = 1
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1 :]
            matrix[index[face]][j] += sign
            sign = -sign
    return matrix


def simplicial_betti(edges):
    """Betti numbers of a simplicial complex given as a set of sorted tuples.

    Independent route: dense boundaries + dense ranks over Fraction.
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
        rank_down = dense_rank(simplicial_boundary_dense(by_dim, dim)) if dim >= 1 else 0
        rank_up = (
            dense_rank(simplicial_boundary_dense(by_dim, dim + 1))
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


def dense_solve(columns, target):
    """One solution x of sum_k x_k columns[k] = target, free variables zero.

    Plain Gauss-Jordan elimination on the augmented matrix; None when the
    target is outside the column span.
    """
    n_cols = len(columns)
    m = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(len(target))]
    pivots = []
    row = 0
    for col in range(n_cols):
        chosen = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if chosen is None:
            continue
        m[row], m[chosen] = m[chosen], m[row]
        pivot = m[row][col]
        m[row] = [x / pivot for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    if any(m[r][n_cols] != 0 for r in range(row, len(m))):
        return None
    x = [Fraction(0)] * n_cols
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
