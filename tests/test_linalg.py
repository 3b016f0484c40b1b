import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology.chains import ambient_complex
from hyperhomology.fields import QQ, PrimeField
from hyperhomology.hypergraphs import hypergraph
from hyperhomology import linalg
from hyperhomology.linalg import SparseMatrix

from oracles import dense_kernel, dense_rank, dense_solve, sparse_to_dense, typed


def random_matrix(rng, nrows, ncols, field=QQ, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = field.from_int(rng.randint(-3, 3))
                if v:
                    entries[(i, j)] = v
    return SparseMatrix(field, nrows, ncols, entries)


def is_q_scalar(value) -> bool:
    """A Q scalar is an int, or a Fraction only when it is not integral."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def test_rank_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(1, 8))
        assert linalg.rank(m) == dense_rank(sparse_to_dense(m))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_kernel_vectors_lie_in_kernel(nrows, ncols, seed):
    m = random_matrix(random.Random(seed), nrows, ncols)
    kernel = linalg.kernel_basis(m)
    assert len(kernel) == ncols - linalg.rank(m)
    for vec in kernel:
        image = m @ SparseMatrix.from_columns(QQ, ncols, [vec])
        assert image.is_zero()


def test_solve_matrix_finds_exact_solutions():
    rng = random.Random(7)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        x_true = random_matrix(rng, a.ncols, 2, density=0.6)
        b = a @ x_true
        x = linalg.solve_matrix(a, b)
        assert x is not None
        assert (a @ x).entries == b.entries


def test_solve_detects_inconsistency():
    a = to_sparse(QQ, [[1, 0], [1, 0]], 2)
    b = to_sparse(QQ, [[1], [2]], 1)
    assert linalg.solve_matrix(a, b) is None


def test_independent_columns_greedy_first_wins():
    a = to_sparse(QQ, [[1, 2, 0], [0, 0, 1]], 3)
    assert linalg.independent_columns(a) == [0, 2]


def test_echelon_membership():
    reducer = linalg.Echelon(QQ)
    one = QQ.one
    assert reducer.add({0: one, 1: one})
    assert not reducer.add({0: one + one, 1: one + one})
    assert reducer.contains({0: one * 3, 1: one * 3})
    assert not reducer.contains({0: one})


def test_echelon_keys_and_coordinates():
    reducer = linalg.Echelon(QQ)
    one = QQ.one
    assert reducer.add({0: one}) == 0
    assert reducer.add({0: one, 2: one + one}) == 2
    vector = {0: one * 5, 2: one * 4}
    coefficients = {}
    assert reducer.reduce(vector, coefficients) == {}
    rebuilt = {}
    for key, c in coefficients.items():
        for i, v in reducer.rows[key].items():
            rebuilt[i] = rebuilt.get(i, 0) + c * v
    assert {i: v for i, v in rebuilt.items() if v} == vector
    # a pivot other than 1 stores a fractional row, and exact arithmetic with
    # it hands integral values back as ints: 1 - 4 * 3/2 is the int -5
    assert reducer.add({1: 3, 3: 2}) == 3
    assert reducer.rows[3] == {1: Fraction(3, 2), 3: 1}
    coefficients = {}
    residual = reducer.reduce({1: 1, 3: 4}, coefficients)
    assert residual == {1: -5} and coefficients == {3: 4}
    stored = [v for row in reducer.rows.values() for v in row.values()]
    assert all(map(is_q_scalar, [*stored, *residual.values(), *coefficients.values()]))


def test_echelon_with_fractions_in_the_vector_only_stores_ints():
    # integer rows, a Fraction (integral or not) in the reduced vector: the
    # residual, the coefficients and the stored rows hold ints where integral
    reducer = linalg.Echelon(QQ)
    assert reducer.add({0: 2, 1: 1}) == 1
    coefficients = {}
    residual = reducer.reduce({0: 1, 1: Fraction(3)}, coefficients)
    assert residual == {0: -5} and coefficients == {1: 3}
    assert all(map(is_q_scalar, [*residual.values(), *coefficients.values()]))
    assert reducer.add({0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(2)}) == 2
    assert reducer.rows[2] == {0: Fraction(-1, 4), 2: 1}
    assert reducer.add({0: Fraction(1, 3), 3: Fraction(6, 3)}) == 3
    stored = [v for row in reducer.rows.values() for v in row.values()]
    assert all(map(is_q_scalar, stored))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool)), max_size=8))
def test_int_echelon_never_stores_a_fraction_while_pivots_are_units(vectors):
    # while no row holds a Fraction, residuals and coefficients are ints, and
    # while every pivot met is 1 or -1, no row holds one; every stored value
    # is a Q scalar in normal form
    reducer, units, stored = linalg.Echelon(QQ), True, []
    for vector in vectors:
        coefficients = {}
        residual = reducer.reduce(vector, coefficients)
        if not any(type(v) is Fraction for v in stored):
            assert all(type(v) is int for v in [*residual.values(), *coefficients.values()])
        reducer.add(vector)
        units = units and (not residual or residual[max(residual)] in (1, -1))
        stored = [v for row in reducer.rows.values() for v in row.values()]
        assert all(map(is_q_scalar, stored))
        assert not units or all(type(v) is int for v in stored)


def _fraction_typed(vector: dict) -> dict:
    return {c: Fraction(v) for c, v in vector.items()}


def _normal(value):
    return value.numerator if value.denominator == 1 else value


int_vectors = st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(int_vectors, int_vectors)
@example([{0: 1, 1: 2}, {0: 3, 1: 1}], [{0: 1, 1: 4}, {1: 2}])  # rows of halves
def test_echelon_outputs_are_in_normal_form_whatever_the_input_types(vectors, probes):
    # int vectors and the equal Fraction-typed vectors give an echelon over Q
    # the same keys and rows, and every echelon the same residuals and
    # coefficients, with no integral Fraction anywhere.  So do rows set by
    # hand, as Sup's are: one vector per largest index, divided by its value
    # there, is the echelon that adds those vectors largest index first, as
    # each then meets only keys above its support
    ints, fractions = linalg.Echelon(QQ), linalg.Echelon(QQ)
    assert [ints.add(v) for v in vectors] == [fractions.add(_fraction_typed(v)) for v in vectors]
    tops = {}
    for v in vectors:
        if v:
            tops.setdefault(max(v), v)
    by_hand = linalg.Echelon(QQ)
    by_hand.rows = {k: {c: _normal(Fraction(x, v[k])) for c, x in v.items()} for k, v in tops.items()}
    descending = [tops[k] for k in sorted(tops, reverse=True)]
    added = linalg.Echelon(QQ, map(_fraction_typed, descending))
    assert typed(ints.rows) == typed(fractions.rows)
    assert typed(by_hand.rows) == typed(added.rows) == typed(linalg.Echelon(QQ, descending).rows)
    for echelons in ((ints, fractions), (by_hand, added)):
        for probe in vectors + probes:
            reduced = []
            for echelon, vector in product(echelons, (probe, _fraction_typed(probe))):
                coefficients = {}
                residual = echelon.reduce(vector, coefficients)
                reduced.append((typed(residual), typed(coefficients)))
                values = [*residual.values(), *coefficients.values()]
                assert all(map(is_q_scalar, values))
            assert reduced == reduced[:1] * len(reduced)
    stored = [v for e in (ints, fractions, by_hand) for row in e.rows.values() for v in row.values()]
    assert all(map(is_q_scalar, stored))


def test_mod_p_rank_matches_rational_rank_generically():
    rng = random.Random(3)
    gf = PrimeField(10007)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        mq = to_sparse(QQ, dense, ncols)
        mp = to_sparse(gf, dense, ncols)
        # entries are tiny, so a large prime cannot drop the rank
        assert linalg.rank(mq) == linalg.rank(mp)


def test_rational_products_and_sums_hold_integral_values_as_ints():
    half = SparseMatrix(QQ, 1, 1, {(0, 0): Fraction(1, 2)})
    product = half @ SparseMatrix(QQ, 1, 1, {(0, 0): 2})
    assert type(product.entries[(0, 0)]) is int and product.entries[(0, 0)] == 1
    total = half + half
    assert type(total.entries[(0, 0)]) is int and total.entries[(0, 0)] == 1
    assert (half + SparseMatrix(QQ, 1, 1, {(0, 0): 1})).entries == {(0, 0): Fraction(3, 2)}


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(9)


def test_matmul_shape_mismatch():
    a = SparseMatrix.zeros(QQ, 2, 3)
    b = SparseMatrix.zeros(QQ, 2, 3)
    with pytest.raises(ValueError):
        a @ b


def test_image_rank_modulo():
    boundary = to_sparse(QQ, [[1], [-1]], 1)
    vectors = [{0: QQ.one, 1: QQ.from_int(-1)}, {0: QQ.one, 1: QQ.one}]
    assert linalg.image_rank_modulo(vectors, boundary, QQ) == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_echelon_copy_extends_without_changing_the_original(field):
    original = linalg.Echelon(field)
    assert original.add({0: 1, 1: 2}) == 1  # over Q the row holds 1/2
    assert type(original.rows[1][0]) is (Fraction if field is QQ else int)
    rows = {key: dict(row) for key, row in original.rows.items()}
    copy = original.copy()
    assert typed(copy.rows) == typed(original.rows)
    assert copy.add({1: 1, 2: 3}) == 2
    assert copy.add({0: 1}) == 0
    assert copy.add({1: 1}) is None
    assert copy.dimension == 3 and copy.contains({2: 1})
    assert typed(original.rows) == typed(rows) and original.dimension == 1
    assert not original.contains({2: 1}) and not original.contains({0: 1})


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_pivots_never_reduces_a_key_of_the_degree_above(monkeypatch, field):
    # clearing: a position that is a key one degree up reduces to zero, so it
    # is skipped rather than added to its degree's echelon
    closure = ambient_complex(hypergraph([range(6)]), "closure", field=field)
    columns = [b.columns() for b in closure.boundaries]
    add, calls = linalg.Echelon.add, []
    monkeypatch.setattr(linalg.Echelon, "add", lambda self, v: calls.append(v) or add(self, v))
    found = linalg.pivots(columns, field)
    cleared = [len(keys) for keys in found[2:]]
    assert all(cleared)
    assert len(calls) == sum(map(len, columns[1:])) - sum(cleared)


def test_coordinate_text_round_trip():
    m = to_sparse(QQ, [[1, 0], [0, -2]], 2)
    text = m.to_coordinate_text()
    lines = text.strip().splitlines()
    assert lines[0] == "2 2"
    parsed = {}
    for line in lines[1:]:
        i, j, v = line.split()
        parsed[(int(i), int(j))] = QQ.from_fraction(v)
    assert parsed == m.entries
    assert type(QQ.from_fraction("4/2")) is int and QQ.from_fraction("4/2") == 2
    assert QQ.from_fraction("3/2") == Fraction(3, 2)


ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


def dense_ints(nrows, ncols):
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@st.composite
def int_matrices(draw):
    ncols = draw(st.integers(0, 6))
    return draw(dense_ints(draw(st.integers(0, 6)), ncols)), ncols


def to_sparse(field, dense, ncols):
    entries = {
        (i, j): field.from_int(v)
        for i, row in enumerate(dense)
        for j, v in enumerate(row)
        if field.from_int(v)
    }
    return SparseMatrix(field, len(dense), ncols, entries)


def matmul_dense(a, x, ncols):
    return [[sum(row[k] * x[k][j] for k in range(len(row))) for j in range(ncols)] for row in a]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example(([], 3))  # 0 x 3: every column is free
@example(([[], []], 0))  # 2 x 0: empty kernel
@example(([[0, 1, 0], [0, 2, 0]], 3))  # zero columns
def test_kernel_basis_is_the_canonical_kernel(case):
    dense, ncols = case
    expected = [{j: v for j, v in enumerate(x) if v} for x in dense_kernel(dense, ncols)]
    a = to_sparse(QQ, dense, ncols)
    kernel = linalg.kernel_basis(a)
    assert kernel == expected
    echelon, found = linalg._tagged_echelon(QQ, a.columns())
    assert found == linalg.independent_columns(a)
    stored = echelon.rows.values()
    assert all(is_q_scalar(v) for vec in [*kernel, *stored] for v in vec.values())


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.integers(0, 3), st.booleans(), st.data())
@example(([[], []], 0), 1, False, None)  # a.ncols == 0, nonzero or zero B
@example(([], 2), 2, True, None)  # 0 x 2
@example(([[1, 0], [1, 0]], 2), 3, False, None)
def test_solve_matrix_is_the_pivot_supported_solution(case, bcols, consistent, data):
    dense, ncols = case
    if data is None:  # explicit examples: B = [1, 2, ...] or zero columns
        b_dense = [[(i + 1) * (j % 2) for j in range(bcols)] for i in range(len(dense))]
    elif consistent:
        b_dense = matmul_dense(dense, data.draw(dense_ints(ncols, bcols)), bcols)
    else:
        b_dense = data.draw(dense_ints(len(dense), bcols))
    columns = [[row[k] for row in dense] for k in range(ncols)]
    solutions = [dense_solve(columns, [row[j] for row in b_dense]) for j in range(bcols)]
    x = linalg.solve_matrix(to_sparse(QQ, dense, ncols), to_sparse(QQ, b_dense, bcols))
    if any(s is None for s in solutions):
        assert x is None
    else:
        assert x.shape == (ncols, bcols)
        assert x.entries == {
            (k, j): v for j, s in enumerate(solutions) for k, v in enumerate(s) if v
        }
        assert all(map(is_q_scalar, x.entries.values()))


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.integers(0, 3), st.data())
def test_kernel_and_solve_over_z7(case, bcols, data):
    gf = PrimeField(7)
    dense, ncols = case
    a = to_sparse(gf, dense, ncols)
    pivots = linalg.independent_columns(a)
    free = [j for j in range(ncols) if j not in pivots]
    kernel = linalg.kernel_basis(a)
    assert len(kernel) == len(free)
    for f, vec in zip(free, kernel):
        assert vec[f] == gf.one
        assert not set(vec) & (set(free) - {f})
        assert (a @ SparseMatrix.from_columns(gf, ncols, [vec])).is_zero()
    b = a @ to_sparse(gf, data.draw(dense_ints(ncols, bcols)), bcols)
    x = linalg.solve_matrix(a, b)
    assert x is not None and a @ x == b


PRIMES = st.sampled_from([2, 3, 7, 32003])


@settings(max_examples=300, deadline=None)
@given(int_matrices(), PRIMES)
@example(([[2, 0], [0, -3]], 2), 2)  # 2 = 0 mod 2
@example(([[2, 0], [0, -3]], 2), 3)  # -3 = 0 mod 3
def test_mod_p_rank_and_kernel_equal_the_oracle(case, p):
    dense, ncols = case
    a = to_sparse(PrimeField(p), dense, ncols)
    assert linalg.rank(a) == dense_rank(dense, p)
    # reduction mod p can only lose pivots of the same integer matrix
    assert linalg.rank(a) <= linalg.rank(to_sparse(QQ, dense, ncols))
    expected = [{j: v for j, v in enumerate(x) if v} for x in dense_kernel(dense, ncols, p)]
    assert linalg.kernel_basis(a) == expected


@settings(max_examples=300, deadline=None)
@given(int_matrices(), st.integers(0, 3), st.booleans(), PRIMES, st.data())
def test_mod_p_solve_matrix_equals_the_oracle(case, bcols, consistent, p, data):
    gf = PrimeField(p)
    dense, ncols = case
    if consistent:
        b_dense = matmul_dense(dense, data.draw(dense_ints(ncols, bcols)), bcols)
    else:
        b_dense = data.draw(dense_ints(len(dense), bcols))
    columns = [[row[k] for row in dense] for k in range(ncols)]
    solutions = [dense_solve(columns, [row[j] for row in b_dense], p) for j in range(bcols)]
    x = linalg.solve_matrix(to_sparse(gf, dense, ncols), to_sparse(gf, b_dense, bcols))
    if any(s is None for s in solutions):
        assert x is None
    else:
        assert x.entries == {
            (k, j): v for j, s in enumerate(solutions) for k, v in enumerate(s) if v
        }


def test_mod_p_matrices_hold_reduced_residues_only():
    gf = PrimeField(7)
    for bad in (7, -1, 8):
        with pytest.raises(ValueError):
            SparseMatrix(gf, 1, 1, {(0, 0): bad})
    m = SparseMatrix(gf, 1, 2, {(0, 0): 6, (0, 1): 1})
    assert (m + m).entries == {(0, 0): 5, (0, 1): 2}
    assert (m @ to_sparse(gf, [[1], [1]], 1)).is_zero()
    assert m.to_coordinate_text() == "1 2\n0 0 6 (mod 7)\n0 1 1 (mod 7)\n"
    assert gf.from_fraction("3/2") == 5 and gf.from_int(-1) == 6
    with pytest.raises(ZeroDivisionError):
        gf.from_fraction("1/7")


FIELDS = st.sampled_from([QQ, PrimeField(7)])


@settings(max_examples=200, deadline=None)
@given(FIELDS, st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_products_sums_and_transposes_equal_the_dense_ones(field, nrows, inner, ncols, data):
    a = to_sparse(field, data.draw(dense_ints(nrows, inner)), inner)
    b = to_sparse(field, data.draw(dense_ints(inner, ncols)), ncols)
    c = to_sparse(field, data.draw(dense_ints(nrows, inner)), inner)
    da, db, dc = map(sparse_to_dense, (a, b, c))
    p = field.characteristic
    reduced = (lambda v: v % p) if p else (lambda v: v)
    product = [
        [reduced(sum(da[i][k] * db[k][j] for k in range(inner))) for j in range(ncols)]
        for i in range(nrows)
    ]
    assert sparse_to_dense(a @ b) == product
    assert sparse_to_dense(a + c) == [
        [reduced(x + y) for x, y in zip(ra, rc)] for ra, rc in zip(da, dc)
    ]
    assert sparse_to_dense(a.transpose()) == [
        [da[i][j] for i in range(nrows)] for j in range(inner)
    ]
    if not p:
        results = (a @ b, a + c, a.transpose())
        assert all(is_q_scalar(v) for m in results for v in m.entries.values())


@settings(max_examples=100, deadline=None)
@given(FIELDS, int_matrices())
def test_entries_and_columns_build_equal_matrices(field, case):
    dense, ncols = case
    # the columns keep their zero values, which from_columns drops
    columns = [{i: field.from_int(row[j]) for i, row in enumerate(dense)} for j in range(ncols)]
    built = SparseMatrix.from_columns(field, len(dense), columns)
    given_entries = to_sparse(field, dense, ncols)
    assert built == given_entries and hash(built) == hash(given_entries)
    assert built.entries == given_entries.entries


def test_matrices_are_checked_where_they_enter():
    for bad in (2, -1):
        with pytest.raises(IndexError):
            SparseMatrix.from_columns(QQ, 2, [{bad: 1}])
        with pytest.raises(IndexError):
            SparseMatrix(QQ, 2, 2, {(bad, 0): 1})
        with pytest.raises(IndexError):
            SparseMatrix(QQ, 2, 2, {(0, bad): 1})
    with pytest.raises(ValueError):
        SparseMatrix(QQ, 1, 1, {(0, 0): 0})
    gf = PrimeField(7)
    for bad in (7, -1, 8):
        with pytest.raises(ValueError):
            SparseMatrix.from_columns(gf, 1, [{0: bad}])
    assert SparseMatrix.from_columns(gf, 2, [{0: 0, 1: 3}]).columns() == [{1: 3}]
    column = {0: 1}
    m = SparseMatrix.from_columns(QQ, 1, [column])
    column[0] = 5  # from_columns copied the column
    assert m.entries == {(0, 0): 1}
