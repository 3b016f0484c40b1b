import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology.fields import QQ, PrimeField
from hyperhomology import linalg
from hyperhomology.linalg import SparseMatrix

from oracles import dense_rank, sparse_to_dense


def random_matrix(rng, nrows, ncols, field=QQ, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = field.from_int(rng.randint(-3, 3))
                if v:
                    entries[(i, j)] = v
    return SparseMatrix(field, nrows, ncols, entries)


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
    a = SparseMatrix.from_rows(QQ, [[1, 0], [1, 0]])
    b = SparseMatrix.from_rows(QQ, [[1], [2]])
    assert linalg.solve_matrix(a, b) is None


def test_independent_columns_greedy_first_wins():
    a = SparseMatrix.from_rows(QQ, [[1, 2, 0], [0, 0, 1]])
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


def test_mod_p_rank_matches_rational_rank_generically():
    rng = random.Random(3)
    gf = PrimeField(10007)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        mq = SparseMatrix.from_rows(QQ, dense)
        mp = SparseMatrix.from_rows(gf, dense)
        # entries are tiny, so a large prime cannot drop the rank
        assert linalg.rank(mq) == linalg.rank(mp)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(9)


def test_matmul_shape_mismatch():
    a = SparseMatrix.zeros(QQ, 2, 3)
    b = SparseMatrix.zeros(QQ, 2, 3)
    with pytest.raises(ValueError):
        a @ b


def test_image_rank_modulo():
    boundary = SparseMatrix.from_rows(QQ, [[1], [-1]])
    vectors = [{0: QQ.one, 1: QQ.from_int(-1)}, {0: QQ.one, 1: QQ.one}]
    assert linalg.image_rank_modulo(vectors, boundary, QQ, 2) == 1


def test_coordinate_text_round_trip():
    m = SparseMatrix.from_rows(QQ, [[1, 0], [0, -2]])
    text = m.to_coordinate_text()
    lines = text.strip().splitlines()
    assert lines[0] == "2 2"
    parsed = {}
    for line in lines[1:]:
        i, j, v = line.split()
        parsed[(int(i), int(j))] = QQ.from_fraction(v)
    assert parsed == m.entries
