import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology import chains, homology, linalg
from hyperhomology.chains import (
    ChainComplex,
    ambient_complex,
    delta_identity_check,
    face_table,
    inf_complex,
    sup_complex,
)
from hyperhomology.errors import InvariantViolation, ResourceCapError
from hyperhomology.fields import QQ, PrimeField
from hyperhomology.homology import betti
from hyperhomology.hypergraphs import delta_closure, hyperdigraph, hypergraph, lower_associated
from hyperhomology.linalg import SparseMatrix

from oracles import (
    dense_rank,
    largest_inside,
    permuted_closure,
    plain_image_echelons,
    simplicial_boundary_dense,
    smallest_containing,
    sparse_to_dense,
    typed,
)


def test_boundary_signs_on_a_pair():
    c = ambient_complex(hypergraph([[0, 1]]))
    assert c.labels[0] == ((0,), (1,))
    col = c.boundaries[1].columns()[0]
    assert col[1] == QQ.one  # +1 at {1} (drop position 0)
    assert col[0] == -QQ.one  # -1 at {0} (drop position 1)


def test_boundary_triangle_alternating():
    c = ambient_complex(hypergraph([[0, 1, 2]]))
    col = c.boundaries[2].columns()[0]
    by_label = {c.labels[1][i]: v for i, v in col.items()}
    assert by_label == {(1, 2): QQ.one, (0, 2): -QQ.one, (0, 1): QQ.one}


def test_boundary_squared_zero():
    c = ambient_complex(hypergraph([[0, 1, 2], [1, 2, 3]]))
    assert c._validated  # checked over Z while it was built
    # and again over the field, on an unvalidated copy
    ChainComplex(c.field, c.dims, c.boundaries, labels=c.labels).validate()
    product = c.boundaries[1] @ c.boundaries[2]
    assert product.is_zero()


@st.composite
def ambient_cases(draw):
    """(h, ambient_complex keywords, every cell of the ambient): the closure
    of a few edges, directed or not, or the full simplex on h's vertices up
    to a random degree; the cells are enumerated here from scratch."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        build = draw(st.sampled_from([hypergraph, hyperdigraph]))
        edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True)
        h = build(draw(st.lists(edge, max_size=4)), vertices=range(n))
        cells = {s for e in h.edges for k in range(1, len(e) + 1) for s in combinations(e, k)}
        return h, {"mode": "closure"}, cells
    max_degree = draw(st.integers(0, 4))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
    h = hypergraph(draw(st.lists(edge, max_size=4)), vertices=range(n))
    cells = {s for k in range(1, max_degree + 2) for s in combinations(range(n), k)}
    return h, {"mode": "full_simplex", "max_degree": max_degree}, cells


@settings(max_examples=200, deadline=None)
@given(ambient_cases(), st.sampled_from([QQ, PrimeField(7)]))
def test_ambient_matches_the_dense_simplicial_oracle(case, field):
    h, keywords, cells = case
    by_dim: dict[int, list] = {}
    for s in sorted(cells):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim, default=-1)
    c = ambient_complex(h, field=field, **keywords)
    assert c._validated
    assert c.labels == tuple(tuple(by_dim[n]) for n in range(top + 1))
    assert c.dims == tuple(len(by_dim[n]) for n in range(top + 1))
    p = getattr(field, "p", None)
    for n in range(1, top + 1):
        expected = simplicial_boundary_dense(by_dim, n)
        if p:
            expected = [[x % p for x in row] for row in expected]
        assert sparse_to_dense(c.boundaries[n]) == expected


def _faces_0_and_1_swapped(edge, i):
    i = {0: 1, 1: 0}.get(i, i)
    return edge[:i] + edge[i + 1 :]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(2)])
@pytest.mark.parametrize("mode", ["closure", "full_simplex", "inf", "sup"])
def test_broken_face_signs_fail_the_integer_check(monkeypatch, field, mode):
    # with faces 0 and 1 swapped, d d sends the triangle (0, 1, 2) to
    # 2(0) - 2(1): nonzero over Z, so over Z/2 too.  Inf and Sup, built with
    # no ambient, check d d e over Z on the one edge (0, 1, 2, 3) itself.
    monkeypatch.setattr(chains, "face", _faces_0_and_1_swapped)
    h = hypergraph([[0, 1, 2, 3]])
    with pytest.raises(InvariantViolation) as failure:
        if mode in ("inf", "sup"):
            (inf_complex if mode == "inf" else sup_complex)(h, field=field)
        else:
            ambient_complex(h, mode, field=field)
    if mode in ("inf", "sup"):
        expected = {"degree": 3, "chain": "(0, 1, 2, 3)", "row": 0}
    else:
        expected = {"degree": 2, "chain": "(0, 1, 2)", "row": 0}
    assert failure.value.certificate == expected


def _least_nonzero(lower, upper):
    """The least (row, column) at which the product of the columns is
    nonzero, from the dense matrices."""
    nrows = 1 + max((i for col in lower for i in col), default=0)
    left = sparse_to_dense(SparseMatrix.from_columns(QQ, nrows, lower))
    right = sparse_to_dense(SparseMatrix.from_columns(QQ, len(lower), upper))
    return min(
        (i, j)
        for i, row in enumerate(left)
        for j in range(len(upper))
        if sum(a * right[k][j] for k, a in enumerate(row))
    )


def test_a_flipped_sign_fails_with_the_least_nonzero_certificate():
    closure = ambient_complex(hypergraph([range(5)]), "closure")
    lower, upper = (b.columns() for b in closure.boundaries[2:4])
    for j, col in enumerate(upper):
        for k in col:
            flipped = [dict(c) for c in upper]
            flipped[j][k] = -col[k]
            with pytest.raises(InvariantViolation) as failure:
                chains._check_square_zero(2, lower, flipped, closure.labels)
            i, column = _least_nonzero(lower, flipped)
            expected = {"degree": 3, "chain": str(closure.labels[3][column]), "row": i}
            assert failure.value.certificate == expected


def test_entries_other_than_one_and_minus_one_are_summed():
    # column 1's products are +4 and -1 at row 3; read as one product of each
    # sign they would cancel.  Column 0's are +2 and -2, and cancel
    lower, upper = [{3: 2}, {3: -1}], [{0: 1, 1: 2}, {0: 2, 1: 1}]
    with pytest.raises(InvariantViolation) as failure:
        chains._check_square_zero(1, lower, upper, None)
    assert failure.value.certificate == {"degree": 2, "chain": "basis column 1", "row": 3}
    chains._check_square_zero(1, lower, upper[:1], None)
    # a column's products +2, -1 and +1 at row 3: its +1 and -1 alone would pass
    lower.append({3: 1})
    with pytest.raises(InvariantViolation) as failure:
        chains._check_square_zero(1, lower, [{0: 1, 1: 1, 2: 1}], None)
    assert failure.value.certificate == {"degree": 2, "chain": "basis column 0", "row": 3}
    # twice a closure's top boundary still squares to zero, over Z and mod 7
    closure = ambient_complex(hypergraph([range(4)]), "closure")
    lower, upper = (b.columns() for b in closure.boundaries[2:4])
    for p in (0, 7):
        chains._check_square_zero(2, lower, [{k: 2 * t for k, t in upper[0].items()}], None, p)


def test_prime_field_boundaries_hold_residues():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure", field=PrimeField(7))
    assert c._validated  # checked over Z while it was built
    assert set(c.boundaries[1].entries.values()) == {1, 6}
    assert (c.boundaries[1] @ c.boundaries[2]).is_zero()


def test_rational_field_boundaries_hold_ints():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure", field=QQ)
    assert c._validated  # checked over Z while it was built
    assert {type(v) for b in c.boundaries for v in b.entries.values()} == {int}
    assert set(c.boundaries[1].entries.values()) == {1, -1}


def test_boundary_missing_face_modes():
    # an ambient's boundary is taken as given, here a valid zero one with no
    # vertices, so both edges are cycles; with no ambient a missing face is added
    from hyperhomology.homology import betti

    h = hypergraph([[0, 1], [1, 2]])
    no_vertices = ChainComplex(
        QQ,
        (0, 2),
        (SparseMatrix.zeros(QQ, 0, 0), SparseMatrix.zeros(QQ, 0, 2)),
        labels=((), ((0, 1), (1, 2))),
    )
    for build in (inf_complex, sup_complex):
        embedded = build(h, ambient=no_vertices)
        assert embedded.dims == (0, 2)
        assert betti(embedded).betti == (0, 2)
    labels, span, boundary = chains._edge_chains(h, QQ, None)
    assert set(labels[0]) == {(0,), (1,), (2,)}
    assert span == [[], [0, 1]]
    assert all(len(boundary[1][j]) == 2 for j in span[1])


def test_an_ambient_without_labels_is_rejected():
    h = hypergraph([[0], [1]])
    unlabelled = ChainComplex(QQ, (2,), (SparseMatrix.zeros(QQ, 0, 2),))
    for build in (inf_complex, sup_complex):
        with pytest.raises(ValueError, match="the ambient has no labels"):
            build(h, ambient=unlabelled)


def test_ambient_complex_sizes():
    closure = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    assert closure.dims == (3, 3, 1)
    simplex = ambient_complex(
        hypergraph([[0, 1, 2]]), "full_simplex", max_degree=2
    )
    assert simplex.dims == (3, 3, 1)
    assert ambient_complex(hypergraph([], vertices=[0]), "closure").dims == ()


def test_full_simplex_cap(monkeypatch):
    h = hypergraph([], vertices=range(17))
    with pytest.raises(ResourceCapError, match="on 17 vertices exceeds the cap of 16"):
        ambient_complex(h, "full_simplex", max_degree=2)
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", "3")
    with pytest.raises(ResourceCapError) as raised:
        ambient_complex(hypergraph([[0, 1]], vertices=range(4)), "full_simplex")
    assert str(raised.value) == "full simplex on 4 vertices exceeds the cap of 3"
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", "17")
    assert ambient_complex(h, "full_simplex", max_degree=0).dims == (17,)


def test_closure_cap_applies_to_the_largest_edge(monkeypatch):
    def no_closure(h):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(chains, "delta_closure", no_closure)
    for h in (hypergraph([range(17), [20, 21]]), hyperdigraph([range(16, -1, -1)])):
        with pytest.raises(ResourceCapError):
            ambient_complex(h, "closure")
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", "3")
    with pytest.raises(ResourceCapError):
        ambient_complex(hypergraph([[0, 1, 2, 3]]), "closure")
    monkeypatch.setattr(chains, "delta_closure", delta_closure)
    assert ambient_complex(hypergraph([[0, 1, 2]]), "closure").dims == (3, 3, 1)


def test_library_calls_obey_the_simplex_cap_variable(monkeypatch):
    from hyperhomology.filtration import FiltrationStep, persistent_betti
    from hyperhomology.homology import four_term_sequence, quotient_pair_check

    tetra = hypergraph([[0, 1, 2, 3]])
    steps = [FiltrationStep(0, 2, 1, tetra)]
    assert ambient_complex(tetra).dims == (4, 6, 4, 1)
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", "3")
    closure = "^closure of a 4-vertex edge exceeds the cap of 3$"
    for call in (
        lambda: ambient_complex(tetra),
        lambda: four_term_sequence(tetra),
        lambda: persistent_betti(steps, [0]),
    ):
        with pytest.raises(ResourceCapError, match=closure):
            call()
    full = "^full simplex on 4 vertices exceeds the cap of 3$"
    for call in (lambda: ambient_complex(tetra, "full_simplex"), lambda: quotient_pair_check(tetra)):
        with pytest.raises(ResourceCapError, match=full):
            call()
    assert ambient_complex(hypergraph([[0, 1, 2]]), "full_simplex").dims == (3, 3, 1)


def test_an_ambient_below_the_top_edge_is_rejected():
    from hyperhomology.homology import betti, quotient_pair_check

    h = hypergraph([[0, 1], [1, 2], [0, 1, 2], [2, 3]])
    for max_degree in (0, 1):
        ambient = ambient_complex(h, "full_simplex", max_degree=max_degree)
        for build in (inf_complex, sup_complex):
            with pytest.raises(ValueError, match="is missing from the ambient basis"):
                build(h, ambient=ambient)
        # quotient-check's full simplex, never built, is refused the same way
        with pytest.raises(ValueError, match=f"^max_degree {max_degree} is below the top edge's degree 2$"):
            quotient_pair_check(h, max_degree=max_degree)
    ambient = ambient_complex(h, "full_simplex", max_degree=2)
    assert betti(inf_complex(h, ambient=ambient)).betti == (0, 0, 0)


def test_a_negative_max_degree_is_rejected():
    from hyperhomology.homology import quotient_pair_check

    h = hypergraph([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="max_degree must be non-negative, got -1"):
        ambient_complex(h, "full_simplex", max_degree=-1)
    with pytest.raises(ValueError, match="^max_degree must be non-negative, got -1$"):
        quotient_pair_check(h, max_degree=-1)


def test_inf_sup_example_dimensions():
    h = hypergraph([[0, 1], [1, 2], [0, 1, 2]])
    assert inf_complex(h).complex.dims == (0, 0, 0)
    assert sup_complex(h).complex.dims == (2, 3, 1)
    triangle = hypergraph([[0, 1], [1, 2], [0, 2]])
    assert inf_complex(triangle).complex.dims == (0, 1)
    assert sup_complex(triangle).complex.dims == (2, 3)
    simplex = delta_closure(hypergraph([[0, 1, 2]]))
    ambient = ambient_complex(simplex, "closure")
    assert inf_complex(simplex, ambient=ambient).complex.dims == ambient.dims
    assert sup_complex(simplex, ambient=ambient).complex.dims == ambient.dims


def test_inf_kernel_matches_dense_oracle():
    # degree-1 inf of the hollow triangle is the kernel of the boundary
    # restricted to the three edge columns: cross-check densely
    triangle = hypergraph([[0, 1], [1, 2], [0, 2]])
    ambient = ambient_complex(triangle, "closure")
    dense = sparse_to_dense(ambient.boundaries[1])
    kernel_dim = 3 - dense_rank(dense)
    assert inf_complex(triangle).complex.dims[1] == kernel_dim


def test_inf_sup_over_prime_field():
    gf = PrimeField(5)
    h = hypergraph([[0, 1], [1, 2], [0, 1, 2]])
    assert inf_complex(h, field=gf).complex.dims == (0, 0, 0)
    assert sup_complex(h, field=gf).complex.dims == (2, 3, 1)


def test_directed_complexes():
    d = hyperdigraph([(0, 1, 2), (2, 1)])
    ambient = ambient_complex(d, "closure")
    # closure: 3 vertices; pairs (0,1),(0,2),(1,2),(2,1); one triple
    assert ambient.dims == (3, 4, 1)
    ambient.validate()
    inf = inf_complex(d)
    sup = sup_complex(d)
    assert all(
        inf.complex.dims[n] <= sup.complex.dims[n] for n in range(len(inf.complex.dims))
    )


def test_delta_identity_check_unordered_and_directed():
    closed = delta_closure(hypergraph([[0, 1, 2, 3]]))
    assert delta_identity_check(face_table(closed))
    directed = delta_closure(hyperdigraph([(2, 0, 1, 3)]))
    assert delta_identity_check(face_table(directed))
    assert face_table(directed)[(2, 0, 1)] == ((0, 1), (2, 1), (2, 0))
    assert len(face_table(directed)) == 15 - 4  # every closure edge but the vertices


def test_delta_identity_detects_corruption():
    table = face_table(delta_closure(hypergraph([[0, 1, 2]])))
    faces = list(table[(0, 1, 2)])
    table[(0, 1, 2)] = tuple([faces[1]] + faces[1:])
    assert not delta_identity_check(table)


def test_delta_identity_rejects_malformed_table():
    table = face_table(delta_closure(hypergraph([[0, 1, 2]])))
    del table[(0, 1)]
    with pytest.raises(ValueError):
        delta_identity_check(table)


def test_inf_inside_span_inside_sup():
    import random

    from hyperhomology import linalg
    from hyperhomology.linalg import SparseMatrix
    from hyperhomology.suites import random_hypergraph

    rng = random.Random(11)
    for _ in range(15):
        h = random_hypergraph(rng, max_vertices=6, max_card=4)
        ambient = ambient_complex(h, "closure")
        inf = inf_complex(h, ambient=ambient)
        sup = sup_complex(h, ambient=ambient)
        index = [
            {e: k for k, e in enumerate(ambient.labels[n])}
            for n in range(ambient.top_degree + 1)
        ]
        for n in range(ambient.top_degree + 1):
            span = SparseMatrix.from_columns(
                QQ,
                ambient.dim(n),
                [{index[n][e]: QQ.one} for e in h.level(n + 1)],
            )
            assert linalg.columns_in_span(span, inf.embeddings[n])
            assert linalg.columns_in_span(sup.embeddings[n], span)


FIELDS = [QQ, PrimeField(2), PrimeField(7)]


def _assert_reference(field, dims, span, boundary, inf, sup):
    """inf and sup (embeddings, images[, echelons]) equal the references of
    ``oracles``: ``kernel_basis`` for Inf, the per-column echelon for Sup."""
    assert inf == largest_inside(field, dims, span, boundary)
    embeddings, images, echelons = smallest_containing(field, dims, span, boundary)
    assert sup[0] == embeddings and sup[1] == images
    assert [typed(e.rows) for e in sup[2]] == [typed(e.rows) for e in echelons]


@st.composite
def embedded_cases(draw):
    """(h, ambient mode or None): a few edges on at most 6 vertices, directed
    or not, with no ambient, or inside their closure or (undirected only) the
    full simplex on their vertices."""
    n = draw(st.integers(1, 6))
    build = draw(st.sampled_from([hypergraph, hyperdigraph]))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True)
    h = build(draw(st.lists(edge, min_size=1, max_size=7)), vertices=range(n))
    modes = [None, "closure"] + ([] if h.directed else ["full_simplex"])
    return h, draw(st.sampled_from(modes))


@settings(max_examples=200, deadline=None)
@given(embedded_cases(), st.sampled_from(FIELDS))
def test_one_elimination_gives_the_reference_inf_and_sup(case, field):
    # Inf and Sup read one tagged echelon per degree; built together or apart
    # they equal Inf by kernel_basis and Sup by its own per-column echelon
    h, mode = case
    ambient = ambient_complex(h, mode, field=field) if mode else None
    labels, span, boundary = chains._edge_chains(h, field, ambient)
    dims = [len(level) for level in labels]
    together = chains._inf_and_sup(h, field, ambient)
    apart = inf_complex(h, field, ambient), sup_complex(h, field, ambient)
    for inf, sup in (together, apart):
        assert inf.labels == sup.labels == labels
        sup_parts = sup.embeddings, sup.images, sup.span_echelons
        _assert_reference(field, dims, span, boundary, (inf.embeddings, inf.images), sup_parts)


@settings(max_examples=150, deadline=None)
@given(embedded_cases(), st.sampled_from([QQ, PrimeField(7)]), st.randoms(use_true_random=False))
def test_inf_span_echelons_are_its_kernel_rows_as_they_stand(case, field, rng):
    # Inf's span echelons, taken from its embedding columns with no
    # elimination, have the keys, rows and answers of an eliminated echelon
    h, mode = case
    ambient = ambient_complex(h, mode, field=field) if mode else None
    inf, sup = chains._inf_and_sup(h, field, ambient)
    for n, (embedding, echelon) in enumerate(zip(inf.embeddings, inf.span_echelons)):
        eliminated = linalg.Echelon(field, embedding.columns())
        assert echelon.rows.keys() == eliminated.rows.keys()
        assert typed(echelon.rows) == typed(eliminated.rows)
        columns, rows = embedding.columns(), range(embedding.nrows)
        units = [{i: field.one} for i in rows]
        spread = [{i: field.from_int(rng.randint(1, 3)) for i in rng.sample(rows, k)} for k in rows]
        combined = [
            linalg._nonzero({i: a.get(i, 0) + 2 * b.get(i, 0) for i in a | b}, field.characteristic)
            for a, b in zip(columns, columns[1:])
        ]
        probes = units + columns + sup.embeddings[n].columns() + spread + combined
        assert [echelon.contains(v) for v in probes] == [eliminated.contains(v) for v in probes]


@st.composite
def column_families(draw):
    """(field, dims, span, boundary): integer columns with entries up to 3
    over random basis positions, with no d d = 0, so Q pivots other than 1
    leave Fractions in the echelon rows."""
    field = draw(st.sampled_from(FIELDS))
    dims = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    span = [sorted(draw(st.sets(st.integers(0, d - 1)))) if d else [] for d in dims]
    entry = st.integers(-3, 3).map(field.from_int)
    boundary = [[{}] * dims[0]]
    for n in range(1, len(dims)):
        column = st.dictionaries(st.integers(0, dims[n - 1] - 1), entry) if dims[n - 1] else st.just({})
        columns = draw(st.lists(column, min_size=dims[n], max_size=dims[n]))
        boundary.append([{i: v for i, v in col.items() if v} for col in columns])
    return field, dims, span, boundary


@settings(max_examples=300, deadline=None)
@given(column_families())
@example((QQ, [2, 2], [[], [0, 1]], [[{}, {}], [{0: 1, 1: 2}, {0: 3, 1: 1}]]))  # rows of halves
def test_builders_match_the_references_on_any_columns(family):
    # the assemblers on columns with no d d = 0: the reference Inf images
    # still stay on span[n-1], as the kernel kills the part outside it, so
    # Inf's inside check passes and both sides equal the references
    field, dims, span, boundary = family
    _, images = largest_inside(field, dims, span, boundary)
    for n in range(1, len(span)):
        assert all(set(col) <= set(span[n - 1]) for col in images[n].columns())
    labels = tuple(tuple((k,) for k in range(d)) for d in dims)
    eliminated = list(chains._eliminated(field, span, boundary))
    inf = chains._inf(field, labels, span, boundary, eliminated)
    sup = chains._sup(field, labels, span, boundary, eliminated)
    sup_parts = sup.embeddings, sup.images, sup.span_echelons
    _assert_reference(field, dims, span, boundary, (inf.embeddings, inf.images), sup_parts)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("mode", [None, "closure"])
def test_inf_and_sup_add_each_edge_column_once(monkeypatch, field, mode):
    # one elimination per degree: one Echelon.add per degree-n edge column
    # with a face outside the degree-(n-1) edges, read by Inf and by Sup one
    # degree down (a column with none is its own kernel vector, set with no
    # add); Sup copies its rows with none
    h = hypergraph([[0], [1], [2], [3], [0, 1], [1, 2], [0, 2], [1, 3], [1, 2, 3], [0, 4], [0, 1, 2, 3]])
    ambient = ambient_complex(h, mode, field=field) if mode else None
    labels, span, boundary = chains._edge_chains(h, field, ambient)
    outside = [0] + [
        sum(not set(boundary[n][j]) <= set(span[n - 1]) for j in span[n]) for n in range(1, len(span))
    ]
    add, calls = linalg.Echelon.add, []
    monkeypatch.setattr(linalg.Echelon, "add", lambda self, v: calls.append(v) or add(self, v))
    chains._inf_and_sup(h, field, ambient)
    assert 0 < len(calls) == sum(outside) < sum(map(len, span))
    # apart, each builder runs the eliminations it reads and no other
    for build, read in ((inf_complex, outside), (sup_complex, outside[1:])):
        calls.clear()
        build(h, field, ambient)
        assert len(calls) == sum(read)
    eliminated = list(chains._eliminated(field, span, boundary))
    calls.clear()
    chains._sup(field, labels, span, boundary, eliminated)
    assert calls == []


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("mode", [None, "closure"])
def test_a_one_sided_builder_assembles_no_other_side(monkeypatch, field, mode):
    # the loop makes one echelon per degree it is read to, Sup's up to one
    # above the top; Sup adds one span echelon per degree and forms no image
    # product, and Inf builds no echelon but the loop's.  (0, 3) - (0, 2) is
    # an Inf vector with an image product
    h = hypergraph([[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3], [1, 3], [1, 2, 3]])
    ambient = ambient_complex(h, mode, field=field) if mode else None
    matmul, init, products, echelons = SparseMatrix.__matmul__, linalg.Echelon.__init__, [], []
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: products.append(b) or matmul(a, b))
    monkeypatch.setattr(linalg.Echelon, "__init__", lambda self, *a: echelons.append(self) or init(self, *a))
    sup = sup_complex(h, field, ambient)
    assert products == [] and len(echelons) == 2 * len(sup.labels) + 1
    echelons.clear()
    inf = inf_complex(h, field, ambient)
    assert products and len(echelons) == len(inf.labels)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_inf_multiplies_only_kernel_vectors_with_more_than_one_entry(monkeypatch, field):
    # a kernel vector with one entry is an edge with no face outside the edges
    # one degree down, and its image is that edge's boundary column, so the
    # product that forms Inf's images reads only the other kernel vectors.  In
    # a filled triangle without its vertex 0, (0, 3) - (0, 2) is not a unit
    h = hypergraph([[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]])
    matmul, multiplied = SparseMatrix.__matmul__, []
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: multiplied.extend(b.columns()) or matmul(a, b))
    inf = inf_complex(h, field)
    kernel = [col for embedding in inf.embeddings for col in embedding.columns()]
    assert all(len(col) > 1 for col in multiplied)
    assert 0 < len(multiplied) == sum(len(col) > 1 for col in kernel) < len(kernel)
    _, _, boundary = chains._edge_chains(h, field, None)
    for embedding, images, columns in zip(inf.embeddings, inf.images, boundary):
        units = [(min(col), k) for k, col in enumerate(embedding.columns()) if len(col) == 1]
        assert all(images.columns()[k] == columns[j] for j, k in units)


def test_the_four_term_lower_stage_calls_no_echelon_add(monkeypatch):
    # the lower stage is Inf of a deletion-closed set of edges, each with every
    # face among them: each edge column is its own kernel vector, set with no
    # elimination.  The second input is a punched closure of two tetrahedra
    closed = delta_closure(hypergraph([[0, 1, 2, 3], [2, 3, 4, 5]])).sorted_edges()
    punched = [e for k, e in enumerate(closed) if k % 5 != 2]
    add, calls, built, marks = linalg.Echelon.add, [], [], []
    monkeypatch.setattr(linalg.Echelon, "add", lambda self, v: calls.append(v) or add(self, v))

    def eliminated(*args):  # the lower stage's own loop, from its call to the end of _inf
        marks.append(len(calls))
        return chains._eliminated(*args)

    def inf(*args):
        built.append(chains._inf(*args))
        marks.append(len(calls))
        return built[-1]

    monkeypatch.setattr(homology, "_eliminated", eliminated)
    monkeypatch.setattr(homology, "_inf", inf)
    for h in (hypergraph([[0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2], [2, 3]]), hypergraph(punched)):
        for field in (QQ, PrimeField(7)):
            built.clear()
            marks.clear()
            homology.four_term_sequence(h, field)
            [lower], [before, after] = built, marks
            assert after == before and sum(lower.dims) == len(lower_associated(h).edges)


def _lower_stage(h, field, labels, span, boundary):
    """The four-term sequence's last stage: Inf of the span of the edges of
    the largest deletion-closed part of h, on the labels of h."""
    kept = lower_associated(h).edges
    lower_span = [[j for j in cols if labels[n][j] in kept] for n, cols in enumerate(span)]
    eliminated = chains._eliminated(field, lower_span, boundary)
    return chains._inf(field, labels, lower_span, boundary, eliminated)


@settings(max_examples=200, deadline=None)
@given(embedded_cases(), st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
# Inf's degree-1 vector (0, 3) - (0, 2) has its free column (0, 3) below the
# pivot column (0, 2) once the degree-1 labels are reversed
@example((hypergraph([[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]]), None), QQ)
def test_image_echelons_with_clearing_keep_the_plain_keys(case, field):
    # clearing skips image columns that depend on earlier ones, so each
    # degree's echelon spans the same space and has the same keys, for Inf,
    # Sup and the four-term lower stage; also in a closure whose degree-1
    # labels are reversed, where an Inf vector's largest index can be a pivot
    # column: each lead is 1 at its position, where no other lead is nonzero,
    # and Inf's leads are its whole basis
    h, mode = case
    for ambient in (ambient_complex(h, mode, field=field) if mode else None, permuted_closure(h, field)):
        labels, span, boundary = chains._edge_chains(h, field, ambient)
        inf, sup = chains._around_span(field, labels, span, boundary)
        lower = _lower_stage(h, field, labels, span, boundary)
        for embedded in (inf, sup, lower):
            plain = plain_image_echelons(embedded)
            assert [sorted(e.rows) for e in embedded.image_echelons] == [sorted(e.rows) for e in plain]
            for leads, basis in zip(embedded.leads, embedded.embeddings):
                columns = basis.columns()
                for p, k in leads.items():
                    assert columns[k][p] == field.one
                    assert [j for j in leads.values() if p in columns[j]] == [k]
                assert embedded is sup or len(leads) == basis.ncols


def test_inf_image_echelons_add_no_image_that_clearing_fixes(monkeypatch):
    # degree n of Inf adds at most dim Inf_n - rank B_n(Inf) images: every row
    # of B_n(Inf) is keyed at an Inf vector's free column, whose image is then
    # skipped.  In a filled triangle without its vertex 0, Inf's degree-1
    # basis starts with (0, 3) - (0, 2), not with a unit; the second input is
    # a punched closure of two tetrahedra sharing an edge
    closed = delta_closure(hypergraph([[0, 1, 2, 3], [2, 3, 4, 5]])).sorted_edges()
    punched = [e for k, e in enumerate(closed) if k % 5 != 2]
    for h in (hypergraph([[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]]), hypergraph(punched)):
        inf = inf_complex(h)
        add, calls = linalg.Echelon.add, []
        monkeypatch.setattr(linalg.Echelon, "add", lambda self, v: calls.append(self) or add(self, v))
        echelons = inf.image_echelons
        monkeypatch.setattr(linalg.Echelon, "add", add)
        ranks = [e.dimension for e in echelons[1:]] + [0]
        adds = [sum(c is e for c in calls) for e in echelons]
        bounds = [d - r for d, r in zip(inf.dims, ranks)]
        assert all(a <= b for a, b in zip(adds, bounds)) and sum(ranks) > 0, (adds, bounds)


def test_clearing_tests_the_support_of_a_row_inside_an_ambient():
    # in the closure, degree 1 is (0, 1), (0, 2), (1, 2): the row of the
    # image of the triangle is keyed at the edge (1, 2) but also meets the
    # non-edges (0, 1) and (0, 2), so the image of (1, 2) is no combination
    # of earlier images and must not be skipped
    h = hypergraph([[1, 2], [0, 1, 2]])
    ambient = ambient_complex(h, "closure")
    sup = sup_complex(h, ambient=ambient)
    assert sorted(sup.image_echelons[2].rows) == [2]
    assert [e.dimension for e in sup.image_echelons] == [0, 1, 1]
    assert betti(sup).betti == betti(sup_complex(h)).betti == (0, 0, 0)
    # on local labels the edges come first, so the same row is keyed at a face
    assert sorted(sup_complex(h).image_echelons[2].rows) == [2]
    assert sup_complex(h).labels[1] == ((1, 2), (0, 2), (0, 1))


@st.composite
def closure_cases(draw):
    """Unordered hypergraphs on up to 8 vertices, some isolated, with up to
    12 edges: graphs, whose nerves often outgrow their closures, or edges
    of up to 5 vertices."""
    n = draw(st.integers(1, 8))
    size = draw(st.sampled_from([2, 5]))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, size), unique=True)
    return hypergraph(draw(st.lists(edge, max_size=12)), vertices=range(n))


CYCLE_12 = hypergraph([[k, (k + 1) % 12] for k in range(12)])
K_8 = hypergraph(combinations(range(8), 2))


def test_closure_homology_from_the_nerve_matches_the_closure(monkeypatch):
    fallbacks, build = [], chains.ambient_complex

    def counted(h, *args, **kwargs):
        fallbacks.append(h.edges)
        return build(h, *args, **kwargs)

    monkeypatch.setattr(chains, "ambient_complex", counted)

    @settings(max_examples=150, deadline=None)
    @given(closure_cases(), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    @example(hypergraph([]), QQ)
    @example(hypergraph([[0, 1], [1, 2], [2]], vertices=range(6)), PrimeField(2))  # isolated
    @example(CYCLE_12, QQ)
    @example(hypergraph(combinations(range(5), 2)), PrimeField(3))  # K_5
    @example(K_8, QQ)
    @example(hypergraph([range(16)]), QQ)
    @example(hypergraph(combinations(range(4), 3)), PrimeField(2))  # a hollow tetrahedron
    def check(h, field):
        closure = build(h, "closure", field=field)
        assert chains._closure_homology(h, field) == (closure.dims, betti(closure).betti)

    check()
    assert fallbacks


def test_the_nerve_falls_back_only_when_it_outgrows_the_closure(monkeypatch):
    calls, build = [], chains.ambient_complex

    def counted(h, *args, **kwargs):
        calls.append(h)
        return build(h, *args, **kwargs)

    monkeypatch.setattr(chains, "ambient_complex", counted)
    # C_12: 24 nerve simplices against a bound of 36; one 16-vertex edge: one
    assert chains._closure_homology(CYCLE_12, QQ) == ((12, 12), (1, 1))
    edge = chains._closure_homology(hypergraph([range(16)]), PrimeField(2))
    assert edge == (tuple(math.comb(16, k + 1) for k in range(16)), (1,) + (0,) * 15)
    assert calls == []
    # K_8: 988 nerve simplices against a bound of 84; directed input always
    assert chains._closure_homology(K_8, QQ) == ((8, 28), (1, 21))
    directed = hyperdigraph([[0, 1], [1, 0], [2, 0, 1]])
    assert chains._closure_homology(directed, QQ) == ((3, 4, 1), (1, 1, 0))
    assert calls == [K_8, directed]
