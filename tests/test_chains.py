from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology import chains
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
from hyperhomology.hypergraphs import delta_closure, hyperdigraph, hypergraph
from hyperhomology.linalg import SparseMatrix

from oracles import dense_rank, simplicial_boundary_dense, sparse_to_dense


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
    # a face missing from an ambient is an error; with no ambient it is added
    h = hypergraph([[0, 1], [1, 2]])
    no_vertices = ChainComplex(
        QQ,
        (0, 2),
        (SparseMatrix.zeros(QQ, 0, 0), SparseMatrix.zeros(QQ, 0, 2)),
        labels=((), ((0, 1), (1, 2))),
    )
    for build in (inf_complex, sup_complex):
        with pytest.raises(ValueError, match="face"):
            build(h, ambient=no_vertices)
    labels, span, boundary = chains._edge_chains(h, QQ, None)
    assert set(labels[0]) == {(0,), (1,), (2,)}
    assert span == [[], [0, 1]]
    assert all(len(boundary[1][j]) == 2 for j in span[1])


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
    from hyperhomology.homology import four_term_sequence

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
    with pytest.raises(ResourceCapError, match="^full simplex on 4 vertices exceeds the cap of 3$"):
        ambient_complex(tetra, "full_simplex")
    assert ambient_complex(hypergraph([[0, 1, 2]]), "full_simplex").dims == (3, 3, 1)


def test_an_ambient_below_the_top_edge_is_rejected():
    from hyperhomology.homology import betti

    h = hypergraph([[0, 1], [1, 2], [0, 1, 2], [2, 3]])
    for max_degree in (0, 1):
        ambient = ambient_complex(h, "full_simplex", max_degree=max_degree)
        for build in (inf_complex, sup_complex):
            with pytest.raises(ValueError, match="is missing from the ambient basis"):
                build(h, ambient=ambient)
    ambient = ambient_complex(h, "full_simplex", max_degree=2)
    assert betti(inf_complex(h, ambient=ambient)).betti == (0, 0, 0)


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
