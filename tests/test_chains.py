import pytest

from hyperhomology import chains
from hyperhomology.chains import (
    GradedBasis,
    ambient_complex,
    boundary_matrix,
    chain_complex_from_basis,
    closure_basis,
    delta_identity_check,
    face_table,
    full_simplex_basis,
    inf_complex,
    sup_complex,
)
from hyperhomology.errors import InvariantViolation, ResourceCapError
from hyperhomology.fields import QQ, PrimeField
from hyperhomology.hypergraphs import delta_closure, hyperdigraph, hypergraph

from oracles import dense_rank, sparse_to_dense


def test_boundary_signs_on_a_pair():
    basis = closure_basis(hypergraph([[0, 1]]))
    matrix, codomain = boundary_matrix(basis, 1)
    assert codomain == ((0,), (1,))
    col = matrix.columns()[0]
    assert col[1] == QQ.one  # +1 at {1} (drop position 0)
    assert col[0] == -QQ.one  # -1 at {0} (drop position 1)


def test_boundary_triangle_alternating():
    basis = closure_basis(hypergraph([[0, 1, 2]]))
    matrix, codomain = boundary_matrix(basis, 2)
    col = matrix.columns()[0]
    by_label = {codomain[i]: v for i, v in col.items()}
    assert by_label == {(1, 2): QQ.one, (0, 2): -QQ.one, (0, 1): QQ.one}


def test_boundary_squared_zero():
    basis = closure_basis(hypergraph([[0, 1, 2], [1, 2, 3]]))
    c = chain_complex_from_basis(basis)
    c.validate()
    product = c.boundaries[1] @ c.boundaries[2]
    assert product.is_zero()


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
    basis = GradedBasis(((), ((0, 1), (1, 2))), directed=False)  # no vertices present
    with pytest.raises(ValueError):
        boundary_matrix(basis, 1, missing="error")
    matrix, codomain = boundary_matrix(basis, 1, missing="extend")
    assert set(codomain) == {(0,), (1,), (2,)}
    assert matrix.shape == (3, 2)


def test_ambient_complex_sizes():
    closure = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    assert closure.dims == (3, 3, 1)
    simplex = ambient_complex(
        hypergraph([[0, 1, 2]]), "full_simplex", max_degree=2
    )
    assert simplex.dims == (3, 3, 1)
    assert ambient_complex(hypergraph([], vertices=[0]), "closure").dims == ()


def test_full_simplex_cap():
    with pytest.raises(ResourceCapError):
        full_simplex_basis(range(17), 2)


def test_closure_cap_applies_to_the_largest_edge(monkeypatch):
    def no_closure(h):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(chains, "closure_basis", no_closure)
    for h in (hypergraph([range(17), [20, 21]]), hyperdigraph([range(16, -1, -1)])):
        with pytest.raises(ResourceCapError):
            ambient_complex(h, "closure")
    with pytest.raises(ResourceCapError):
        ambient_complex(hypergraph([[0, 1, 2, 3]]), "closure", cap=3)
    monkeypatch.undo()
    assert ambient_complex(hypergraph([[0, 1, 2]]), "closure", cap=3).dims == (3, 3, 1)


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
    basis = closure_basis(hypergraph([[0, 1, 2, 3]]))
    assert delta_identity_check(face_table(basis))
    directed = closure_basis(hyperdigraph([(2, 0, 1, 3)]))
    assert delta_identity_check(face_table(directed))


def test_delta_identity_detects_corruption():
    basis = closure_basis(hypergraph([[0, 1, 2]]))
    table = face_table(basis)
    faces = list(table[(0, 1, 2)])
    table[(0, 1, 2)] = tuple([faces[1]] + faces[1:])
    assert not delta_identity_check(table)


def test_delta_identity_rejects_malformed_table():
    basis = closure_basis(hypergraph([[0, 1, 2]]))
    table = face_table(basis)
    del table[(0, 1)]
    with pytest.raises(ValueError):
        delta_identity_check(table)


def test_full_simplex_mode_requires_cover():
    with pytest.raises(ValueError):
        ambient_complex(hypergraph([[0, 9]]), "full_simplex", vertices=[0, 1])


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
