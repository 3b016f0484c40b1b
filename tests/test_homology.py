import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology import chains, homology, linalg, suites
from hyperhomology.cli import main
from hyperhomology.chains import ChainComplex, ambient_complex, inf_complex, sup_complex
from hyperhomology.errors import InvariantViolation
from hyperhomology.fields import QQ, PrimeField
from hyperhomology.homology import (
    betti,
    four_term_sequence,
    hodge_laplacian,
    induced_homology_rank,
    invariant_dimension,
    quotient_complex,
    quotient_pair_check,
    sigma_action,
    verify_quasi_iso_theta,
)
from hyperhomology.hypergraphs import (
    delta_closure,
    hyperdigraph,
    hypergraph,
    lift,
    lower_associated,
)
from hyperhomology.linalg import SparseMatrix
from hyperhomology.suites import random_hyperdigraph, random_hypergraph

from oracles import (
    closure_embedded,
    dense_rank,
    fixed_subspace_dimension,
    four_term_by_cochain_quotients,
    quotient_coordinates,
    quotient_map_surjective,
    quotient_representatives,
    simplicial_betti,
    sparse_to_dense,
)

HOLLOW = hypergraph([[0], [1], [2], [0, 1], [1, 2], [0, 2]])
MIXED = hypergraph([[0, 1], [1, 2], [0, 1, 2]])


def test_betti_full_simplex():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    assert betti(c).betti == (1, 0, 0)


def test_betti_circle_from_inf():
    assert betti(inf_complex(HOLLOW)).betti == (1, 1)
    assert betti(sup_complex(HOLLOW)).betti == (1, 1)


def test_betti_empty_complex():
    c = ambient_complex(hypergraph([], vertices=[0]), "closure")
    assert betti(c).betti == ()


def test_empty_hypergraph_through_all_builders():
    empty = hypergraph([], vertices=[0, 1])
    assert betti(inf_complex(empty)).betti == ()
    assert betti(sup_complex(empty)).betti == ()
    assert verify_quasi_iso_theta(empty).is_iso
    ambient = ambient_complex(empty, "closure")
    q = quotient_complex(ambient, ())
    assert q.complex.dims == ()


def test_betti_rejects_broken_complex():
    good = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    tampered = good.boundaries[2] + SparseMatrix(
        QQ, good.dims[1], good.dims[2], {(0, 0): QQ.one}
    )
    from hyperhomology.chains import ChainComplex

    broken = ChainComplex(QQ, good.dims, (good.boundaries[0], good.boundaries[1], tampered))
    with pytest.raises(InvariantViolation):
        betti(broken)


def test_failed_validation_is_never_remembered():
    from hyperhomology.chains import ChainComplex

    good = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    tampered = good.boundaries[2] + SparseMatrix(
        QQ, good.dims[1], good.dims[2], {(0, 0): QQ.one}
    )
    broken = ChainComplex(QQ, good.dims, (good.boundaries[0], good.boundaries[1], tampered))
    for _ in range(3):
        with pytest.raises(InvariantViolation):
            broken.validate()
        with pytest.raises(InvariantViolation):
            betti(broken)
    good.validate()  # a passed check is remembered without changing equality
    assert good == ChainComplex(QQ, good.dims, good.boundaries, good.labels)


def test_betti_representatives_are_cycles():
    summary = betti(inf_complex(HOLLOW), representatives=True)
    reps = summary.cycle_representatives[1]
    assert reps.ncols >= summary.betti[1]


def test_quasi_iso_examples():
    report = verify_quasi_iso_theta(MIXED)
    assert report.betti_inf == report.betti_sup == (0, 0, 0)
    assert report.is_iso
    report = verify_quasi_iso_theta(HOLLOW)
    assert report.betti_inf == (1, 1)
    assert report.induced_ranks == (1, 1)
    assert report.is_iso
    simplex = delta_closure(hypergraph([[0, 1, 2, 3]]))
    assert verify_quasi_iso_theta(simplex).is_iso


def test_quasi_iso_on_hyperdigraphs():
    d = hyperdigraph([(0, 1), (1, 0), (0, 1, 2)])
    report = verify_quasi_iso_theta(d)
    assert report.betti_inf == report.betti_sup
    assert report.is_iso


def test_quasi_iso_builds_no_closure(monkeypatch):
    def no_closure(h):
        raise AssertionError("the closure ambient was built")

    monkeypatch.setattr(chains, "delta_closure", no_closure)
    for h in (MIXED, HOLLOW, hyperdigraph([(0, 1), (1, 0), (0, 1, 2)])):
        assert verify_quasi_iso_theta(h).is_iso
    # one 30-vertex edge: 2^30 - 1 closure cells, none of them built
    report = verify_quasi_iso_theta(hypergraph([range(30)]))
    assert report.is_iso and report.betti_inf == (0,) * 30


def test_inf_and_sup_share_one_edge_chain_build(monkeypatch, tmp_path, capsys):
    calls, build = [], chains._edge_chains

    def counted(h, field, ambient):
        calls.append(ambient is None)
        return build(h, field, ambient)

    monkeypatch.setattr(chains, "_edge_chains", counted)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": sorted(MIXED.edges)}))
    assert main(["quasi-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["inf_sup_iso"]
    assert calls == [True]
    # quotient-check: one build for the full-simplex ambient, one for Inf and Sup
    calls.clear()
    assert main(["quotient-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["betti_equal"]
    assert calls == [True, False]
    # four-term: one build for the closure ambient, one for Inf and Sup; the
    # last stage (empty here: MIXED has no vertex) is read off the closure
    calls.clear()
    assert main(["four-term", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["stage_dims"][3] == results["stage_betti"][3] == [0, 0, 0]
    assert calls == [True, True]


def test_structural_suite_builds_inf_and_sup_together(monkeypatch):
    calls, build = [], chains._edge_chains

    def counted(h, field, ambient):
        calls.append(ambient is None)
        return build(h, field, ambient)

    monkeypatch.setattr(chains, "_edge_chains", counted)
    result = suites.structural_suite(3, fuzz_elements=0)
    assert result.passed and result.checks == 15
    # per instance: the closure and full-simplex ambients, then Inf and Sup
    # from one build in each of them
    assert calls == [True, True, False, False] * result.checks


@st.composite
def punched_closures(draw):
    """The deletion closure of a few edges, directed or not, on at most 7
    vertices, with an arbitrary subset of its edges removed."""
    n = draw(st.integers(1, 7))
    build = draw(st.sampled_from([hypergraph, hyperdigraph]))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5), unique=True)
    closed = delta_closure(build(draw(st.lists(edge, min_size=1, max_size=3)))).sorted_edges()
    keep = draw(st.lists(st.booleans(), min_size=len(closed), max_size=len(closed)))
    return build([e for e, k in zip(closed, keep) if k], vertices=range(n))


@settings(max_examples=200, deadline=None)
@given(punched_closures(), st.sampled_from([QQ, PrimeField(7)]))
def test_local_inf_sup_match_the_closure_oracle(h, field):
    local = {"inf": inf_complex(h, field=field), "sup": sup_complex(h, field=field)}
    oracle = {kind: closure_embedded(h, kind, field) for kind in local}
    for kind in local:
        assert local[kind].complex.dims == oracle[kind].complex.dims
        assert local[kind].complex.boundaries == oracle[kind].complex.boundaries
        assert betti(local[kind]).betti == betti(oracle[kind]).betti
    degrees = range(h.max_cardinality())
    assert [induced_homology_rank(local["inf"], local["sup"], n) for n in degrees] == [
        induced_homology_rank(oracle["inf"], oracle["sup"], n) for n in degrees
    ]


def test_local_coordinates_are_edges_then_faces():
    # degree n: the degree-n edges, then the new faces of the degree-(n+1)
    # edges in the order the boundary meets them
    assert inf_complex(MIXED).labels == (
        ((1,), (0,), (2,)),
        ((0, 1), (1, 2), (0, 2)),
        ((0, 1, 2),),
    )
    assert sup_complex(MIXED).labels == inf_complex(MIXED).labels
    ambient = ambient_complex(MIXED, "closure")
    assert inf_complex(MIXED, ambient=ambient).labels == ambient.labels
    with pytest.raises(ValueError):
        induced_homology_rank(inf_complex(MIXED), sup_complex(MIXED, ambient=ambient), 1)


def test_quotient_by_zero_is_identity():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    zeros = tuple(SparseMatrix.zeros(QQ, c.dim(n), 0) for n in range(c.top_degree + 1))
    q = quotient_complex(c, zeros)
    assert q.complex.dims == c.dims
    assert all(q.complex.boundaries[n] == c.boundaries[n] for n in range(1, 3))


def test_quotient_dimension_example():
    # full simplex on {0,1,2} modulo the sup complex of a single edge
    h = hypergraph([[0, 1]], vertices=[0, 1, 2])
    ambient = ambient_complex(h, "full_simplex", max_degree=2)
    sup = sup_complex(h, ambient=ambient)
    q = quotient_complex(ambient, sup.embeddings)
    assert q.complex.dims == (2, 2, 1)  # degree-1 dimension 3 - 1 = 2
    q.complex.validate()


@st.composite
def full_simplex_instances(draw, fields=(QQ,)):
    n_vertices = draw(st.integers(1, 6))
    edge = st.sets(st.integers(0, n_vertices - 1), min_size=1, max_size=4)
    edges = draw(st.lists(edge, max_size=8))
    h = hypergraph(edges, vertices=range(n_vertices))
    max_degree = draw(st.integers(max(h.max_cardinality() - 1, 0), 3))
    field = draw(st.sampled_from(fields))
    return h, ambient_complex(h, "full_simplex", max_degree=max_degree, field=field)


def dense_columns(matrix):
    dense = sparse_to_dense(matrix)
    return [[row[j] for row in dense] for j in range(matrix.ncols)]


@settings(max_examples=40, deadline=None)
@given(full_simplex_instances())
def test_quotient_matches_dense_oracle(instance):
    h, ambient = instance
    for side in (sup_complex, inf_complex):
        embeddings = side(h, ambient=ambient).embeddings
        q = quotient_complex(ambient, embeddings)
        sub = [dense_columns(m) for m in embeddings]
        reps = tuple(
            quotient_representatives(sub[n], ambient.dim(n))
            for n in range(ambient.top_degree + 1)
        )
        assert q.representatives == reps
        for n in range(1, ambient.top_degree + 1):
            images = dense_columns(ambient.boundaries[n])
            expected = [
                quotient_coordinates(sub[n - 1], reps[n - 1], images[j])
                for j in reps[n]
            ]
            assert dense_columns(q.complex.boundaries[n]) == expected


def dense_betti(c: ChainComplex) -> tuple[int, ...]:
    """Betti numbers of a chain complex from dense ranks of its boundaries."""
    p = c.field.characteristic
    ranks = [
        dense_rank([[col.get(i, 0) for col in b.columns()] for i in range(b.nrows)], p)
        for b in c.boundaries
    ] + [0]
    return tuple(d - ranks[n] - ranks[n + 1] for n, d in enumerate(c.dims))


@settings(max_examples=60, deadline=None)
@given(full_simplex_instances((QQ, PrimeField(2), PrimeField(7))))
def test_quotient_pair_check_matches_the_quotient_complexes(instance):
    h, ambient = instance
    report = quotient_pair_check(h, ambient, field=ambient.field)
    by_inf = quotient_complex(ambient, inf_complex(h, ambient.field, ambient).embeddings)
    by_sup = quotient_complex(ambient, sup_complex(h, ambient.field, ambient).embeddings)
    assert report.betti_by_sup == dense_betti(by_sup.complex)
    assert report.betti_by_inf == dense_betti(by_inf.complex)
    assert report.q_surjective == quotient_map_surjective(by_inf, by_sup)


def test_quotient_rejects_non_subcomplex():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    bad = [
        SparseMatrix.zeros(QQ, c.dim(0), 0),
        SparseMatrix.zeros(QQ, c.dim(1), 0),
        SparseMatrix.from_columns(QQ, c.dim(2), [{0: QQ.one}]),  # span{012}, not closed
    ]
    with pytest.raises(ValueError):
        quotient_complex(c, bad)


def test_quotient_pair_equal_homology():
    ambient = ambient_complex(MIXED, "full_simplex", max_degree=2)
    report = quotient_pair_check(MIXED, ambient)
    assert report.betti_equal
    assert report.q_surjective


def test_quotient_map_direction():
    ambient = ambient_complex(MIXED, "full_simplex", max_degree=2)
    inf = inf_complex(MIXED, ambient=ambient)
    sup = sup_complex(MIXED, ambient=ambient)
    by_inf = quotient_complex(ambient, inf.embeddings)
    by_sup = quotient_complex(ambient, sup.embeddings)
    assert quotient_map_surjective(by_inf, by_sup)
    assert quotient_pair_check(MIXED, ambient).q_surjective


def test_four_term_simplicial_identity():
    simplex = delta_closure(hypergraph([[0, 1, 2]]))
    report = four_term_sequence(simplex)
    assert report.all_identity
    assert len(set(report.stage_dims)) == 1


def test_four_term_mixed():
    report = four_term_sequence(MIXED)
    assert not report.all_identity
    assert all(report.surjective)
    assert report.stage_dims[0] == (3, 3, 1)
    assert report.stage_dims[3] == (0, 0, 0)
    # middle-stage homology equals the embedded homology of the two sides
    assert report.stage_betti[1] == betti(sup_complex(MIXED)).betti
    assert report.stage_betti[2] == betti(inf_complex(MIXED)).betti


def test_four_term_empty():
    report = four_term_sequence(hypergraph([], vertices=[1]))
    assert report.all_identity


def test_four_term_middle_stages_match_embedded_homology_randomized():
    rng = random.Random(99)
    instances = [random_hypergraph(rng, max_vertices=5, max_card=4) for _ in range(10)]
    instances += [random_hyperdigraph(rng, max_vertices=4, max_card=4) for _ in range(10)]
    for h in instances:
        report = four_term_sequence(h)
        b_sup = betti(sup_complex(h)).betti
        b_inf = betti(inf_complex(h)).betti
        # the last stage is the homology of the largest deletion-closed part
        b_lower = simplicial_betti(lower_associated(h).edges)
        top = len(report.stage_betti[0])
        assert report.stage_betti[1] == b_sup + (0,) * (top - len(b_sup))
        assert report.stage_betti[2] == b_inf + (0,) * (top - len(b_inf))
        assert report.stage_betti[3] == b_lower + (0,) * (top - len(b_lower))


@st.composite
def small_edge_sets(draw):
    """A few edges on at most 6 vertices, directed or not, possibly none."""
    n = draw(st.integers(1, 6))
    build = draw(st.sampled_from([hypergraph, hyperdigraph]))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5), unique=True)
    return build(draw(st.lists(edge, max_size=7)), vertices=range(n))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_edge_sets(), punched_closures()),
    st.sampled_from([QQ, PrimeField(7)]),
)
def test_four_term_matches_the_cochain_quotient_oracle(h, field):
    assert four_term_sequence(h, field=field).as_dict() == four_term_by_cochain_quotients(h, field)


def test_cli_four_term_builds_no_quotient(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("four-term built a quotient complex")

    monkeypatch.setattr(homology, "quotient_complex", refuse)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": sorted(MIXED.edges)}))
    assert main(["four-term", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["surjective"] == [True, True, True]
    assert results["stage_dims"] == [[3, 3, 1], [2, 3, 1], [0, 0, 0], [0, 0, 0]]


def test_cli_quotient_check_builds_no_quotient(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("quotient-check built a quotient complex")

    monkeypatch.setattr(homology, "quotient_complex", refuse)
    monkeypatch.setattr(homology, "QuotientComplex", refuse)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": sorted(MIXED.edges)}))
    assert main(["quotient-check", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["betti_ambient_mod_sup"] == results["betti_ambient_mod_inf"] == [1, 0, 0]
    assert results["q_surjective"]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_edge_sets(), punched_closures()),
    st.sampled_from([QQ, PrimeField(7), PrimeField(2)]),
    st.sampled_from(["inf", "sup"]),
)
def test_betti_through_the_images_matches_the_restriction(h, field, kind):
    embedded = (inf_complex if kind == "inf" else sup_complex)(h, field=field)
    fast = betti(embedded, representatives=True)
    assert "complex" not in vars(embedded)  # the restriction was not solved for
    restricted = betti(embedded.complex, representatives=True)
    assert fast.betti == restricted.betti == betti(closure_embedded(h, kind, field)).betti
    for n, reps in enumerate(fast.cycle_representatives):
        embedding = embedded.embeddings[n]
        assert embedding @ reps == embedding @ restricted.cycle_representatives[n]


def test_cli_inf_sup_reports_solve_no_restriction(monkeypatch, tmp_path, capsys):
    # the boundary images of Inf and Sup carry their ranks and cycles: no
    # report without --dump-matrices solves for internal boundaries, and
    # quasi-check and homology --kind inf|sup validate no ChainComplex
    path = tmp_path / "h.json"
    edges = [[0], [1], [2], [0, 1], [1, 2], [0, 2], [2, 3], [0, 1, 2], [1, 2, 3]]
    path.write_text(json.dumps({"vertices": [0, 1, 2, 3], "edges": edges}))
    commands = [["quasi-check"], ["homology", "--kind", "inf"], ["homology", "--kind", "sup"]]

    def payloads(argvs):
        out = []
        for argv in argvs:
            for field in ("Q", "7", "2"):
                assert main(argv + [str(path), "--field", field]) == 0
                report = json.loads(capsys.readouterr().out)
                report.pop("timing_seconds")
                out.append(report)
        return out

    expected = payloads(commands + [["four-term"]])

    def refuse(*args, **kwargs):
        raise AssertionError("an internal boundary was solved for or validated")

    monkeypatch.setattr(linalg, "solve_matrix", refuse)
    assert payloads(commands + [["four-term"]]) == expected
    monkeypatch.setattr(ChainComplex, "validate", refuse)
    assert payloads(commands) == expected[: 3 * len(commands)]


def test_an_inf_image_outside_the_edges_fails_the_check(monkeypatch, tmp_path, capsys):
    # a triangle of sides plus an edge (3, 4) without its vertices: Inf has
    # the triangle's cycle in degree 1, with image zero; the mutation moves
    # that image onto a vertex of (3, 4), which is not an edge
    build = chains.largest_inside

    def leaky(field, dims, span, boundary):
        embeddings, images = build(field, dims, span, boundary)
        images = list(images)
        outside = min(set(range(dims[0])) - set(span[0]))
        columns = [{**col, outside: field.one} for col in images[1].columns()]
        images[1] = SparseMatrix.from_columns(field, dims[0], columns)
        return embeddings, tuple(images)

    monkeypatch.setattr(chains, "largest_inside", leaky)
    path = tmp_path / "h.json"
    edges = [[0], [1], [2], [0, 1], [1, 2], [0, 2], [3, 4]]
    path.write_text(json.dumps({"vertices": [0, 1, 2, 3, 4], "edges": edges}))
    assert main(["quasi-check", str(path)]) == 4
    assert "boundary does not stay inside the subcomplex at degree 1" in capsys.readouterr().err


def test_hodge_laplacian_examples():
    simplex = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    _, harmonic = hodge_laplacian(simplex, 0)
    assert harmonic == 1
    inf = inf_complex(HOLLOW)
    _, harmonic = hodge_laplacian(inf.complex, 1)
    assert harmonic == 1
    matrix, harmonic = hodge_laplacian(simplex, 5)
    assert matrix.shape == (0, 0)
    assert harmonic == 0


def test_hodge_laplacian_requires_rationals():
    c = ambient_complex(hypergraph([[0, 1]]), "closure", field=PrimeField(3))
    with pytest.raises(ValueError):
        hodge_laplacian(c, 0)


def test_betti_over_prime_field():
    c = ambient_complex(hypergraph([[0, 1, 2]]), "closure", field=PrimeField(7))
    assert betti(c).betti == (1, 0, 0)
    assert betti(c).field_name == "Z7"


def test_sigma_action():
    assert sigma_action((0, 1), (1, 0)) == (1, 0)
    assert sigma_action((5, 7, 9), (1, 2, 0)) == (9, 5, 7)
    chain = {(0, 1): 2, (1, 0): 3}
    swapped = sigma_action(chain, (1, 0))
    assert swapped == {(1, 0): 2, (0, 1): 3}
    with pytest.raises(ValueError):
        sigma_action((0, 1), (0, 0))


def test_invariant_dimension_examples():
    assert invariant_dimension(lift(hypergraph([[0, 1]])), 2) == 1
    complete = hypergraph([[0, 1], [0, 2], [1, 2]])
    assert invariant_dimension(lift(complete), 2) == 3
    with pytest.raises(ValueError):
        invariant_dimension(hyperdigraph([(0, 1)]), 2)


def test_invariant_dimension_against_fixed_subspace_oracle():
    h = hypergraph([[0, 1], [1, 2, 3]])
    up = lift(h)
    for n in (2, 3):
        edges = sorted(up.level(n))
        generators = []
        for a in range(n - 1):
            def swap(e, a=a):
                out = list(e)
                out[a], out[a + 1] = out[a + 1], out[a]
                return tuple(out)

            generators.append(swap)
        assert invariant_dimension(up, n) == fixed_subspace_dimension(
            edges, generators
        )


@st.composite
def closures(draw):
    """The deletion closure of up to ten edges on at most 7 vertices."""
    n = draw(st.integers(1, 7))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
    return delta_closure(hypergraph(draw(st.lists(edge, max_size=10)), vertices=range(n)))


RP2 = delta_closure(hypergraph([
    [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
    [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5],
]))


@settings(max_examples=100, deadline=None)
@given(closures(), st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
@example(RP2, PrimeField(2))  # torsion: b_1 = b_2 = 1 over Z/2 only
@example(RP2, QQ)
def test_simplicial_homology_matches_oracle(h, field):
    """Closures are reduced with clearing, Inf and Sup without it."""
    expected = simplicial_betti(h.edges, field.characteristic)
    assert betti(ambient_complex(h, "closure", field=field)).betti == expected
    assert betti(inf_complex(h, field=field)).betti == expected
    assert betti(sup_complex(h, field=field)).betti == expected
