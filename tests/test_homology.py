import json
import random
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology import chains, cli, homology, linalg, suites
from hyperhomology.cli import main
from hyperhomology.chains import ChainComplex, ambient_complex, inf_complex, sup_complex
from hyperhomology.errors import InvariantViolation
from hyperhomology.fields import QQ, PrimeField, RationalField
from hyperhomology.filtration import FiltrationStep, persistent_betti
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
    dense_induced_rank,
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
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
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


def _tampered(good):
    """good with 1 added to the entry (0, 0) of d_2: no longer a complex."""
    extra = SparseMatrix(good.field, good.dims[1], good.dims[2], {(0, 0): good.field.one})
    boundaries = (good.boundaries[0], good.boundaries[1], good.boundaries[2] + extra)
    return ChainComplex(good.field, good.dims, boundaries)


def test_betti_rejects_broken_complex():
    good = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    with pytest.raises(InvariantViolation):
        betti(_tampered(good))


def test_failed_validation_is_never_remembered():
    good = ambient_complex(hypergraph([[0, 1, 2]]), "closure")
    broken = _tampered(good)
    for _ in range(3):
        with pytest.raises(InvariantViolation):
            broken.validate()
        with pytest.raises(InvariantViolation):
            betti(broken)
    good.validate()  # a passed check is remembered without changing equality
    assert good == ChainComplex(QQ, good.dims, good.boundaries, good.labels)


def test_validate_over_a_prime_field_reads_sums_mod_p():
    field = PrimeField(7)
    closure = ambient_complex(hypergraph([[0, 1, 2]]), "closure", field=field)
    copy = ChainComplex(field, closure.dims, closure.boundaries, closure.labels)
    assert not copy._validated
    # entries 1 and 6: the integer sums of d_1 d_2 are nonzero multiples of 7
    lower, upper = (b.columns() for b in closure.boundaries[1:])
    with pytest.raises(InvariantViolation):
        chains._check_square_zero(1, lower, upper, None)
    copy.validate()
    assert copy._validated
    # the same tampering fails over Z/7 and over Q, with one certificate
    certificates = []
    for good in (closure, ambient_complex(hypergraph([[0, 1, 2]]), "closure")):
        with pytest.raises(InvariantViolation) as failure:
            _tampered(good).validate()
        certificates.append(failure.value.certificate)
    assert certificates[0] == certificates[1] == {"degree": 2, "chain": "basis column 0", "row": 0}


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
    calls, built, build = [], [], chains._edge_chains

    def counted(h, field, ambient):
        calls.append(ambient is None)
        built.append(h.edges)
        return build(h, field, ambient)

    for module in (chains, homology):
        monkeypatch.setattr(module, "_edge_chains", counted)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": sorted(MIXED.edges)}))
    assert main(["quasi-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["inf_sup_iso"]
    assert calls == [True]
    # quotient-check: one build for Inf and Sup, and no ambient
    calls.clear()
    assert main(["quotient-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["betti_equal"]
    assert calls == [True]
    # four-term: one build for the nerve of the maximal edges (one vertex
    # here), one for Inf, Sup and the last stage (empty here: MIXED has no
    # vertex) on the labels of h, and no closure ambient
    calls.clear()
    built.clear()
    assert main(["four-term", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["stage_dims"][3] == results["stage_betti"][3] == [0, 0, 0]
    assert calls == [True, True]
    assert built == [frozenset({(0,)}), MIXED.edges]


def test_complexes_inside_an_ambient_build_no_boundary_columns(monkeypatch, tmp_path, capsys):
    # inside an ambient, Inf and Sup read its boundary columns: the only
    # columns built from faces are the ambient's own
    calls, build = [], chains._integer_columns

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    def own_calls(build):
        calls.clear()
        built = build()
        count = len(calls)
        calls.clear()
        return built, count

    monkeypatch.setattr(chains, "_integer_columns", counted)
    ambient, _ = own_calls(lambda: ambient_complex(MIXED, "closure"))
    inf_complex(MIXED, ambient=ambient)
    sup_complex(MIXED, ambient=ambient)
    assert calls == []
    # four-term builds the columns of h on its own labels once, and those of
    # the nerve (one vertex here: none)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2], "edges": sorted(MIXED.edges)}))
    _, count = own_calls(lambda: chains._edge_chains(MIXED, QQ, None))
    assert main(["four-term", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == count > 0
    # non-simplicial steps: the closure of the last step, then every step inside it
    first = hypergraph([[0, 1, 2], [1, 2, 3], [0], [1], [2], [3]])
    second = hypergraph(sorted(first.edges) + [[0, 1], [1, 2], [0, 2], [2, 3]])
    steps = [FiltrationStep(1, 2, 1, first), FiltrationStep(0, 1, 0, second)]
    for kind in ("inf", "sup"):
        _, count = own_calls(lambda: ambient_complex(second, "closure"))
        persistent_betti(steps, [0, 1], kind)
        assert len(calls) == count > 0


def test_quotient_pair_check_builds_no_ambient(monkeypatch, tmp_path, capsys):
    # C's homology has a closed form, so no full simplex is listed
    calls, build = [], chains.ambient_complex

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return build(*args, **kwargs)

    for module in (chains, cli):  # homology builds ambients only through chains
        monkeypatch.setattr(module, "ambient_complex", counted)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"vertices": [0, 1, 2, 3], "edges": sorted(MIXED.edges)}))
    for field in ("Q", "7"):
        assert main(["quotient-check", str(path), "--field", field, "--max-degree", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["betti_ambient_mod_inf"] == [1, 0, 0, 0]
    assert calls == []
    assert quotient_pair_check(hypergraph([list(range(16))])).betti_equal
    assert calls == []


def test_quotient_pair_check_reads_the_ambient_field():
    # read over Q, the Z/7 entry 6 (that is, -1) gives betti_by_sup (0, -1, 1)
    h = hypergraph([[0, 1], [1, 2], [0, 1, 2], [2, 3]])
    ambient = ambient_complex(h, "full_simplex", field=PrimeField(7))
    report = quotient_pair_check(h, field=PrimeField(7))
    assert report.betti_by_sup == report.betti_by_inf == (1, 0, 1)
    by_sup = quotient_complex(ambient, sup_complex(h, ambient.field, ambient).embeddings)
    assert report.betti_by_sup == dense_betti(by_sup.complex)
    for build in (inf_complex, sup_complex, chains._inf_and_sup):
        with pytest.raises(ValueError, match="the ambient is over Z7, not Q"):
            build(h, QQ, ambient)


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


def test_embedded_echelons_are_kept_outside_equality_and_repr():
    inf, sup = inf_complex(MIXED), sup_complex(MIXED)
    # Sup keeps the echelons that chose its columns; Inf builds its own when read
    assert "span_echelons" in vars(sup) and "span_echelons" not in vars(inf)
    for embedded in (inf, sup):
        spans, images = embedded.span_echelons, embedded.image_echelons
        assert [e.dimension for e in spans] == list(embedded.dims)
        assert [e.dimension for e in images] == [dense_rank(_dense_vectors(m)) for m in embedded.images]
        assert embedded.span_echelons is spans and embedded.image_echelons is images
    fresh = sup_complex(MIXED)
    del vars(fresh)["span_echelons"]
    assert fresh == sup and repr(fresh) == repr(sup) and "Echelon" not in repr(sup)


def test_induced_homology_rank_refuses_negative_degrees():
    h = hypergraph([[0, 1], [1, 2], [0, 2], [3, 4], [5]])
    inf, sup = inf_complex(h), sup_complex(h)
    assert [induced_homology_rank(inf, sup, n) for n in range(4)] == [1, 1, 0, 0]
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match="non-negative"):
            induced_homology_rank(inf, sup, n)


def test_induced_homology_rank_refuses_mixed_characteristics():
    # over one field the filled triangle has no homology to map; a Z/7
    # cycle coefficient 6 (that is, -1) read as the rational 6 made one up
    h = hypergraph([[0, 1], [1, 2], [0, 2], [0, 1, 2]])
    assert [induced_homology_rank(inf_complex(h), sup_complex(h), n) for n in range(3)] == [0] * 3
    with pytest.raises(ValueError, match="characteristic"):
        induced_homology_rank(inf_complex(h, field=PrimeField(7)), sup_complex(h), 0)
    # fields are compared by characteristic, not as objects
    assert induced_homology_rank(inf_complex(h, field=RationalField()), sup_complex(h), 1) == 0


def test_induced_homology_rank_refuses_a_source_outside_the_target():
    # Sup of the filled triangle holds its three sides, Inf only their cycle,
    # so Sup is no subcomplex of Inf and no map is induced
    h = hypergraph([[0, 1], [1, 2], [0, 2], [0, 1, 2]])
    with pytest.raises(InvariantViolation, match="degree-1"):
        induced_homology_rank(sup_complex(h), inf_complex(h), 1)
    # degree 0 of the segment lies in the two points, but its edge does not,
    # so B_0 of the segment (rank 1) is not among the points' boundaries
    # (none), and counting would report 2 for b_0 = 1
    ambient = ambient_complex(hypergraph([[0], [1], [0, 1]]), "closure")
    segment = inf_complex(hypergraph([[0], [1], [0, 1]]), ambient=ambient)
    points = inf_complex(hypergraph([[0], [1]]), ambient=ambient)
    assert betti(segment).betti == (1, 0) and induced_homology_rank(points, segment, 0) == 1
    with pytest.raises(InvariantViolation, match="degree-1"):
        induced_homology_rank(segment, points, 0)


def test_inside_reads_unit_rows_and_reduces_the_rest(monkeypatch):
    # a vector supported on unit rows of the big span echelon lies in it with
    # no reduction; any other is reduced, which accepts or rejects it.  In a
    # filled triangle without its vertex 0, Inf's degree-1 span holds the
    # non-unit (0, 3) - (0, 2); Sup's starts with the units of its edges
    h = hypergraph([[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]])
    inf, sup = chains._inf_and_sup(h, QQ, None)
    inside, pairs = homology._inside, []
    monkeypatch.setattr(homology, "_inside", lambda small, big: pairs.append((small, big)) or inside(small, big))
    assert four_term_sequence(h).surjective == (True, True, True)
    (inf_in_sup, _), (lower_in_inf, lower_inf) = pairs
    reduce, reduced = linalg.Echelon.reduce, []
    monkeypatch.setattr(linalg.Echelon, "reduce", lambda self, v, c=None: reduced.append(v) or reduce(self, v, c))
    for small, big in ((inf, sup), (inf_in_sup, sup), (lower_in_inf, lower_inf)):
        big.span_echelons  # Inf's are built on first read, with no reduction here
        reduced.clear()
        assert inside(small, big) and reduced == []  # the lower stage's vectors are units too
    reduced.clear()
    assert inside(inf, inf) and {0, 1} in map(set, reduced)  # the non-unit, reduced to zero
    reduced.clear()
    assert not inside(sup, inf) and reduced


def test_quasi_check_tests_each_degree_of_inf_in_sup_once(monkeypatch):
    # verify_quasi_iso_theta tests that Inf lies in Sup once per degree, then
    # reads every rank as induced_homology_rank does
    h = hypergraph([[1], [2], [3], [0, 2], [0, 3], [2, 3], [1, 3], [0, 2, 3]])
    inside, tested = homology._inside, []

    def counted(small, big, n=None):
        tested.extend(range(len(small.embeddings)) if n is None else [n])
        return inside(small, big, n)

    monkeypatch.setattr(homology, "_inside", counted)
    report = homology.verify_quasi_iso_theta(h)
    assert sorted(tested) == [0, 1, 2]
    inf, sup = chains._inf_and_sup(h, QQ, None)
    assert report.induced_ranks == tuple(induced_homology_rank(inf, sup, n) for n in range(3))


def test_quasi_check_counts_ranks_without_a_cycle_basis(monkeypatch, tmp_path, capsys):
    # the ten triangles of a six-vertex projective plane with only the five
    # sides at vertex 0, which has degree-2 homology over Z/2 alone, and a
    # hollow triangle apart
    def refused(matrix):
        raise AssertionError("a cycle basis was built")

    monkeypatch.setattr(linalg, "kernel_basis", refused)
    plane = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1]]
    plane += [[1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]
    edges = [[v] for v in range(6)] + [[0, k] for k in range(1, 6)] + plane
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"vertices": list(range(9)), "edges": edges + [[6, 7], [7, 8], [6, 8]]}))
    for field, name, top in (("Q", "Q", 0), ("7", "Z7", 0), ("2", "Z2", 1)):
        assert main(["quasi-check", str(path), "--field", field]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == {
            "betti": {"0": 1, "1": 1, "2": top},
            "betti_inf": [1, 1, top],
            "betti_sup": [1, 1, top],
            "field": name,
            "induced_ranks": [1, 1, top],
            "inf_sup_iso": True,
        }


def _dense_vectors(matrix):
    """The columns of a sparse matrix as dense lists."""
    return [[col.get(i, 0) for i in range(matrix.nrows)] for col in matrix.columns()]


def _dense_contains(big, small, p):
    """Whether the dense vectors small lie in the span of big, by dense ranks."""
    return dense_rank(big + small, p) == dense_rank(big, p)


@settings(max_examples=100, deadline=None)
@given(punched_closures(), st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
def test_inf_sup_ranks_and_inclusions_match_dense_ranks(h, field):
    p = field.characteristic or None
    report = verify_quasi_iso_theta(h, field=field)
    inf, sup = inf_complex(h, field=field), sup_complex(h, field=field)
    for betti_row, embedded in ((report.betti_inf, inf), (report.betti_sup, sup)):
        ranks = [dense_rank(_dense_vectors(m), p) for m in embedded.images] + [0]
        assert betti_row == tuple(d - ranks[n] - ranks[n + 1] for n, d in enumerate(embedded.dims))
    degrees = range(len(inf.labels))
    assert list(report.induced_ranks) == [dense_induced_rank(inf, sup, n, p) for n in degrees]
    # four-term tests its inclusions inside the closure, quotient-check (of
    # unordered input only) on the local labels
    ambient = ambient_complex(h, "closure", field=field)
    inf = inf_complex(h, field=field, ambient=ambient)
    sup = sup_complex(h, field=field, ambient=ambient)
    inf_in_sup = all(
        _dense_contains(_dense_vectors(big), _dense_vectors(small), p)
        for small, big in zip(inf.embeddings, sup.embeddings)
    )
    lower = lower_associated(h).edges
    lower_in_inf = all(
        _dense_contains(_dense_vectors(big), [[int(e == f) for f in level] for e in level if e in lower], p)
        for level, big in zip(ambient.labels, inf.embeddings)
    )
    assert four_term_sequence(h, field=field).surjective == (True, inf_in_sup, lower_in_inf)
    if h.directed:
        with pytest.raises(ValueError, match="unordered hypergraphs"):
            quotient_pair_check(h, field)
    else:
        assert quotient_pair_check(h, field).q_surjective == inf_in_sup


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
    return h, draw(st.sampled_from(fields)), max_degree


def dense_columns(matrix):
    dense = sparse_to_dense(matrix)
    return [[row[j] for row in dense] for j in range(matrix.ncols)]


@settings(max_examples=40, deadline=None)
@given(full_simplex_instances())
def test_quotient_matches_dense_oracle(instance):
    h, field, max_degree = instance
    ambient = ambient_complex(h, "full_simplex", max_degree=max_degree, field=field)
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
@example((hypergraph([]), QQ, None))
@example((hypergraph([]), PrimeField(7), 2))
@example((hypergraph([], vertices=range(3)), QQ, None))
@example((hypergraph([], vertices=range(3)), PrimeField(2), 3))
@example((hypergraph([[0, 1]], vertices=range(3)), QQ, 3))
def test_quotient_pair_check_matches_the_quotient_complexes(instance):
    # max_degree may pass N - 1, the top degree of the full simplex on N vertices
    h, field, max_degree = instance
    ambient = ambient_complex(h, "full_simplex", max_degree=max_degree, field=field)
    report = quotient_pair_check(h, field, max_degree=max_degree)
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
    report = quotient_pair_check(MIXED, max_degree=2)
    assert report.betti_equal
    assert report.q_surjective


def test_quotient_map_direction():
    ambient = ambient_complex(MIXED, "full_simplex", max_degree=2)
    inf = inf_complex(MIXED, ambient=ambient)
    sup = sup_complex(MIXED, ambient=ambient)
    by_inf = quotient_complex(ambient, inf.embeddings)
    by_sup = quotient_complex(ambient, sup.embeddings)
    assert quotient_map_surjective(by_inf, by_sup)
    assert quotient_pair_check(MIXED, max_degree=2).q_surjective


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


@pytest.mark.parametrize("field", ["Q", "7"])
def test_cli_embedded_checks_eliminate_each_subspace_once(monkeypatch, tmp_path, capsys, field):
    # Sup's span echelon comes from its builder, every image echelon
    # from betti, and the inclusion flags and induced ranks read them: no
    # command re-eliminates a subspace through these three routines
    path = tmp_path / "h.json"
    edges = [[0], [1], [2], [3], [0, 1], [1, 2], [0, 2], [1, 3], [2, 3], [1, 2, 3], [0, 4]]
    path.write_text(json.dumps({"vertices": [0, 1, 2, 3, 4], "edges": edges}))
    commands = [[name, str(path), "--field", field] for name in ("quasi-check", "four-term", "quotient-check")]

    def payloads():
        found = []
        for argv in commands:
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            found.append(report["results"])
        return found

    expected = payloads()

    def refuse(*args, **kwargs):
        raise AssertionError("a subspace was eliminated again")

    for name in ("columns_in_span", "image_rank_modulo", "independent_columns"):
        monkeypatch.setattr(linalg, name, refuse)
    assert payloads() == expected
    assert expected[0]["induced_ranks"] == [1, 1, 0]


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
    # a filled triangle without its vertex 0: Inf's one vector with more
    # than one entry, (0, 3) - (0, 2) in degree 1, has the image (3) - (2),
    # formed by Inf's image product; the mutation adds the vertex (0), which
    # is not an edge, to every column of that product
    edges = [[2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]]
    labels, span, _ = chains._edge_chains(hypergraph(edges), QQ, None)
    [outside] = set(range(len(labels[0]))) - set(span[0])
    matmul, mutated = SparseMatrix.__matmul__, []

    def leaky(a, b):
        product = matmul(a, b)
        columns = [{**col, outside: product.field.one} for col in product.columns()]
        mutated.extend(columns)
        return SparseMatrix.from_columns(product.field, product.nrows, columns)

    monkeypatch.setattr(SparseMatrix, "__matmul__", leaky)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vertices": [0, 2, 3], "edges": edges}))
    assert main(["quasi-check", str(path)]) == 4
    assert "boundary does not stay inside the subcomplex at degree 1" in capsys.readouterr().err
    assert len(mutated) == 1


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


def test_random_quasi_iso_experiment_script_runs(monkeypatch, capsys):
    script = SCRIPTS / "random_quasi_iso_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--hypergraphs", "20", "--hyperdigraphs", "10"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "verified 30 instances in" in out
    assert "all isomorphic" in out
    assert "Betti profile histogram (top 12):" in out
