import json
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology import cli, groups
from hyperhomology.cli import main
from hyperhomology.errors import ResourceCapError
from hyperhomology.groups import (
    Permutation,
    PermutationGroup,
    aut_group,
    aut_isom,
    edge_action,
    homeo_group,
    isom_group,
    pi_surjection_check,
    stab_group,
    subgroup_identities,
)
from hyperhomology.hypergraphs import hyperdigraph, hypergraph, lift
from hyperhomology.metrics import (
    EuclideanMetric,
    circle_sample,
    distance_matrix_sample,
    euclidean_sample,
)
from oracles import (
    brute_isometries,
    brute_vertex_maps,
    generated_by_pairs,
    is_group_by_pairs,
    is_normal_by_pairs,
)

TRIANGLE_PLUS_ISOLATED = hypergraph(
    [[1, 2], [0, 2], [0, 1], [0, 1, 2]], vertices=range(4)
)
TWO_PAIRS = hypergraph([[0, 1], [2, 3]])
ONE_PAIR = hypergraph([[0, 1]], vertices=range(4))
TWO_TRIPLES = hypergraph([[0, 1, 2], [1, 2, 3]])


@pytest.mark.parametrize(
    "h,expected",
    [
        (TRIANGLE_PLUS_ISOLATED, (6, 1, 6)),
        (TWO_PAIRS, (8, 4, 2)),
        (ONE_PAIR, (4, 4, 1)),
        (TWO_TRIPLES, (4, 2, 2)),
    ],
)
def test_group_table_fixtures(h, expected):
    assert (
        homeo_group(h).order,
        stab_group(h).order,
        aut_group(h).order,
    ) == expected


def test_two_pairs_structure():
    homeo = homeo_group(TWO_PAIRS)
    stab = stab_group(TWO_PAIRS)
    assert stab.is_normal_in(homeo)
    # the stabilizer is elementary abelian: every element squares to identity
    for p in stab.elements:
        assert p.compose(p) == Permutation.identity(p.domain)


def test_stab_of_complete_uniform():
    four = range(4)
    complete2 = hypergraph(list(combinations(four, 2)))
    assert stab_group(complete2).order == 1  # |V| > n
    assert aut_group(complete2).order == 24
    complete4 = hypergraph([tuple(four)])
    assert stab_group(complete4).order == 24  # |V| = n


def test_aut_action_is_faithful_and_consistent():
    action = aut_group(TWO_PAIRS)
    assert len(set(action.elements)) == action.order
    homeo = homeo_group(TWO_PAIRS)
    stab = stab_group(TWO_PAIRS)
    assert action.order * stab.order == homeo.order
    for element, rep in zip(action.elements, action.vertex_reps):
        assert edge_action(TWO_PAIRS, rep) == element


def test_empty_hypergraph_groups():
    empty = hypergraph([], vertices=range(3))
    assert homeo_group(empty).order == 6
    assert stab_group(empty).order == 6
    assert aut_group(empty).order == 1


def test_directed_groups():
    d = hyperdigraph([(0, 1)], vertices=[0, 1, 2])
    homeo = homeo_group(d)
    # the single edge must map to itself coordinatewise, pinning 0 and 1,
    # and bijectivity then pins 2 as well
    assert homeo.order == 1
    two_cycle = hyperdigraph([(0, 1), (1, 0)])
    assert homeo_group(two_cycle).order == 2
    assert stab_group(two_cycle).order == 1


def test_one_pair_homeo_equals_stab():
    # with edge {0,1} alone, preserving and fixing the edge coincide
    assert homeo_group(ONE_PAIR).element_set() == stab_group(ONE_PAIR).element_set()


def test_lifted_groups_sit_inside_projected_ones():
    for h in (TWO_PAIRS, TWO_TRIPLES, hypergraph([[0, 1], [1, 2]])):
        up = lift(h)
        assert stab_group(up).is_normal_in(stab_group(h))
        assert homeo_group(up).is_subgroup_of(homeo_group(h))


def test_pi_surjection_examples():
    assert pi_surjection_check(lift(hypergraph([[0, 1]])))
    assert pi_surjection_check(lift(TWO_PAIRS))
    assert pi_surjection_check(lift(hypergraph([], vertices=[0, 1])))
    with pytest.raises(ValueError):
        pi_surjection_check(hyperdigraph([(0, 1)]))


def test_subgroup_identities_examples():
    simplicial = hypergraph([[0], [1], [0, 1]])
    report = subgroup_identities(simplicial, [0, 1])
    assert report.all_ok
    report = subgroup_identities(hypergraph([[0, 1], [0, 1, 2]]), [0, 1, 2])
    assert report.all_ok
    report = subgroup_identities(TWO_TRIPLES, range(4))
    assert report.all_ok


def test_vertex_cap(monkeypatch):
    big = hypergraph([], vertices=range(11))
    with pytest.raises(ResourceCapError, match="^vertex set of size 11 exceeds the cap of 10$"):
        homeo_group(big)
    monkeypatch.setenv("HYPERHOMOLOGY_VERTEX_CAP", "4")
    homeo_group(hypergraph([], vertices=range(4)))
    with pytest.raises(ResourceCapError, match="^vertex set of size 5 exceeds the cap of 4$"):
        homeo_group(hypergraph([], vertices=range(5)))


def test_library_calls_obey_the_vertex_cap_variable(monkeypatch):
    five = hypergraph([[0, 1]], vertices=range(5))
    square = euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert homeo_group(five).order == 12
    assert isom_group(square).order == 8
    monkeypatch.setenv("HYPERHOMOLOGY_VERTEX_CAP", "4")
    for call in (homeo_group, stab_group, aut_group):
        with pytest.raises(ResourceCapError, match="^vertex set of size 5 exceeds the cap of 4$"):
            call(five)
    assert isom_group(square).order == 8
    monkeypatch.setenv("HYPERHOMOLOGY_VERTEX_CAP", "3")
    with pytest.raises(ResourceCapError, match="^sample of size 4 exceeds the cap of 3$"):
        isom_group(square)


def test_isom_group_takes_tolerance_by_keyword_only():
    square = euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(TypeError):
        isom_group(square, 10)
    with pytest.raises(TypeError):
        aut_isom(hypergraph([[0, 1]], vertices=range(4)), square, 10)
    for tolerance in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^tolerance must be >= 0"):
            isom_group(square, tolerance=tolerance)


def test_isom_group_examples():
    unit_square = euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert isom_group(unit_square).order == 8
    collinear = euclidean_sample([(0,), (1,), (3,)])
    assert isom_group(collinear).order == 1
    discrete = distance_matrix_sample(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    )
    assert isom_group(discrete).order == 24


def test_isom_group_circle_exact():
    square_on_circle = circle_sample([0, Fraction(1, 2), 1, Fraction(3, 2)])
    assert isom_group(square_on_circle).order == 8


def test_isom_tolerance_mode():
    wobbly = euclidean_sample([(0, 0), (1, 0), (1.0000001, 1), (0, 1)])
    assert isom_group(wobbly).order == 1
    assert isom_group(wobbly, tolerance=1e-3).order == 8


def test_aut_isom_report():
    square = euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)])
    cycle = hypergraph([[0, 1], [1, 2], [2, 3], [0, 3]])
    report = aut_isom(cycle, square)
    assert report.isom_order == 8
    assert report.isom_h_order == 8
    assert report.stab_isom_order == 1
    assert report.aut_isom_order == 8
    assert report.stab_isom_normal_in_isom_h
    assert report.aut_isom_subgroup_of_aut


def test_aut_isom_requires_matching_ids():
    square = euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError):
        aut_isom(hypergraph([[0, 5]]), square)


def test_permutation_algebra():
    p = Permutation((0, 1, 2), (1, 2, 0))
    q = p.inverse()
    assert p.compose(q) == Permutation.identity((0, 1, 2))
    assert p.apply_edge((0, 2), directed=False) == (0, 1)
    assert p.apply_edge((0, 2), directed=True) == (1, 0)
    assert p.cycles() == [(0, 1, 2)]
    with pytest.raises(ValueError):
        Permutation((0, 1), (0, 0))


def test_group_generators_generate():
    homeo = homeo_group(TWO_PAIRS)
    gens = homeo.generators()
    seen = {Permutation.identity(homeo.domain).images}
    frontier = [Permutation.identity(homeo.domain)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a.compose(g)
                if b.images not in seen:
                    seen.add(b.images)
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == homeo.order
    assert len(gens) <= 3


def test_five_cycle_generators_pinned():
    c5 = hypergraph([(i, (i + 1) % 5) for i in range(5)])
    gens = homeo_group(c5).generators()
    assert [g.images for g in gens] == [(0, 4, 3, 2, 1), (1, 0, 4, 3, 2)]
    assert aut_group(c5).generator_cycles() == [
        [[[0, 4], [1, 2]], [[2, 3], [3, 4]]],
        [[[0, 1], [0, 4]], [[1, 2], [3, 4]]],
    ]


PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)
CUBE = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
NINE_CYCLE = [(i, (i + 1) % 9) for i in range(9)]
# fixed random labels: the search order depends on them, the groups do not
PETERSEN_LABELS = (3, 7, 0, 9, 5, 1, 8, 2, 6, 4)
CUBE_LABELS = (5, 2, 7, 0, 3, 6, 1, 4)
NINE_CYCLE_LABELS = (4, 7, 1, 8, 2, 0, 6, 3, 5)


def _relabelled(labels, edges):
    return hypergraph([[labels[v] for v in e] for e in edges])


def test_relabelled_petersen_and_cube_generators_pinned():
    petersen = aut_group(_relabelled(PETERSEN_LABELS, PETERSEN))
    assert petersen.order == 120
    assert petersen.generator_cycles() == [
        [[[1, 2], [2, 4]], [[1, 3], [4, 8]], [[1, 6], [4, 5]],
         [[3, 5], [6, 8]], [[3, 7], [7, 8]], [[5, 9], [6, 9]]],
        [[[0, 7], [0, 9]], [[1, 3], [1, 6]], [[3, 5], [6, 8]],
         [[3, 7], [6, 9]], [[4, 5], [4, 8]], [[5, 9], [7, 8]]],
        [[[0, 7], [1, 2]], [[0, 9], [2, 4]], [[1, 3], [3, 7]],
         [[1, 6], [7, 8]], [[4, 5], [5, 9]], [[4, 8], [6, 9]]],
        [[[0, 2], [0, 7]], [[1, 2], [3, 7]], [[1, 6], [3, 5]],
         [[2, 4], [7, 8]], [[4, 5], [6, 8]], [[5, 9], [6, 9]]],
    ]
    cube = aut_group(_relabelled(CUBE_LABELS, CUBE))
    assert cube.order == 48
    assert cube.generator_cycles() == [
        [[[0, 4], [0, 7]], [[1, 4], [1, 7]], [[2, 5], [2, 6]],
         [[3, 5], [3, 6]], [[4, 6], [5, 7]]],
        [[[0, 4], [2, 5]], [[0, 7], [2, 6]], [[1, 4], [3, 5]],
         [[1, 7], [3, 6]], [[4, 6], [5, 7]]],
        [[[0, 2], [0, 4]], [[1, 3], [3, 5]], [[1, 4], [2, 5]],
         [[1, 7], [5, 7]], [[2, 6], [4, 6]]],
    ]


@pytest.mark.parametrize(
    "labels,edges,order,most_calls",
    [(NINE_CYCLE_LABELS, NINE_CYCLE, 18, 594), (PETERSEN_LABELS, PETERSEN, 120, 4230)],
)
def test_search_order_checks_edges_early(monkeypatch, labels, edges, order, most_calls):
    # in id order, each edge of a randomly labelled graph waits for its
    # later vertex: 22752 and 4980 predicate calls for these labels
    calls = []
    search = groups._search_vertex_maps

    def counted_search(h, predicate):
        def counted(*args):
            calls.append(args)
            return predicate(*args)

        return search(h, counted)

    monkeypatch.setattr(groups, "_search_vertex_maps", counted_search)
    assert homeo_group(_relabelled(labels, edges)).order == order
    assert len(calls) <= most_calls


def test_aut_command_searches_once(monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("homeo_group", "stab_group"):
        original = getattr(groups, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(groups, name, counted)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"edges": [[i, (i + 1) % 5] for i in range(5)]}))
    assert main(["aut", str(path)]) == 0
    assert sorted(calls) == ["homeo_group", "stab_group"]
    report = json.loads(capsys.readouterr().out)["results"]
    assert (report["homeo_order"], report["stab_order"], report["aut_order"]) == (10, 1, 10)


def test_isom_command_searches_once(monkeypatch, tmp_path, capsys):
    calls = []
    original = groups.isom_group

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "isom_group", counted)
    monkeypatch.setattr(cli, "isom_group", counted)
    points = tmp_path / "square.csv"
    points.write_text("0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    assert main(["isom", str(points), "--hypergraph", str(cycle)]) == 0
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)["results"]
    assert report["isom_order"] == report["aut_isom"]["isom_order"] == 8
    calls.clear()
    assert main(["isom", str(points)]) == 0
    assert len(calls) == 1


def test_isom_cap_is_checked_before_the_distance_table(monkeypatch, tmp_path):
    def no_table(*args):
        raise AssertionError("distance table built above the cap")

    monkeypatch.setattr(EuclideanMetric, "pair_keys", no_table)
    monkeypatch.setenv("HYPERHOMOLOGY_VERTEX_CAP", "3")
    points = tmp_path / "square.csv"
    points.write_text("0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    assert main(["isom", str(points)]) == 3
    assert main(["isom", str(points), "--hypergraph", str(cycle)]) == 3


@pytest.mark.parametrize("tolerance", [0, 1e-3])
def test_isom_group_searches_a_distance_table(monkeypatch, tolerance):
    samples = [
        (euclidean_sample([(0, 0), (1, 0), (1, 1), (0, 1)]), 8),
        (circle_sample([0, Fraction(1, 2), 1, Fraction(3, 2)]), 8),
        (distance_matrix_sample([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 2),
    ]
    for sample, order in samples:
        def no_key(*args):
            raise AssertionError("distance_key called during the search")

        monkeypatch.setattr(sample.metric, "distance_key", no_key)
        assert isom_group(sample, tolerance=tolerance).order == order


# ---------------------------------------------- against the pairwise oracles

S4 = sorted(permutations(range(4)))


def _s4_group(elements) -> PermutationGroup:
    domain = tuple(range(4))
    return PermutationGroup(domain, tuple(Permutation(domain, e) for e in sorted(elements)))


@st.composite
def s4_subsets(draw):
    """Subgroups of S_4, and sets one element off a subgroup, and raw subsets."""
    elements = generated_by_pairs(draw(st.lists(st.sampled_from(S4), max_size=3)), 4)
    mode = draw(st.sampled_from(["group", "drop", "add", "raw"]))
    if mode == "drop":
        elements = elements - {draw(st.sampled_from(sorted(elements)))}
    elif mode == "add":
        elements = elements | {draw(st.sampled_from(S4))}
    elif mode == "raw":
        elements = set(draw(st.lists(st.sampled_from(S4), max_size=8)))
    return elements


@settings(max_examples=200, deadline=None)
@given(s4_subsets())
@example({(0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3)})  # {id, (0 1), (1 2)}
@example({(1, 0, 2, 3)})  # no identity
@example(set())
def test_verify_agrees_with_pairwise_oracle(elements):
    group = _s4_group(elements)
    if is_group_by_pairs(elements, 4):
        group.verify()
        gens = [g.images for g in group.generators()]
        assert generated_by_pairs(gens, 4) == elements
    else:
        with pytest.raises(ValueError):
            group.verify()


s4_generators = st.lists(st.sampled_from(S4), max_size=3)


@settings(max_examples=200, deadline=None)
@given(s4_generators, s4_generators, st.booleans())
@example([(1, 0, 3, 2), (2, 3, 0, 1)], [(1, 0, 2, 3), (1, 2, 3, 0)], True)  # V_4 in S_4
@example([(1, 0, 2, 3)], [(1, 0, 2, 3), (1, 2, 3, 0)], True)  # <(0 1)> in S_4
def test_is_normal_in_agrees_with_pairwise_oracle(sub_gens, gens, nested):
    sub = generated_by_pairs(sub_gens, 4)
    group = generated_by_pairs(gens + sub_gens if nested else gens, 4)
    expected = is_normal_by_pairs(sub, group)
    assert _s4_group(sub).is_normal_in(_s4_group(group)) == expected


@st.composite
def relabelled_hypergraphs(draw):
    """At most 6 vertices, directed or not, under a random relabelling."""
    n = draw(st.integers(1, 6))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True)
    edges = draw(st.lists(edge, max_size=8))
    labels = draw(st.permutations(range(n)))
    build = hyperdigraph if draw(st.booleans()) else hypergraph
    return build([[labels[v] for v in e] for e in edges], vertices=range(n))


@settings(max_examples=150, deadline=None)
@given(relabelled_hypergraphs())
@example(hypergraph(NINE_CYCLE[:5], vertices=range(6)))
@example(hyperdigraph([(2, 0, 1), (1, 0, 2), (3, 4)], vertices=range(6)))
def test_homeo_and_stab_match_brute_force(h):
    assert [p.images for p in homeo_group(h).elements] == brute_vertex_maps(h, "homeo")
    assert [p.images for p in stab_group(h).elements] == brute_vertex_maps(h, "stab")


def _isom_matches_oracle(sample, tolerance):
    expected = brute_isometries(sample, tolerance)
    if is_group_by_pairs(expected, len(sample.ids)):
        found = isom_group(sample, tolerance=tolerance)
        assert [p.images for p in found.elements] == expected
    else:  # tolerance-close maps need not compose
        with pytest.raises(ValueError):
            isom_group(sample, tolerance=tolerance)


tolerances = st.sampled_from([0, 1e-3, 0.5])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.sampled_from([0, 1, 2, 1.0000001, 2.3])] * 2),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    tolerances,
)
def test_isom_group_matches_brute_force_euclidean(points, tolerance):
    _isom_matches_oracle(euclidean_sample(points), tolerance)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(1, 6))
    values = st.sampled_from([1, 2, 3, Fraction(1001, 1000), Fraction(2001, 1000)])
    matrix = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        matrix[i][j] = matrix[j][i] = draw(values)
    return matrix


@settings(max_examples=80, deadline=None)
@given(distance_matrices(), tolerances)
@example([[0, 1, Fraction(10006, 10000)], [1, 0, Fraction(10012, 10000)],
          [Fraction(10006, 10000), Fraction(10012, 10000), 0]], 1e-3)
def test_isom_group_matches_brute_force_distance_matrix(matrix, tolerance):
    _isom_matches_oracle(distance_matrix_sample(matrix), tolerance)


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(0, 11), min_size=1, max_size=6), tolerances)
def test_isom_group_matches_brute_force_circle(sixths, tolerance):
    sample = circle_sample([Fraction(k, 6) for k in sorted(sixths)])
    _isom_matches_oracle(sample, tolerance)
