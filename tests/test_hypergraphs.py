import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology.hypergraphs import (
    associated_independence,
    delta_closure,
    hyperdigraph,
    hypergraph,
    is_sigma_invariant,
    is_simplicial,
    lift,
    lower_associated,
    lower_associated_independence,
    max_min_edges,
    project,
    sheet_counts_ok,
    vertex_map_image,
)

from oracles import powerset_closure, subsequence_closure, superset_closure


def edge_strategy():
    return st.sets(st.integers(0, 5), min_size=1, max_size=4).map(
        lambda s: tuple(sorted(s))
    )


def hypergraph_strategy():
    return st.sets(edge_strategy(), min_size=0, max_size=10).map(hypergraph)


def test_delta_closure_examples():
    h = hypergraph([[0, 1, 2]])
    assert delta_closure(h).edges == frozenset(
        {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    )
    d = hyperdigraph([(1, 0)])
    assert delta_closure(d).edges == frozenset({(1,), (0,), (1, 0)})
    h2 = hypergraph([[0, 1], [1, 2], [0, 1, 2]])
    assert delta_closure(h2).edges == powerset_closure(h2.edges)


def test_lower_associated_examples():
    simplex = delta_closure(hypergraph([[0, 1, 2]]))
    assert lower_associated(simplex).edges == simplex.edges
    h = hypergraph([[0, 1], [1, 2], [0, 1, 2]])
    assert lower_associated(h).edges == frozenset()
    h2 = hypergraph([[0], [1], [0, 1], [1, 2]])
    assert lower_associated(h2).edges == frozenset({(0,), (1,), (0, 1)})
    d = hyperdigraph([(1, 0), (1,), (0,), (2, 1)])
    assert lower_associated(d).edges == frozenset({(1, 0), (1,), (0,)})


def test_closure_operators_ignore_vertex_padding():
    h = hypergraph([[0, 1], [1, 2, 3]])
    padded = hypergraph(h.edges, vertices=set(h.vertices) | {9, 17})
    assert delta_closure(padded).edges == delta_closure(h).edges
    assert lower_associated(padded).edges == lower_associated(h).edges


def test_associated_independence_examples():
    h = hypergraph([[0, 1]])
    assert associated_independence(h, [0, 1]).edges == frozenset({(0, 1)})
    assert associated_independence(h, [0, 1, 2]).edges == frozenset(
        {(0, 1), (0, 1, 2)}
    )
    h2 = hypergraph([[0], [2]], vertices=[0, 1, 2])
    got = associated_independence(h2, [0, 1, 2]).edges
    assert got == superset_closure(h2.edges, [0, 1, 2])
    assert len(got) == 6


def test_lower_associated_independence_examples():
    full = hypergraph([[0], [1], [0, 1]])
    assert lower_associated_independence(full, [0, 1]).edges == full.edges
    h = hypergraph([[0, 1], [0, 1, 2]])
    assert lower_associated_independence(h, [0, 1, 2]).edges == frozenset(
        {(0, 1), (0, 1, 2)}
    )
    assert lower_associated_independence(hypergraph([[0, 1]]), [0, 1, 2]).edges == frozenset()


def test_independence_requires_covering_ambient():
    with pytest.raises(ValueError):
        associated_independence(hypergraph([[0, 5]]), [0, 1])


def test_max_min_examples():
    h = hypergraph([[0, 1], [0, 1, 2]])
    maximal, minimal = max_min_edges(h)
    assert maximal == frozenset({(0, 1, 2)})
    assert minimal == frozenset({(0, 1)})
    simplex = delta_closure(hypergraph([[0, 1, 2]]))
    maximal, minimal = max_min_edges(simplex)
    assert maximal == frozenset({(0, 1, 2)})
    assert minimal == frozenset({(0,), (1,), (2,)})
    disjoint = hypergraph([[0, 1], [2, 3]])
    assert max_min_edges(disjoint) == (disjoint.edges, disjoint.edges)


def test_directed_max_min_uses_subsequences():
    d = hyperdigraph([(0, 1), (0, 2, 1)])
    maximal, minimal = max_min_edges(d)
    assert maximal == frozenset({(0, 2, 1)})  # (0,1) is a subsequence
    assert minimal == frozenset({(0, 1)})
    d2 = hyperdigraph([(1, 0), (0, 2, 1)])
    maximal, minimal = max_min_edges(d2)
    assert maximal == frozenset({(1, 0), (0, 2, 1)})  # (1,0) reversed: not one
    assert minimal == frozenset({(1, 0), (0, 2, 1)})


def test_directed_and_undirected_kinds_stay_distinct():
    h = hypergraph([(0, 1)])
    d = hyperdigraph([(0, 1)])
    assert h.edges == d.edges and d.directed and not h.directed
    assert h != d and len({h, d}) == 2
    assert delta_closure(d).directed and lower_associated(d).directed
    assert project(d) == h and lift(h).directed


def test_project_and_lift():
    assert project(hyperdigraph([(1, 0)])).edges == frozenset({(0, 1)})
    allsix = hyperdigraph(list(permutations((0, 1, 2))))
    assert project(allsix).edges == frozenset({(0, 1, 2)})
    h = hypergraph([[0, 1, 2]])
    up = lift(h)
    assert len(up.edges) == 6
    assert project(up).edges == h.edges
    assert lift(hypergraph([], vertices=[0])).edges == frozenset()


def test_sigma_invariance():
    assert is_sigma_invariant(lift(hypergraph([[0, 1], [1, 2]])))
    assert not is_sigma_invariant(hyperdigraph([(0, 1)]))
    assert sheet_counts_ok(lift(hypergraph([[0, 1, 2]])))
    assert sheet_counts_ok(lift(hypergraph([[0, 1], [2, 3]])))
    with pytest.raises(ValueError):
        sheet_counts_ok(hyperdigraph([(0, 1)]))


def test_vertex_map_image():
    h = hypergraph([[0, 2]])
    assert vertex_map_image(h, {0: 0, 2: 2}).edges == h.edges
    collapsed = vertex_map_image(hypergraph([[0, 1]]), {0: 0, 1: 0})
    assert collapsed.edges == frozenset({(0,)})
    swapped = vertex_map_image(h, {0: 1, 2: 2, 1: 0})
    assert swapped.edges == frozenset({(1, 2)})
    with pytest.raises(ValueError):
        vertex_map_image(h, {0: 1})


def test_is_simplicial():
    assert is_simplicial(delta_closure(hypergraph([[0, 1, 2]])))
    assert not is_simplicial(hypergraph([[0, 1]]))
    assert is_simplicial(hypergraph([], vertices=[3]))


def test_edge_validation():
    with pytest.raises(ValueError):
        hypergraph([[0, 0]])
    with pytest.raises(ValueError):
        hyperdigraph([(1, 1)])
    with pytest.raises(ValueError):
        hypergraph([[]])
    with pytest.raises(ValueError):
        hypergraph([[-1]])
    assert hypergraph([[2, 0]]).edges == frozenset({(0, 2)})


@settings(max_examples=80, deadline=None)
@given(hypergraph_strategy())
def test_closure_is_idempotent_extensive(h):
    closed = delta_closure(h)
    assert h.edges <= closed.edges
    assert delta_closure(closed).edges == closed.edges
    assert is_simplicial(closed)


def digraph_strategy():
    edge = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(tuple)
    return st.sets(edge, max_size=10).map(hyperdigraph)


@settings(max_examples=80, deadline=None)
@given(hypergraph_strategy(), digraph_strategy())
def test_delta_closure_against_bruteforce(h, d):
    assert delta_closure(h).edges == powerset_closure(h.edges)
    assert delta_closure(d).edges == subsequence_closure(d.edges)


@settings(max_examples=80, deadline=None)
@given(hypergraph_strategy())
def test_lower_associated_is_idempotent_intensive(h):
    low = lower_associated(h)
    assert low.edges <= h.edges
    assert lower_associated(low).edges == low.edges
    assert is_simplicial(low)


@settings(max_examples=50, deadline=None)
@given(hypergraph_strategy(), hypergraph_strategy())
def test_closure_operators_monotone(a, b):
    union = hypergraph(a.edges | b.edges)
    assert delta_closure(a).edges <= delta_closure(union).edges
    assert lower_associated(a).edges <= lower_associated(union).edges


@settings(max_examples=60, deadline=None)
@given(hypergraph_strategy())
def test_max_min_identities(h):
    maximal, minimal = max_min_edges(h)
    closed = delta_closure(h)
    assert max_min_edges(closed)[0] == maximal
    assert delta_closure(hypergraph(maximal, vertices=h.vertices)).edges == closed.edges
    ambient = sorted(h.vertices) or [0]
    upper = associated_independence(
        hypergraph(h.edges, vertices=ambient), ambient
    )
    assert max_min_edges(upper)[1] == minimal
    again = associated_independence(
        hypergraph(minimal, vertices=ambient), ambient
    )
    assert again.edges == upper.edges


@settings(max_examples=60, deadline=None)
@given(hypergraph_strategy())
def test_project_lift_round_trip(h):
    up = lift(h)
    assert project(up).edges == h.edges
    assert is_sigma_invariant(up)
    for n, level in h.levels().items():
        count = 1
        for k in range(2, n + 1):
            count *= k
        assert len(up.level(n)) == count * len(level)


@settings(max_examples=40, deadline=None)
@given(hypergraph_strategy())
def test_independence_ops_against_bruteforce(h):
    ambient = sorted(set(range(4)) | h.vertices)
    based = hypergraph(h.edges, vertices=ambient)
    got = associated_independence(based, ambient).edges
    assert got == superset_closure(h.edges, ambient)
    low = lower_associated_independence(based, ambient).edges
    expected = set()
    for e in h.edges:
        rest = [v for v in ambient if v not in e]
        if all(
            tuple(sorted(set(e) | set(extra))) in h.edges
            for k in range(len(rest) + 1)
            for extra in combinations(rest, k)
        ):
            expected.add(e)
    assert low == expected
