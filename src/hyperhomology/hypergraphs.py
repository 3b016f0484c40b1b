"""Hypergraphs, undirected or directed, over an integer-ordered vertex set.

Vertices are non-negative integers and the total order on them is the
integer order.  An (undirected) hyperedge is a strictly increasing tuple;
a directed hyperedge is a repetition-free tuple whose order matters.  All
values here are immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import factorial
from typing import Callable, Iterable, Mapping

Edge = tuple[int, ...]


def _check_vertex(v) -> int:
    """v, unless it is not a non-negative integer.  Callers test the common
    case, ``v.__class__ is int and v >= 0``, inline and call this otherwise."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"vertex must be a non-negative integer, got {v!r}")
    return v


def undirected_edge(vertices: Iterable[int]) -> Edge:
    """Canonical (sorted, duplicate-free) form of an unordered hyperedge."""
    vs = [v if v.__class__ is int and v >= 0 else _check_vertex(v) for v in vertices]
    vs.sort()
    vs = tuple(vs)
    if not vs:
        raise ValueError("hyperedge must be nonempty")
    if len(set(vs)) != len(vs):
        raise ValueError(f"hyperedge has repeated vertices: {vertices!r}")
    return vs


def directed_edge(vertices: Iterable[int]) -> Edge:
    """Validated directed hyperedge; order is preserved."""
    vs = tuple([v if v.__class__ is int and v >= 0 else _check_vertex(v) for v in vertices])
    if not vs:
        raise ValueError("directed hyperedge must be nonempty")
    if len(set(vs)) != len(vs):
        raise ValueError(f"directed hyperedge has repeated vertices: {vertices!r}")
    return vs


def edge_sort_key(edge: Edge) -> tuple[int, Edge]:
    return (len(edge), edge)


@dataclass(frozen=True)
class Hypergraph:
    """A finite set of hyperedges over an explicit vertex set.

    Edges are unordered (sorted tuples) unless ``directed`` is set, in which
    case each edge keeps its coordinate order.
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]
    directed: bool = False

    def __post_init__(self):
        if not self.vertices.issuperset(chain.from_iterable(self.edges)):
            missing = sorted(set(chain.from_iterable(self.edges)) - self.vertices)
            raise ValueError(f"edges use vertices outside the vertex set: {missing}")

    def level(self, n: int) -> tuple[Edge, ...]:
        """Edges of cardinality n, in canonical order."""
        return tuple(sorted(e for e in self.edges if len(e) == n))

    def levels(self) -> dict[int, tuple[Edge, ...]]:
        out: dict[int, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(len(e), []).append(e)
        return {n: tuple(sorted(es)) for n, es in sorted(out.items())}

    def max_cardinality(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=edge_sort_key))

    def __len__(self):
        return len(self.edges)

    def __contains__(self, edge) -> bool:
        return tuple(edge) in self.edges


def _build(edges: frozenset[Edge], vertices: Iterable[int], directed: bool) -> Hypergraph:
    extra = [v if v.__class__ is int and v >= 0 else _check_vertex(v) for v in vertices]
    return Hypergraph(frozenset(chain.from_iterable(edges)).union(extra), edges, directed)


def hypergraph(edges: Iterable[Iterable[int]], vertices: Iterable[int] = ()) -> Hypergraph:
    """Build a hypergraph, canonicalizing and deduplicating edges.

    The vertex set is the union of the edge supports and any explicitly
    supplied extra vertices.
    """
    return _build(frozenset(undirected_edge(e) for e in edges), vertices, False)


def hyperdigraph(edges: Iterable[Iterable[int]], vertices: Iterable[int] = ()) -> Hypergraph:
    """Build a directed hypergraph; edges keep their coordinate order."""
    return _build(frozenset(directed_edge(e) for e in edges), vertices, True)


def subedges(edge: Edge) -> list[Edge]:
    """All nonempty subsets (sorted) or subsequences of an edge.

    ``itertools.combinations`` preserves input order, which is exactly the
    subsequence enumeration for directed edges and, since unordered edges
    are stored sorted, the canonical subset enumeration otherwise.
    """
    out: list[Edge] = []
    for k in range(1, len(edge) + 1):
        out.extend(combinations(edge, k))
    return out


def is_subedge(small: Edge, big: Edge, directed: bool) -> bool:
    if len(small) > len(big):
        return False
    if not directed:
        return set(small) <= set(big)
    it = iter(big)
    return all(v in it for v in small)  # subsequence test


def delta_closure(h):
    """Smallest edge set containing h that is closed under vertex deletion.

    Unordered edges contribute all nonempty subsets, directed edges all
    nonempty subsequences.  Longest edges go first, so an edge already in
    the closure is skipped: its subedges are there too.
    """
    closed: set[Edge] = set()
    for e in sorted(h.edges, key=len, reverse=True):
        if e not in closed:
            closed.update(subedges(e))
    return Hypergraph(h.vertices, frozenset(closed), h.directed)


def lower_associated(h):
    """Largest vertex-deletion-closed subset of h.

    Keeps exactly the edges whose full closure lies inside h: visited by
    increasing size, an edge is kept when it has one vertex or when each
    face that drops one position was kept.
    """
    kept: set[Edge] = set()
    for e in sorted(h.edges, key=len):
        if len(e) == 1 or all(e[:i] + e[i + 1 :] in kept for i in range(len(e))):
            kept.add(e)
    return Hypergraph(h.vertices, frozenset(kept), h.directed)


def _require_ambient(h: Hypergraph, ambient: Iterable[int]) -> tuple[int, ...]:
    amb = tuple(sorted({_check_vertex(v) for v in ambient}))
    support = {v for e in h.edges for v in e}
    if not support <= set(amb):
        raise ValueError("ambient vertex set does not cover the hypergraph support")
    return amb


def associated_independence(h: Hypergraph, ambient: Iterable[int]) -> Hypergraph:
    """Smallest superset-closed hypergraph containing h, within ambient."""
    if h.directed:
        raise ValueError("independence closure is defined for unordered hypergraphs")
    amb = _require_ambient(h, ambient)
    out: set[Edge] = set()
    for e in h.edges:
        rest = [v for v in amb if v not in e]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                out.add(tuple(sorted(e + extra)))
    return Hypergraph(frozenset(amb), frozenset(out))


def lower_associated_independence(h: Hypergraph, ambient: Iterable[int]) -> Hypergraph:
    """Largest superset-closed hypergraph contained in h, within ambient."""
    if h.directed:
        raise ValueError("independence closure is defined for unordered hypergraphs")
    amb = _require_ambient(h, ambient)
    kept = set()
    for e in h.edges:
        rest = [v for v in amb if v not in e]
        ok = True
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                if tuple(sorted(e + extra)) not in h.edges:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept.add(e)
    return Hypergraph(frozenset(amb), frozenset(kept))


def max_min_edges(h) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Maximal and minimal edges under containment (subsequence if directed)."""
    edges = h.sorted_edges()
    maximal = frozenset(
        e
        for e in edges
        if not any(t != e and is_subedge(e, t, h.directed) for t in edges)
    )
    minimal = frozenset(
        e
        for e in edges
        if not any(t != e and is_subedge(t, e, h.directed) for t in edges)
    )
    return maximal, minimal


def project(h: Hypergraph) -> Hypergraph:
    """Forget coordinate order; directed edges become sorted vertex sets."""
    if not h.directed:
        raise ValueError("project expects a hyperdigraph")
    return Hypergraph(h.vertices, frozenset(tuple(sorted(e)) for e in h.edges))


def lift(h: Hypergraph) -> Hypergraph:
    """All orderings of every edge; the full preimage under projection."""
    if h.directed:
        raise ValueError("lift expects an unordered hypergraph")
    edges = {p for e in h.edges for p in permutations(e)}
    return Hypergraph(h.vertices, frozenset(edges), directed=True)


def is_sigma_invariant(h: Hypergraph) -> bool:
    """True iff the edge set is closed under coordinate permutations."""
    if not h.directed:
        raise ValueError("sigma invariance concerns hyperdigraphs")
    return all(p in h.edges for e in h.edges for p in permutations(e))


def sheet_counts_ok(h: Hypergraph) -> bool:
    """Check |level n| = n! * |projected level n| for every n."""
    if not is_sigma_invariant(h):
        raise ValueError("sheet count requires a sigma-invariant hyperdigraph")
    proj = project(h)
    ns = set(h.levels()) | set(proj.levels())
    return all(len(h.level(n)) == factorial(n) * len(proj.level(n)) for n in ns)


def vertex_map_image(h: Hypergraph, f: Mapping[int, int] | Callable[[int], int]) -> Hypergraph:
    """Image hypergraph under a total vertex map; cardinalities may drop."""
    if h.directed:
        raise ValueError("vertex_map_image is defined for unordered hypergraphs")
    lookup = f.__getitem__ if isinstance(f, Mapping) else f
    images = set()
    mapped_vertices = set()
    try:
        for v in sorted(h.vertices):
            mapped_vertices.add(_check_vertex(lookup(v)))
        for e in h.edges:
            images.add(tuple(sorted({lookup(v) for v in e})))
    except KeyError as exc:
        raise ValueError(f"vertex map is not defined on vertex {exc}") from exc
    return Hypergraph(frozenset(mapped_vertices), frozenset(images))


def is_simplicial(h) -> bool:
    """True iff h equals its own deletion closure."""
    return delta_closure(h).edges == h.edges
