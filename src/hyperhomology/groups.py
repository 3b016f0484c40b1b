"""Symmetry groups of hypergraphs and metric samples over finite vertex sets.

Every group is found by one backtracking search over vertex maps, bounded
by the vertex cap (``errors.check_cap``).  It prunes candidate images by
vertex profiles and checks each edge as soon as its last vertex is
assigned.  The vertices are assigned in an order that completes as many
edges as early as it can (the first step of graph automorphism search in
McKay, "Practical graph isomorphism", 1981), so that edges are checked
early whatever the labels.  The isometry group runs the same search on the
complete graph, whose order is the id order, so each pairwise distance is
compared when its later point is assigned; the distances are looked up in
a table built once per sample, as one small int per class of equal exact
distances.  Groups are listed element by element, but closure and
normality are checked on greedy generators, computed once per group, not
on all pairs of elements.  The edge action of the automorphism group is
faithful, so automorphisms are stored as permutations of the (sorted) edge
list together with one vertex-level representative each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import check_cap
from .hypergraphs import (
    Edge,
    Hypergraph,
    delta_closure,
    associated_independence,
    lower_associated,
    lower_associated_independence,
    is_sigma_invariant,
    max_min_edges,
    project,
)
from .metrics import MetricPointSample


@dataclass(frozen=True)
class Permutation:
    """A bijection of a fixed vertex domain, stored as an image tuple."""

    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(self.domain):
            raise ValueError("images must be a permutation of the domain")

    @classmethod
    def identity(cls, domain: Sequence[int]) -> "Permutation":
        d = tuple(sorted(domain))
        return cls(d, d)

    def _lookup(self) -> dict[int, int]:
        return dict(zip(self.domain, self.images))

    def _index_images(self) -> tuple[int, ...]:
        """The images as positions in the domain."""
        position = {v: k for k, v in enumerate(self.domain)}
        return tuple(position[v] for v in self.images)

    def __call__(self, vertex: int) -> int:
        return self.images[self.domain.index(vertex)]

    def apply_edge(self, edge: Edge, directed: bool) -> Edge:
        look = self._lookup()
        mapped = tuple(look[v] for v in edge)
        return mapped if directed else tuple(sorted(mapped))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other."""
        look = self._lookup()
        return Permutation(
            self.domain, tuple(look[v] for v in other.images)
        )

    def inverse(self) -> "Permutation":
        pairs = sorted(zip(self.images, self.domain))
        return Permutation(self.domain, tuple(v for _, v in pairs))

    def cycles(self) -> list[tuple[int, ...]]:
        return [tuple(self.domain[k] for k in c) for c in _cycles(self._index_images())]


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of length > 1 of an index permutation, least index first."""
    seen: set[int] = set()
    out = []
    for start in range(len(images)):
        cycle = []
        k = start
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = images[k]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out


@dataclass(frozen=True)
class PermutationGroup:
    """An explicit group of vertex permutations on a common domain."""

    domain: tuple[int, ...]
    elements: tuple[Permutation, ...]

    # (greedy generators, whether their closure is the element set), set on
    # the instance by the first _greedy() call; the elements never change
    _greedy_result = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def _greedy(self) -> tuple[list[tuple[int, ...]], bool]:
        if self._greedy_result is None:
            members = {p._index_images() for p in self.elements}
            gens, generated = _greedy_generators(members)
            object.__setattr__(self, "_greedy_result", (gens, generated == members))
        return self._greedy_result

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(p.images for p in self.elements)

    def verify(self) -> None:
        """Raise ValueError unless the elements form a group.

        Each element is a greedy generator or generated by them, so the
        elements are a group exactly when they equal the closure.
        """
        if Permutation.identity(self.domain) not in set(self.elements):
            raise ValueError("identity missing")
        if not self._greedy()[1]:
            raise ValueError("not closed under composition")

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return self.element_set() <= other.element_set()

    def is_normal_in(self, other: "PermutationGroup") -> bool:
        """Whether this group is normal in other (both groups).

        Conjugation is an automorphism, so conjugating generators by
        generators is enough.
        """
        if not self.is_subgroup_of(other):
            return False
        mine = self.element_set()
        gens = self.generators()
        return all(
            g.compose(h).compose(g.inverse()).images in mine
            for g in other.generators()
            for h in gens
        )

    def generators(self) -> tuple[Permutation, ...]:
        """A small (greedy) generating set."""
        return tuple(
            Permutation(self.domain, tuple(self.domain[k] for k in g))
            for g in self._greedy()[0]
        )


def _greedy_generators(elements) -> tuple[list, set]:
    """Greedy generators of a set of index permutations, and their closure.

    Candidates are taken in sorted order, and each one not yet generated
    becomes a generator.  The closure grows by composing on the right with
    the generators, and stops growing once it is larger than the set, which
    is then no group.  Until then the closure is closed under the earlier
    generators, so a new generator's first step composes with it alone.
    """
    members = sorted(set(elements))
    gens: list[tuple[int, ...]] = []
    generated = {tuple(range(len(m))) for m in members[:1]}  # the identity
    for candidate in members:
        if len(generated) >= len(members):
            break
        if candidate in generated:
            continue
        gens.append(candidate)
        frontier, step_gens = list(generated), [candidate]
        while frontier and len(generated) <= len(members):
            step = []
            for a in frontier:
                for g in step_gens:
                    b = tuple(a[k] for k in g)
                    if b not in generated:
                        generated.add(b)
                        step.append(b)
            frontier, step_gens = step, gens
    return gens, generated


def _vertex_profiles(h) -> dict[int, tuple]:
    """Invariant fingerprint per vertex: multiset of (edge size, position)."""
    prof: dict[int, list] = {v: [] for v in h.vertices}
    for e in h.edges:
        for pos, v in enumerate(e):
            prof[v].append((len(e), pos if h.directed else -1))
    return {v: tuple(sorted(items)) for v, items in prof.items()}


def _search_order(domain: Sequence[int], edges) -> list[int]:
    """The order in which the search assigns the vertices.

    Next comes the vertex that completes the most edges together with the
    vertices already placed, so that edges are checked as early as they can
    be; ties go to the vertex in more edges, then to the smallest id.
    """
    edges_of: dict[int, list[int]] = {v: [] for v in domain}
    missing = []
    for k, e in enumerate(edges):
        support = set(e)
        missing.append(len(support))
        for v in support:
            edges_of[v].append(k)
    order: list[int] = []
    remaining = list(domain)
    while remaining:
        v = max(
            remaining,
            key=lambda u: (sum(missing[k] == 1 for k in edges_of[u]), len(edges_of[u])),
        )
        order.append(v)
        remaining.remove(v)
        for k in edges_of[v]:
            missing[k] -= 1
    return order


def _search_vertex_maps(h, predicate) -> list[Permutation]:
    """All vertex permutations passing the per-edge predicate.

    Backtracking over images with profile pruning, in ``_search_order``;
    each edge is checked as soon as its last vertex is assigned.
    """
    domain = tuple(sorted(h.vertices))
    check_cap(len(domain), "vertex", f"vertex set of size {len(domain)}")
    profiles = _vertex_profiles(h)
    candidates = {
        v: [w for w in domain if profiles[w] == profiles[v]] for v in domain
    }
    order = _search_order(domain, h.edges)
    edges_by_last = {v: [] for v in domain}
    position = {v: k for k, v in enumerate(order)}
    for e in h.edges:
        last = max(e, key=lambda v: position[v])
        edges_by_last[last].append(e)

    found: list[Permutation] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int):
        if k == len(order):
            found.append(Permutation(domain, tuple(assignment[v] for v in domain)))
            return
        v = order[k]
        for w in candidates[v]:
            if w in used:
                continue
            assignment[v] = w
            used.add(w)
            if all(predicate(e, assignment) for e in edges_by_last[v]):
                backtrack(k + 1)
            del assignment[v]
            used.discard(w)

    try:
        backtrack(0)
    finally:
        del backtrack  # a cycle through its own closure cell, which only gc would free
    found.sort(key=lambda p: p.images)
    return found


def homeo_group(h) -> PermutationGroup:
    """All vertex bijections mapping every edge onto an edge of h."""
    edges = h.edges

    if h.directed:
        def keeps(e, assignment):
            return tuple(assignment[v] for v in e) in edges
    else:
        def keeps(e, assignment):
            return tuple(sorted(assignment[v] for v in e)) in edges

    domain = tuple(sorted(h.vertices))
    group = PermutationGroup(domain, tuple(_search_vertex_maps(h, keeps)))
    group.verify()
    return group


def stab_group(h) -> PermutationGroup:
    """Vertex bijections fixing every edge (setwise; exactly if directed)."""
    if h.directed:
        def fixes(e, assignment):
            return tuple(assignment[v] for v in e) == e
    else:
        def fixes(e, assignment):
            return tuple(sorted(assignment[v] for v in e)) == e

    domain = tuple(sorted(h.vertices))
    group = PermutationGroup(domain, tuple(_search_vertex_maps(h, fixes)))
    group.verify()
    return group


@dataclass(frozen=True)
class EdgeActionGroup:
    """A group acting faithfully on the sorted edge list.

    Each element is a permutation of edge indices; vertex_reps holds one
    inducing vertex permutation per element.  homeo and stab are the vertex
    groups it is the quotient of.
    """

    edges: tuple[Edge, ...]
    elements: tuple[tuple[int, ...], ...]
    vertex_reps: tuple[Permutation, ...]
    homeo: PermutationGroup
    stab: PermutationGroup

    @property
    def order(self) -> int:
        return len(self.elements)

    def edge_cycles(self, element: tuple[int, ...]) -> list[tuple[Edge, ...]]:
        return [tuple(self.edges[k] for k in c) for c in _cycles(element)]

    def generator_cycles(self) -> list[list[list[list[int]]]]:
        """Cycle notation (lists of edges) for a greedy generating set."""
        gens, _ = _greedy_generators(self.elements)
        return [
            [[list(e) for e in cycle] for cycle in self.edge_cycles(g)] for g in gens
        ]


def _edge_action_map(h):
    """The map from a vertex permutation to the permutation it induces on
    the sorted edge list, with the edge index built once."""
    edges = h.sorted_edges()
    index = {e: k for k, e in enumerate(edges)}
    arrange = tuple if h.directed else lambda mapped: tuple(sorted(mapped))

    def action(perm: Permutation) -> tuple[int, ...]:
        look = perm._lookup()
        return tuple(index[arrange([look[v] for v in e])] for e in edges)

    return action


def edge_action(h, perm: Permutation) -> tuple[int, ...]:
    return _edge_action_map(h)(perm)


def aut_group(h) -> EdgeActionGroup:
    """The induced faithful action on edges: one element per Homeo/Stab coset."""
    homeo = homeo_group(h)
    stab = stab_group(h)
    if not stab.is_normal_in(homeo):
        raise AssertionError("stabilizer is not normal in the homeomorphism group")
    act = _edge_action_map(h)
    seen: dict[tuple[int, ...], Permutation] = {}
    for perm in homeo.elements:
        action = act(perm)
        if action not in seen:
            seen[action] = perm
    if len(seen) * stab.order != homeo.order:
        raise AssertionError("coset count does not match |Homeo| / |Stab|")
    items = sorted(seen.items())
    return EdgeActionGroup(
        h.sorted_edges(),
        tuple(a for a, _ in items),
        tuple(p for _, p in items),
        homeo,
        stab,
    )


def pi_surjection_check(h: Hypergraph) -> bool:
    """Does every projected automorphism lift to the hyperdigraph?

    Requires a sigma-invariant input.  Checked exhaustively: each edge
    action of the projected hypergraph must be induced by some vertex map
    preserving the hyperdigraph.
    """
    if not is_sigma_invariant(h):
        raise ValueError("pi surjectivity requires a sigma-invariant hyperdigraph")
    flat = project(h)
    down = aut_group(flat)
    homeo_up = homeo_group(h)
    act = _edge_action_map(flat)
    induced = {act(perm) for perm in homeo_up.elements}
    return all(a in induced for a in down.elements)


@dataclass(frozen=True)
class SubgroupReport:
    orders: dict[str, int]
    homeo_max_equals_closure: bool
    homeo_min_equals_independence: bool
    homeo_contained_in_derived: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.homeo_max_equals_closure
            and self.homeo_min_equals_independence
            and self.homeo_contained_in_derived
        )

    def as_dict(self) -> dict:
        return {
            "orders": dict(self.orders),
            "homeo_max_equals_closure": self.homeo_max_equals_closure,
            "homeo_min_equals_independence": self.homeo_min_equals_independence,
            "homeo_contained_in_derived": self.homeo_contained_in_derived,
            "all_ok": self.all_ok,
        }


def subgroup_identities(h: Hypergraph, ambient: Iterable[int]) -> SubgroupReport:
    """Compare the symmetry groups of h with those of its derived hypergraphs.

    All groups are taken as subgroups of the permutations of the ambient
    vertex set (the comparison happens before quotienting by stabilizers):
    vertex maps preserving the maximal edges are exactly those preserving
    the deletion closure, dually for minimal edges and the independence
    closure, and every symmetry of h preserves all four derived
    hypergraphs.
    """
    amb = frozenset(ambient) | h.vertices
    base = Hypergraph(amb, h.edges)
    maximal, minimal = max_min_edges(base)
    derived = {
        "h": base,
        "max": Hypergraph(amb, maximal),
        "min": Hypergraph(amb, minimal),
        "closure": Hypergraph(amb, delta_closure(base).edges),
        "lower": Hypergraph(amb, lower_associated(base).edges),
        "independence": associated_independence(base, amb),
        "lower_independence": lower_associated_independence(base, amb),
    }
    with_aut = ("h", "max", "min", "closure", "independence")
    auts = {name: aut_group(derived[name]) for name in with_aut}
    groups = {
        name: auts[name].homeo if name in auts else homeo_group(g)
        for name, g in derived.items()
    }
    orders = {name: grp.order for name, grp in groups.items()}
    orders.update((f"aut_{name}", action.order) for name, action in auts.items())
    contained = all(
        groups["h"].is_subgroup_of(groups[name])
        for name in ("closure", "independence", "lower", "lower_independence")
    )
    return SubgroupReport(
        orders,
        groups["max"].element_set() == groups["closure"].element_set(),
        groups["min"].element_set() == groups["independence"].element_set(),
        contained,
    )


def isom_group(sample: MetricPointSample, *, tolerance=0) -> PermutationGroup:
    """Distance-preserving bijections of a finite metric sample.

    The vertex-map search runs on the complete graph over the sample, whose
    search order is the id order: each pair's distance is compared with its
    image's once, when the pair's later point is assigned.  The distances
    are looked up in a table of both orders of every pair, built once from
    ``metric.pair_keys``.  With tolerance 0 the table holds a small int per
    distinct exact key, so comparison is exact for rational metrics; with a
    non-zero tolerance (for float-valued metrics) it holds the keys as
    floats, and two distances match when they differ by at most it.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be >= 0 and finite, got {tolerance!r}")
    ids = tuple(sorted(sample.ids))
    check_cap(len(ids), "vertex", f"sample of size {len(ids)}")
    table = {}
    classes: dict = {}
    for (a, b), key in sample.metric.pair_keys(ids).items():
        value = float(key) if tolerance else classes.setdefault(key, len(classes))
        table[a, b] = table[b, a] = value

    if tolerance:
        def preserves(pair, assignment):
            a, b = pair
            return abs(table[pair] - table[assignment[a], assignment[b]]) <= tolerance
    else:
        def preserves(pair, assignment):
            a, b = pair
            return table[pair] == table[assignment[a], assignment[b]]

    complete = Hypergraph(frozenset(ids), frozenset(combinations(ids, 2)))
    group = PermutationGroup(ids, tuple(_search_vertex_maps(complete, preserves)))
    group.verify()
    return group


@dataclass(frozen=True)
class IsometricAutReport:
    isom_order: int
    isom_h_order: int
    stab_isom_order: int
    aut_isom_order: int
    stab_isom_normal_in_isom_h: bool
    aut_isom_subgroup_of_aut: bool

    def as_dict(self) -> dict:
        return {
            "isom_order": self.isom_order,
            "isom_h_order": self.isom_h_order,
            "stab_isom_order": self.stab_isom_order,
            "aut_isom_order": self.aut_isom_order,
            "stab_isom_normal_in_isom_h": self.stab_isom_normal_in_isom_h,
            "aut_isom_subgroup_of_aut": self.aut_isom_subgroup_of_aut,
        }


def aut_isom(
    h: Hypergraph,
    sample: MetricPointSample,
    *,
    tolerance=0,
) -> IsometricAutReport:
    """Isometric automorphisms: Isom(h) modulo the stabilizer inside it."""
    if set(h.vertices) != set(sample.ids):
        raise ValueError("hypergraph vertices must match the sample points")
    isom = isom_group(sample, tolerance=tolerance)
    homeo = homeo_group(h)
    stab = stab_group(h)
    isom_imgs = isom.element_set()
    isom_h = PermutationGroup(
        homeo.domain,
        tuple(p for p in homeo.elements if p.images in isom_imgs),
    )
    stab_isom = PermutationGroup(
        homeo.domain,
        tuple(p for p in stab.elements if p.images in isom_imgs),
    )
    isom_h.verify()
    stab_isom.verify()
    normal = stab_isom.is_normal_in(isom_h)
    act = _edge_action_map(h)
    actions_isom = {act(p) for p in isom_h.elements}
    actions_all = {act(p) for p in homeo.elements}
    return IsometricAutReport(
        isom.order,
        isom_h.order,
        stab_isom.order,
        len(actions_isom),
        normal,
        actions_isom <= actions_all,
    )
