"""Symmetry groups of hypergraphs over finite vertex sets.

Everything is brute force over vertex permutations with profile pruning,
capped by default at 10 vertices: correctness over cleverness.  The edge
action of the automorphism group is faithful, so automorphisms are stored
as permutations of the (sorted) edge list together with one vertex-level
representative each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .errors import ResourceCapError
from .hypergraphs import (
    Edge,
    Hypergraph,
    delta_closure,
    associated_independence,
    lower_associated,
    lower_associated_independence,
    edge_sort_key,
    is_sigma_invariant,
    max_min_edges,
    project,
)
from .metrics import MetricPointSample

DEFAULT_VERTEX_CAP = 10


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
        look = self._lookup()
        seen: set[int] = set()
        out = []
        for start in self.domain:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            v = look[start]
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = look[v]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out


@dataclass(frozen=True)
class PermutationGroup:
    """An explicit group of vertex permutations on a common domain."""

    domain: tuple[int, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(p.images for p in self.elements)

    def verify(self) -> None:
        elems = set(self.elements)
        if Permutation.identity(self.domain) not in elems:
            raise ValueError("identity missing")
        for a in self.elements:
            if a.inverse() not in elems:
                raise ValueError(f"inverse of {a.images} missing")
            for b in self.elements:
                if a.compose(b) not in elems:
                    raise ValueError("not closed under composition")

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return self.element_set() <= other.element_set()

    def is_normal_in(self, other: "PermutationGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        mine = self.element_set()
        return all(
            g.compose(h).compose(g.inverse()).images in mine
            for g in other.elements
            for h in self.elements
        )

    def generators(self) -> tuple[Permutation, ...]:
        """A small (greedy) generating set."""
        identity = Permutation.identity(self.domain)
        gens: list[Permutation] = []
        generated = {identity.images}
        for candidate in sorted(self.elements, key=lambda p: p.images):
            if candidate.images in generated:
                continue
            gens.append(candidate)
            generated = {identity.images}
            frontier = [identity]
            while frontier:
                step = []
                for a in frontier:
                    for g in gens:
                        b = a.compose(g)
                        if b.images not in generated:
                            generated.add(b.images)
                            step.append(b)
                frontier = step
            if len(generated) == self.order:
                break
        return tuple(gens)


def _vertex_profiles(h) -> dict[int, tuple]:
    """Invariant fingerprint per vertex: multiset of (edge size, position)."""
    prof: dict[int, list] = {v: [] for v in h.vertices}
    for e in h.edges:
        for pos, v in enumerate(e):
            prof[v].append((len(e), pos if h.directed else -1))
    return {v: tuple(sorted(items)) for v, items in prof.items()}


def _search_vertex_maps(h, predicate, cap: int) -> list[Permutation]:
    """All vertex permutations passing the per-edge predicate.

    Backtracking over images with profile pruning; edges fully contained in
    the assigned prefix are checked as soon as they close.
    """
    domain = tuple(sorted(h.vertices))
    if len(domain) > cap:
        raise ResourceCapError(
            f"vertex set of size {len(domain)} exceeds the cap of {cap}"
        )
    profiles = _vertex_profiles(h)
    candidates = {
        v: [w for w in domain if profiles[w] == profiles[v]] for v in domain
    }
    edges_by_last = {v: [] for v in domain}
    position = {v: k for k, v in enumerate(domain)}
    for e in h.edges:
        last = max(e, key=lambda v: position[v])
        edges_by_last[last].append(e)

    found: list[Permutation] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int):
        if k == len(domain):
            found.append(Permutation(domain, tuple(assignment[v] for v in domain)))
            return
        v = domain[k]
        for w in candidates[v]:
            if w in used:
                continue
            assignment[v] = w
            used.add(w)
            if all(predicate(e, assignment) for e in edges_by_last[v]):
                backtrack(k + 1)
            del assignment[v]
            used.discard(w)

    backtrack(0)
    found.sort(key=lambda p: p.images)
    return found


def homeo_group(h, cap: int = DEFAULT_VERTEX_CAP) -> PermutationGroup:
    """All vertex bijections mapping every edge onto an edge of h."""
    edges = h.edges

    if h.directed:
        def keeps(e, assignment):
            return tuple(assignment[v] for v in e) in edges
    else:
        def keeps(e, assignment):
            return tuple(sorted(assignment[v] for v in e)) in edges

    domain = tuple(sorted(h.vertices))
    group = PermutationGroup(domain, tuple(_search_vertex_maps(h, keeps, cap)))
    group.verify()
    return group


def stab_group(h, cap: int = DEFAULT_VERTEX_CAP) -> PermutationGroup:
    """Vertex bijections fixing every edge (setwise; exactly if directed)."""
    if h.directed:
        def fixes(e, assignment):
            return tuple(assignment[v] for v in e) == e
    else:
        def fixes(e, assignment):
            return tuple(sorted(assignment[v] for v in e)) == e

    domain = tuple(sorted(h.vertices))
    group = PermutationGroup(domain, tuple(_search_vertex_maps(h, fixes, cap)))
    group.verify()
    return group


@dataclass(frozen=True)
class EdgeActionGroup:
    """A group acting faithfully on the sorted edge list.

    Each element is a permutation of edge indices; vertex_reps holds one
    inducing vertex permutation per element.
    """

    edges: tuple[Edge, ...]
    elements: tuple[tuple[int, ...], ...]
    vertex_reps: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def edge_cycles(self, element: tuple[int, ...]) -> list[tuple[Edge, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(len(self.edges)):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            k = element[start]
            while k != start:
                cycle.append(k)
                seen.add(k)
                k = element[k]
            if len(cycle) > 1:
                out.append(tuple(self.edges[k] for k in cycle))
        return out

    def generator_cycles(self) -> list[list[list[list[int]]]]:
        """Cycle notation (lists of edges) for a greedy generating set."""
        gens = []
        generated = {tuple(range(len(self.edges)))}
        for element in sorted(self.elements):
            if element in generated:
                continue
            gens.append(element)
            changed = True
            while changed:
                changed = False
                for a in list(generated):
                    for g in gens:
                        comp = tuple(a[k] for k in g)
                        if comp not in generated:
                            generated.add(comp)
                            changed = True
                        comp2 = tuple(g[k] for k in a)
                        if comp2 not in generated:
                            generated.add(comp2)
                            changed = True
            if len(generated) == self.order:
                break
        return [
            [[list(e) for e in cycle] for cycle in self.edge_cycles(g)] for g in gens
        ]


def edge_action(h, perm: Permutation) -> tuple[int, ...]:
    edges = h.sorted_edges()
    index = {e: k for k, e in enumerate(edges)}
    return tuple(index[perm.apply_edge(e, h.directed)] for e in edges)


def aut_group(h, cap: int = DEFAULT_VERTEX_CAP) -> EdgeActionGroup:
    """The induced faithful action on edges: one element per Homeo/Stab coset."""
    homeo = homeo_group(h, cap)
    stab = stab_group(h, cap)
    if not stab.is_normal_in(homeo):
        raise AssertionError("stabilizer is not normal in the homeomorphism group")
    edges = h.sorted_edges()
    seen: dict[tuple[int, ...], Permutation] = {}
    for perm in homeo.elements:
        action = edge_action(h, perm)
        if action not in seen:
            seen[action] = perm
    if len(seen) * stab.order != homeo.order:
        raise AssertionError("coset count does not match |Homeo| / |Stab|")
    items = sorted(seen.items())
    return EdgeActionGroup(
        edges,
        tuple(a for a, _ in items),
        tuple(p for _, p in items),
    )


def pi_surjection_check(h: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> bool:
    """Does every projected automorphism lift to the hyperdigraph?

    Requires a sigma-invariant input.  Checked exhaustively: each edge
    action of the projected hypergraph must be induced by some vertex map
    preserving the hyperdigraph.
    """
    if not is_sigma_invariant(h):
        raise ValueError("pi surjectivity requires a sigma-invariant hyperdigraph")
    flat = project(h)
    down = aut_group(flat, cap)
    homeo_up = homeo_group(h, cap)
    induced = {edge_action(flat, perm) for perm in homeo_up.elements}
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


def subgroup_identities(
    h: Hypergraph, ambient: Iterable[int], cap: int = DEFAULT_VERTEX_CAP
) -> SubgroupReport:
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
    groups = {name: homeo_group(g, cap) for name, g in derived.items()}
    orders = {name: grp.order for name, grp in groups.items()}
    for name in ("h", "max", "min", "closure", "independence"):
        orders[f"aut_{name}"] = aut_group(derived[name], cap).order
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


def isom_group(
    sample: MetricPointSample, cap: int = DEFAULT_VERTEX_CAP, tolerance=0
) -> PermutationGroup:
    """Distance-preserving bijections of a finite metric sample.

    Comparison is exact for rational metrics; for float-valued metrics a
    non-zero tolerance can be supplied.
    """
    ids = tuple(sorted(sample.ids))
    if len(ids) > cap:
        raise ResourceCapError(f"sample of size {len(ids)} exceeds the cap of {cap}")
    key = sample.metric.distance_key

    def preserves(images: dict[int, int]) -> bool:
        assigned = list(images)
        for a_idx in range(len(assigned)):
            for b_idx in range(a_idx + 1, len(assigned)):
                a, b = assigned[a_idx], assigned[b_idx]
                d1, d2 = key(a, b), key(images[a], images[b])
                if tolerance:
                    if abs(float(d1) - float(d2)) > tolerance:
                        return False
                elif d1 != d2:
                    return False
        return True

    found = []
    for images in permutations(ids):
        mapping = dict(zip(ids, images))
        if preserves(mapping):
            found.append(Permutation(ids, images))
    group = PermutationGroup(ids, tuple(sorted(found, key=lambda p: p.images)))
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
    cap: int = DEFAULT_VERTEX_CAP,
    tolerance=0,
) -> IsometricAutReport:
    """Isometric automorphisms: Isom(h) modulo the stabilizer inside it."""
    if set(h.vertices) != set(sample.ids):
        raise ValueError("hypergraph vertices must match the sample points")
    isom = isom_group(sample, cap, tolerance)
    homeo = homeo_group(h, cap)
    stab = stab_group(h, cap)
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
    actions_isom = {edge_action(h, p) for p in isom_h.elements}
    actions_all = {edge_action(h, p) for p in homeo.elements}
    return IsometricAutReport(
        isom.order,
        isom_h.order,
        stab_isom.order,
        len(actions_isom),
        normal,
        actions_isom <= actions_all,
    )
