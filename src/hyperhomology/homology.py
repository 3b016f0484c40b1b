"""Homology of embedded chain complexes and the verified identities.

Everything here is exact.  The Betti numbers of a chain complex come from
one top-down reduction with clearing over Q (or Z/p), ``linalg.pivots``.  An
embedded complex reads its ranks from its image echelons.  An induced rank
counts source basis vectors extending a copy of the target's image echelon,
less the source's image rank, and inclusions are read off span echelons.

``quotient_complex`` gives explicit coset-representative bases.  Each
degree is eliminated once, into an echelon of the subspace keyed by largest
index; the representatives are the indices that are not keys, and a
vector's quotient coordinates are its normal form in that echelon.
``quotient_pair_check`` and the four-stage sequence build no quotient: the
former reads the long exact sequence of a pair, and the latter's middle
stages are the duals of the Sup and Inf complexes.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

from . import linalg
from .chains import (
    ChainComplex,
    EmbeddedComplex,
    _around_span,
    _betti_numbers,
    _closure_homology,
    _edge_chains,
    _embedded,
    _inf_and_sup,
    largest_inside,
)
from .errors import InvariantViolation, check_cap
from .fields import QQ, RationalField
from .hypergraphs import (
    Edge,
    Hypergraph,
    is_sigma_invariant,
    is_simplicial,
    lower_associated,
    project,
)
from .linalg import SparseMatrix


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers per degree, with optional cycle representatives."""

    field_name: str
    betti: tuple[int, ...]
    cycle_representatives: tuple[SparseMatrix, ...] | None = None

    def betti_dict(self) -> dict[str, int]:
        return {str(n): b for n, b in enumerate(self.betti)}


def betti(complex_: ChainComplex | EmbeddedComplex, *, representatives: bool = False) -> HomologySummary:
    """Exact Betti numbers: dim_n - rank B_n - rank B_{n+1}.

    A ChainComplex is validated (InvariantViolation if not one) and reduced
    with clearing (``linalg.pivots``).  An embedded complex reads rank B_n as
    the dimension of its degree-n ``image_echelons``, kept for induced ranks.
    """
    field = complex_.field
    if isinstance(complex_, ChainComplex):
        complex_.validate()
        matrices = complex_.boundaries
        numbers = _betti_numbers(complex_.dims, [m.columns() for m in matrices], field)
    else:
        matrices, ranks = complex_.images, [e.dimension for e in complex_.image_echelons] + [0]
        numbers = tuple(m.ncols - ranks[n] - ranks[n + 1] for n, m in enumerate(matrices))
    reps = None
    if representatives:
        reps = tuple(
            SparseMatrix.from_columns(field, m.ncols, linalg.kernel_basis(m)) for m in matrices
        )
    return HomologySummary(field.name, numbers, reps)


def induced_homology_rank(source: EmbeddedComplex, target: EmbeddedComplex, n: int) -> int:
    """Rank of H_n(source) -> H_n(target) induced by inclusion.

    Both complexes must be embedded in chains on the same labels, over one
    characteristic, and n must be >= 0 (ValueError otherwise); above the top
    degree the rank is 0.  Degree n of the source must lie in the target
    (``_inside``; InvariantViolation otherwise).  For subcomplexes A of B the
    rank is dim(A_n + B_n(B)) - dim B_n(B) - rank d(A_n), as Z_n(A) + B_n(B)
    is the kernel of d on A_n + B_n(B): the source basis vectors that extend
    a copy of the target's degree-(n+1) image echelon, less its image rank.
    """
    if source.labels is not target.labels and source.labels != target.labels:
        raise ValueError("complexes are not embedded in chains on the same labels")
    if source.field.characteristic != target.field.characteristic:
        raise ValueError("complexes are over fields of different characteristic")
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n >= len(source.embeddings):
        return 0
    if not _inside(source, target, n):
        raise InvariantViolation(f"degree-{n} chains do not lie in the target subcomplex")
    up = next(iter(target.image_echelons[n + 1 :]), linalg.Echelon(target.field)).copy()
    added = sum(up.add(col) is not None for col in source.embeddings[n].columns())
    return added - source.image_echelons[n].dimension


@dataclass(frozen=True)
class QuasiIsoReport:
    betti_inf: tuple[int, ...]
    betti_sup: tuple[int, ...]
    induced_ranks: tuple[int, ...]
    is_iso: bool

    def as_dict(self) -> dict:
        return {
            "betti_inf": list(self.betti_inf),
            "betti_sup": list(self.betti_sup),
            "induced_ranks": list(self.induced_ranks),
            "inf_sup_iso": self.is_iso,
        }


def verify_quasi_iso_theta(h: Hypergraph, field=QQ) -> QuasiIsoReport:
    """Check that inclusion of the Inf into the Sup complex is a quasi-iso.

    Per degree: equal Betti numbers on both sides and an inclusion-induced
    map on homology of full rank.  Both complexes are built from one set of
    edge chains: the edges of h and their faces, with no closure ambient.
    """
    inf, sup = _inf_and_sup(h, field, None)
    b_inf = betti(inf).betti
    b_sup = betti(sup).betti
    ranks = tuple(induced_homology_rank(inf, sup, n) for n in range(len(inf.labels)))
    is_iso = all(bi == bs == r for bi, bs, r in zip(b_inf, b_sup, ranks))
    return QuasiIsoReport(b_inf, b_sup, ranks, is_iso)


@dataclass(frozen=True)
class QuotientComplex:
    """Quotient of an ambient complex by a subcomplex, with representatives.

    representatives[n] lists, in increasing order, the ambient basis indices
    whose cosets form the quotient basis; echelons[n] is the echelon of the
    degree-n subspace, keyed by largest index, and the representatives are
    exactly the indices that are not its keys.  ``complex``, the quotient
    chain complex, projects the ambient boundaries of the representatives.
    """

    representatives: tuple[tuple[int, ...], ...]
    ambient: ChainComplex
    echelons: tuple[linalg.Echelon, ...] = dataclasses.field(repr=False, compare=False)

    def project_vector(self, n: int, vector: dict) -> dict:
        """Coordinates of an ambient degree-n vector in the quotient basis.

        The normal form of the vector is supported on the representatives
        and lies in the same coset, so it is read off directly.
        """
        reps = self.representatives[n]
        return {
            bisect_left(reps, i): v for i, v in self.echelons[n].reduce(vector).items()
        }

    @cached_property
    def complex(self) -> ChainComplex:
        ambient, reps = self.ambient, self.representatives
        dims = tuple(map(len, reps))
        boundaries = [SparseMatrix.zeros(ambient.field, 0, dims[0])] if dims else []
        for n in range(1, len(dims)):
            images = ambient.boundaries[n].columns()
            cols = [self.project_vector(n - 1, images[j]) for j in reps[n]]
            boundaries.append(SparseMatrix.from_columns(ambient.field, dims[n - 1], cols))
        labels = None
        if ambient.labels is not None:
            labels = tuple(tuple(level[j] for j in r) for level, r in zip(ambient.labels, reps))
        result = ChainComplex(ambient.field, dims, tuple(boundaries), labels=labels)
        result.validate()
        return result


def quotient_complex(
    ambient: ChainComplex, sub: Sequence[SparseMatrix]
) -> QuotientComplex:
    """Quotient chain complex of ambient modulo a boundary-closed subspace.

    sub[n] holds degree-n spanning columns in ambient coordinates; columns
    are reduced here, and the family must satisfy B(sub_n) within
    span(sub_{n-1}) (otherwise a ValueError is raised).  Each degree is
    eliminated once, into one echelon keyed by largest index; the indices
    that are not keys are the coset representatives.
    """
    field = ambient.field
    top = ambient.top_degree
    if len(sub) != top + 1:
        raise ValueError("one subspace per ambient degree expected")
    reduced: list[SparseMatrix] = []
    echelons: list[linalg.Echelon] = []
    for n, matrix in enumerate(sub):
        if matrix.nrows != ambient.dim(n):
            raise ValueError(f"degree-{n} subspace has wrong ambient dimension")
        echelon = linalg.Echelon(field)
        kept = [col for col in matrix.columns() if echelon.add(col) is not None]
        reduced.append(SparseMatrix.from_columns(field, matrix.nrows, kept))
        echelons.append(echelon)
    for n in range(1, top + 1):
        image = ambient.boundaries[n] @ reduced[n]
        if not all(echelons[n - 1].contains(col) for col in image.columns()):
            raise ValueError(f"subspace family is not boundary-closed at degree {n}")

    representatives = tuple(
        tuple(i for i in range(ambient.dim(n)) if i not in echelons[n].rows)
        for n in range(top + 1)
    )
    return QuotientComplex(representatives, ambient, tuple(echelons))


@dataclass(frozen=True)
class QuotientPairReport:
    betti_by_sup: tuple[int, ...]
    betti_by_inf: tuple[int, ...]
    q_surjective: bool

    @property
    def betti_equal(self) -> bool:
        return self.betti_by_sup == self.betti_by_inf

    def as_dict(self) -> dict:
        return {
            "betti_ambient_mod_sup": list(self.betti_by_sup),
            "betti_ambient_mod_inf": list(self.betti_by_inf),
            "q_surjective": self.q_surjective,
            "betti_equal": self.betti_equal,
        }


def quotient_pair_check(h: Hypergraph, field=QQ, *, max_degree: int | None = None) -> QuotientPairReport:
    """Compare C/Sup and C/Inf homology for h, C the full simplex on its vertices.

    C, the m-skeleton of the simplex on the N vertices of h (m = max_degree,
    by default the top edge's degree, at most N - 1), obeys the simplex cap
    and is never built: b_n(C) is [n = 0] + [n = m] binom(N - 1, m + 1).  The
    pair (C, W) gives b_n(C/W) = b_n(C) - r_n + b_{n-1}(W) - r_{n-1}, r_n the
    rank of H_n(W) -> H_n(C): b_m(W) at n = m (no degree m + 1), 1 at 0 = n < m
    when a 0-chain of W has a nonzero coefficient sum, and 0 otherwise.
    The map C/Inf -> C/Sup, x + Inf to x + Sup, is defined exactly when Inf
    lies in Sup, and it is then onto: that is the surjectivity flag.
    Before any other work it refuses, in this order, directed input, a
    negative max_degree and one below the top edge's degree (ValueError),
    and then N over the simplex cap.
    """
    if h.directed:
        raise ValueError("full simplex ambient applies to unordered hypergraphs")
    size, top = len(h.vertices), h.max_cardinality() - 1
    degree = max_degree if max_degree is not None else max(top, 0)
    if degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {degree}")
    if degree < top:
        raise ValueError(f"max_degree {degree} is below the top edge's degree {top}")
    check_cap(size, "simplex", f"full simplex on {size} vertices")
    inf, sup = _inf_and_sup(h, field, None)
    m = min(degree, size - 1)
    simplex = [(n == 0) + (n == m) * comb(size - 1, m + 1) for n in range(m + 1)]

    def quotient_betti(sub: EmbeddedComplex) -> tuple[int, ...]:
        b = [*betti(sub).betti, *[0] * (m + 1 - len(sub.labels))]
        ranks = [0] * m + b[m:]
        degree_0 = (col for e in sub.embeddings[:1] for col in e.columns())
        if m > 0 and any(field.from_fraction(sum(col.values())) for col in degree_0):
            ranks[0] = 1
        pairs = enumerate(zip(simplex, ranks))
        return tuple(c - r + (b[n - 1] - ranks[n - 1] if n else 0) for n, (c, r) in pairs)

    return QuotientPairReport(quotient_betti(sup), quotient_betti(inf), _inside(inf, sup))


def _inside(small: EmbeddedComplex, big: EmbeddedComplex, n: int | None = None) -> bool:
    """Whether small lies in big in degree n, or every degree, both on the same labels."""
    degrees = range(len(small.embeddings)) if n is None else (n,)
    return all(all(map(big.span_echelons[d].contains, small.embeddings[d].columns())) for d in degrees)


@dataclass(frozen=True)
class FourTermReport:
    """Dims, Betti numbers and surjectivity data for the four-stage sequence.

    Stage order: cochains on the closure, the duals of the Sup and of the
    Inf complex, and cochains on the largest simplicial part.
    stage_dims[k][n] is the degree-n dimension of stage k.
    """

    stage_dims: tuple[tuple[int, ...], ...]
    stage_betti: tuple[tuple[int, ...], ...]
    surjective: tuple[bool, bool, bool]
    all_identity: bool

    def as_dict(self) -> dict:
        return {
            "stage_dims": [list(d) for d in self.stage_dims],
            "stage_betti": [list(b) for b in self.stage_betti],
            "surjective": list(self.surjective),
            "all_identity": self.all_identity,
        }


def four_term_sequence(h: Hypergraph, field=QQ) -> FourTermReport:
    """The four-stage surjective sequence over the closure of h.

    The stages are cochains on the closure C, two quotients of them, and
    cochains on the largest deletion-closed part of h.  For the edge span V
    the middle stages divide by the largest and the smallest
    coboundary-closed subspaces around the cochains that vanish on V.
    These are the annihilators of Sup(V) and Inf(V); over a field C*/W^perp
    is W*, whose cohomology is dual to the homology of W.  So stages 2 and
    3 take the dims and Betti numbers of Sup and Inf.  The closure obeys
    the simplex cap, and its dims and Betti numbers are read from the nerve
    of the maximal edges (``_closure_homology``), so it is built only when
    that falls back.  Sup, Inf and the last stage, the span of the lower
    edges, are built from one ``_edge_chains`` of h on its own labels, which
    hold the lower edges too.  The maps are surjections when Inf lies in
    Sup and the lower edges lie in Inf, both checked with ``_inside``, and
    all identities exactly when h is simplicial.
    """
    closure_dims, closure_betti = _closure_homology(h, field)
    labels, span, boundary = _edge_chains(h, field, None)
    inf, sup = _around_span(field, labels, span, boundary)
    kept = lower_associated(h).edges
    lower_span = [[j for j in cols if labels[n][j] in kept] for n, cols in enumerate(span)]
    built = largest_inside(field, list(map(len, labels)), lower_span, boundary)
    lower = _embedded(field, labels, lower_span, *built)
    stage_dims = (closure_dims, sup.dims, inf.dims, lower.dims)
    stage_betti = (closure_betti, *(betti(c).betti for c in (sup, inf, lower)))
    surjective = (True, _inside(inf, sup), _inside(lower, inf))
    all_identity = len(set(stage_dims)) == 1 and all(surjective)
    if all_identity != is_simplicial(h):
        raise InvariantViolation(
            "four-term identity flag disagrees with simplicial test",
            certificate={"edges": sorted(h.edges)},
        )
    return FourTermReport(stage_dims, stage_betti, surjective, all_identity)


def hodge_laplacian(c: ChainComplex, n: int) -> tuple[SparseMatrix, int]:
    """Degree-n Hodge Laplacian and its harmonic rank (= Betti number).

    Defined with respect to the declared basis as orthonormal; requires
    rational coefficients, where ker L_n has dimension dim_n - rank L_n
    equal to the Betti number.
    """
    if not isinstance(c.field, RationalField):
        raise ValueError("Hodge Laplacian requires rational coefficients")
    down = c.boundary_or_zero(n)
    up = c.boundary_or_zero(n + 1)
    laplacian = down.transpose() @ down + up @ up.transpose()
    harmonic = c.dim(n) - linalg.rank(laplacian)
    return laplacian, harmonic


def sigma_action(chain: Edge | dict, s: Sequence[int]):
    """Permute the coordinates of a directed edge (or a formal chain).

    s lists images of positions 0..n-1 and acts without sign: coordinate i
    of the input moves to position s[i] of the result.
    """
    if isinstance(chain, dict):
        out: dict = {}
        for edge, coeff in chain.items():
            image = sigma_action(edge, s)
            out[image] = out.get(image, 0) + coeff
        return {e: c for e, c in out.items() if c}
    edge = tuple(chain)
    if sorted(s) != list(range(len(edge))):
        raise ValueError("s must be a permutation of the coordinate positions")
    result = [None] * len(edge)
    for i, v in enumerate(edge):
        result[s[i]] = v
    return tuple(result)


def invariant_dimension(h: Hypergraph, n: int) -> int:
    """Dimension of the coordinate-permutation-invariant chains in level n.

    For a sigma-invariant hyperdigraph this is the number of orbits, i.e.
    the number of underlying unordered edges.
    """
    if not is_sigma_invariant(h):
        raise ValueError("invariant dimension requires a sigma-invariant hyperdigraph")
    return len(project(h).level(n))
