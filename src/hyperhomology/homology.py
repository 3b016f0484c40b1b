"""Homology of embedded chain complexes and the verified identities.

Everything here is exact.  Every Betti number comes from one top-down
reduction over Q (or Z/p), ``linalg.pivots``: of a chain complex's
boundaries with clearing, of an embedded complex's boundary images (in its
edge labels) without, and of an ambient's boundaries modulo Inf or Sup for
the quotients by them.  Induced ranks are cycles modulo boundaries.

``quotient_complex`` gives explicit coset-representative bases.  Each
degree is eliminated once, into an echelon of the subspace keyed by largest
index; the representatives are the indices that are not keys, and a
vector's quotient coordinates are its normal form in that echelon.
``quotient_pair_check`` and the four-stage sequence build no quotient; the
latter's middle stages are the duals of the Sup and Inf complexes.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import linalg
from .chains import (
    ChainComplex,
    EmbeddedComplex,
    _embedded,
    _inf_and_sup,
    ambient_complex,
    largest_inside,
)
from .errors import InvariantViolation
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
    with clearing.  An embedded complex is read through its boundary images,
    whose label coordinates do not index its basis: no clearing there.
    """
    chain = isinstance(complex_, ChainComplex)
    if chain:
        complex_.validate()
    matrices = complex_.boundaries if chain else complex_.images
    field = complex_.field
    found = linalg.pivots([m.columns() for m in matrices], field, clear=chain)
    numbers = _betti_numbers([m.ncols for m in matrices], found)
    reps = None
    if representatives:
        reps = tuple(
            SparseMatrix.from_columns(field, m.ncols, linalg.kernel_basis(m)) for m in matrices
        )
    return HomologySummary(field.name, numbers, reps)


def _betti_numbers(dims, found: list[dict]) -> tuple[int, ...]:
    """dims[n] - r_n - r_{n+1}, where r_n counts the keys of ``pivots`` in degree n."""
    ranks = [len(keys) for keys in found] + [0]
    return tuple(d - ranks[n] - ranks[n + 1] for n, d in enumerate(dims))


def induced_homology_rank(source: EmbeddedComplex, target: EmbeddedComplex, n: int) -> int:
    """Rank of H_n(source) -> H_n(target) induced by inclusion.

    Both complexes must be embedded in chains on the same labels, and the
    source cycles (the kernel of its images) must lie in the target (checked);
    their rank is taken modulo the target's images, in the labels.
    """
    if source.labels is not target.labels and source.labels != target.labels:
        raise ValueError("complexes are not embedded in chains on the same labels")
    cycles = linalg.kernel_basis(source.images[n]) if n < len(source.images) else []
    if not cycles:
        return 0
    cycle_matrix = SparseMatrix.from_columns(source.field, source.dims[n], cycles)
    in_labels = source.embeddings[n] @ cycle_matrix
    if not linalg.columns_in_span(target.embeddings[n], in_labels):
        raise InvariantViolation(f"degree-{n} cycles do not lie in the target subcomplex")
    top = len(target.images) - 1
    up = target.images[n + 1] if n < top else SparseMatrix.zeros(target.field, 0, 0)
    return linalg.image_rank_modulo(in_labels.columns(), up, target.field)


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


def quotient_pair_check(h: Hypergraph, ambient: ChainComplex, field=QQ) -> QuotientPairReport:
    """Compare homology of ambient/Sup and ambient/Inf for the edge span of h.

    No quotient is built: over a field, b_n(C/W) = dim C_n - dim W_n - r_n
    - r_{n+1}, r_n the rank of the ambient boundary columns modulo W_{n-1},
    found with clearing as ``_inf_and_sup`` certifies W boundary-closed.
    The map C/Inf -> C/Sup, x + Inf to x + Sup, is defined exactly when Inf
    lies in Sup, and it is then onto: that is the surjectivity flag.
    """
    inf, sup = _inf_and_sup(h, field, ambient)
    columns = [b.columns() for b in ambient.boundaries]

    def quotient_betti(sub: EmbeddedComplex) -> tuple[int, ...]:
        modulo = [m.columns() for m in sub.embeddings]
        found = linalg.pivots(columns, field, clear=True, modulo=modulo)
        return _betti_numbers([c - w for c, w in zip(ambient.dims, sub.dims)], found)

    return QuotientPairReport(quotient_betti(sup), quotient_betti(inf), _inf_in_sup(inf, sup))


def _inf_in_sup(inf: EmbeddedComplex, sup: EmbeddedComplex) -> bool:
    """Whether Inf lies in Sup in every degree, both on the same labels."""
    return all(map(linalg.columns_in_span, sup.embeddings, inf.embeddings))


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
    3 take the dims and Betti numbers of Sup and Inf, built from the edges
    and their faces.  The maps are surjections when Inf lies in Sup and the
    lower edges lie in Inf, both checked, and all identities exactly when
    h is simplicial.  The closure obeys the simplex cap (``ambient_complex``),
    and the last stage is the span of the lower edges inside it.
    """
    ambient = ambient_complex(h, "closure", field=field)
    inf, sup = _inf_and_sup(h, field, None)
    lower_edges = lower_associated(h).edges
    span = [[k for k, e in enumerate(level) if e in lower_edges] for level in ambient.labels]
    columns = [b.columns() for b in ambient.boundaries]
    lower = _embedded(largest_inside, (ambient.labels, span, columns), field)
    top = ambient.top_degree

    def padded(values) -> tuple[int, ...]:
        return tuple(values) + (0,) * (top + 1 - len(values))

    stages = (ambient, sup, inf, lower)
    stage_dims = tuple(padded(c.dims) for c in stages)
    stage_betti = tuple(padded(betti(c).betti) for c in stages)

    def units(n: int) -> SparseMatrix:
        index = {e: k for k, e in enumerate(inf.labels[n])}
        columns = [{index[ambient.labels[n][k]]: field.one} for k in span[n]]
        return SparseMatrix.from_columns(field, len(index), columns)

    lower_in_inf = all(linalg.columns_in_span(e, units(n)) for n, e in enumerate(inf.embeddings))
    surjective = (True, _inf_in_sup(inf, sup), lower_in_inf)
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
