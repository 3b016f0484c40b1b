"""Homology of embedded chain complexes and the verified identities.

Everything here is exact: Betti numbers come from ranks over Q (or Z/p),
induced maps are computed by expressing cycle bases in target coordinates,
and quotient complexes carry explicit coset-representative bases.  Each
degree of a quotient is eliminated once, into an echelon of the subspace
keyed by largest index.  The representatives are the basis indices that
are not keys: exactly the indices i whose unit vector lies outside the
subspace plus the unit vectors below i.  A vector's quotient coordinates
are its normal form in that echelon.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .chains import (
    ChainComplex,
    EmbeddedComplex,
    _edge_indices,
    ambient_complex,
    chain_complex_from_basis,
    closure_basis,
    empty_complex,
    inf_complex,
    largest_inside,
    smallest_containing,
    sup_complex,
)
from .errors import InvariantViolation
from .fields import QQ, RationalField
from .hypergraphs import (
    Edge,
    Hyperdigraph,
    Hypergraph,
    delta_closure,
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

    def total(self) -> int:
        return sum(self.betti)


def betti(complex_: ChainComplex | EmbeddedComplex, *, representatives: bool = False) -> HomologySummary:
    """Exact Betti numbers: dim_n - rank B_n - rank B_{n+1}.

    Raises InvariantViolation when the input is not a chain complex.
    """
    c = complex_.complex if isinstance(complex_, EmbeddedComplex) else complex_
    c.validate()
    ranks = [linalg.rank(c.boundary_or_zero(n)) for n in range(c.top_degree + 2)]
    numbers = tuple(
        c.dim(n) - ranks[n] - ranks[n + 1] for n in range(c.top_degree + 1)
    )
    reps = None
    if representatives:
        reps = tuple(
            SparseMatrix.from_columns(
                c.field, c.dim(n), linalg.kernel_basis(c.boundary_or_zero(n))
            )
            for n in range(c.top_degree + 1)
        )
    return HomologySummary(c.field.name, numbers, reps)


def cycle_columns(c: ChainComplex, n: int) -> list[dict]:
    return linalg.kernel_basis(c.boundary_or_zero(n))


def induced_homology_rank(source: EmbeddedComplex, target: EmbeddedComplex, n: int) -> int:
    """Rank of H_n(source) -> H_n(target) induced by inclusion.

    Both complexes must be embedded in the same ambient complex; the
    source degree-n chain space must lie inside the target one.
    """
    if source.ambient is not target.ambient and source.ambient != target.ambient:
        raise ValueError("complexes are not embedded in a common ambient")
    cycles = cycle_columns(source.complex, n)
    if not cycles:
        return 0
    cycle_matrix = SparseMatrix.from_columns(
        source.complex.field, source.complex.dim(n), cycles
    )
    in_ambient = source.embeddings[n] @ cycle_matrix
    emb_t = target.embeddings[n]
    in_target = linalg.solve_matrix(emb_t, in_ambient)
    if in_target is None:
        raise InvariantViolation(
            f"degree-{n} cycles do not lie in the target subcomplex"
        )
    boundaries = target.complex.boundary_or_zero(n + 1)
    return linalg.image_rank_modulo(
        in_target.columns(), boundaries, target.complex.field, target.complex.dim(n)
    )


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


def verify_quasi_iso_theta(h: Hypergraph | Hyperdigraph, field=QQ) -> QuasiIsoReport:
    """Check that inclusion of the Inf into the Sup complex is a quasi-iso.

    Per degree: equal Betti numbers on both sides and an inclusion-induced
    map on homology of full rank.
    """
    ambient = ambient_complex(h, "closure", field=field)
    inf = inf_complex(h, field=field, ambient=ambient)
    sup = sup_complex(h, field=field, ambient=ambient)
    b_inf = betti(inf).betti
    b_sup = betti(sup).betti
    top = ambient.top_degree
    ranks = tuple(induced_homology_rank(inf, sup, n) for n in range(top + 1))
    is_iso = all(
        bi == bs == r for bi, bs, r in zip(b_inf, b_sup, ranks)
    )
    return QuasiIsoReport(b_inf, b_sup, ranks, is_iso)


@dataclass(frozen=True)
class QuotientComplex:
    """Quotient of an ambient complex by a subcomplex, with representatives.

    representatives[n] lists, in increasing order, the ambient basis indices
    whose cosets form the quotient basis; echelons[n] is the echelon of the
    degree-n subspace, keyed by largest index, and the representatives are
    exactly the indices that are not its keys.
    """

    complex: ChainComplex
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
    # project_vector reads only the representatives and the echelons, so the
    # boundaries below are projected through it before the complex exists
    quotient = QuotientComplex(
        ChainComplex(field, (), (), labels=()),
        representatives,
        ambient,
        tuple(echelons),
    )
    dims = tuple(len(reps) for reps in representatives)
    if not dims:
        return quotient
    boundaries = [SparseMatrix.zeros(field, 0, dims[0])]
    for n in range(1, top + 1):
        images = ambient.boundaries[n].columns()
        cols = [quotient.project_vector(n - 1, images[j]) for j in representatives[n]]
        boundaries.append(SparseMatrix.from_columns(field, dims[n - 1], cols))
    labels = None
    if ambient.labels is not None:
        labels = tuple(
            tuple(ambient.labels[n][j] for j in representatives[n])
            for n in range(top + 1)
        )
    result = ChainComplex(field, dims, tuple(boundaries), labels=labels)
    result.validate()
    return dataclasses.replace(quotient, complex=result)


def quotient_map_surjective(
    by_inf: QuotientComplex, by_sup: QuotientComplex
) -> bool:
    """Verify per degree that the canonical map (C mod Inf) -> (C mod Sup)
    hits everything.

    The map sends a coset x + Inf to x + Sup; it is well defined because
    Inf sits inside Sup, and this check computes its rank honestly.
    """
    top = by_inf.ambient.top_degree
    field = by_inf.ambient.field
    for n in range(top + 1):
        cols = [
            by_sup.project_vector(n, {j: field.one})
            for j in by_inf.representatives[n]
        ]
        matrix = SparseMatrix.from_columns(
            field, by_sup.complex.dim(n), cols
        )
        if linalg.rank(matrix) != by_sup.complex.dim(n):
            return False
    return True


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
    """Compare homology of ambient/Sup and ambient/Inf for the edge span of h."""
    inf = inf_complex(h, field=field, ambient=ambient)
    sup = sup_complex(h, field=field, ambient=ambient)
    by_sup = quotient_complex(ambient, sup.embeddings)
    by_inf = quotient_complex(ambient, inf.embeddings)
    return QuotientPairReport(
        betti(by_sup.complex).betti,
        betti(by_inf.complex).betti,
        quotient_map_surjective(by_inf, by_sup),
    )


def _reversed_complex(c: ChainComplex) -> ChainComplex:
    """Reindex so the transposed boundaries form a chain complex again.

    Degree m of the result is degree top - m of the input with boundary
    equal to the transpose of the input boundary one degree up.
    """
    top = c.top_degree
    if top < 0:
        return c
    dims = tuple(c.dim(top - m) for m in range(top + 1))
    boundaries = [SparseMatrix.zeros(c.field, 0, dims[0])]
    for m in range(1, top + 1):
        boundaries.append(c.boundaries[top - m + 1].transpose())
    return ChainComplex(c.field, dims, tuple(boundaries))


@dataclass(frozen=True)
class FourTermReport:
    """Dims, Betti numbers and surjectivity data for the four-stage sequence.

    Stage order: cochains on the closure, the quotient by the inward part
    of the complement, the quotient by its outward hull, and cochains on
    the largest simplicial part.  stage_dims[k][n] is the degree-n
    dimension of stage k.
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


def four_term_sequence(h: Hypergraph | Hyperdigraph, field=QQ) -> FourTermReport:
    """The four-stage surjective sequence over the closure of h.

    Working with functions on the closure (boundary transposed, so the
    differential raises degree), the complement of the edge span yields an
    inward and an outward subcomplex: in the reversed complex they are the
    Inf and the Sup of the complement, built by ``largest_inside`` and
    ``smallest_containing`` exactly as ``inf_complex`` and ``sup_complex``
    build them for the edge span.  Quotienting by them gives the two
    middle stages, and functions on the largest deletion-closed part of h
    give the last.  All three successive maps are canonical surjections,
    and they are all identities exactly when h is already simplicial.
    """
    closed = delta_closure(h)
    lower = lower_associated(h)
    if not closed.edges:
        empty = empty_complex(field)
        b = betti(empty).betti
        return FourTermReport(((),) * 4, (b,) * 4, (True, True, True), True)
    ambient = ambient_complex(h, "closure", field=field)
    top = ambient.top_degree
    one = field.one

    reversed_ambient = _reversed_complex(ambient)

    def reversed_indices(g) -> list[set[int]]:
        # degree m of the reversed complex is degree top - m of the closure
        return [set(_edge_indices(ambient, g, top - m)) for m in range(top + 1)]

    in_h, in_lower = reversed_indices(h), reversed_indices(lower)
    complement = [
        [i for i in range(reversed_ambient.dim(m)) if i not in in_h[m]]
        for m in range(top + 1)
    ]
    inward = largest_inside(reversed_ambient, complement)
    outward = smallest_containing(reversed_ambient, complement)
    stage2 = quotient_complex(reversed_ambient, inward)
    stage3 = quotient_complex(reversed_ambient, outward)

    if lower.edges:
        stage4_complex = chain_complex_from_basis(closure_basis(lower), field)
        b4 = betti(stage4_complex).betti
        b4 = b4 + (0,) * (top + 1 - len(b4))
    else:
        b4 = (0,) * (top + 1)

    def unreverse(values: tuple[int, ...]) -> tuple[int, ...]:
        padded = list(values) + [0] * (top + 1 - len(values))
        return tuple(padded[top - n] for n in range(top + 1))

    dims1 = tuple(ambient.dim(n) for n in range(top + 1))
    dims2 = unreverse(stage2.complex.dims)
    dims3 = unreverse(stage3.complex.dims)
    b1 = betti(ambient).betti
    b2 = unreverse(betti(stage2.complex).betti)
    b3 = unreverse(betti(stage3.complex).betti)

    # the three maps are canonical quotient projections; surjectivity needs
    # the two containments below, which we verify explicitly
    inward_in_outward = all(
        linalg.columns_in_span(outward[m], inward[m]) for m in range(top + 1)
    )
    outward_misses_lower = all(
        linalg.columns_in_span(
            SparseMatrix.from_columns(
                field,
                reversed_ambient.dim(m),
                [{i: one} for i in range(reversed_ambient.dim(m)) if i not in in_lower[m]],
            ),
            outward[m],
        )
        for m in range(top + 1)
    )
    surjective = (True, inward_in_outward, outward_misses_lower)

    lower_basis_dims = unreverse(tuple(len(indices) for indices in in_lower))
    all_identity = (
        dims1 == dims2 == dims3 == lower_basis_dims and all(surjective)
    )
    if all_identity != is_simplicial(h):
        raise InvariantViolation(
            "four-term identity flag disagrees with simplicial test",
            certificate={"edges": sorted(h.edges)},
        )
    return FourTermReport(
        (dims1, dims2, dims3, lower_basis_dims),
        (b1, b2, b3, b4),
        surjective,
        all_identity,
    )


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


def invariant_dimension(h: Hyperdigraph, n: int) -> int:
    """Dimension of the coordinate-permutation-invariant chains in level n.

    For a sigma-invariant hyperdigraph this is the number of orbits, i.e.
    the number of underlying unordered edges.
    """
    if not is_sigma_invariant(h):
        raise ValueError("invariant dimension requires a sigma-invariant hyperdigraph")
    return len(project(h).level(n))
