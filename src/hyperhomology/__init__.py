"""Exact embedded homology of hypergraphs and hyperdigraphs.

The package computes, over exact coefficient fields, the infimum and
supremum chain complexes of a hypergraph's edge span, their homology and
Hodge Laplacians, quotient complexes, hard-sphere filtrations over finite
metric samples with persistent Betti numbers, symmetry groups by pruned
backtracking, and the integer divisor bounds for the orders of the
associated bundles.
"""

from .bundles import (
    Euclidean,
    OrderBound,
    RealProjective,
    RealProjectiveTimesEuclidean,
    Sphere,
    Surface,
    a_coeff,
    embedding_dimension_bound,
    order_bound,
    rho,
    sheet_count_check,
)
from .chains import (
    ChainComplex,
    EmbeddedComplex,
    ambient_complex,
    delta_identity_check,
    face_table,
    inf_complex,
    sup_complex,
)
from .errors import (
    InvariantViolation,
    ParseError,
    ResourceCapError,
    TheoremCheckError,
)
from .fields import QQ, PrimeField, field_by_name
from .filtration import (
    FiltrationStep,
    PersistentBettiTable,
    build_filtration,
    emptiness_threshold,
    persistent_betti,
)
from .groups import (
    EdgeActionGroup,
    Permutation,
    PermutationGroup,
    aut_group,
    aut_isom,
    homeo_group,
    isom_group,
    pi_surjection_check,
    stab_group,
    subgroup_identities,
)
from .homology import (
    FourTermReport,
    HomologySummary,
    QuasiIsoReport,
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
from .hypergraphs import (
    Hypergraph,
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
    vertex_map_image,
)
from .jsonio import (
    Report,
    emit_hypergraph,
    emit_report,
    parse_hypergraph,
    parse_point_sample,
)
from .metrics import (
    MetricPointSample,
    PiValue,
    SqrtValue,
    circle_sample,
    critical_radii,
    distance_matrix_sample,
    euclidean_sample,
    evenly_spaced_circle_sample,
    hard_sphere,
)

__version__ = "0.1.0"
