"""Certified lower bounds on graph boxicity.

Two bounding methods (minimum interval supergraph / isoperimetric
profiles, and neighborhood expansion) plus spectral bounds for regular
graphs, validated against an exact small-graph oracle and extremal
constructions carrying explicit interval certificates.
"""

from .bitset import bits, full_mask, mask_of, members, popcount
from .errors import BudgetExceededError
from .expansion_bounds import (
    ExpansionCertificate,
    best_expansion_bound,
    bipartite_universal_bound,
    certify_expansion_bound,
    co_expansion_table,
    cross_expansion,
    universal_bound,
)
from .families import (
    RandomModelSpec,
    TightFamilyCertificate,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    petersen,
    sample,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_edges,
    bipartition,
    closed_neighborhood,
    complement,
    complete_graph,
    cycle,
    degree_summary,
    empty_graph,
    from_edges,
    from_pair_mask,
    induced_subgraph,
    is_complete,
    is_connected,
    open_neighborhood,
    path,
    strong_vertex_boundary,
    universal_vertices,
    vertex_boundary,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    emit,
    parse_config,
    run_bounds,
    run_experiment,
)
from .intervals import (
    BoxCertificate,
    IntervalRep,
    Ordering,
    boxicity_exact,
    boxicity_le,
    canonical_rep,
    min_interval_supergraph,
    verify_box_certificate,
)
from .isoperimetry import LeastUnions
from .reports import BoundReport
from .rng import Xoshiro256StarStar, derive_seed
from .spectral import (
    SpectralSummary,
    adjacency_spectrum,
    spectral_bound,
    strongly_regular_secondary,
)
from .supergraph_bounds import (
    degree_ratio_bound,
    detect_family_bound,
    min_supergraph_bound,
    strong_boundary_bound,
)

__version__ = "0.1.0"
