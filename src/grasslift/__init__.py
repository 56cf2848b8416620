"""Exact construction and verification of rank-metric matrix codes over GF(p)
and of the anticode-optimal constant-dimension subspace codes lifted from them.

Everything is computed in exact arithmetic and every claimed property
(minimum distances, Singleton and anticode bounds, duality, complete-graph
structure) is re-verified by exhaustive or explicitly-sampled computation.
"""

from .gf import (
    ExtFieldElement,
    is_construction_prime,
    is_prime,
    require_construction_prime,
)
from .matfp import (
    MatrixFp,
    batch_rank,
)
from .codes import (
    ExtVector,
    RankMetricCode,
    build_image_code,
    enumerate_ext_vectors,
    even_zero_image,
    image_rank_counts,
    is_mrd,
    isometry_counterexamples,
    min_nonzero_rank,
    min_rank_distance,
    odd_zero_image,
    sample_image_pair_min_rank,
    singleton_max_dim,
    variant_image,
    weight_table_csv,
    weight_table_rows,
)
from .grassmann import (
    GrassmannianCode,
    anticode_bound,
    anticode_optimal_code,
    code_params,
    compare_variant_codes,
    dual_code,
    enumerate_grassmannian,
    gaussian_coefficient,
    lift_code,
    min_subspace_distance,
    optimal_code_size,
    pairwise_intersection_dims,
    span,
)
from .graph import (
    CodeGraph,
    adjacency_csv,
    adjacency_matrix,
    degree_sequence,
    intersection_graph,
    is_complete,
    to_dot,
    vertex_sidecar_json,
)

__version__ = "0.1.0"
