"""Consistent multi-way matching.

Given n element sets of m elements and pairwise similarity blocks T_ij,
find one permutation per set maximizing the total aligned similarity
sum_{i != j} tr(A_i T_ij A_j^T). Solvers here seed coordinate ascent from
maximum-spanning-tree alignments of the block scores, alongside a
single-anchor baseline and a spectral synchronization baseline, plus the
generators and benchmarks to compare them.
"""

from .assignment import f_score, lap_max
from .errors import (
    ConvergenceError,
    DimensionError,
    MwmatchError,
    ParameterError,
    ParseError,
    SizeError,
    ValidationError,
)
from .evalbench import (
    BenchRecord,
    EtaTopology,
    avg_error_rate,
    make_instance,
    noise_sweep,
    pca_experiment,
    run_algorithm,
    theorem2_bound,
    theorem2_satisfied,
)
from .matchmodel import (
    EtaGraph,
    SimilarityTensor,
    Solution,
    gen_ground_truth,
    gen_noisy_tensor,
    median_heuristic_sigma,
    objective,
    tensor_from_points,
)
from .matrixcore import sym_eigs_topk
from .solver import (
    SolveReport,
    SolverConfig,
    coordinate_ascent,
    coordinate_update,
    mst_initialize,
    pairwise_alignment,
    solve_alg1,
    solve_alg2,
)
from .spantree import (
    AlignGraph,
    build_align_graph,
    max_spanning_tree,
    min_bottleneck_weight,
    prim_order,
)
from .syncbaseline import permutation_synchronization

__version__ = "0.1.0"

__all__ = [
    "AlignGraph", "BenchRecord", "ConvergenceError", "DimensionError",
    "EtaGraph", "EtaTopology", "MwmatchError", "ParameterError", "ParseError",
    "SimilarityTensor", "SizeError", "SolveReport", "SolverConfig",
    "Solution", "ValidationError", "avg_error_rate", "build_align_graph",
    "coordinate_ascent", "coordinate_update", "f_score", "gen_ground_truth",
    "gen_noisy_tensor", "lap_max", "make_instance", "max_spanning_tree",
    "median_heuristic_sigma", "min_bottleneck_weight", "mst_initialize",
    "noise_sweep", "objective", "pairwise_alignment", "pca_experiment",
    "permutation_synchronization", "prim_order", "run_algorithm", "solve_alg1",
    "solve_alg2", "sym_eigs_topk", "tensor_from_points", "theorem2_bound",
    "theorem2_satisfied",
]
