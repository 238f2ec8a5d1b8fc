"""Sparse-plus-low-rank SDP conversion toolkit.

Turns an SDP whose data matrices split into a pattern-sparse part plus a
shared low-rank part into an equivalent SDP with bounded-treewidth sparsity,
solves the converted block problem, and recovers a low-rank solution of the
original.
"""

from .graph_core import (
    Graph,
    TreeDecomposition,
    brute_force_treewidth,
    chordal_complete,
    clique_tree,
    root_binary,
    split_vertex,
    to_binary,
    validate_decomposition,
    width,
)
from .sdp_model import (
    Constraint,
    FactoredSolution,
    SparseSymMatrix,
    SplrSdp,
    Term,
    detect_splr,
    eval_constraint,
    eval_objective,
    is_feasible,
    validate_problem,
)
from .sparse_extension import (
    build_extension,
    extend_solution,
    restrict_solution,
    verify_extension,
)
from .chordal_conversion import assemble, convert, convert_problem, export_sdpa
from .completion_rank import (
    AffineSlice,
    RecoveryError,
    bp_bound,
    max_rank_for_constraints,
    psd_complete_min_rank,
    rank_reduce_affine,
    recover_low_rank,
    reduce_block,
)
from .solver import (
    AdmmDivergence,
    AdmmParams,
    SolveStats,
    admm_solve,
    dense_reference_solve,
    project_null_psd,
)
from .instances import (
    coupling_singular_values,
    gen_bqp_relaxation,
    gen_lb_padded,
    gen_lb_small,
    gen_lb_tree,
    gen_min_bisection,
    gen_phi_witness,
    gen_simex,
    lb_tree_feasible_point,
    phi_witness_matrix,
)

__version__ = "0.1.0"
