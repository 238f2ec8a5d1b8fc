"""Sparse-plus-low-rank SDP conversion toolkit.

Turns an SDP whose data matrices split into a pattern-sparse part plus a
shared low-rank part into an equivalent SDP with bounded-treewidth sparsity,
solves the converted block problem, and recovers a low-rank solution of the
original.
"""

from .graph_core import (
    Graph,
    TreeDecomposition,
    chordal_complete,
    clique_tree,
    root_binary,
    to_binary,
    width,
)
from .sdp_model import (
    Constraint,
    FactoredSolution,
    SparseSymMatrix,
    SplrSdp,
    Term,
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
from .chordal_conversion import (RecoveryError, assemble, convert,
                                 convert_problem, export_sdpa)
from .completion_rank import (
    AffineSlice,
    bp_bound,
    max_rank_for_constraints,
    psd_complete_min_rank,
    rank_reduce_affine,
    recover_low_rank,
    reduce_block,
)
from .solver import (
    AdmmParams,
    SolveStats,
    admm_solve,
)
from .instances import (
    gen_bqp_relaxation,
    gen_lb_padded,
    gen_lb_small,
    gen_lb_tree,
    gen_min_bisection,
    gen_phi_witness,
    gen_simex,
    phi_witness_matrix,
)

__version__ = "0.1.0"
