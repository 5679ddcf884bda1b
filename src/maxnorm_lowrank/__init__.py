"""Entrywise (maximum-norm) low-rank approximation of function-generated
matrices and tensors: constructive Taylor/sketch/feature factorizations,
closed-form rank bounds, and an alternating-projections experiment harness.
"""

from .altproj import (
    AltProjConfig,
    alternating_projections,
    binary_search_eps,
    clip_projection,
)
from .bounds import (
    analytical_rank_bound,
    stage_two_onset,
    three_stage_profile,
    ut_bound,
    ut_tighter_bound,
)
from .compress import (
    CompressionReport,
    augment_rank_one,
    hadamard_compress,
    jl_compress,
    khatri_rao_rows,
    rank_formula,
)
from .experiments import run_trials
from .kernels import (
    KernelSpec,
    cauchy,
    distance_matrix,
    eval_kernel_matrix,
    eval_kernel_tensor,
    exp_affine,
    exp_dist,
    gauss_sq_dist,
    gaussian_on_sphere,
    quartic_dist,
    sinh_hoip,
)
from .lowrank import (
    Factorization,
    RankOne,
    max_norm,
    max_norm_error,
    row_norm_inf,
    truncated_svd,
)
from .rff import (
    rff_factorization,
    rff_then_compress,
    sample_frequencies,
)
from .sampling import PointSet, SamplingScheme, sample_ball, sample_sphere
from .taylor import (
    TaylorPlan,
    approx_inner_product,
    approx_sq_distance,
    approx_sq_distance_local,
    default_order,
    taylor_coeffs,
)
from .tensors import (
    CPTensor,
    TTTensor,
    cp_from_points,
    cp_hadamard_power,
    cp_to_tt,
    taylor_tt_approx,
    tt_add,
    tt_hadamard,
    tt_round,
    tt_svd,
)

__version__ = "0.1.0"
