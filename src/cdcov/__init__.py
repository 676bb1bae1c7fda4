"""Compression-decompression covariance estimation with SURE-tuned dimension."""

from .baselines import (
    AtConfig,
    PoetConfig,
    adaptive_threshold,
    cross_validate_delta,
    default_delta_grid,
    hard_threshold_estimate,
    poet,
)
from .errors import CdcovError, InvalidInputError, NumericalError, UsageError
from .estimator import CdCoeffs, cd_coeffs, cd_estimate, shrinkage_compare
from .haar import HaarSampleReport, haar_mc_oracle, haar_unitary, shrinkage_basis_fit
from .matrices import (
    CovPair,
    DataMatrix,
    RngSeed,
    SymMat,
    center_columns,
    cov_pair,
    frob_norm,
    load_data_matrix,
    load_sym_mat,
    op_norm,
    save_sym_mat,
    schur,
)
from .simulate import (
    BenchRecord,
    SimConfig,
    draw_data,
    make_sigma0,
    run_cell,
    sparsity_sweep,
)
from .sure import (
    MomentCoeffs,
    RiskCurve,
    SureCurve,
    cov_hat_diag_pair,
    default_k_grid,
    moment_coeffs,
    risk_offset_estimate,
    risk_oracle,
    select_k,
    sure_closed,
    sure_curve,
    unbiased_moment_coeffs,
    var_hat_diag,
    var_hat_off,
)

__version__ = "0.1.0"
