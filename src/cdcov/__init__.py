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
from .estimator import CdEstimate, cd_estimate
from .haar import HaarSampleReport, haar_mc_oracle
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
)
from .simulate import (
    BenchRecord,
    RiskCurve,
    SimConfig,
    draw_data,
    make_sigma0,
    risk_oracle,
    run_cell,
    sparsity_sweep,
)
from .sure import (
    MomentCoeffs,
    SureCurve,
    default_k_grid,
    select_k,
    unbiased_moment_coeffs,
)

__version__ = "0.1.0"
