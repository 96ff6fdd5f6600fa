"""Two-task continual-learning linear regression laboratory."""

from .errors import GrclabError
from .estimators import Weights, fit_grcl, fit_joint, fit_min_norm, fit_ocl
from .model import (
    Design,
    ProblemInstance,
    RiskDecomposition,
    Spectrum,
    effective_rank,
    gaussian_index_set,
    instance_from_text,
    instance_to_text,
    make_problem_pk,
    make_spectrum,
    one_hot_index_sets,
)
from .oracle import binomial_mixed_moment, binomial_pmf, exact_one_hot_expected_excess
from .regularizers import (
    Regularizer,
    corollary3_regularizer,
    sketch_regularizer,
    topk_empirical,
    topk_spectrum_regularizer,
    zero_regularizer,
)
from .risk import (
    GRCL,
    Frequency,
    Joint,
    L2RCL,
    OCL,
    MonteCarloEstimate,
    Replications,
    RiskWeighting,
    Sketch,
    TopK,
    conditional_risk,
    conditional_risk_joint,
    monte_carlo_expected_excess,
    population_excess,
)
from .sampler import sample_gaussian_design, sample_labels, sample_one_hot_design, stream_seed
from .theory import (
    BoundReport,
    gaussian_ocl_lower,
    gaussian_ocl_upper,
    grcl_theory_one_hot,
    joint_theory_one_hot,
    l2rcl_upper_one_hot,
    ocl_gap_one_hot,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
