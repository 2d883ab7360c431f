"""Fisher information and constrained Cramer-Rao bounds for blind FIR
multichannel estimation.

The package computes the Fisher information matrices of the deterministic
and Gaussian symbol models of a blind FIR multichannel, classifies their
singularities from the channel's zero structure, and evaluates constrained
Cramer-Rao bounds (including the minimal, pseudo-inverse bound). Every
analytic object is validated against an independent numerical oracle in the
test suite; a Monte Carlo score-covariance estimator and MSE-vs-bound
experiments live in :mod:`blindcrb.simulate`.
"""

__version__ = "0.1.0"

from .channel import (
    COMPLEX,
    REAL,
    Channel,
    ReducibleDecomposition,
    DecompositionError,
    block_toeplitz,
    commutativity_op,
    realify_channel,
    subchannel_zeros,
    reducible_decompose,
    tc_matrix,
    ti_matrix,
    conjugate_reciprocal_pairs,
    channel_from_json,
    channel_to_json,
    load_channel,
    example_channel,
)
from .crb import (
    CrbResult,
    constrained_crb,
    known_coeff_constraint,
    linear_constraint,
    minimal_crb,
    norm_constraint,
    phase_constraint,
    reducible_constraints,
)
from .fim import (
    DETERMINISTIC,
    GAUSSIAN,
    FimResult,
    GaussianModelConfig,
    MomentStack,
    ParamBlock,
    ParamLayout,
    SingularityReport,
    analyze_singularities,
    channel_block,
    deterministic_fim,
    deterministic_reduced_fim,
    gaussian_fim,
    gaussian_fim_generic,
    schur_reduce,
)
from .identifiability import (
    IdentifiabilityVerdict,
    deterministic_verdict,
    gaussian_verdict,
    verdict_vs_fim,
)
from .linalg import (
    null_space_basis,
    pseudo_inverse,
    realify_fim,
    realify_vector,
)
from .simulate import (
    AlternatingLsBatch,
    ExperimentConfig,
    McFimEstimate,
    adjust_estimate,
    alternating_ls_batch,
    mse_vs_crb_experiment,
    score_covariance_fim,
    simulate_burst,
    stream_rng,
)
