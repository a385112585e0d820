"""Weighted differential entropies with central-moment weight functions.

Gaussian closed forms in paper/wick modes, exact Wick-recursion moment
oracles, tensor-quadrature and Monte Carlo cross-checks, discrete identity
checkers, and a weighted deviance information criterion.
"""

from .closedform import (
    PairConditional,
    cond_wde_pair,
    cross_wde_pair,
    gibbs_gap,
    lambda_bar,
    lambda_paper,
    lambda_wick,
    relative_de_pair,
    relative_we_pair,
    theta,
    upsilon,
    wde_trivariate,
    xi,
)
from .discrete import (
    DiscreteJoint,
    chain_rule_de_check,
    chain_rule_wde_check,
    mutual_de_decomposition_check,
    mutual_wde_decomposition_check,
    relative_de_identity_check,
    relative_we_identity_check,
)
from .gaussian import (
    Gaussian,
    condition,
    example1_cov,
    example2_cov,
    gaussian_de,
    gaussian_kl,
    validate,
)
from .moments import central_moment, count_matchings, shifted_moment, shifted_moments
from .quadrature import (
    CentralWeight,
    GridSpec,
    McConfig,
    relative_wde_monte_carlo,
    relative_wde_quadrature,
)
from .wdic import (
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    WeightedDataset,
    metropolis_sample,
    wdic,
    weighted_deviance,
    weighted_loglik,
)

__version__ = "0.1.0"
