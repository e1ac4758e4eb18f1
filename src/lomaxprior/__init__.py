"""Objective multivariate Lomax prior: density family, score checks, MCMC, and experiments."""

from lomaxprior.lomax import (
    LomaxSpec,
    QuadratureError,
    conditional,
    density,
    entropy,
    laplace_mixture_density,
    log_density,
    marginal,
    marginal_moments,
    normalizing_constant,
    sample,
    univariate_cdf,
    univariate_quantile,
)

__all__ = [
    "LomaxSpec",
    "QuadratureError",
    "conditional",
    "density",
    "entropy",
    "laplace_mixture_density",
    "log_density",
    "marginal",
    "marginal_moments",
    "normalizing_constant",
    "sample",
    "univariate_cdf",
    "univariate_quantile",
]

__version__ = "0.1.0"
