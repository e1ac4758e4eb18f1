"""Objective multivariate Lomax prior: density family, score checks, MCMC, and experiments."""

__version__ = "0.1.0"
