"""Posterior means of desk chains against exact answers, one test per model x prior.

The exact answers come from ``benchmarks/oracles.py``: grid quadrature for
Weibull and Dagum, the closed-form Zellner posterior, and 1-D quadrature for
the vague-normal regression.  It imports nothing from ``lomaxprior``, and is
loaded here read-only by path.

Each posterior mean must lie within Z_BOUND Monte Carlo standard errors
(``oracles.mcse_of_mean``, Geyer's ESS) of its exact value.  For a normal
error P(|z| >= 4) = 6.3e-5, so over the 15 coordinates below the family-wise
false-alarm rate is at most 15 x 6.3e-5 < 1e-3.  The data and chain seeds
are fixed once.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lomaxprior import experiments as ex
from lomaxprior import models as md
from lomaxprior.mcmc import ChainConfig, run_chain

_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parent.parent / "benchmarks" / "oracles.py"
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

Z_BOUND = 4.0
CHAIN_SEED = 1729  # the CLI's default --seed
DATA_SEED = 2023
BREAKDOWN = ex.builtin_dataset("breakdown34kv")


def _regression():
    """60 rows, one covariate: (X, y)."""
    return oracles.linreg_dataset(DATA_SEED, 0, 60, (1.0, 2.0), 1.5, 1.0)


def _assert_desk_chain_matches(model, prior, data, exact_means):
    target, init, steps = md.chain_inputs(model, prior, data)
    iterations, burn_in, thin = ex.CHAIN_PRESETS["desk"]
    draws = run_chain(target, ChainConfig(iterations, burn_in, thin, init, steps, seed=CHAIN_SEED)).draws
    assert draws.shape[1] == len(exact_means)
    for name, column, exact in zip(target.names, draws.T, exact_means):
        z = (column.mean() - exact) / oracles.mcse_of_mean(column)
        assert abs(z) < Z_BOUND, f"{name}: chain mean {column.mean():.6g}, exact {exact:.6g}, z = {z:.2f}"


@pytest.mark.parametrize("kind", ["lomax", "weibull-reference"])
def test_weibull_posterior_means(kind):
    prior = md.PriorSpec.lomax() if kind == "lomax" else md.PriorSpec.weibull_reference()
    means, _ = oracles.weibull_posterior(BREAKDOWN, kind)
    _assert_desk_chain_matches("weibull", prior, BREAKDOWN, means)


def test_dagum_lomax_posterior_means():
    means, _ = oracles.dagum_posterior(BREAKDOWN)
    _assert_desk_chain_matches("dagum", md.PriorSpec.lomax(), BREAKDOWN, means)


def test_linreg_zellner_posterior_means():
    X, y = _regression()
    prior = md.PriorSpec.zellner()
    means, _ = oracles.zellner_posterior(X, y, prior.g)
    _assert_desk_chain_matches("linreg", prior, (X, y), means)


def test_linreg_vague_normal_posterior_means():
    X, y = _regression()
    prior = md.PriorSpec.vague_normal()
    means, _ = oracles.vague_normal_posterior(X, y, prior.c)
    _assert_desk_chain_matches("linreg", prior, (X, y), means)
