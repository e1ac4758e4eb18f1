"""Tests for model likelihoods, samplers, MLE, and the competing priors."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from lomaxprior import models as md
from lomaxprior.experiments import builtin_dataset


# ---------------------------------------------------------------------------
# Weibull


def test_weibull_logpdf_values():
    assert md.weibull_logpdf(md.WeibullParams(1.0, 1.0), 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert md.weibull_logpdf(md.WeibullParams(2.0, 1.0), 2.0) == pytest.approx(
        math.log(0.5) - 1.0, rel=1e-14
    )
    assert md.weibull_logpdf(md.WeibullParams(1.0, 2.0), 1.0) == pytest.approx(
        math.log(2.0) - 1.0, rel=1e-14
    )
    with pytest.raises(ValueError):
        md.weibull_logpdf(md.WeibullParams(1.0, 1.0), 0.0)


@pytest.mark.parametrize("scale, shape", [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0)])
def test_weibull_density_normalizes(scale, shape):
    f = lambda x: np.exp(md.weibull_logpdf(md.WeibullParams(scale, shape), x))
    val, _ = integrate.quad(f, 0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_weibull_quantile_values():
    u = 1.0 - math.exp(-1.0)
    assert md.weibull_quantile_sample(md.WeibullParams(1.0, 1.0), u) == pytest.approx(1.0, rel=1e-12)
    assert md.weibull_quantile_sample(md.WeibullParams(1.0, 0.5), u) == pytest.approx(1.0, rel=1e-12)
    assert md.weibull_quantile_sample(md.WeibullParams(2.0, 2.0), u) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        md.weibull_quantile_sample(md.WeibullParams(1.0, 1.0), 1.0)


def test_weibull_quantile_round_trip():
    params = md.WeibullParams(1.7, 0.8)
    us = np.linspace(0.001, 0.999, 57)
    xs = md.weibull_quantile_sample(params, us)
    cdf = 1.0 - np.exp(-((xs / params.scale) ** params.shape))
    np.testing.assert_allclose(cdf, us, atol=1e-12)


def test_weibull_mle_breakdown_data():
    # frozen from a (theta, beta) grid search refined by coordinate descent
    data = builtin_dataset("breakdown34kv")
    mle = md.weibull_mle(data)
    assert mle.shape == pytest.approx(0.77082, abs=0.02)
    assert mle.scale == pytest.approx(12.2222, abs=0.5)
    assert np.linalg.norm(md.weibull_loglik_grad(mle, data)) < 1e-8


def test_weibull_mle_stationarity():
    data = np.array([1.0, 1.0, 1.0, 2.0])
    mle = md.weibull_mle(data)
    assert np.linalg.norm(md.weibull_loglik_grad(mle, data)) < 1e-8
    # no perturbation may beat the returned point
    base = md.weibull_loglik(mle, data)
    rng = np.random.default_rng(2)
    for _ in range(100):
        th = mle.scale * math.exp(0.2 * rng.standard_normal())
        be = mle.shape * math.exp(0.2 * rng.standard_normal())
        assert md.weibull_loglik(md.WeibullParams(th, be), data) <= base + 1e-12


def test_weibull_mle_consistency():
    rng = np.random.default_rng(33)
    data = md.weibull_sample(md.WeibullParams(1.0, 2.0), 10_000, rng)
    mle = md.weibull_mle(data)
    assert abs(mle.scale - 1.0) < 0.05
    assert abs(mle.shape - 2.0) < 0.1


def test_weibull_mle_rejects_degenerate():
    with pytest.raises(ValueError):
        md.weibull_mle([2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# Dagum


def test_dagum_logpdf_value():
    assert md.dagum_logpdf(md.DagumParams(1.0, 1.0, 1.0), 1.0) == pytest.approx(
        math.log(0.25), rel=1e-14
    )
    with pytest.raises(ValueError):
        md.dagum_logpdf(md.DagumParams(1.0, 1.0, 1.0), -1.0)


def test_dagum_density_normalizes():
    params = md.DagumParams(2.1, 1.0, 1.0)
    f = lambda x: np.exp(md.dagum_logpdf(params, x))
    val, _ = integrate.quad(f, 0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_dagum_mode_matches_grid():
    params = md.DagumParams(2.1, 1.0, 1.0)
    xs = np.linspace(1e-3, 5.0, 20_000)
    dens = np.exp(md.dagum_logpdf(params, xs))
    grid_mode = xs[np.argmax(dens)]
    # closed-form mode b ((ap-1)/(a+1))^(1/a)
    a, b, p = params.a, params.b, params.p
    mode = b * ((a * p - 1.0) / (a + 1.0)) ** (1.0 / a)
    assert grid_mode == pytest.approx(mode, abs=1e-3)


def test_dagum_quantile_round_trip():
    params = md.DagumParams(2.1, 1.5, 0.8)
    us = np.linspace(0.001, 0.999, 61)
    xs = md.dagum_quantile_sample(params, us)
    np.testing.assert_allclose(md.dagum_cdf(params, xs), us, atol=1e-12)
    assert md.dagum_quantile_sample(md.DagumParams(1.0, 1.0, 1.0), 0.5) == pytest.approx(1.0)


def test_dagum_sample_mean_matches_quadrature():
    params = md.DagumParams(2.1, 1.0, 1.0)
    mean, _ = integrate.quad(
        lambda x: x * np.exp(md.dagum_logpdf(params, x)), 0, np.inf, limit=600
    )
    rng = np.random.default_rng(44)
    draws = md.dagum_sample(params, 1_000_000, rng)
    assert abs(np.mean(draws) - mean) / mean < 0.02


# ---------------------------------------------------------------------------
# regression likelihood


def test_linreg_loglik_perfect_fit():
    X = np.array([[1.0], [2.0], [3.0]])
    params = md.LinRegParams(0.5, (2.0,), 1.0 / (2 * math.pi))
    y = 0.5 + 2.0 * X[:, 0]
    assert md.linreg_loglik(params, X, y) == pytest.approx(0.0, abs=1e-12)


def test_linreg_loglik_single_point():
    params = md.LinRegParams(0.0, (0.0,), 1.0)
    got = md.linreg_loglik(params, np.array([[0.0]]), np.array([1.0]))
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, rel=1e-14)


def test_linreg_loglik_brute_force():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    params = md.LinRegParams(0.3, (1.2, -0.7), 1.9)
    direct = sum(
        stats.norm.logpdf(y[i], 0.3 + X[i] @ [1.2, -0.7], math.sqrt(1.9)) for i in range(5)
    )
    assert md.linreg_loglik(params, X, y) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        md.linreg_loglik(params, X, y[:-1])


def test_least_squares_init_recovers():
    rng = np.random.default_rng(10)
    X = rng.normal(0, 3, size=(200, 2))
    truth = md.LinRegParams(2.0, (1.0, -1.0), 0.5)
    y = md.linreg_sample(truth, X, rng)
    init = md.least_squares_init(X, y)
    assert init.intercept == pytest.approx(2.0, abs=0.2)
    assert init.coefficients[0] == pytest.approx(1.0, abs=0.1)
    assert init.variance == pytest.approx(0.5, rel=0.3)


# ---------------------------------------------------------------------------
# priors


def test_reference_prior_value():
    assert md.log_prior(md.PriorSpec.weibull_reference(), [2.0, 4.0]) == pytest.approx(
        -math.log(8.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        md.log_prior(md.PriorSpec.weibull_reference(), [-1.0, 1.0])


def test_lomax_prior_value():
    prior = md.PriorSpec.lomax(4, folded={1, 2, 3})
    got = md.log_prior(prior, [0.0, 0.0, 0.0, 1e-12])
    assert got == pytest.approx(math.log(3.0), abs=1e-9)
    # folded coefficients may be negative
    got = md.log_prior(prior, [-2.0, 1.0, -0.5, 2.0])
    assert got == pytest.approx(math.log(3.0) - 5.0 * math.log(1 + 2 + 1 + 0.5 + 2), rel=1e-12)


def test_vague_gamma_prior_matches_scipy():
    prior = md.PriorSpec.vague_gamma(shape=0.01, rate=0.01)
    pt = [1.0, 2.0, 0.5]
    want = float(np.sum(stats.gamma.logpdf(pt, 0.01, scale=1 / 0.01)))
    assert md.log_prior(prior, pt) == pytest.approx(want, rel=1e-12)


def test_vague_gamma_components_normalize():
    # each 1-d factor integrates to 1, so the quadrature-normalized density
    # matches the closed form used in log_prior
    shape, rate = 0.5, 0.25
    f = lambda x: math.exp(shape * math.log(rate) - math.lgamma(shape) + (shape - 1) * math.log(x) - rate * x)
    val, _ = integrate.quad(f, 0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_vague_normal_prior():
    prior = md.PriorSpec.vague_normal(c=4.0)
    got = md.log_prior(prior, [1.0, 2.0, 0.0, 3.0])
    want = -math.log(3.0) + float(np.sum(stats.norm.logpdf([1.0, 2.0, 0.0], 0, 2.0)))
    assert got == pytest.approx(want, rel=1e-12)


def test_zellner_prior_coefficient_block_normalizes():
    # one covariate: integrate the slope factor over R (intercept is flat)
    rng = np.random.default_rng(3)
    design = rng.normal(size=(40, 1))
    prior = md.PriorSpec.zellner(g=50.0, design=design)
    var = 1.3

    def slope_density(b):
        return math.exp(md.log_prior(prior, [0.7, b, var]) + math.log(var))

    val, _ = integrate.quad(slope_density, -np.inf, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_zellner_prior_matches_mvn():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(30, 2))
    prior = md.PriorSpec.zellner(g=500.0, design=design)
    slopes = np.array([-1.0, 0.3])
    var = 2.0
    xc = design - design.mean(axis=0)
    cov = var * 500.0 * np.linalg.inv(xc.T @ xc)
    want = -math.log(var) + stats.multivariate_normal.logpdf(slopes, np.zeros(2), cov)
    assert md.log_prior(prior, [20.0, *slopes, var]) == pytest.approx(want, rel=1e-10)
    # the flat intercept does not move the value
    assert md.log_prior(prior, [-3.0, *slopes, var]) == pytest.approx(want, rel=1e-10)


def test_prior_validation():
    with pytest.raises(ValueError):
        md.PriorSpec(kind="nope")
    with pytest.raises(ValueError):
        md.PriorSpec(kind="lomax")
    with pytest.raises(ValueError):
        md.log_prior(md.PriorSpec.zellner(), [0.0, 0.0, 0.0, 1.0])  # no design
    with pytest.raises(ValueError):
        md.log_prior(md.PriorSpec.vague_gamma(), [1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# posterior targets


def test_weibull_target_composes():
    data = np.array([0.5, 1.0, 2.0])
    prior = md.PriorSpec.lomax(2)
    target = md.weibull_target(data, prior)
    v = np.array([1.3, 0.9])
    want = md.weibull_loglik(md.WeibullParams(1.3, 0.9), data) + md.log_prior(
        prior, v
    )
    assert target.log_post(v) == pytest.approx(want, rel=1e-12)
    assert target.log_post(np.array([-1.0, 1.0])) == -math.inf
    assert target.names == ("scale", "shape")


def test_dagum_target_composes():
    data = np.array([0.5, 1.0, 2.0])
    for prior in [md.PriorSpec.lomax(3), md.PriorSpec.vague_gamma()]:
        target = md.dagum_target(data, prior)
        v = np.array([2.0, 1.1, 0.7])
        want = md.dagum_loglik(md.DagumParams(*v), data) + md.log_prior(prior, v)
        assert target.log_post(v) == pytest.approx(want, rel=1e-12)
        assert target.log_post(np.array([2.0, -1.0, 0.7])) == -math.inf


def test_linreg_target_composes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    for prior in [
        md.PriorSpec.lomax(4, folded={1, 2, 3}),
        md.PriorSpec.vague_normal(),
        md.PriorSpec.zellner(design=X),
    ]:
        target = md.linreg_target(X, y, prior)
        v = np.array([0.2, 1.0, -0.5, 1.5])
        want = md.linreg_loglik(
            md.LinRegParams(0.2, (1.0, -0.5), 1.5), X, y
        ) + md.log_prior(prior, v)
        assert target.log_post(v) == pytest.approx(want, rel=1e-12)
        assert target.log_post(np.array([0.2, 1.0, -0.5, -1.0])) == -math.inf
    assert target.names == ("beta0", "beta1", "beta2", "sigma2")
    assert target.support == ("real", "real", "real", "positive")


def test_target_prior_model_mismatch():
    with pytest.raises(ValueError):
        md.weibull_target([1.0, 2.0], md.PriorSpec.vague_gamma())
    with pytest.raises(ValueError):
        md.dagum_target([1.0, 2.0], md.PriorSpec.weibull_reference())
    with pytest.raises(ValueError):
        md.linreg_target(np.ones((5, 2)), np.ones(5), md.PriorSpec.lomax(2))


def test_target_lomax_dimension_must_match_model():
    data = np.array([0.5, 1.0, 2.0])
    for dim in (1, 3, 5):
        with pytest.raises(ValueError, match="dimension 2"):
            md.weibull_target(data, md.PriorSpec.lomax(dim, shape=3.0))
    for dim in (2, 4, 7):
        with pytest.raises(ValueError, match="dimension 3"):
            md.dagum_target(data, md.PriorSpec.lomax(dim))
    md.weibull_target(data, md.PriorSpec.lomax(2, shape=3.0))
    md.dagum_target(data, md.PriorSpec.lomax(3))


def test_dagum_gamma_prior_needs_three_components():
    data = np.array([0.5, 1.0, 2.0])
    for n_params in (2, 4):
        with pytest.raises(ValueError, match="3 components"):
            md.dagum_target(data, md.PriorSpec.vague_gamma(n_params=n_params))


def test_inits():
    rng = np.random.default_rng(6)
    data = md.weibull_sample(md.WeibullParams(2.0, 1.5), 200, rng)
    init = md.weibull_init(data)
    assert init[0] == pytest.approx(2.0, abs=0.5)
    assert init[1] == pytest.approx(1.5, abs=0.4)
    d_init = md.dagum_init([1.0, 2.0, 3.0])
    assert d_init[1] == 2.0


# ---------------------------------------------------------------------------
# CSV input


def test_read_column_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("value\n1.5\n2.5\n3.5\n")
    np.testing.assert_allclose(md.read_column_csv(path), [1.5, 2.5, 3.5])
    two = tmp_path / "two.csv"
    two.write_text("a,b\n1,2\n3,4\n")
    np.testing.assert_allclose(md.read_column_csv(two, "b"), [2.0, 4.0])
    with pytest.raises(ValueError):
        md.read_column_csv(two)
    with pytest.raises(ValueError):
        md.read_column_csv(two, "c")


def test_read_design_csv(tmp_path):
    path = tmp_path / "design.csv"
    path.write_text("x1,y,x2\n1,10,2\n3,20,4\n")
    X, y = md.read_design_csv(path, "y")
    np.testing.assert_allclose(y, [10.0, 20.0])
    np.testing.assert_allclose(X, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        md.read_design_csv(path, "z")
