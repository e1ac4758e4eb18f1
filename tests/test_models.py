"""Tests for model likelihoods, samplers, MLE, and the competing priors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def test_weibull_init_falls_back_to_mean(monkeypatch):
    # the MLE refuses tied data (ValueError) ...
    assert md.weibull_init([2.0, 2.0, 2.0]).tolist() == [2.0, 1.0]
    data = builtin_dataset("breakdown34kv")
    mle = md.weibull_mle(data)
    assert md.weibull_init(data).tolist() == [mle.scale, mle.shape]

    # ... or misses stationarity (RuntimeError): either way the chain starts at (mean, 1)
    def no_mle(x):
        raise RuntimeError("Weibull MLE did not reach stationarity")

    monkeypatch.setattr(md, "weibull_mle", no_mle)
    assert md.weibull_init(data).tolist() == [float(np.mean(data)), 1.0]


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


def prior_term(target, v, loglik):
    """The prior part of a target's log posterior at v: log_post(v) minus the log likelihood."""
    return target.log_post(np.asarray(v, dtype=float)) - loglik


def linreg_prior_term(X, y, prior, v):
    params = md.LinRegParams(v[0], tuple(v[1:-1]), v[-1])
    return prior_term(md.linreg_target(X, y, prior), v, md.linreg_loglik(params, X, y))


def test_reference_prior_value():
    # one observation at the scale keeps the subtracted log likelihood near -0.3
    data = np.array([2.0])
    target = md.weibull_target(data, md.PriorSpec.weibull_reference())
    got = prior_term(target, [2.0, 4.0], md.weibull_loglik(md.WeibullParams(2.0, 4.0), data))
    assert got == pytest.approx(-math.log(8.0), rel=1e-14)
    assert target.log_post(np.array([-1.0, 1.0])) == -math.inf


def lomax_log_prior(k, a, v, folded):
    """k log a + sum_j log(k+j) - |F| log 2 - (k+d) log(a + sum |v|), the Lomax log density written out."""
    d = len(v)
    return (
        k * math.log(a)
        + sum(math.log(k + j) for j in range(d))
        - folded * math.log(2.0)
        - (k + d) * math.log(a + sum(abs(x) for x in v))
    )


def test_lomax_prior_value():
    prior = md.PriorSpec.lomax(4, folded={1, 2, 3})
    # y is fitted exactly at each point, so r @ r = 0 and only the variance term is left
    X = np.zeros((1, 2))
    got = linreg_prior_term(X, np.array([0.0]), prior, [0.0, 0.0, 0.0, 1e-12])
    assert got == pytest.approx(math.log(3.0), abs=1e-9)
    # folded coefficients may be negative
    got = linreg_prior_term(X, np.array([-2.0]), prior, [-2.0, 1.0, -0.5, 2.0])
    assert got == pytest.approx(math.log(3.0) - 5.0 * math.log(1 + 2 + 1 + 0.5 + 2), rel=1e-12)
    # every target's Lomax term, including a^k far beyond the float range
    data = np.array([2.0])
    for k, a in [(400.0, 1e300), (3.0, 0.5), (1.0, 1.0), (2.5, 7.0), (0.1, 1e-300)]:
        prior = md.PriorSpec.lomax(shape=k, scale=a)
        v = [2.0, 4.0]
        got = prior_term(md.weibull_target(data, prior), v, md.weibull_loglik(md.WeibullParams(*v), data))
        assert got == pytest.approx(lomax_log_prior(k, a, v, 0), rel=1e-12), (k, a)
        v = [1.0, 2.0, 0.5]
        got = prior_term(md.dagum_target(data, prior), v, md.dagum_loglik(md.DagumParams(*v), data))
        assert got == pytest.approx(lomax_log_prior(k, a, v, 0), rel=1e-12), (k, a)
        v = [-2.0, 1.0, -0.5, 2.0]
        got = linreg_prior_term(X, np.array([-2.0]), prior, v)
        assert got == pytest.approx(lomax_log_prior(k, a, v, 3), rel=1e-12), (k, a)


def test_vague_gamma_prior_matches_scipy():
    prior = md.PriorSpec.vague_gamma(shapes=(0.01,) * 3, rates=(0.01,) * 3)
    pt = [1.0, 2.0, 0.5]
    data = np.array([2.0])
    got = prior_term(md.dagum_target(data, prior), pt, md.dagum_loglik(md.DagumParams(*pt), data))
    want = float(np.sum(stats.gamma.logpdf(pt, 0.01, scale=1 / 0.01)))
    assert got == pytest.approx(want, rel=1e-12)


def test_vague_gamma_components_normalize():
    # each 1-d factor of dagum_target's Gamma product integrates to 1
    shape, rate = 0.5, 0.25
    log_norm = md._gamma_log_norm(shape, rate)
    f = lambda x: math.exp(md._gamma_logpdf(x, shape, rate, log_norm))
    val, _ = integrate.quad(f, 0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_vague_normal_prior():
    prior = md.PriorSpec.vague_normal(c=4.0)
    got = linreg_prior_term(np.zeros((1, 2)), np.array([1.0]), prior, [1.0, 2.0, 0.0, 3.0])
    want = -math.log(3.0) + float(np.sum(stats.norm.logpdf([1.0, 2.0, 0.0], 0, 2.0)))
    assert got == pytest.approx(want, rel=1e-12)


def test_zellner_prior_coefficient_block_normalizes():
    # one covariate: integrate the slope factor over R (intercept is flat)
    rng = np.random.default_rng(3)
    design = rng.normal(size=(40, 1))
    prior = md.PriorSpec.zellner(g=50.0)
    y = np.full(40, 0.7)  # fitted exactly at slope 0
    var = 1.3

    def slope_density(b):
        return math.exp(linreg_prior_term(design, y, prior, [0.7, b, var]) + math.log(var))

    val, _ = integrate.quad(slope_density, -np.inf, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_zellner_prior_matches_mvn():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(30, 2))
    prior = md.PriorSpec.zellner(g=500.0)
    slopes = np.array([-1.0, 0.3])
    var = 2.0
    xc = design - design.mean(axis=0)
    cov = var * 500.0 * np.linalg.inv(xc.T @ xc)
    want = -math.log(var) + stats.multivariate_normal.logpdf(slopes, np.zeros(2), cov)
    # the flat intercept does not move the value; y is fitted at each point
    for intercept in (20.0, -3.0):
        y = intercept + design @ slopes
        got = linreg_prior_term(design, y, prior, [intercept, *slopes, var])
        assert got == pytest.approx(want, rel=1e-10)


def test_prior_validation():
    with pytest.raises(ValueError):
        md.PriorSpec(kind="nope")
    # a Lomax prior is complete without keys: the model gives its dimension and fold set
    assert md.PriorSpec(kind="lomax") == md.PriorSpec.lomax()
    target = md.dagum_target([1.0, 2.0], md.PriorSpec.vague_gamma())
    assert target.log_post(np.array([1.0, -1.0, 1.0])) == -math.inf


@pytest.mark.parametrize(
    "prior",
    [
        md.PriorSpec.lomax(4, shape=2.5, scale=0.5, folded={1, 2, 3}),
        md.PriorSpec.weibull_reference(),
        md.PriorSpec.vague_gamma(shapes=(0.1,) * 3, rates=(0.2,) * 3),
        md.PriorSpec.vague_normal(c=10.0),
        md.PriorSpec.zellner(g=50.0),
    ],
    ids=lambda p: p.kind,
)
def test_prior_dict_round_trip(prior):
    assert md.PriorSpec.from_dict(prior.to_dict()) == prior


def test_prior_from_dict_defaults():
    assert md.PriorSpec.from_dict({"kind": "lomax", "dim": 2}) == md.PriorSpec.lomax(2)
    assert md.PriorSpec.from_dict({"kind": "lomax"}) == md.PriorSpec.lomax()
    assert md.PriorSpec.from_dict({"kind": "weibull-reference"}) == md.PriorSpec.weibull_reference()
    assert md.PriorSpec.from_dict({"kind": "vague-gamma-product"}) == md.PriorSpec.vague_gamma()
    assert md.PriorSpec.from_dict({"kind": "vague-normal-sigma"}) == md.PriorSpec.vague_normal()
    assert md.PriorSpec.from_dict({"kind": "zellner-g"}) == md.PriorSpec.zellner()


@pytest.mark.parametrize(
    "d, match",
    [
        ("lomax", "JSON object"),
        ({"kind": "flat"}, "unknown prior kind"),
        ({"kind": "lomax", "folded": None}, "bad 'lomax' prior"),
        ({"kind": "lomax", "dim": None}, "bad 'lomax' prior"),
        ({"kind": "lomax", "dim": 2, "folded": 5}, "bad 'lomax' prior"),
        ({"kind": "vague-gamma-product", "shapes": ["x", "x", "x"]}, "bad 'vague-gamma-product' prior"),
        ({"kind": "vague-gamma-product", "rates": [0.1, -1.0, 0.1]}, "must be > 0"),
        ({"kind": "zellner-g", "g": [1]}, "bad 'zellner-g' prior"),
        ({"kind": "lomax", "dim": 2, "shpae": 3.0}, "bad 'lomax' prior: unknown key 'shpae'"),
        ({"kind": "weibull-reference", "dim": 2}, "unknown key 'dim'"),
        ({"kind": "vague-normal-sigma", "g": 500.0}, "unknown key 'g'"),
        ({"kind": "zellner-g", "design": [[1.0]]}, "unknown key 'design'"),
        ({"kind": ["lomax"], "dim": 2}, "unknown prior kind"),
        ({"kind": "lomax", "dim": 2.5}, "bad 'lomax' prior: 'dim' must be a number \\(an integer\\), got 2.5"),
        ({"kind": "lomax", "dim": True}, "'dim' must be a number \\(an integer\\), got True"),
        ({"kind": "lomax", "dim": "2"}, "'dim' must be a number \\(an integer\\)"),
        ({"kind": "lomax", "dim": 2, "folded": [1.7]}, "'folded' must be a number \\(an integer\\), got 1.7"),
        ({"kind": "lomax", "dim": 2, "shape": "3"}, "'shape' must be a number, got '3'"),
        ({"kind": "lomax", "dim": 2, "scale": False}, "'scale' must be a number, got False"),
        ({"kind": "vague-gamma-product", "rates": [0.1, True, 0.1]}, "'rates' must be a number"),
        ({"kind": "vague-normal-sigma", "c": "1e6"}, "'c' must be a number"),
        ({"kind": "lomax", "shape": math.inf}, "bad 'lomax' prior: shape must be > 0 and finite, got inf"),
        ({"kind": "lomax", "dim": 2, "scale": math.nan}, "bad 'lomax' prior: scale must be > 0 and finite, got nan"),
        ({"kind": "vague-normal-sigma", "c": math.nan}, "c must be > 0 and finite, got nan"),
        ({"kind": "vague-normal-sigma", "c": math.inf}, "c must be > 0 and finite, got inf"),
        ({"kind": "zellner-g", "g": math.nan}, "g must be > 0 and finite, got nan"),
        ({"kind": "zellner-g", "g": -math.inf}, "g must be > 0 and finite, got -inf"),
        ({"kind": "vague-gamma-product", "shapes": [math.nan, 1, 1]}, "gamma shapes must be > 0 and finite"),
        ({"kind": "vague-gamma-product", "rates": [1, 1, math.inf]}, "gamma rates must be > 0 and finite"),
    ],
    # the ids pytest once generated, written out: a case can go without renaming the others
    ids=[
        "lomax-JSON object",
        "d1-unknown prior kind",
        "d2-bad 'lomax' prior",
        "d3-bad 'lomax' prior",
        "d4-bad 'lomax' prior",
        "d5-bad 'vague-gamma-product' prior",
        "d6-must be > 0",
        "d7-bad 'zellner-g' prior",
        "d8-bad 'lomax' prior: unknown key 'shpae'",
        "d9-unknown key 'dim'",
        "d10-unknown key 'g'",
        "d11-unknown key 'design'",
        "d12-unknown prior kind",
        "d13-bad 'lomax' prior: 'dim' must be a number \\(an integer\\), got 2.5",
        "d14-'dim' must be a number \\(an integer\\), got True",
        "d15-'dim' must be a number \\(an integer\\)",
        "d16-'folded' must be a number \\(an integer\\), got 1.7",
        "d17-'shape' must be a number, got '3'",
        "d18-'scale' must be a number, got False",
        "d19-'rates' must be a number",
        "d20-'c' must be a number",
        "lomax-shape-inf",
        "lomax-scale-nan",
        "vague-normal-c-nan",
        "vague-normal-c-inf",
        "zellner-g-nan",
        "zellner-g-minus-inf",
        "vague-gamma-shapes-nan",
        "vague-gamma-rates-inf",
    ],
)
def test_prior_from_dict_rejects(d, match):
    with pytest.raises(ValueError, match=match):
        md.PriorSpec.from_dict(d)


_positive = st.floats(1e-300, 1e300)


@st.composite
def _lomax_priors(draw):
    """A Lomax prior whose dim and folded are each given or left to the model."""
    dim = draw(st.none() | st.integers(1, 8))
    folded = draw(st.none() | st.frozensets(st.integers(1, dim or 8)))
    given_keys = {key: v for key, v in (("dim", dim), ("folded", folded)) if v is not None}
    return md.PriorSpec.lomax(shape=draw(_positive), scale=draw(_positive), **given_keys)


_priors = st.one_of(
    _lomax_priors(),
    st.just(md.PriorSpec.weibull_reference()),
    st.integers(1, 4).flatmap(
        lambda m: st.builds(md.PriorSpec.vague_gamma, *[st.lists(_positive, min_size=m, max_size=m)] * 2)
    ),
    st.builds(md.PriorSpec.vague_normal, _positive),
    st.builds(md.PriorSpec.zellner, _positive),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_priors)
def test_prior_dict_round_trip_property(prior):
    doc = prior.to_dict()
    assert md.PriorSpec.from_dict(json.loads(json.dumps(doc))) == prior
    assert md.PriorSpec.from_dict(doc).to_dict() == doc


def test_derived_lomax_prior_round_trips():
    prior = md.PriorSpec.from_dict({"kind": "lomax"})
    assert prior.to_dict() == {"kind": "lomax", "shape": 1.0, "scale": 1.0}
    assert md.PriorSpec.from_dict(prior.to_dict()) == prior
    half = md.PriorSpec.lomax(shape=2.0, folded=())
    assert md.PriorSpec.from_dict(half.to_dict()) == half


def test_parameters_table():
    assert md.parameters("weibull") == (("scale", "shape"), ("positive", "positive"))
    assert md.parameters("dagum") == (("a", "b", "p"), ("positive",) * 3)
    assert md.parameters("linreg", 2) == (("beta0", "beta1", "beta2", "sigma2"), ("real", "real", "real", "positive"))
    with pytest.raises(ValueError, match="unknown model 'cauchy'"):
        md.parameters("cauchy")


# ---------------------------------------------------------------------------
# posterior targets


def test_weibull_target_composes():
    data = np.array([0.5, 1.0, 2.0])
    prior = md.PriorSpec.lomax(2)
    target = md.weibull_target(data, prior)
    v = np.array([1.3, 0.9])
    # LM(2, 1, 1): log(1 * 2) - 3 log(1 + theta + beta)
    want = md.weibull_loglik(md.WeibullParams(1.3, 0.9), data) + math.log(2.0) - 3.0 * math.log(3.2)
    assert target.log_post(v) == pytest.approx(want, rel=1e-12)
    assert target.log_post(np.array([-1.0, 1.0])) == -math.inf
    assert target.names == ("scale", "shape")


def test_dagum_target_composes():
    data = np.array([0.5, 1.0, 2.0])
    v = np.array([2.0, 1.1, 0.7])
    log_priors = {
        # LM(3, 1, 1): log(1 * 2 * 3) - 4 log(1 + a + b + p)
        "lomax": math.log(6.0) - 4.0 * math.log(4.8),
        # Gamma(0.01, 0.01) in each coordinate
        "vague-gamma-product": sum(
            0.01 * math.log(0.01) - math.lgamma(0.01) - 0.99 * math.log(x) - 0.01 * x for x in v
        ),
    }
    for prior in [md.PriorSpec.lomax(3), md.PriorSpec.vague_gamma()]:
        target = md.dagum_target(data, prior)
        want = md.dagum_loglik(md.DagumParams(*v), data) + log_priors[prior.kind]
        assert target.log_post(v) == pytest.approx(want, rel=1e-12)
        assert target.log_post(np.array([2.0, -1.0, 0.7])) == -math.inf


def test_linreg_target_composes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    v = np.array([0.2, 1.0, -0.5, 1.5])
    slopes, var = v[1:3], 1.5
    xc = X - X.mean(axis=0)
    xtx = xc.T @ xc
    log_priors = {
        # LM(4, 1, 1), coefficients folded: log(4! / 2^3) - 5 log(1 + sum|coef| + sigma2)
        "lomax": math.log(3.0) - 5.0 * math.log(1.0 + 0.2 + 1.0 + 0.5 + 1.5),
        # 1/sigma2 times N(0, 1e6) on each of the three coefficients
        "vague-normal-sigma": -math.log(var) - 1.5 * math.log(2e6 * math.pi) - 0.5 * 1.29 / 1e6,
        # 1/sigma2 times N(0, g sigma2 (Xc'Xc)^-1) on the slopes, g = 500
        "zellner-g": -math.log(var)
        - math.log(2.0 * math.pi * var * 500.0)
        + 0.5 * np.linalg.slogdet(xtx)[1]
        - 0.5 * float(slopes @ xtx @ slopes) / (var * 500.0),
    }
    for prior in [
        md.PriorSpec.lomax(4, folded={1, 2, 3}),
        md.PriorSpec.vague_normal(),
        md.PriorSpec.zellner(design=X),
    ]:
        target = md.linreg_target(X, y, prior)
        want = md.linreg_loglik(md.LinRegParams(0.2, (1.0, -0.5), 1.5), X, y) + log_priors[prior.kind]
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
    with pytest.raises(ValueError, match="unknown model"):
        md.chain_inputs("cauchy", md.PriorSpec.lomax(2), [1.0, 2.0])


def test_target_lomax_dimension_must_match_model():
    data = np.array([0.5, 1.0, 2.0])
    for dim in (1, 3, 5):
        with pytest.raises(ValueError, match="dimension 2"):
            md.weibull_target(data, md.PriorSpec.lomax(dim, shape=3.0))
    for dim in (2, 4, 7):
        with pytest.raises(ValueError, match="dimension 3"):
            md.dagum_target(data, md.PriorSpec.lomax(dim))
    # the fold set must match too: none for Weibull and Dagum, every coefficient for linreg
    with pytest.raises(ValueError, match=r"folded on \[\], got dimension 2 folded on \[1, 2\]"):
        md.weibull_target(data, md.PriorSpec.lomax(2, folded={1, 2}))
    with pytest.raises(ValueError, match=r"folded on \[\], got dimension 3 folded on \[2\]"):
        md.dagum_target(data, md.PriorSpec.lomax(3, folded={2}))
    X, y = np.ones((5, 2)) + np.eye(5, 2), np.ones(5)
    for folded in ((), (4,), (1, 2, 3, 4), (1, 2)):
        with pytest.raises(ValueError, match=r"dimension 4 folded on \[1, 2, 3\]"):
            md.linreg_target(X, y, md.PriorSpec.lomax(4, folded=folded))
    md.weibull_target(data, md.PriorSpec.lomax(2, shape=3.0))
    md.dagum_target(data, md.PriorSpec.lomax(3))
    md.linreg_target(X, y, md.PriorSpec.lomax(4, folded={1, 2, 3}))


def test_prior_constructors_check_key_types():
    # Python callers meet the same rule as scenario files
    assert md.PriorSpec.lomax(2.0, shape=3) == md.PriorSpec.lomax(2, shape=3.0)
    assert md.PriorSpec.lomax(np.int64(3), folded=[np.int64(1)]).folded == {1}
    for bad in (
        lambda: md.PriorSpec.lomax(2.5),
        lambda: md.PriorSpec.lomax(2, folded=[True]),
        lambda: md.PriorSpec.vague_gamma(shapes=("0.1",) * 3),
        lambda: md.PriorSpec.zellner(g=None),
    ):
        with pytest.raises(ValueError, match="must be a number"):
            bad()


def test_dagum_gamma_prior_needs_three_components():
    data = np.array([0.5, 1.0, 2.0])
    for n_params in (2, 4):
        with pytest.raises(ValueError, match="3 components"):
            md.dagum_target(data, md.PriorSpec.vague_gamma(shapes=(0.01,) * n_params, rates=(0.01,) * n_params))


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
