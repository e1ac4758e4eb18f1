"""Tests for the multivariate Lomax family: density, closure, sampling, identities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lomaxprior import lomax as lm


def quad_oracle(f, lo=0.0, hi=np.inf):
    val, _ = integrate.quad(f, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


# ---------------------------------------------------------------------------
# normalizer and density


@pytest.mark.parametrize(
    "spec, expected",
    [
        (lm.LomaxSpec(1, 1.0, 1.0), 1.0),
        (lm.LomaxSpec(2, 1.0, 1.0), 2.0),
        (lm.LomaxSpec(4, 1.0, 1.0, frozenset({1, 2, 3})), 3.0),
        (lm.LomaxSpec(3, 2.0, 2.0), 2.0 ** 2 * 2 * 3 * 4),
    ],
)
def test_normalizing_constant(spec, expected):
    assert lm.normalizing_constant(spec) == pytest.approx(expected, rel=1e-14)


def test_density_values():
    # univariate density at the origin boundary is k a^k / a^(k+1) = 1
    assert lm.density(lm.LomaxSpec(1), [1e-12]) == pytest.approx(1.0, rel=1e-9)
    # bivariate at (1, 0+): 2 / (1+1)^3
    assert lm.density(lm.LomaxSpec(2), [1.0, 1e-12]) == pytest.approx(0.25, rel=1e-9)
    # 4-dim folded prior at the origin: leading constant 3
    spec = lm.LomaxSpec(4, folded=frozenset({1, 2, 3}))
    assert lm.density(spec, [0.0, 0.0, 0.0, 1e-12]) == pytest.approx(3.0, rel=1e-9)
    # folded coordinates accept negatives via |x|
    assert lm.density(spec, [-1.0, 2.0, -0.5, 1.0]) == pytest.approx(
        3.0 * (1 + 1 + 2 + 0.5 + 1) ** -5.0, rel=1e-12
    )


def test_density_domain_errors():
    with pytest.raises(ValueError):
        lm.log_density(lm.LomaxSpec(2), [1.0, 0.0])
    with pytest.raises(ValueError):
        lm.log_density(lm.LomaxSpec(2), [-1.0, 1.0])
    with pytest.raises(ValueError):
        lm.log_density(lm.LomaxSpec(2), [1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        lm.LomaxSpec(0)
    with pytest.raises(ValueError):
        lm.LomaxSpec(2, shape=-1.0)
    with pytest.raises(ValueError):
        lm.LomaxSpec(2, scale=0.0)
    with pytest.raises(ValueError):
        lm.LomaxSpec(2, folded=frozenset({3}))


def test_spec_checks_folds_in_memory_independent_of_dim():
    # the CLI builds a spec from --dim before any size cap applies
    tracemalloc.start()
    try:
        lm.LomaxSpec(10**6, folded=frozenset({1, 10**6}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    with pytest.raises(ValueError, match="not a subset"):
        lm.LomaxSpec(10**6, folded=frozenset({0}))


# ---------------------------------------------------------------------------
# marginals and conditionals


def test_marginal_reductions():
    assert lm.marginal(lm.LomaxSpec(2), [1]) == lm.LomaxSpec(1)
    assert lm.marginal(lm.LomaxSpec(5, 3.0, 2.0), range(1, 6)) == lm.LomaxSpec(5, 3.0, 2.0)
    assert lm.marginal(lm.LomaxSpec(3, 2.0, 1.0), [2, 3]) == lm.LomaxSpec(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        lm.marginal(lm.LomaxSpec(3), [])


def test_marginal_fold_remap():
    spec = lm.LomaxSpec(4, folded=frozenset({1, 3}))
    assert lm.marginal(spec, [3, 4]).folded == frozenset({1})
    assert lm.marginal(spec, [2, 4]).folded == frozenset()


def test_marginal_against_quadrature():
    # integrate x1 out of LM(3, 2, 1) and compare to LM(2, 2, 1)
    spec = lm.LomaxSpec(3, 2.0, 1.0)
    marg = lm.marginal(spec, [2, 3])
    for pt in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.2)]:
        val = quad_oracle(lambda x1: lm.density(spec, [x1, pt[0], pt[1]]))
        assert val == pytest.approx(lm.density(marg, list(pt)), rel=1e-8)


def test_conditional_parameters():
    assert lm.conditional(lm.LomaxSpec(2), [1], {2: 1e-12}).shape == 2.0
    got = lm.conditional(lm.LomaxSpec(2), [1], {2: 3.0})
    assert got == lm.LomaxSpec(1, 2.0, 4.0)
    got = lm.conditional(lm.LomaxSpec(3), [1], {2: 1.0, 3: 1.0})
    assert got == lm.LomaxSpec(1, 3.0, 3.0)


def test_conditional_index_errors():
    with pytest.raises(ValueError):
        lm.conditional(lm.LomaxSpec(3), [1, 2], {2: 1.0, 3: 1.0})
    with pytest.raises(ValueError):
        lm.conditional(lm.LomaxSpec(3), [1], {3: 1.0})
    with pytest.raises(ValueError):
        lm.conditional(lm.LomaxSpec(3), [1], {2: -1.0, 3: 1.0})


def test_conditional_ratio_oracle():
    # conditional density must equal joint / marginal pointwise
    spec = lm.LomaxSpec(3)
    cond = lm.conditional(spec, [1], {2: 1.0, 3: 1.0})
    marg = lm.marginal(spec, [2, 3])
    rng = np.random.default_rng(11)
    for x1 in 0.05 + 4.0 * rng.random(10):
        ratio = lm.density(spec, [x1, 1.0, 1.0]) / lm.density(marg, [1.0, 1.0])
        assert lm.density(cond, [x1]) == pytest.approx(ratio, rel=1e-12)


def test_chain_rule_with_folding():
    # joint = marginal(x_T) * conditional(S | x_T), folded coordinates included
    rng = np.random.default_rng(5)
    spec = lm.LomaxSpec(4, 2.0, 1.5, folded=frozenset({2, 4}))
    s_idx, t_idx = [1, 2], [3, 4]
    marg = lm.marginal(spec, t_idx)
    for _ in range(20):
        x = rng.random(4) * 3.0
        x[1] = -x[1]  # folded coordinates may be negative
        x[3] = -x[3]
        cond = lm.conditional(spec, s_idx, {3: x[2], 4: x[3]})
        joint = lm.density(spec, x)
        product = lm.density(marg, [x[2], x[3]]) * lm.density(cond, [x[0], x[1]])
        assert joint == pytest.approx(product, rel=1e-12)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_log_density_chain_rule(data):
    # log q(x) = log q_T(x_T) + log q_{S|T}(x_S) for every split of the coordinates into T and S
    dim = data.draw(st.integers(2, 6), label="dim")
    spec = lm.LomaxSpec(
        dim,
        data.draw(st.floats(0.1, 20.0), label="k"),
        data.draw(st.floats(0.01, 100.0), label="a"),
        data.draw(st.frozensets(st.integers(1, dim)), label="folded"),
    )
    t_idx = sorted(data.draw(st.sets(st.integers(1, dim), min_size=1, max_size=dim - 1), label="T"))
    s_idx = [i for i in range(1, dim + 1) if i not in t_idx]
    x = [
        data.draw(st.floats(-1e3, 1e3) if i in spec.folded else st.floats(1e-3, 1e3), label=f"x{i}")
        for i in range(1, dim + 1)
    ]
    joint = lm.log_density(spec, x)
    marg = lm.log_density(lm.marginal(spec, t_idx), [x[i - 1] for i in t_idx])
    cond = lm.log_density(lm.conditional(spec, s_idx, {i: x[i - 1] for i in t_idx}), [x[i - 1] for i in s_idx])
    assert abs(joint - (marg + cond)) <= 1e-13 * (1.0 + abs(joint) + abs(marg) + abs(cond))


# ---------------------------------------------------------------------------
# univariate quantile / CDF


def test_quantile_values():
    assert lm.univariate_quantile(1.0, 1.0, 0.0) == 0.0
    assert lm.univariate_quantile(1.0, 1.0, 0.75) == pytest.approx(3.0, rel=1e-14)
    assert lm.univariate_quantile(2.0, 1.0, 0.75) == pytest.approx(1.0, rel=1e-14)
    assert lm.univariate_cdf(1.0, 1.0, 3.0) == pytest.approx(0.75, rel=1e-14)


def test_quantile_cdf_round_trip():
    us = np.linspace(0.0, 0.999, 97)
    for k, a in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)]:
        xs = lm.univariate_quantile(k, a, us)
        np.testing.assert_allclose(lm.univariate_cdf(k, a, xs), us, atol=1e-12)


def test_quantile_domain():
    with pytest.raises(ValueError):
        lm.univariate_quantile(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lm.univariate_quantile(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# sampling


def ks_distance(draws, k, a):
    u = np.sort(lm.univariate_cdf(k, a, draws))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return max(np.max(np.abs(u - grid)), np.max(np.abs(u - grid + 1.0 / n)))


def test_sample_univariate_ks():
    rng = np.random.default_rng(101)
    draws = lm.sample(lm.LomaxSpec(1), rng, size=100_000)[:, 0]
    assert ks_distance(draws, 1.0, 1.0) < 0.01


def test_sample_bivariate_marginals():
    rng = np.random.default_rng(202)
    draws = lm.sample(lm.LomaxSpec(2), rng, size=100_000)
    assert ks_distance(draws[:, 0], 1.0, 1.0) < 0.01
    assert ks_distance(draws[:, 1], 1.0, 1.0) < 0.01


def test_sample_folded_symmetry():
    rng = np.random.default_rng(303)
    spec = lm.LomaxSpec(1, folded=frozenset({1}))
    draws = lm.sample(spec, rng, size=100_000)[:, 0]
    assert abs(np.median(draws)) < 0.02
    assert np.min(draws) < 0


def test_sample_conditional_structure():
    # second coordinate given the first must follow LM(1, k+1, a+x1)
    rng = np.random.default_rng(404)
    draws = lm.sample(lm.LomaxSpec(2, 2.0, 1.0), rng, size=200_000)
    sel = (draws[:, 0] > 0.9) & (draws[:, 0] < 1.1)
    cond_draws = draws[sel, 1]
    assert cond_draws.size > 3000
    assert ks_distance(cond_draws, 3.0, 2.0) < 0.05


def test_sample_single():
    rng = np.random.default_rng(1)
    x = lm.sample(lm.LomaxSpec(3), rng)
    assert x.shape == (3,)
    assert np.all(x > 0)


# ---------------------------------------------------------------------------
# entropy and moments


def entropy_oracle(k):
    # log k + (k+1) * integral of log(1+x) against the LM(1, k, 1) density
    val = quad_oracle(lambda x: np.log1p(x) * k * (1 + x) ** (-(k + 1)))
    return math.log(k) + (k + 1) * val


def test_entropy_minimum():
    assert lm.entropy(1.0) == 2.0
    for k in (0.25, 0.5, 2.0, 3.0, 4.0, 5.0, 10.0):
        assert lm.entropy(k) > 2.0


@pytest.mark.parametrize("k", [0.25, 0.5, 2.0, 3.0, 10.0])
def test_entropy_against_quadrature(k):
    assert lm.entropy(k) == pytest.approx(entropy_oracle(k), abs=1e-6)


def test_entropy_values():
    assert lm.entropy(2.0) == pytest.approx(math.log(2) + 1.5, rel=1e-14)
    assert lm.entropy(0.5) == pytest.approx(3 - math.log(2), rel=1e-14)


def test_moments():
    m = lm.marginal_moments(lm.LomaxSpec(1, 3.0, 2.0))
    assert m.mean == pytest.approx(1.0, rel=1e-14)
    assert m.variance == pytest.approx(3.0, rel=1e-14)
    m2 = lm.marginal_moments(lm.LomaxSpec(1, 2.0, 1.0))
    assert m2.mean == pytest.approx(1.0, rel=1e-14)
    assert m2.variance is None
    with pytest.raises(ValueError):
        lm.marginal_moments(lm.LomaxSpec(1, 1.0, 1.0))
    with pytest.raises(ValueError):
        lm.marginal_moments(lm.LomaxSpec(2, 3.0, 1.0))


def test_moments_against_quadrature():
    for k, a in [(2.0, 1.0), (3.0, 2.0), (4.5, 0.5)]:
        mean = quad_oracle(lambda x: x * k * a**k * (a + x) ** (-(k + 1)))
        got = lm.marginal_moments(lm.LomaxSpec(1, k, a))
        assert got.mean == pytest.approx(mean, rel=1e-9)
        if k > 2:
            second = quad_oracle(lambda x: x * x * k * a**k * (a + x) ** (-(k + 1)))
            assert got.variance == pytest.approx(second - mean**2, rel=1e-8)


# ---------------------------------------------------------------------------
# Laplace mixture identity


def test_mixture_values():
    # d=1 at the origin: (1/2) * integral s e^-s ds = 1/2
    assert lm.laplace_mixture_density(1, [0.0]) == pytest.approx(0.5, rel=1e-9)
    assert lm.laplace_mixture_density(2, [1.0, -1.0]) == pytest.approx(1 / 54, rel=1e-9)
    assert lm.laplace_mixture_density(3, [0.0, 0.0, 0.0]) == pytest.approx(0.75, rel=1e-9)


def test_mixture_matches_folded_density():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for _ in range(20):
            x = rng.normal(0.0, 2.0, d)
            got = lm.laplace_mixture_density(d, x)
            want = lm.folded_density_closed_form(d, x)
            assert abs(got - want) / want < 1e-6


def test_mixture_quadrature_failure():
    with pytest.raises(lm.QuadratureError):
        lm.laplace_mixture_density(3, [0.5, -0.5, 2.0], nodes=3)


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_normalization(d, k, a):
    total = lm.normalization_quadrature(lm.LomaxSpec(d, k, a))
    assert abs(total - 1.0) < 1e-3


def test_normalization_folded():
    spec = lm.LomaxSpec(1, folded=frozenset({1}))
    assert abs(lm.normalization_quadrature(spec) - 1.0) < 1e-3
    spec4 = lm.LomaxSpec(4, folded=frozenset({1, 2, 3}))
    assert abs(lm.normalization_quadrature(spec4, nodes=48) - 1.0) < 2e-3


def test_normalization_grid_cap(monkeypatch):
    class GridStarted(Exception):
        pass

    def no_grid(nodes):
        raise GridStarted

    # the cap is checked before the first array, the Gauss-Legendre rule, is made
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_grid)
    for spec, nodes in [(lm.LomaxSpec(5), 64), (lm.LomaxSpec(2), 4097), (lm.LomaxSpec(25), 2)]:
        with pytest.raises(ValueError, match="exceeds 16777216 points"):
            lm.normalization_quadrature(spec, nodes=nodes)
    with pytest.raises(GridStarted):
        lm.normalization_quadrature(lm.LomaxSpec(2), nodes=4096)  # 2**24 points exactly
