"""Tests for the Metropolis-within-Gibbs engine and posterior summaries."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from lomaxprior import mcmc
from lomaxprior.lomax import univariate_cdf


def gaussian_target(dim=2):
    def lp(x):
        return -0.5 * float(np.dot(x, x))

    return mcmc.PosteriorTarget(lp, ("real",) * dim, tuple(f"g{i}" for i in range(dim)))


def lomax_target(k=3.0, a=1.0):
    c = math.log(k) + k * math.log(a)

    def lp(x):
        if x[0] <= 0:
            return -math.inf
        return c - (k + 1.0) * math.log(a + x[0])

    return mcmc.PosteriorTarget(lp, ("positive",), ("x",))


def ks_distance(draws, k, a):
    u = np.sort(univariate_cdf(k, a, draws))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return max(np.max(np.abs(u - grid)), np.max(np.abs(u - grid + 1.0 / n)))


def batch_means_se(series, batches=30):
    n = series.size // batches * batches
    means = series[:n].reshape(batches, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(batches))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    ok = dict(initial=np.zeros(2), steps=np.ones(2))
    with pytest.raises(ValueError):
        mcmc.ChainConfig(iterations=100, burn_in=100, thin=1, **ok)
    with pytest.raises(ValueError):
        mcmc.ChainConfig(iterations=100, burn_in=-1, thin=1, **ok)
    with pytest.raises(ValueError):
        mcmc.ChainConfig(iterations=100, burn_in=10, thin=0, **ok)
    with pytest.raises(ValueError):
        mcmc.ChainConfig(iterations=100, burn_in=10, thin=1, initial=np.zeros(2), steps=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        mcmc.PosteriorTarget(lambda x: 0.0, ("real", "weird"), ("a", "b"))
    with pytest.raises(ValueError, match="support and names must have equal length"):
        mcmc.PosteriorTarget(lambda x: 0.0, ("real",), ("a", "b"))
    with pytest.raises(ValueError, match="initial point and steps must have matching shape"):
        mcmc.ChainConfig(iterations=1000, burn_in=0, thin=1, initial=np.zeros(2), steps=np.ones(3))
    config = mcmc.ChainConfig(iterations=1000, burn_in=0, thin=1, **ok)
    with pytest.raises(ValueError, match=r"initial point must have shape \(1,\)"):
        mcmc.run_chain(gaussian_target(1), config)


def test_init_errors():
    target = lomax_target()
    config = mcmc.ChainConfig(1000, 100, 1, np.array([-1.0]), np.array([0.5]), seed=1)
    with pytest.raises(mcmc.ChainInitError):
        mcmc.run_chain(target, config)

    def nan_lp(x):
        return math.nan

    bad = mcmc.PosteriorTarget(nan_lp, ("real",), ("x",))
    config = mcmc.ChainConfig(1000, 100, 1, np.array([0.0]), np.array([0.5]), seed=1)
    with pytest.raises(mcmc.ChainInitError):
        mcmc.run_chain(bad, config)


# ---------------------------------------------------------------------------
# engine correctness


def test_gaussian_target_moments():
    config = mcmc.ChainConfig(100_000, 10_000, 10, np.zeros(2), np.ones(2), seed=42)
    out = mcmc.run_chain(gaussian_target(), config)
    assert out.draws.shape == (9_000, 2)
    for j in range(2):
        col = out.draws[:, j]
        se = batch_means_se(col)
        assert abs(np.mean(col)) < 3 * se
        assert abs(np.var(col, ddof=1) - 1.0) < 0.05


def test_lomax_target_distribution():
    config = mcmc.ChainConfig(100_000, 10_000, 10, np.array([1.0]), np.array([0.5]), seed=7)
    out = mcmc.run_chain(lomax_target(3.0, 1.0), config)
    assert ks_distance(out.draws[:, 0], 3.0, 1.0) < 0.02
    assert np.all(out.draws > 0)


def test_determinism():
    config = mcmc.ChainConfig(20_000, 2_000, 5, np.zeros(2), np.ones(2), seed=123)
    out1 = mcmc.run_chain(gaussian_target(), config)
    out2 = mcmc.run_chain(gaussian_target(), config)
    assert np.array_equal(out1.draws, out2.draws)
    assert np.array_equal(out1.accept_rates, out2.accept_rates)
    assert np.array_equal(out1.final_steps, out2.final_steps)
    out3 = mcmc.run_chain(
        gaussian_target(),
        mcmc.ChainConfig(20_000, 2_000, 5, np.zeros(2), np.ones(2), seed=124),
    )
    assert not np.array_equal(out1.draws, out3.draws)


def test_retained_count_arithmetic():
    for iters, burn, thin in [(1000, 100, 7), (5000, 500, 50), (999, 100, 10)]:
        config = mcmc.ChainConfig(iters, burn, thin, np.zeros(1), np.ones(1), seed=3)
        out = mcmc.run_chain(mcmc.PosteriorTarget(lambda x: -0.5 * x[0] ** 2, ("real",), ("x",)), config)
        assert out.draws.shape[0] == (iters - burn) // thin


def test_support_respected():
    config = mcmc.ChainConfig(5000, 500, 2, np.array([2.0, 0.5]), np.array([0.8, 0.8]), seed=9)

    def lp(x):
        if x[0] <= 0 or x[1] <= 0:
            return -math.inf
        return -x[0] - x[1]

    target = mcmc.PosteriorTarget(lp, ("positive", "positive"), ("u", "v"))
    out = mcmc.run_chain(target, config)
    assert np.all(out.draws > 0)


def test_occupancy_total_variation():
    # decile bins of a standard normal target; TV below 2%
    config = mcmc.ChainConfig(220_000, 20_000, 10, np.zeros(1), np.ones(1), seed=17)
    target = mcmc.PosteriorTarget(lambda x: -0.5 * x[0] ** 2, ("real",), ("x",))
    out = mcmc.run_chain(target, config)
    from scipy.stats import norm

    edges = norm.ppf(np.linspace(0.0, 1.0, 11))
    counts, _ = np.histogram(out.draws[:, 0], bins=edges)
    occupancy = counts / counts.sum()
    tv = 0.5 * np.sum(np.abs(occupancy - 0.1))
    assert tv < 0.02


def test_adaptation_freezes_after_burn_in():
    config = mcmc.ChainConfig(30_000, 10_000, 10, np.zeros(1), np.array([50.0]), seed=5)
    target = mcmc.PosteriorTarget(lambda x: -0.5 * x[0] ** 2, ("real",), ("x",))
    out = mcmc.run_chain(target, config)
    # the absurd initial step must have adapted down during burn-in
    assert out.final_steps[0] < 50.0 / 1.2**3
    assert 0.1 < out.accept_rates[0] < 0.8


def test_adapt_steps_rule():
    steps = np.array([1.0, 1.0, 1.0])
    got = mcmc.adapt_steps(np.array([0.9, 0.05, 0.35]), steps)
    np.testing.assert_allclose(got, [1.2, 1.0 / 1.2, 1.0])
    # untouched input
    np.testing.assert_allclose(steps, 1.0)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_constant_chain():
    draws = np.full((200, 1), 3.25)
    s = mcmc.summarize(draws, ["c"])["c"]
    assert s["mean"] == 3.25
    assert s["median"] == 3.25
    assert s["variance"] == 0.0
    assert s["ci95"] == [3.25, 3.25]


def test_summarize_linear_interpolation():
    draws = np.arange(1.0, 1001.0).reshape(-1, 1)
    s = mcmc.summarize(draws, ["x"])["x"]
    assert s["median"] == pytest.approx(500.5)
    assert s["ci95"][0] == pytest.approx(25.975)
    assert s["ci95"][1] == pytest.approx(975.025)


def test_summarize_normal_interval():
    rng = np.random.default_rng(31)
    draws = rng.standard_normal((100_000, 1))
    s = mcmc.summarize(draws, ["z"])["z"]
    assert s["ci95"][0] == pytest.approx(-1.96, abs=0.03)
    assert s["ci95"][1] == pytest.approx(1.96, abs=0.03)


def test_summarize_needs_draws():
    with pytest.raises(ValueError):
        mcmc.summarize(np.zeros((99, 1)))


def test_effective_sample_size():
    rng = np.random.default_rng(8)
    iid = rng.standard_normal(5000)
    ess = mcmc.effective_sample_size(iid)
    assert ess > 2500
    # an AR(1) chain with strong correlation has a much smaller ESS
    ar = np.empty(5000)
    ar[0] = 0.0
    for i in range(1, 5000):
        ar[i] = 0.9 * ar[i - 1] + rng.standard_normal()
    assert mcmc.effective_sample_size(ar) < 1500
    assert mcmc.effective_sample_size(np.ones(500)) == 500.0


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_effective_sample_size_ar1_theory(rho):
    # an AR(1) series has ESS n (1 - rho) / (1 + rho)
    n = 200_000
    e = np.random.default_rng(9).standard_normal(n)
    ar = lfilter([1.0], [1.0, -rho], e)
    want = n * (1.0 - rho) / (1.0 + rho)
    assert mcmc.effective_sample_size(ar) == pytest.approx(want, rel=0.1)


# ---------------------------------------------------------------------------
# CSV round trip


def test_chain_csv_round_trip(tmp_path):
    config = mcmc.ChainConfig(2000, 500, 3, np.zeros(2), np.ones(2), seed=21)
    out = mcmc.run_chain(gaussian_target(), config)
    path = tmp_path / "draws.csv"
    mcmc.chain_to_csv(out, path)
    names, draws = mcmc.read_csv(path)
    assert names == out.names
    assert np.array_equal(draws, out.draws)
    # re-summarizing read-back draws reproduces the summaries exactly
    assert mcmc.summarize(draws, names) == mcmc.summarize(out)
