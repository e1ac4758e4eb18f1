"""Reference answers computed apart from the program under test.

Posterior moments come from grid quadrature (Weibull, Dagum), from the
conjugate closed form (Zellner g prior) or from a closed form in the
coefficients integrated over sigma^2 on a 1-D grid (vague normal).  Every
density here is written out from its textbook form; nothing is imported
from ``lomaxprior``.  Monte Carlo standard errors use an ESS estimate
(Geyer's initial positive sequence) written here as well.
"""

from __future__ import annotations

import math

import numpy as np

# log-density drop below the mode at which the grid may stop: e^-40 of the
# peak is far below anything a Monte Carlo check can resolve
GRID_CUT = 40.0


class OracleError(RuntimeError):
    """The reference computation could not meet its own accuracy contract."""


# ---------------------------------------------------------------------------
# data regeneration (the scenario contract: one SeedSequence per replicate)


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))


def weibull_dataset(seed, replicate, n, scale, shape):
    u = replicate_rng(seed, replicate).random(n)
    u = np.where(u == 0.0, 0.5, u)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


def linreg_dataset(seed, replicate, n, coefs, sigma2, covariate_sd):
    """(X, y) with X the covariates only; coefs = (intercept, slopes...)."""
    rng = replicate_rng(seed, replicate)
    X = rng.normal(0.0, covariate_sd, size=(n, len(coefs) - 1))
    mean = coefs[0] + X @ np.asarray(coefs[1:], dtype=float)
    return X, mean + math.sqrt(sigma2) * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# grid quadrature


def _grid_pass(log_density, lows, highs, positive, nodes):
    axes = [np.linspace(lo, hi, nodes) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    params = [np.exp(m) if pos else m for m, pos in zip(mesh, positive)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lp = log_density(*params)
        for m, pos in zip(mesh, positive):
            if pos:
                lp = lp + m  # Jacobian of the log coordinate
    lp = np.where(np.isfinite(lp), lp, -np.inf)
    return axes, params, lp


def grid_moments(log_density, lows, highs, positive, nodes=(48, 160)):
    """Posterior means and variances by plain Riemann sums on a uniform grid.

    ``log_density(*params)`` takes one broadcastable array per coordinate
    and returns the unnormalized log density.  Positive coordinates are
    gridded on the log scale between ``lows``/``highs`` (given as logs).
    A coarse pass finds where the log density is within GRID_CUT of its
    peak; a fine pass integrates over that box.  On a uniform grid whose
    integrand has decayed to e^-GRID_CUT at the edges the plain sum is
    spectrally accurate.  Raises OracleError if the mass touches the coarse
    box, which would mean the box was too small.
    """
    coarse, fine = nodes
    axes, _, lp = _grid_pass(log_density, lows, highs, positive, coarse)
    top = lp.max()
    if not math.isfinite(top):
        raise OracleError("log density is not finite anywhere on the grid")
    keep = lp > top - GRID_CUT
    new_lows, new_highs = [], []
    for k, ax in enumerate(axes):
        other = tuple(j for j in range(len(axes)) if j != k)
        idx = np.flatnonzero(keep.any(axis=other))
        if idx[0] == 0 or idx[-1] == len(ax) - 1:
            raise OracleError(f"posterior mass reaches the edge of axis {k}")
        step = ax[1] - ax[0]
        new_lows.append(ax[idx[0]] - step)
        new_highs.append(ax[idx[-1]] + step)
    _, params, lp = _grid_pass(log_density, new_lows, new_highs, positive, fine)
    w = np.exp(lp - lp.max())
    z = w.sum()
    means = np.array([float((w * p).sum() / z) for p in params])
    variances = np.array(
        [float((w * (p - mu) ** 2).sum() / z) for p, mu in zip(params, means)]
    )
    return means, variances


# ---------------------------------------------------------------------------
# Weibull (scale theta, shape beta) and Dagum (a, b, p) posteriors


def weibull_loglik(data, theta, beta):
    """sum log[(beta/theta) (x/theta)^(beta-1) exp(-(x/theta)^beta)]."""
    out = 0.0
    for x in np.asarray(data, dtype=float):
        z = np.log(x) - np.log(theta)
        out = out + np.log(beta) - np.log(theta) + (beta - 1.0) * z - np.exp(beta * z)
    return out


def dagum_loglik(data, a, b, p):
    """sum log[a p / x (x/b)^(a p) / (1 + (x/b)^a)^(p+1)]."""
    out = 0.0
    for x in np.asarray(data, dtype=float):
        w = a * (np.log(x) - np.log(b))
        out = out + np.log(a * p / x) + p * w - (p + 1.0) * np.logaddexp(0.0, w)
    return out


def lomax_log_prior(*coords, shape=1.0, scale=1.0):
    """Unnormalized LM(d, k, a) density (a + sum x)^-(k + d) on the orthant."""
    total = scale
    for c in coords:
        total = total + c
    return -(shape + len(coords)) * np.log(total)


def weibull_posterior(data, prior: str, shape=1.0, scale=1.0):
    """(means, variances) of (scale, shape) under 'lomax' or 'weibull-reference'."""
    data = np.asarray(data, dtype=float)
    if prior == "lomax":
        def log_prior(t, b):
            return lomax_log_prior(t, b, shape=shape, scale=scale)
    elif prior == "weibull-reference":
        def log_prior(t, b):
            return -np.log(t) - np.log(b)
    else:
        raise ValueError(f"no Weibull oracle for prior {prior!r}")
    lx = np.log(data)
    lows = (lx.min() - 25.0, -5.0)
    highs = (lx.max() + 25.0, 5.0)
    return grid_moments(
        lambda t, b: weibull_loglik(data, t, b) + log_prior(t, b),
        lows, highs, (True, True), nodes=(120, 220),
    )


def dagum_posterior(data, shape=1.0, scale=1.0):
    """(means, variances) of (a, b, p) under the LM(3, k, a) prior."""
    data = np.asarray(data, dtype=float)
    lx = np.log(data)
    # large a with small p approaches a power-function law on (0, b): the
    # likelihood stays finite there, so the log a axis must reach far out
    lows = (-6.0, lx.min() - 30.0, -26.0)
    highs = (16.0, lx.max() + 12.0, 28.0)
    return grid_moments(
        lambda a, b, p: dagum_loglik(data, a, b, p) + lomax_log_prior(a, b, p, shape=shape, scale=scale),
        lows, highs, (True, True, True), nodes=(64, 110),
    )


# ---------------------------------------------------------------------------
# linear regression: parameters (beta0, slopes..., sigma2)


def zellner_posterior(X, y, g):
    """Exact means and variances under the g prior with a flat intercept.

    Slopes ~ N(0, g sigma^2 (Xc'Xc)^-1), p(sigma^2) ~ 1/sigma^2.  Then
    E[slopes] = g/(1+g) * OLS slopes, E[beta0] = ybar - xbar'E[slopes],
    sigma^2 | y ~ InvGamma((n-1)/2, S/2) with
    S = SSR + OLS'Xc'Xc OLS / (1+g).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    xbar, ybar = X.mean(axis=0), y.mean()
    xc, yc = X - xbar, y - ybar
    xtx = xc.T @ xc
    ols = np.linalg.solve(xtx, xc.T @ yc)
    resid = yc - xc @ ols
    s = float(resid @ resid) + float(ols @ xtx @ ols) / (1.0 + g)
    shrink = g / (1.0 + g)
    a_ig, b_ig = 0.5 * (n - 1), 0.5 * s
    mean_s2 = b_ig / (a_ig - 1.0)
    var_s2 = b_ig**2 / ((a_ig - 1.0) ** 2 * (a_ig - 2.0))
    slopes = shrink * ols
    cov_slopes = shrink * mean_s2 * np.linalg.inv(xtx)
    means = np.concatenate([[ybar - xbar @ slopes], slopes, [mean_s2]])
    variances = np.concatenate(
        [[mean_s2 / n + float(xbar @ cov_slopes @ xbar)], np.diag(cov_slopes), [var_s2]]
    )
    return means, variances


def vague_normal_posterior(X, y, c, nodes=4001):
    """Means and variances under N(0, c) on every coefficient and 1/sigma^2.

    Given sigma^2 the coefficients are Gaussian with covariance
    V = (F'F/sigma^2 + I/c)^-1 and mean V F'y/sigma^2 (F = [1, X]); the
    marginal of log sigma^2 is integrated on a grid.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.size
    full = np.column_stack([np.ones(n), X])
    lam, q = np.linalg.eigh(full.T @ full)
    b = q.T @ (full.T @ y)
    yy = float(y @ y)
    resid = y - full @ np.linalg.lstsq(full, y, rcond=None)[0]
    center = math.log(max(float(resid @ resid) / n, 1e-300))
    # log sigma^2; the upper tail falls like e^(-n u / 2), so small n needs room
    u = np.linspace(center - 6.0, center + 6.0 + 100.0 / n, nodes)
    s2 = np.exp(u)[:, None]
    prec = lam[None, :] / s2 + 1.0 / c  # eigenvalues of V^-1
    logm = (
        -(1.0 + 0.5 * n) * u
        - 0.5 * yy / s2[:, 0]
        - 0.5 * np.log(prec).sum(axis=1)
        + 0.5 * ((b[None, :] / s2) ** 2 / prec).sum(axis=1)
        + u  # Jacobian of the log coordinate
    )
    if logm[0] > logm.max() - GRID_CUT or logm[-1] > logm.max() - GRID_CUT:
        raise OracleError("sigma^2 grid does not contain the posterior mass")
    w = np.exp(logm - logm.max())
    w /= w.sum()
    m_eig = (b[None, :] / s2) / prec  # conditional mean in the eigenbasis
    m = m_eig @ q.T
    v_diag = (q**2) @ (1.0 / prec).T  # diag of V, shape (d, nodes)
    coef_mean = w @ m
    coef_var = w @ v_diag.T + w @ (m - coef_mean) ** 2
    s2 = s2[:, 0]
    s2_mean = float(w @ s2)
    s2_var = float(w @ (s2 - s2_mean) ** 2)
    return np.append(coef_mean, s2_mean), np.append(coef_var, s2_var)


# ---------------------------------------------------------------------------
# Monte Carlo error


def ess(series) -> float:
    """Effective sample size by Geyer's initial positive sequence."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    c0 = float(x @ x) / n
    if c0 == 0.0:
        return float(n)
    size = 1 << (2 * n).bit_length()
    spec = np.fft.rfft(x, size)
    acf = np.fft.irfft(spec * np.conj(spec), size)[:n] / (n * c0)
    tau = -1.0  # tau = -1 + 2 * sum of positive pair sums (pair 0 includes lag 0)
    for k in range(0, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1.0 / n))


def mcse_of_mean(series) -> float:
    x = np.asarray(series, dtype=float)
    return float(np.std(x, ddof=1) / math.sqrt(ess(x)))
