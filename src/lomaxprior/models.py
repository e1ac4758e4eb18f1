"""Likelihoods, samplers and MLE utilities for the three data models,
plus every prior they get compared under.

Models: Weibull(scale theta, shape beta), Dagum(a, b, p) and Gaussian linear
regression (intercept, coefficients, variance).  Priors: the multivariate
Lomax, the Weibull reference prior 1/(theta beta), a product of vague Gamma
densities, an independent vague normal with the sigma^-1 factor, and a
Zellner-style g prior.  All log priors are unnormalized where improper and
parameterize the regression noise through sigma^2 (the sigma^-1 factor
becomes 1/sigma^2 after the change of variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lomaxprior.lomax import LomaxSpec, log_density, normalizing_constant
from lomaxprior.mcmc import PosteriorTarget

__all__ = [
    "WeibullParams",
    "DagumParams",
    "LinRegParams",
    "PriorSpec",
    "weibull_logpdf",
    "weibull_loglik",
    "weibull_quantile_sample",
    "weibull_sample",
    "weibull_loglik_grad",
    "weibull_mle",
    "dagum_logpdf",
    "dagum_loglik",
    "dagum_cdf",
    "dagum_quantile_sample",
    "dagum_sample",
    "linreg_loglik",
    "linreg_sample",
    "least_squares_init",
    "log_prior",
    "weibull_target",
    "dagum_target",
    "linreg_target",
    "weibull_init",
    "dagum_init",
    "read_column_csv",
    "read_design_csv",
]


@dataclass(frozen=True)
class WeibullParams:
    scale: float
    shape: float

    def __post_init__(self):
        if not (self.scale > 0 and self.shape > 0):
            raise ValueError("Weibull scale and shape must be > 0")


@dataclass(frozen=True)
class DagumParams:
    a: float
    b: float
    p: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.p > 0):
            raise ValueError("Dagum parameters must all be > 0")


@dataclass(frozen=True)
class LinRegParams:
    intercept: float
    coefficients: tuple
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.variance > 0:
            raise ValueError("variance must be > 0")

    def as_vector(self) -> np.ndarray:
        return np.array([self.intercept, *self.coefficients, self.variance])


# ---------------------------------------------------------------------------
# Weibull


def _positive_data(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("observations must be > 0")
    return x


def weibull_logpdf(params: WeibullParams, x):
    """log beta + (beta-1) log x - beta log theta - (x/theta)^beta."""
    x = _positive_data(x)
    th, be = params.scale, params.shape
    z = be * (np.log(x) - math.log(th))
    out = math.log(be) - np.log(x) + z - np.exp(z)
    return float(out[0]) if out.size == 1 else out


def weibull_loglik(params: WeibullParams, data) -> float:
    return float(np.sum(weibull_logpdf(params, data)))


def weibull_quantile_sample(params: WeibullParams, u):
    """theta * (-log(1-u))^(1/beta) for u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0, 1)")
    out = params.scale * (-np.log1p(-u)) ** (1.0 / params.shape)
    return float(out) if out.ndim == 0 else out


def weibull_sample(params: WeibullParams, n: int, rng: np.random.Generator):
    # uniform() is open on both ends once 0.0 is excluded below
    u = rng.random(n)
    u = np.where(u == 0.0, 0.5, u)
    return weibull_quantile_sample(params, u)


def weibull_loglik_grad(params: WeibullParams, data) -> np.ndarray:
    """Gradient of the log likelihood in (scale, shape)."""
    x = _positive_data(data)
    th, be = params.scale, params.shape
    n = x.size
    z = (x / th) ** be
    logr = np.log(x) - math.log(th)
    d_th = (be / th) * (float(np.sum(z)) - n)
    d_be = n / be + float(np.sum(logr)) - float(np.sum(z * logr))
    return np.array([d_th, d_be])


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Brent's root finder, a line-by-line port of scipy.optimize.brentq's C code.

    Returns the same bits as ``scipy.optimize.brentq(f, xa, xb, xtol=xtol,
    rtol=rtol, maxiter=maxiter)`` without importing scipy.  Raises ValueError
    on a NaN function value or an unbracketed root, RuntimeError when
    ``maxiter`` iterations do not converge.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def weibull_mle(data, max_expand: int = 60) -> WeibullParams:
    """Profile-likelihood MLE.

    Solves the 1-d profile equation for the shape by bracketed root finding,
    then the closed-form scale; the gradient at the result must be below
    1e-8 in norm, otherwise a RuntimeError is raised.
    """
    x = _positive_data(data)
    if x.size < 2 or np.all(x == x[0]):
        raise ValueError("need at least two distinct observations")
    logx = np.log(x)
    mean_logx = float(np.mean(logx))

    def profile(be):
        w = x**be
        return float(np.sum(w * logx) / np.sum(w)) - 1.0 / be - mean_logx

    lo, hi = 1e-3, 2.0
    it = 0
    while profile(hi) <= 0:
        hi *= 2.0
        it += 1
        if it > max_expand:
            raise RuntimeError("Weibull MLE: could not bracket the profile root")
    while profile(lo) >= 0:
        lo /= 2.0
        it += 1
        if it > max_expand:
            raise RuntimeError("Weibull MLE: could not bracket the profile root")
    be = _brentq(profile, lo, hi, xtol=1e-14, rtol=8.9e-16)
    th = float(np.mean(x**be)) ** (1.0 / be)
    params = WeibullParams(scale=th, shape=be)
    if np.linalg.norm(weibull_loglik_grad(params, x)) > 1e-8 * max(1.0, x.size):
        raise RuntimeError("Weibull MLE did not reach stationarity")
    return params


# ---------------------------------------------------------------------------
# Dagum


def dagum_logpdf(params: DagumParams, x):
    """log a + log p - log x + a p (log x - log b) - (p+1) log(1 + (x/b)^a)."""
    x = _positive_data(x)
    a, b, p = params.a, params.b, params.p
    w = a * (np.log(x) - math.log(b))
    out = math.log(a) + math.log(p) - np.log(x) + p * w - (p + 1.0) * np.logaddexp(0.0, w)
    return float(out[0]) if out.size == 1 else out


def dagum_loglik(params: DagumParams, data) -> float:
    return float(np.sum(dagum_logpdf(params, data)))


def dagum_cdf(params: DagumParams, x):
    x = _positive_data(x)
    out = (1.0 + (x / params.b) ** (-params.a)) ** (-params.p)
    return float(out[0]) if out.size == 1 else out


def dagum_quantile_sample(params: DagumParams, u):
    """b (u^(-1/p) - 1)^(-1/a), inverting the CDF (1 + (x/b)^-a)^-p."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0, 1)")
    out = params.b * (u ** (-1.0 / params.p) - 1.0) ** (-1.0 / params.a)
    return float(out) if out.ndim == 0 else out


def dagum_sample(params: DagumParams, n: int, rng: np.random.Generator):
    u = rng.random(n)
    u = np.where(u == 0.0, 0.5, u)
    return dagum_quantile_sample(params, u)


# ---------------------------------------------------------------------------
# linear regression


def linreg_loglik(params: LinRegParams, X, y) -> float:
    """Gaussian log likelihood; X holds the covariates only (no 1s column)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError("X and y have mismatched lengths")
    if X.shape[1] != len(params.coefficients):
        raise ValueError("X and coefficients have mismatched widths")
    n = y.size
    v = params.variance
    r = y - params.intercept - X @ np.asarray(params.coefficients)
    return -0.5 * n * math.log(2.0 * math.pi * v) - float(r @ r) / (2.0 * v)


def linreg_sample(params: LinRegParams, X, rng: np.random.Generator):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean = params.intercept + X @ np.asarray(params.coefficients)
    return mean + math.sqrt(params.variance) * rng.standard_normal(X.shape[0])


def least_squares_init(X, y) -> LinRegParams:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    full = np.column_stack([np.ones(X.shape[0]), X])
    coef, *_ = np.linalg.lstsq(full, y, rcond=None)
    resid = y - full @ coef
    var = float(resid @ resid) / max(X.shape[0] - full.shape[1], 1)
    return LinRegParams(intercept=float(coef[0]), coefficients=coef[1:], variance=max(var, 1e-12))


# ---------------------------------------------------------------------------
# priors


PRIOR_KINDS = (
    "lomax",
    "weibull-reference",
    "vague-gamma-product",
    "vague-normal-sigma",
    "zellner-g",
)


@dataclass(frozen=True)
class PriorSpec:
    """One of the competing priors, with its hyperparameters.

    ``design`` is only needed for the g prior: the covariate matrix (no
    intercept column) whose XtX shapes the slope-coefficient covariance.
    The intercept itself stays flat, the usual operational form of the
    g prior; it is usually injected per dataset.
    """

    kind: str
    lomax_spec: LomaxSpec | None = None
    gamma_shapes: tuple = ()
    gamma_rates: tuple = ()
    c: float = 1e6
    g: float = 500.0
    design: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}; use one of {PRIOR_KINDS}")
        if self.kind == "lomax" and self.lomax_spec is None:
            raise ValueError("lomax prior needs a LomaxSpec")
        if self.kind == "vague-gamma-product":
            if len(self.gamma_shapes) != len(self.gamma_rates) or not self.gamma_shapes:
                raise ValueError("gamma prior needs matching shape/rate tuples")
            if min(self.gamma_shapes) <= 0 or min(self.gamma_rates) <= 0:
                raise ValueError("gamma hyperparameters must be > 0")
        if self.c <= 0 or self.g <= 0:
            raise ValueError("c and g must be > 0")

    # convenience constructors ------------------------------------------------

    @staticmethod
    def lomax(dim: int, shape: float = 1.0, scale: float = 1.0, folded=frozenset()) -> "PriorSpec":
        return PriorSpec(kind="lomax", lomax_spec=LomaxSpec(dim, shape, scale, frozenset(folded)))

    @staticmethod
    def weibull_reference() -> "PriorSpec":
        return PriorSpec(kind="weibull-reference")

    @staticmethod
    def vague_gamma(n_params: int = 3, shape: float = 0.01, rate: float = 0.01) -> "PriorSpec":
        return PriorSpec(
            kind="vague-gamma-product",
            gamma_shapes=(shape,) * n_params,
            gamma_rates=(rate,) * n_params,
        )

    @staticmethod
    def vague_normal(c: float = 1e6) -> "PriorSpec":
        return PriorSpec(kind="vague-normal-sigma", c=c)

    @staticmethod
    def zellner(g: float = 500.0, design=None) -> "PriorSpec":
        d = None if design is None else np.atleast_2d(np.asarray(design, dtype=float))
        return PriorSpec(kind="zellner-g", g=g, design=d)

    def with_design(self, design) -> "PriorSpec":
        return PriorSpec(
            kind=self.kind,
            lomax_spec=self.lomax_spec,
            gamma_shapes=self.gamma_shapes,
            gamma_rates=self.gamma_rates,
            c=self.c,
            g=self.g,
            design=np.atleast_2d(np.asarray(design, dtype=float)),
        )

    @property
    def label(self) -> str:
        return self.kind


def _gamma_log_norm(shape, rate) -> float:
    """shape log(rate) - log Gamma(shape), the x-free part of the Gamma log density."""
    # scipy is imported here only: math.lgamma differs from gammaln in the last bits
    from scipy.special import gammaln

    return float(shape * math.log(rate) - gammaln(shape))


def _gamma_logpdf(x, shape, rate, log_norm):
    """Gamma(shape, rate) log density at x, given log_norm = _gamma_log_norm(shape, rate)."""
    return log_norm + (shape - 1.0) * math.log(x) - rate * x


def log_prior(prior: PriorSpec, params) -> float:
    """Unnormalized log prior density at a model parameter vector.

    For the regression priors the vector is (intercept, coefficients...,
    sigma^2); the improper sigma^-1 factor appears as -log sigma^2 in this
    parameterization.
    """
    x = np.atleast_1d(np.asarray(params, dtype=float))
    kind = prior.kind
    if kind == "lomax":
        return log_density(prior.lomax_spec, x)
    if kind == "weibull-reference":
        if np.any(x <= 0):
            raise ValueError("reference prior support is the positive quadrant")
        return -float(np.sum(np.log(x)))
    if kind == "vague-gamma-product":
        if x.size != len(prior.gamma_shapes):
            raise ValueError("parameter vector does not match the Gamma components")
        if np.any(x <= 0):
            raise ValueError("gamma product support is the positive orthant")
        return float(
            sum(
                _gamma_logpdf(xi, s, r, _gamma_log_norm(s, r))
                for xi, s, r in zip(x, prior.gamma_shapes, prior.gamma_rates)
            )
        )
    if kind == "vague-normal-sigma":
        coef, var = x[:-1], x[-1]
        if var <= 0:
            raise ValueError("variance must be > 0")
        quad = float(coef @ coef) / prior.c
        return -math.log(var) - 0.5 * coef.size * math.log(2.0 * math.pi * prior.c) - 0.5 * quad
    if kind == "zellner-g":
        if prior.design is None:
            raise ValueError("zellner-g prior needs its design matrix")
        slopes, var = x[1:-1], x[-1]  # intercept x[0] is flat
        if var <= 0:
            raise ValueError("variance must be > 0")
        xc = prior.design - prior.design.mean(axis=0)
        xtx = xc.T @ xc
        if slopes.size != xtx.shape[0]:
            raise ValueError("slope block does not match the design matrix")
        sign, logdet_xtx = np.linalg.slogdet(xtx)
        if sign <= 0:
            raise ValueError("design matrix must have full column rank")
        p = slopes.size
        quad = float(slopes @ xtx @ slopes) / (var * prior.g)
        return (
            -math.log(var)
            - 0.5 * p * math.log(2.0 * math.pi * var * prior.g)
            + 0.5 * logdet_xtx
            - 0.5 * quad
        )
    raise ValueError(f"unknown prior kind {kind!r}")


# ---------------------------------------------------------------------------
# posterior targets (likelihood + prior composed for the sampler)


def _lomax_of_dim(prior: PriorSpec, dim: int, model: str) -> LomaxSpec:
    spec = prior.lomax_spec
    if spec.dim != dim:
        raise ValueError(f"the {model} model needs a lomax prior of dimension {dim}, got {spec.dim}")
    return spec


def weibull_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))

    if prior.kind == "lomax":
        spec = _lomax_of_dim(prior, 2, "Weibull")
        const = math.log(spec.scale) * spec.shape + math.log(
            spec.shape * (spec.shape + 1.0)
        )
        expo = spec.shape + 2.0
        a0 = spec.scale

        def logp(th, be):
            return const - expo * math.log(a0 + th + be)

    elif prior.kind == "weibull-reference":

        def logp(th, be):
            return -math.log(th) - math.log(be)

    else:
        raise ValueError(f"prior {prior.kind!r} is not defined for the Weibull model")

    z = np.empty_like(logx)  # reused by every call: log_post is not thread-safe

    def log_post(v):
        th, be = float(v[0]), float(v[1])
        if th <= 0 or be <= 0:
            return -math.inf
        log_th = math.log(th)
        np.subtract(logx, log_th, out=z)
        np.multiply(z, be, out=z)
        np.exp(z, out=z)
        ll = n * math.log(be) + (be - 1.0) * slogx - n * be * log_th - float(z.sum())
        return ll + logp(th, be)

    return PosteriorTarget(log_post, ("positive", "positive"), ("scale", "shape"))


def dagum_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))

    if prior.kind == "lomax":
        spec = _lomax_of_dim(prior, 3, "Dagum")
        const = math.log(normalizing_constant(spec))
        expo = spec.shape + 3.0
        a0 = spec.scale

        def logp(a, b, p):
            return const - expo * math.log(a0 + a + b + p)

    elif prior.kind == "vague-gamma-product":
        if len(prior.gamma_shapes) != 3:
            raise ValueError("the Dagum gamma prior needs 3 components, one per parameter")
        ga, gb, gp = ((s, r, _gamma_log_norm(s, r)) for s, r in zip(prior.gamma_shapes, prior.gamma_rates))

        def logp(a, b, p):
            return _gamma_logpdf(a, *ga) + _gamma_logpdf(b, *gb) + _gamma_logpdf(p, *gp)

    else:
        raise ValueError(f"prior {prior.kind!r} is not defined for the Dagum model")

    w = np.empty_like(logx)  # reused by every call: log_post is not thread-safe
    softplus = np.empty_like(logx)

    def log_post(v):
        a, b, p = float(v[0]), float(v[1]), float(v[2])
        if a <= 0 or b <= 0 or p <= 0:
            return -math.inf
        np.subtract(logx, math.log(b), out=w)
        np.multiply(w, a, out=w)
        np.logaddexp(0.0, w, out=softplus)
        ll = (
            n * (math.log(a) + math.log(p))
            - slogx
            + p * float(w.sum())
            - (p + 1.0) * float(softplus.sum())
        )
        return ll + logp(a, b, p)

    return PosteriorTarget(log_post, ("positive",) * 3, ("a", "b", "p"))


def linreg_target(X, y, prior: PriorSpec) -> PosteriorTarget:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    full = np.column_stack([np.ones(n), X])
    names = ("beta0", *(f"beta{j}" for j in range(1, p + 1)), "sigma2")
    support = ("real",) * (p + 1) + ("positive",)
    half_n_log2pi = 0.5 * n * math.log(2.0 * math.pi)

    kind = prior.kind
    if kind == "lomax":
        # one dimension per coefficient, intercept included, plus the variance
        spec = _lomax_of_dim(prior, p + 2, "regression")
        const = math.log(normalizing_constant(spec))
        expo = spec.shape + spec.dim
        a0 = spec.scale

        def logp(coef, var):
            return const - expo * math.log(a0 + float(np.abs(coef).sum()) + var)

    elif kind == "vague-normal-sigma":
        c = prior.c
        const = -0.5 * (p + 1) * math.log(2.0 * math.pi * c)

        def logp(coef, var):
            return -math.log(var) + const - 0.5 * float(coef @ coef) / c

    elif kind == "zellner-g":
        design = X if prior.design is None else prior.design
        xc = design - design.mean(axis=0)
        xtx = xc.T @ xc
        if xtx.shape[0] != p:
            raise ValueError("g-prior design must match the covariate count")
        sign, logdet = np.linalg.slogdet(xtx)
        if sign <= 0:
            raise ValueError("design matrix must have full column rank")
        g = prior.g

        def logp(coef, var):
            slopes = coef[1:]
            quad = float(slopes @ xtx @ slopes) / (var * g)
            return (
                -math.log(var)
                - 0.5 * p * math.log(2.0 * math.pi * var * g)
                + 0.5 * logdet
                - 0.5 * quad
            )

    else:
        raise ValueError(f"prior {kind!r} is not defined for the regression model")

    def log_post(v):
        var = float(v[-1])
        if var <= 0:
            return -math.inf
        coef = v[:-1]
        r = y - full @ coef
        ll = -half_n_log2pi - 0.5 * n * math.log(var) - float(r @ r) / (2.0 * var)
        return ll + logp(coef, var)

    return PosteriorTarget(log_post, support, names)


# ---------------------------------------------------------------------------
# chain starting points


def weibull_init(data) -> np.ndarray:
    try:
        mle = weibull_mle(data)
        return np.array([mle.scale, mle.shape])
    except (ValueError, RuntimeError):
        x = _positive_data(data)
        return np.array([float(np.mean(x)), 1.0])


def dagum_init(data) -> np.ndarray:
    x = _positive_data(data)
    return np.array([2.0, float(np.median(x)), 1.0])


# ---------------------------------------------------------------------------
# CSV input


def read_column_csv(path, column: str | None = None) -> np.ndarray:
    """Read one column of a headed CSV (the only column when unnamed)."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().strip().split(",")]
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if column is None:
        if len(header) != 1:
            raise ValueError(f"file has columns {header}; pick one")
        return body[:, 0]
    if column not in header:
        raise ValueError(f"column {column!r} not among {header}")
    return body[:, header.index(column)]


def read_design_csv(path, response: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a design matrix CSV; the named column is the response."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().strip().split(",")]
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if response not in header:
        raise ValueError(f"response column {response!r} not among {header}")
    idx = header.index(response)
    y = body[:, idx]
    X = np.delete(body, idx, axis=1)
    return X, y
