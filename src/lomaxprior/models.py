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

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from lomaxprior.lomax import LomaxSpec
from lomaxprior.mcmc import PosteriorTarget, read_csv

__all__ = [
    "MODELS",
    "parameters",
    "WeibullParams",
    "DagumParams",
    "LinRegParams",
    "PriorSpec",
    "PriorRangeError",
    "integer_key",
    "real_key",
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
    "weibull_target",
    "dagum_target",
    "linreg_target",
    "weibull_init",
    "dagum_init",
    "chain_inputs",
    "read_column_csv",
    "read_design_csv",
]

MODELS = ("weibull", "dagum", "linreg")
_DERIVED = object()  # PriorSpec.lomax's default dim and folded: the model's


def parameters(model: str, p: int = 0) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(names, supports) of the model's parameters in chain order; ``p`` is the regression's covariate count."""
    if model == "weibull":
        return ("scale", "shape"), ("positive",) * 2
    if model == "dagum":
        return ("a", "b", "p"), ("positive",) * 3
    if model == "linreg":
        return ("beta0", *(f"beta{j}" for j in range(1, p + 1)), "sigma2"), ("real",) * (p + 1) + ("positive",)
    raise ValueError(f"unknown model {model!r}; use one of {MODELS}")


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


def _open_uniform(n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(n)  # open on both ends once 0.0 is replaced
    return np.where(u == 0.0, 0.5, u)


def weibull_sample(params: WeibullParams, n: int, rng: np.random.Generator):
    return weibull_quantile_sample(params, _open_uniform(n, rng))


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


MLE_BRACKET_STEPS = 60  # halvings plus doublings weibull_mle tries to bracket the profile root


def weibull_mle(data) -> WeibullParams:
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
        if it > MLE_BRACKET_STEPS:
            raise RuntimeError("Weibull MLE: could not bracket the profile root")
    while profile(lo) >= 0:
        lo /= 2.0
        it += 1
        if it > MLE_BRACKET_STEPS:
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
    return dagum_quantile_sample(params, _open_uniform(n, rng))


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


def integer_key(key: str, value) -> int:
    """``value`` as an int; a ValueError naming ``key`` unless it is an integral number (not a bool)."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise ValueError(f"{key!r} must be a number (an integer), got {value!r}")
    return int(value)


def real_key(key: str, value) -> float:
    """``value`` as a float; a ValueError naming ``key`` unless it is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PriorSpec:
    """One of the competing priors, with its hyperparameters.

    Build one through the constructor of its kind: each constructor's
    keywords are the keys that kind's scenario-file object may hold (see
    PRIOR_KINDS), and its defaults are the only ones.  ``design`` is only
    read for the g prior: the covariate matrix (no intercept column) whose
    XtX shapes the slope-coefficient covariance.  The intercept itself stays
    flat, the usual operational form of the g prior.  ``linreg_target``, its
    only reader, uses the regression's own covariates when it is None.
    """

    kind: str
    dim: int | None = None  # the Lomax keys, as given: a dim or folded of None is the model's
    shape: float = LomaxSpec.shape
    scale: float = LomaxSpec.scale
    folded: frozenset | None = None
    gamma_shapes: tuple = ()
    gamma_rates: tuple = ()
    c: float = 1e6
    g: float = 500.0
    design: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in tuple(PRIOR_KINDS):  # a tuple: an unhashable kind is unknown too
            raise ValueError(f"unknown prior kind {self.kind!r}; use one of {tuple(PRIOR_KINDS)}")
        if self.kind == "lomax":  # the given keys must form a LomaxSpec; folds without a dim meet the model's check
            dim, folded = (1, ()) if self.dim is None else (self.dim, self.folded or ())
            LomaxSpec(dim, self.shape, self.scale, folded)
        if self.kind == "vague-gamma-product":
            if len(self.gamma_shapes) != len(self.gamma_rates) or not self.gamma_shapes:
                raise ValueError("gamma prior needs matching shape/rate tuples")
            for key, values in (("shapes", self.gamma_shapes), ("rates", self.gamma_rates)):
                if not all(0 < v < math.inf for v in values):
                    raise ValueError(f"gamma {key} must be > 0 and finite, got {list(values)}")
        for key in ("c", "g"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be > 0 and finite, got {getattr(self, key)}")

    # one constructor per kind ---------------------------------------------------

    @staticmethod
    def lomax(
        dim: int = _DERIVED, shape: float = LomaxSpec.shape, scale: float = LomaxSpec.scale, folded=_DERIVED
    ) -> "PriorSpec":
        """One coordinate per model parameter, folded where its support is the real line.

        A ``dim`` or ``folded`` given must be the model's; None is refused, as a JSON null is."""
        return PriorSpec(
            kind="lomax",
            dim=None if dim is _DERIVED else integer_key("dim", dim),
            shape=real_key("shape", shape),
            scale=real_key("scale", scale),
            folded=None if folded is _DERIVED else frozenset(integer_key("folded", i) for i in folded),
        )

    @staticmethod
    def weibull_reference() -> "PriorSpec":
        return PriorSpec(kind="weibull-reference")

    @staticmethod
    def vague_gamma(shapes=(0.01,) * 3, rates=(0.01,) * 3) -> "PriorSpec":
        return PriorSpec(
            kind="vague-gamma-product",
            gamma_shapes=tuple(real_key("shapes", s) for s in shapes),
            gamma_rates=tuple(real_key("rates", r) for r in rates),
        )

    # the class-body names c and g are the field defaults above
    @staticmethod
    def vague_normal(c: float = c) -> "PriorSpec":
        return PriorSpec(kind="vague-normal-sigma", c=real_key("c", c))

    @staticmethod
    def zellner(g: float = g, design=None) -> "PriorSpec":
        d = None if design is None else np.atleast_2d(np.asarray(design, dtype=float))
        return PriorSpec(kind="zellner-g", g=real_key("g", g), design=d)

    # scenario-file form -------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON object a scenario file stores: the kind's PRIOR_KINDS keys that are not None."""
        out = {"kind": self.kind}
        for key in PRIOR_KINDS[self.kind][1]:
            v = getattr(self, _FIELD_OF_KEY.get(key, key))
            if v is not None:
                out[key] = sorted(v) if isinstance(v, frozenset) else list(v) if isinstance(v, tuple) else v
        return out

    @staticmethod
    def from_dict(d) -> "PriorSpec":
        """Inverse of ``to_dict``: the kind's constructor called with the object's other keys."""
        if not isinstance(d, dict):
            raise ValueError(f"a prior must be a JSON object with a 'kind', got {d!r}")
        kind = d.get("kind")
        if kind not in tuple(PRIOR_KINDS):
            raise ValueError(f"unknown prior kind {kind!r}; use one of {tuple(PRIOR_KINDS)}")
        build, keys = PRIOR_KINDS[kind]
        unknown = [key for key in d if key != "kind" and key not in keys]
        if unknown:
            raise ValueError(f"bad {kind!r} prior: unknown key {unknown[0]!r}; use {('kind', *keys)}")
        try:
            return build(**{key: d[key] for key in keys if key in d})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {kind!r} prior: {exc}") from None


# each prior kind: its constructor, and the keys its scenario-file object may
# hold besides "kind", which are that constructor's keywords
PRIOR_KINDS = {
    "lomax": (PriorSpec.lomax, ("dim", "shape", "scale", "folded")),
    "weibull-reference": (PriorSpec.weibull_reference, ()),
    "vague-gamma-product": (PriorSpec.vague_gamma, ("shapes", "rates")),
    "vague-normal-sigma": (PriorSpec.vague_normal, ("c",)),
    "zellner-g": (PriorSpec.zellner, ("g",)),
}
_FIELD_OF_KEY = {"shapes": "gamma_shapes", "rates": "gamma_rates"}  # the keys not named as their field


def _gamma_log_norm(shape, rate) -> float:
    """shape log(rate) - log Gamma(shape), the x-free part of the Gamma log density."""
    # scipy is imported here only: math.lgamma differs from gammaln in the last bits
    from scipy.special import gammaln

    return float(shape * math.log(rate) - gammaln(shape))


def _gamma_logpdf(x, shape, rate, log_norm):
    """Gamma(shape, rate) log density at x, given log_norm = _gamma_log_norm(shape, rate)."""
    return log_norm + (shape - 1.0) * math.log(x) - rate * x


# ---------------------------------------------------------------------------
# posterior targets (likelihood + prior composed for the sampler)
#
# The Dagum and regression targets keep their data terms in an LRU cache of
# size d: between two lookups of the sampler's current state, a sweep over d
# coordinates looks up at most d - 1 other keys.  A cached value holds
# floats, never a view of the caller's vector.


class PriorRangeError(ValueError):
    """A Lomax prior whose shape puts k(k+1)...(k+d-1) / 2^|folded| outside the positive floats."""


def _lomax_for(prior: PriorSpec, support, model: str) -> tuple[float, float, float]:
    """(const, expo, a0) of the prior's Lomax log density const - expo log(a0 + sum |v|) on ``support``.

    One coordinate per parameter, folded where its support is the real line.
    The constant is taken in log space, log(a) k + log(k(k+1)...(k+d-1) / 2^|folded|),
    so only the shape can leave the float range.
    """
    dim, folded = len(support), frozenset(i for i, s in enumerate(support, 1) if s == "real")
    got = (dim if prior.dim is None else prior.dim, folded if prior.folded is None else prior.folded)
    if got != (dim, folded):
        raise ValueError(
            f"the {model} model needs a lomax prior of dimension {dim} folded on {sorted(folded)},"
            f" got dimension {got[0]} folded on {sorted(got[1])}"
        )
    k, a = prior.shape, prior.scale
    ratio = math.prod(k + j for j in range(dim)) / 2 ** len(folded)
    if not 0 < ratio < math.inf:
        raise PriorRangeError(
            f"lomax prior shape {k!r} puts k(k+1)...(k+d-1) / 2^|folded| of {dim} coordinates"
            f" outside the float range"
        )
    return math.log(a) * k + math.log(ratio), k + dim, a


def weibull_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))
    names, support = parameters("weibull")

    if prior.kind == "lomax":
        const, expo, a0 = _lomax_for(prior, support, "Weibull")

        def logp(th, be):
            return const - expo * math.log(a0 + th + be)

    elif prior.kind == "weibull-reference":

        def logp(th, be):
            return -math.log(th) - math.log(be)

    else:
        raise ValueError(f"prior {prior.kind!r} is not defined for the Weibull model")

    z = np.empty_like(logx)  # reused by every call: log_post is not thread-safe
    s = np.empty(())  # each scalar operand and the sum: numpy converts no Python float

    def log_post(v):
        th, be = v.tolist()
        if th <= 0 or be <= 0:
            return -math.inf
        log_th = math.log(th)
        s[()] = log_th
        np.subtract(logx, s, z)
        s[()] = be
        np.multiply(z, s, z)
        np.exp(z, z)
        np.add.reduce(z, 0, None, s)
        ll = n * math.log(be) + (be - 1.0) * slogx - n * be * log_th - float(s)
        return ll + logp(th, be)

    return PosteriorTarget(log_post, support, names)


def dagum_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))
    names, support = parameters("dagum")

    if prior.kind == "lomax":
        const, expo, a0 = _lomax_for(prior, support, "Dagum")

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
    s = np.empty(())  # each scalar operand and each sum: numpy converts no Python float

    # a p move keeps (a, b); read only at a, b > 0, where equal keys have equal bits
    @functools.lru_cache(maxsize=len(names))
    def sums(a, b):
        s[()] = math.log(b)
        np.subtract(logx, s, w)
        s[()] = a
        np.multiply(w, s, w)
        s[()] = 0.0
        np.logaddexp(s, w, softplus)
        np.add.reduce(w, 0, None, s)
        sum_w = float(s)
        np.add.reduce(softplus, 0, None, s)
        return sum_w, float(s)

    def log_post(v):
        a, b, p = v.tolist()
        if a <= 0 or b <= 0 or p <= 0:
            return -math.inf
        sum_w, sum_softplus = sums(a, b)
        ll = (
            n * (math.log(a) + math.log(p))
            - slogx
            + p * sum_w
            - (p + 1.0) * sum_softplus
        )
        return ll + logp(a, b, p)

    return PosteriorTarget(log_post, support, names)


def linreg_target(X, y, prior: PriorSpec) -> PosteriorTarget:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    full = np.column_stack([np.ones(n), X])
    names, support = parameters("linreg", p)
    half_n_log2pi = 0.5 * n * math.log(2.0 * math.pi)

    kind = prior.kind
    # each prior's log density is logp(coef_term(coef), var): the coefficient
    # term is cached with the residual sum of squares
    if kind == "lomax":
        const, expo, a0 = _lomax_for(prior, support, "regression")

        def coef_term(coef):
            return float(np.add.reduce(np.abs(coef)))

        def logp(abs_sum, var):
            return const - expo * math.log(a0 + abs_sum + var)

    elif kind == "vague-normal-sigma":
        c = prior.c
        const = -0.5 * (p + 1) * math.log(2.0 * math.pi * c)

        def coef_term(coef):
            return float(coef @ coef)

        def logp(sq_sum, var):
            return -math.log(var) + const - 0.5 * sq_sum / c

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

        def coef_term(coef):
            slopes = coef[1:]
            return float(slopes @ xtx @ slopes)

        def logp(slope_quad, var):
            quad = slope_quad / (var * g)
            return (
                -math.log(var)
                - 0.5 * p * math.log(2.0 * math.pi * var * g)
                + 0.5 * logdet
                - 0.5 * quad
            )

    else:
        raise ValueError(f"prior {kind!r} is not defined for the regression model")

    r = np.empty(n)  # reused by every call: log_post is not thread-safe

    # keyed on the coefficients' bytes, not their values: 0.0 == -0.0
    @functools.lru_cache(maxsize=len(names))
    def data_terms(key):
        coef = np.frombuffer(key)
        np.matmul(full, coef, out=r)
        np.subtract(y, r, out=r)
        return float(r @ r), coef_term(coef)

    def log_post(v):
        var = float(v[-1])
        if var <= 0:
            return -math.inf
        rss, term = data_terms(v[:-1].tobytes())
        ll = -half_n_log2pi - 0.5 * n * math.log(var) - rss / (2.0 * var)
        return ll + logp(term, var)

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


def chain_inputs(model: str, prior: PriorSpec, data):
    """(target, initial point, proposal steps) of one chain, for ``fit`` and ``simulate`` alike.

    ``data`` is the observation vector, or ``(X, y)`` for ``linreg``.  The
    regression steps are 2.4 least-squares standard errors per coefficient
    and 0.35 (on the log scale) for the variance.
    """
    if model == "weibull":
        return weibull_target(data, prior), weibull_init(data), np.array([0.3, 0.3])
    if model == "dagum":
        return dagum_target(data, prior), dagum_init(data), np.array([0.3, 0.3, 0.3])
    parameters(model)  # refuses an unknown model
    X, y = data
    target = linreg_target(X, y, prior)
    ls = least_squares_init(X, y)
    full = np.column_stack([np.ones(X.shape[0]), X])
    se = np.sqrt(ls.variance * np.diag(np.linalg.inv(full.T @ full)))
    return target, ls.as_vector(), np.append(2.4 * np.maximum(se, 1e-6), 0.35)


# ---------------------------------------------------------------------------
# CSV input


def read_column_csv(path, column: str | None = None) -> np.ndarray:
    """Read one column of a headed CSV (the only column when unnamed)."""
    header, body = read_csv(path)
    if column is None:
        if len(header) != 1:
            raise ValueError(f"file has columns {list(header)}; pick one")
        return body[:, 0]
    if column not in header:
        raise ValueError(f"column {column!r} not among {list(header)}")
    return body[:, header.index(column)]


def read_design_csv(path, response: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a design matrix CSV; the named column is the response."""
    header, body = read_csv(path)
    if response not in header:
        raise ValueError(f"response column {response!r} not among {list(header)}")
    idx = header.index(response)
    y = body[:, idx]
    X = np.delete(body, idx, axis=1)
    return X, y
