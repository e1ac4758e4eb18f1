"""Multivariate Lomax distribution LM(d, k, a), with optional folded coordinates.

The density on the positive orthant is

    q(x_1, ..., x_d) = k (k+1) ... (k+d-1) a^k / (a + x_1 + ... + x_d)^(k+d).

A *folded* coordinate has its support extended from (0, inf) to the whole
real line by substituting |x_i| in the density and halving the normalizing
constant.  The family is closed under marginalization and conditioning,
which is also how exact sampling works here (sequential conditionals).

Coordinate indices (for ``folded``, ``marginal`` and ``conditional``) are
1-based, i.e. subsets of {1, ..., d}.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "LomaxSpec",
    "QuadratureError",
    "PriorRangeError",
    "normalizing_constant",
    "log_normalizing_constant",
    "log_density",
    "density",
    "integer_key",
    "real_key",
    "marginal",
    "conditional",
    "univariate_cdf",
    "univariate_quantile",
    "sample",
    "entropy",
    "Moments",
    "marginal_moments",
    "laplace_mixture_density",
    "folded_density_closed_form",
    "normalization_quadrature",
    "half_line_rule",
]


MAX_QUADRATURE_POINTS = 2**24  # normalization_quadrature's grid cap, 128 MiB per float array
MIXTURE_RTOL = 1e-6  # its required agreement with the closed form


class QuadratureError(RuntimeError):
    """Raised when a numerical quadrature misses its accuracy contract."""


class PriorRangeError(ValueError):
    """A Lomax shape that puts k(k+1)...(k+d-1) / 2^|folded| outside the positive floats."""


@dataclass(frozen=True)
class LomaxSpec:
    """Parameters of an LM(dim, shape, scale) distribution.

    ``folded`` lists the 1-based coordinates whose support is all of R
    (the density sees |x_i| there); every other coordinate lives on (0, inf).
    """

    dim: int
    shape: float = 1.0
    scale: float = 1.0
    folded: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        dim, shape, scale = integer_key("dim", self.dim), real_key("shape", self.shape), real_key("scale", self.scale)
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        if not 0 < shape < math.inf:
            raise ValueError(f"shape must be > 0 and finite, got {shape}")
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be > 0 and finite, got {scale}")
        folded = frozenset(integer_key("folded", i) for i in self.folded)
        if not all(1 <= i <= dim for i in folded):  # no set of range(dim): dim may be huge
            raise ValueError(f"folded indices {sorted(folded)} not a subset of 1..{dim}")
        for key, value in (("dim", dim), ("shape", shape), ("scale", scale), ("folded", folded)):
            object.__setattr__(self, key, value)


def _rising_factorial(k: float, d: int) -> float:
    """k (k+1) ... (k+d-1)."""
    out = 1.0
    for j in range(d):
        out *= k + j
    return out


def normalizing_constant(spec: LomaxSpec) -> float:
    """a^k * k(k+1)...(k+d-1), divided by 2 per folded coordinate."""
    c = spec.scale ** spec.shape * _rising_factorial(spec.shape, spec.dim)
    return c / 2 ** len(spec.folded)


def log_normalizing_constant(spec: LomaxSpec) -> float:
    """log(a) k + log(k(k+1)...(k+d-1) / 2^|folded|): without a^k, only the shape can leave the float range."""
    ratio = _rising_factorial(spec.shape, spec.dim) / 2 ** len(spec.folded)
    if not 0 < ratio < math.inf:
        raise PriorRangeError(
            f"lomax prior shape {spec.shape!r} puts k(k+1)...(k+d-1) / 2^|folded| of {spec.dim} coordinates"
            " outside the float range"
        )
    return math.log(spec.scale) * spec.shape + math.log(ratio)


def _abs_sum(spec: LomaxSpec, x: np.ndarray) -> float:
    """Sum of coordinates with |.| applied to folded ones; validates support."""
    total = 0.0
    for i in range(spec.dim):
        xi = x[i]
        if (i + 1) in spec.folded:
            total += abs(xi)
        elif xi <= 0:
            raise ValueError(f"coordinate {i + 1} is on (0, inf) but got {xi}")
        else:
            total += xi
    return total


def log_density(spec: LomaxSpec, x) -> float:
    """Log density at x (length-d vector)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have shape ({spec.dim},), got {x.shape}")
    s = _abs_sum(spec, x)
    return log_normalizing_constant(spec) - (spec.shape + spec.dim) * math.log(spec.scale + s)


def density(spec: LomaxSpec, x) -> float:
    return math.exp(log_density(spec, x))


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


def marginal(spec: LomaxSpec, subset) -> LomaxSpec:
    """Marginal over the coordinates in ``subset``: LM(|S|, k, a).

    The returned spec's coordinates are the elements of ``subset`` in
    increasing order; fold flags carry over.
    """
    s = sorted(set(integer_key("subset", i) for i in subset))
    if not s:
        raise ValueError("marginal subset must be nonempty")
    if not 1 <= s[0] <= s[-1] <= spec.dim:  # no set of range(dim): dim may be huge
        raise ValueError(f"subset {s} not within 1..{spec.dim}")
    new_folded = frozenset(pos + 1 for pos, i in enumerate(s) if i in spec.folded)
    return LomaxSpec(dim=len(s), shape=spec.shape, scale=spec.scale, folded=new_folded)


def conditional(spec: LomaxSpec, subset, observed: dict) -> LomaxSpec:
    """Conditional of the ``subset`` coordinates given ``observed``.

    ``observed`` maps each remaining 1-based index to its value; the result
    is LM(|S|, k + d - |S|, a + sum |x_T|), fold flags carried over as in
    ``marginal``.
    """
    s = sorted(set(integer_key("subset", i) for i in subset))
    values = {integer_key("observed", i): v for i, v in observed.items()}  # equal numbers are one dict key
    t = sorted(values)
    if set(s) & set(t):
        raise ValueError(f"subset {s} and observed indices {t} overlap")
    # disjoint, within 1..d and d in number: a cover without a set of range(d)
    if not (all(1 <= i <= spec.dim for i in s + t) and len(s) + len(t) == spec.dim):
        raise ValueError("subset and observed indices must cover 1..d exactly")
    shift = 0.0
    for i in t:
        v = float(values[i])
        if v <= 0 and i not in spec.folded:
            raise ValueError(f"observed coordinate {i} must be > 0, got {v}")
        shift += abs(v)
    return replace(marginal(spec, s), shape=spec.shape + spec.dim - len(s), scale=spec.scale + shift)


def univariate_cdf(k: float, a: float, x) -> float:
    """F(x) = 1 - (a / (a + x))^k for x >= 0."""
    x = np.asarray(x, dtype=float)
    out = 1.0 - (a / (a + x)) ** k
    return float(out) if out.ndim == 0 else out


def univariate_quantile(k: float, a: float, u) -> float:
    """Inverse of the univariate CDF: a ((1-u)^(-1/k) - 1), for u in [0, 1)."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    out = a * ((1.0 - u_arr) ** (-1.0 / k) - 1.0)
    return float(out) if out.ndim == 0 else out


def sample(spec: LomaxSpec, rng: np.random.Generator, size: int | None = None):
    """Exact draws via the sequential conditional decomposition.

    x_1 ~ LM(1, k, a); then x_{j+1} given the previous coordinates is
    LM(1, k + j, a + running sum).  Folded coordinates get an independent
    uniform sign afterwards.
    """
    n = 1 if size is None else int(size)
    u = rng.random((n, spec.dim))
    x = np.empty((n, spec.dim))
    acc = np.full(n, spec.scale)
    for j in range(spec.dim):
        x[:, j] = univariate_quantile(spec.shape + j, 1.0, u[:, j]) * acc
        acc = acc + x[:, j]
    for i in spec.folded:
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        x[:, i - 1] *= signs
    return x[0] if size is None else x


def entropy(k: float) -> float:
    """Negative differential entropy I(k) = log k + 1 + 1/k of LM(1, k, 1).

    Minimized at k = 1 with value 2, which is what motivates the default
    shape parameter.
    """
    if not k > 0:
        raise ValueError("k must be > 0")
    return math.log(k) + 1.0 + 1.0 / k


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float | None


def marginal_moments(spec: LomaxSpec) -> Moments:
    """Mean and variance of LM(1, k, a).

    The mean a/(k-1) needs k > 1; the variance a^2 k / ((k-1)^2 (k-2)) needs
    k > 2 and comes back as None for k in (1, 2].
    """
    if spec.dim != 1:
        raise ValueError("marginal_moments is defined for dim=1 specs")
    k, a = spec.shape, spec.scale
    if k <= 1:
        raise ValueError(f"mean does not exist for shape {k} <= 1")
    mean = a / (k - 1.0)
    if k <= 2:
        return Moments(mean=mean, variance=None)
    var = a * a * k / ((k - 1.0) ** 2 * (k - 2.0))
    return Moments(mean=mean, variance=var)


def folded_density_closed_form(d: int, x) -> float:
    """Fully folded LM(d, 1, 1) density: d!/2^d (1 + sum |x_j|)^-(d+1)."""
    t = float(np.sum(np.abs(np.asarray(x, dtype=float))))
    return math.factorial(d) / 2**d * (1.0 + t) ** (-(d + 1))


def laplace_mixture_density(d: int, x, nodes: int = 200) -> float:
    """Scale mixture of independent Laplace densities with Exp(1) mixing.

    Evaluates  int_0^inf prod_j (s/2) exp(-s |x_j|) exp(-s) ds  on the
    half_line_rule nodes of u = s (1 + sum |x_j|).  The result must agree
    with the closed-form fully folded LM(d, 1, 1) density to relative
    MIXTURE_RTOL, otherwise a QuadratureError is raised.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise ValueError(f"x must have length {d}")
    rate = 1.0 + float(np.sum(np.abs(x)))
    u, w = half_line_rule(int(nodes))
    value = float(np.dot(w, (u / (2.0 * rate)) ** d * np.exp(-u))) / rate
    closed = folded_density_closed_form(d, x)
    if abs(value - closed) > MIXTURE_RTOL * closed:
        raise QuadratureError(
            f"mixture quadrature off by {abs(value - closed) / closed:.3e} "
            f"relative (tol {MIXTURE_RTOL:.1e}); increase nodes"
        )
    return value


def half_line_rule(nodes: int):
    """Gauss-Legendre nodes and weights on (0, inf), mapped from t in (0, 1) by u = t/(1-t)."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (z + 1.0)
    return t / (1.0 - t), 0.5 * w / (1.0 - t) ** 2


def normalization_quadrature(spec: LomaxSpec, nodes: int = 64) -> float:
    """Numerical integral of the density over its full support.

    The positive orthant is integrated on a tensor grid of half_line_rule
    nodes; the density depends on a folded coordinate through |x_i| only,
    so each folded coordinate doubles that value.  Each point adds
    exp(log weight + log density), so any finite scale works.  Returns a
    value that should be 1 for a correctly normalized spec.  Grids of more
    than MAX_QUADRATURE_POINTS points (nodes**dim) are refused before any
    allocation.
    """
    nodes = int(nodes)
    if nodes**spec.dim > MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"a {nodes}**{spec.dim} quadrature grid exceeds {MAX_QUADRATURE_POINTS} points; use fewer nodes"
        )
    # nodes x = a u: a + sum x = a (1 + sum u) has a finite log for any finite a
    u1, w1 = half_line_rule(nodes)
    log_a = math.log(spec.scale)
    # sum_i u_i and the log weights on the tensor grid
    u_grid = functools.reduce(np.add.outer, [u1] * spec.dim)
    log_w = functools.reduce(np.add.outer, [log_a + np.log(w1)] * spec.dim)
    log_q = log_normalizing_constant(spec) - (spec.shape + spec.dim) * (log_a + np.log1p(u_grid))
    return 2 ** len(spec.folded) * float(np.sum(np.exp(log_w + log_q)))
