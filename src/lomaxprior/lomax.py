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

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LomaxSpec",
    "QuadratureError",
    "normalizing_constant",
    "log_density",
    "density",
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
MIXTURE_TAIL = 40.0  # laplace_mixture_density integrates s up to (MIXTURE_TAIL + 5 d) / (1 + sum |x_j|)
MIXTURE_RTOL = 1e-6  # its required agreement with the closed form


class QuadratureError(RuntimeError):
    """Raised when a numerical quadrature misses its accuracy contract."""


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
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not self.shape > 0:
            raise ValueError(f"shape must be > 0, got {self.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        folded = frozenset(int(i) for i in self.folded)
        if not all(1 <= i <= self.dim for i in folded):  # no set of range(dim): dim may be huge
            raise ValueError(f"folded indices {sorted(folded)} not a subset of 1..{self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "folded", folded)


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


def _abs_sum(spec: LomaxSpec, x: np.ndarray) -> float:
    """Sum of coordinates with |.| applied to folded ones; validates support."""
    total = 0.0
    for i in range(spec.dim):
        xi = x[i]
        if (i + 1) in spec.folded:
            total += abs(xi)
        else:
            if xi <= 0:
                raise ValueError(
                    f"coordinate {i + 1} is on (0, inf) but got {xi}"
                )
            total += xi
    return total


def log_density(spec: LomaxSpec, x) -> float:
    """Log density at x (length-d vector)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have shape ({spec.dim},), got {x.shape}")
    s = _abs_sum(spec, x)
    return math.log(normalizing_constant(spec)) - (spec.shape + spec.dim) * math.log(
        spec.scale + s
    )


def density(spec: LomaxSpec, x) -> float:
    return math.exp(log_density(spec, x))


def _density_from_sum(spec: LomaxSpec, s):
    """Vectorized density as a function of the folded-absolute coordinate sum."""
    return normalizing_constant(spec) * (spec.scale + np.asarray(s, float)) ** (
        -(spec.shape + spec.dim)
    )


def marginal(spec: LomaxSpec, subset) -> LomaxSpec:
    """Marginal over the coordinates in ``subset``: LM(|S|, k, a).

    The returned spec's coordinates are the elements of ``subset`` in
    increasing order; fold flags carry over.
    """
    s = sorted(set(int(i) for i in subset))
    if not s:
        raise ValueError("marginal subset must be nonempty")
    if not set(s) <= set(range(1, spec.dim + 1)):
        raise ValueError(f"subset {s} not within 1..{spec.dim}")
    new_folded = frozenset(pos + 1 for pos, i in enumerate(s) if i in spec.folded)
    return LomaxSpec(dim=len(s), shape=spec.shape, scale=spec.scale, folded=new_folded)


def conditional(spec: LomaxSpec, subset, observed: dict) -> LomaxSpec:
    """Conditional of the ``subset`` coordinates given ``observed``.

    ``observed`` maps each remaining 1-based index to its value; the result
    is LM(|S|, k + d - |S|, a + sum |x_T|), fold flags carried over as in
    ``marginal``.
    """
    s = sorted(set(int(i) for i in subset))
    t = sorted(int(i) for i in observed)
    if set(s) & set(t):
        raise ValueError(f"subset {s} and observed indices {t} overlap")
    if set(s) | set(t) != set(range(1, spec.dim + 1)):
        raise ValueError("subset and observed indices must cover 1..d exactly")
    if not s:
        raise ValueError("conditional subset must be nonempty")
    shift = 0.0
    for i in t:
        v = float(observed[i])
        if i in spec.folded:
            shift += abs(v)
        else:
            if v <= 0:
                raise ValueError(f"observed coordinate {i} must be > 0, got {v}")
            shift += v
    new_folded = frozenset(pos + 1 for pos, i in enumerate(s) if i in spec.folded)
    return LomaxSpec(
        dim=len(s),
        shape=spec.shape + spec.dim - len(s),
        scale=spec.scale + shift,
        folded=new_folded,
    )


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

    Evaluates  int_0^inf prod_j (s/2) exp(-s |x_j|) exp(-s) ds  by
    Gauss-Legendre quadrature on [0, T], where T is chosen so the dropped
    tail is far below the target accuracy.  The result must agree with the
    closed-form fully folded LM(d, 1, 1) density to relative MIXTURE_RTOL,
    otherwise a QuadratureError is raised.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise ValueError(f"x must have length {d}")
    t = float(np.sum(np.abs(x)))
    rate = 1.0 + t
    upper = (MIXTURE_TAIL + 5.0 * d) / rate
    z, w = np.polynomial.legendre.leggauss(int(nodes))
    s = 0.5 * upper * (z + 1.0)
    ws = 0.5 * upper * w
    integrand = (s / 2.0) ** d * np.exp(-s * rate)
    value = float(np.dot(ws, integrand))
    closed = folded_density_closed_form(d, x)
    if abs(value - closed) > MIXTURE_RTOL * closed:
        raise QuadratureError(
            f"mixture quadrature off by {abs(value - closed) / closed:.3e} "
            f"relative (tol {MIXTURE_RTOL:.1e}); increase nodes"
        )
    return value


def half_line_rule(nodes: int, scale: float):
    """Gauss-Legendre nodes and weights on (0, inf), mapped from t in (0, 1) by x = scale t/(1-t)."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (z + 1.0)
    return scale * t / (1.0 - t), 0.5 * w * scale / (1.0 - t) ** 2


def normalization_quadrature(spec: LomaxSpec, nodes: int = 64) -> float:
    """Numerical integral of the density over its full support.

    The positive orthant is integrated on a tensor grid of half_line_rule
    nodes; the density depends on a folded coordinate through |x_i| only,
    so each folded coordinate doubles that value.  Returns a value that
    should be 1 for a correctly normalized spec.  Grids of more than
    MAX_QUADRATURE_POINTS points (nodes**dim) are refused before any allocation.
    """
    nodes = int(nodes)
    if nodes**spec.dim > MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"a {nodes}**{spec.dim} quadrature grid exceeds {MAX_QUADRATURE_POINTS} points; use fewer nodes"
        )
    x1, w1 = half_line_rule(nodes, spec.scale)
    # accumulate sum_i x_i on the tensor grid one axis at a time
    s_grid = np.zeros((1,) * spec.dim)
    w_grid = np.ones((1,) * spec.dim)
    for axis in range(spec.dim):
        shape = [1] * spec.dim
        shape[axis] = nodes
        s_grid = s_grid + x1.reshape(shape)
        w_grid = w_grid * w1.reshape(shape)
    return 2 ** len(spec.folded) * float(np.sum(w_grid * _density_from_sum(spec, s_grid)))
