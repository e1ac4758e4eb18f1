"""Numerical checks for the score-based derivation of the Lomax prior.

The convex generator is  alpha(u) = sum_i u_i^-(k+d)  composed into
phi(q, g) = q * alpha(g/q), which is positively homogeneous of degree one.
The induced score of a density field q on the positive orthant is

    S(q)(x) = -dphi/dq + sum_i d/dx_i [ dphi/dg_i ],

evaluated along x -> (q(x), grad q(x)).  S vanishes identically when the
field is a multivariate Lomax density with matching shape k, and is bounded
away from zero for other fields; both facts are what the test suite checks.

k is restricted to odd positive integers so that the signed powers
u^-(k+d) are defined for the negative u = g/q values a decaying density
produces, and so that the generator is convex on the positive orthant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from lomaxprior.lomax import LomaxSpec, density, half_line_rule

__all__ = [
    "AlphaSpec",
    "DensityField",
    "lomax_field",
    "exponential_field",
    "alpha",
    "alpha_grad",
    "alpha_hessian_det",
    "finite_difference_hessian",
    "phi",
    "phi_partials",
    "euler_identity_residual",
    "score",
    "score_grid",
    "default_grid",
    "bregman_divergence",
]

SCORE_STEP = 1e-4  # relative central-difference step of score's outer derivatives
EULER_STEP = 1e-5  # relative central-difference step of euler_identity_residual
HESSIAN_STEP = 1e-3  # relative central-difference step of finite_difference_hessian
GRID_SEED = 12345  # seed of default_grid's points
BREGMAN_NODES = 48  # half_line_rule nodes per axis of bregman_divergence


@dataclass(frozen=True)
class AlphaSpec:
    """Shape k (odd positive integer) and dimension d of the generator."""

    k: int
    dim: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be an odd positive integer, got {self.k}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def exponent(self) -> int:
        return self.k + self.dim


@dataclass
class DensityField:
    """A positive density on the open positive orthant with its first partials."""

    density: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]  # a float64 array


def lomax_field(spec: LomaxSpec) -> DensityField:
    """LM(d, k, a) density on the positive orthant with analytic gradient."""
    if spec.folded:
        raise ValueError("score checks operate on the positive orthant only")
    m = spec.shape + spec.dim

    def grad(x):
        return np.full(spec.dim, -m * density(spec, x) / (spec.scale + float(np.sum(x))))

    return DensityField(density=partial(density, spec), grad=grad)


def exponential_field(dim: int) -> DensityField:
    """Product of independent Exp(1) densities; a non-Lomax counterexample."""

    def dens(x):
        return math.exp(-float(np.sum(x)))

    def grad(x):
        return np.full(dim, -dens(x))

    return DensityField(density=dens, grad=grad)


def _check_nonzero(u: np.ndarray):
    if np.any(u == 0.0):
        raise ValueError("alpha is singular where a component of u is zero")


def alpha(spec: AlphaSpec, u) -> float:
    """sum_i u_i^-(k+d), with the signed-power convention for integer exponents."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (spec.dim,):
        raise ValueError(f"u must have length {spec.dim}")
    _check_nonzero(u)
    return float(np.sum(u ** (-spec.exponent)))


def alpha_grad(spec: AlphaSpec, u) -> np.ndarray:
    """Component i is -(k+d) u_i^-(k+d+1)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _check_nonzero(u)
    return -spec.exponent * u ** (-(spec.exponent + 1))


def alpha_hessian_det(spec: AlphaSpec, u) -> float:
    """(k+d)^d (k+d+1)^d prod u_i^-(k+d+2), valid on the positive orthant."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0.0):
        raise ValueError("Hessian determinant formula requires u > 0")
    m = spec.exponent
    return float(m**spec.dim * (m + 1) ** spec.dim * np.prod(u ** (-(m + 2))))


def finite_difference_hessian(f, x) -> np.ndarray:
    """Dense central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = HESSIAN_STEP * np.maximum(1.0, np.abs(x))
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return out


def phi(spec: AlphaSpec, q: float, grad) -> float:
    """phi(q, g) = q * alpha(g / q); homogeneous of degree one in (q, g)."""
    if not q > 0:
        raise ValueError("q must be > 0")
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    return q * alpha(spec, grad / q)


def phi_partials(spec: AlphaSpec, q: float, grad):
    """Analytic (dphi/dq, dphi/dg): the degree-one Euler structure of phi."""
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    u = grad / q
    g = alpha_grad(spec, u)
    dq = alpha(spec, u) - float(np.dot(u, g))
    return dq, g


def euler_identity_residual(spec: AlphaSpec, q: float, grad) -> float:
    """phi - (q dphi/dq + sum g_i dphi/dg_i) with partials by central differences."""
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    f0 = phi(spec, q, grad)
    hq = min(EULER_STEP * max(1.0, abs(q)), 0.5 * q)
    dq = (phi(spec, q + hq, grad) - phi(spec, q - hq, grad)) / (2 * hq)
    total = q * dq
    for i in range(grad.size):
        hi = min(EULER_STEP * max(1.0, abs(grad[i])), 0.5 * abs(grad[i]))
        gp, gm = grad.copy(), grad.copy()
        gp[i] += hi
        gm[i] -= hi
        total += grad[i] * (phi(spec, q, gp) - phi(spec, q, gm)) / (2 * hi)
    return f0 - total


def _one_line(x) -> str:
    """A point for an error message: one line, summarized beyond six coordinates."""
    return np.array2string(np.asarray(x), max_line_width=2**31 - 1, threshold=6)


def _partial_phi_component(spec: AlphaSpec, field: DensityField, x: np.ndarray, i: int) -> float:
    """dphi/dg_i along the field, i.e. alpha_i(grad q(x) / q(x))."""
    q = field.density(x)
    if not np.isfinite(q) or q <= 1e-300:
        raise FloatingPointError(f"density underflow at stencil point {_one_line(x)}")
    return alpha_grad(spec, field.grad(x) / q)[i]


def score(spec: AlphaSpec, field: DensityField, x) -> float:
    """Bregman score of the field at x.

    The outer total derivatives d/dx_i [dphi/dg_i] use central differences
    with one Richardson extrapolation step; the inner partials of phi are
    analytic.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have length {spec.dim}")
    if np.any(x <= 0.0):
        raise ValueError("score is evaluated on the positive orthant")
    q0 = field.density(x)
    if not np.isfinite(q0) or q0 <= 1e-300:
        raise FloatingPointError(f"density underflow at {_one_line(x)}")
    dq, _ = phi_partials(spec, q0, field.grad(x))
    total = -dq

    def central(i, step):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        return (
            _partial_phi_component(spec, field, xp, i)
            - _partial_phi_component(spec, field, xm, i)
        ) / (2 * step)

    for i in range(spec.dim):
        hi = min(SCORE_STEP * max(1.0, x[i]), 0.5 * x[i])
        d1 = central(i, hi)
        d2 = central(i, hi / 2)
        total += (4.0 * d2 - d1) / 3.0
    return total


def default_grid(dim: int, n_points: int = 20) -> np.ndarray:
    """Deterministic evaluation grid in the positive orthant."""
    rng = np.random.default_rng(GRID_SEED)
    return 0.3 + 3.0 * rng.random((n_points, dim))


def score_grid(spec: AlphaSpec, field: DensityField, points=None) -> np.ndarray:
    """Score evaluated at each row of ``points`` (default grid when omitted)."""
    if points is None:
        points = default_grid(spec.dim)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([score(spec, field, row) for row in points])


def _bregman_integrand(spec, field_p, field_q, x):
    p = field_p.density(x)
    q = field_q.density(x)
    gp = field_p.grad(x)
    gq = field_q.grad(x)
    dq, dg = phi_partials(spec, q, gq)
    # phi(p) -> 0 as p -> 0 with bounded gp/p; guard the underflowed far field
    phi_p = phi(spec, p, gp) if p > 1e-300 else 0.0
    return (
        phi_p
        - phi(spec, q, gq)
        - dq * (p - q)
        - float(np.dot(dg, gp - gq))
    )


def bregman_divergence(spec: AlphaSpec, field_p: DensityField, field_q: DensityField) -> float:
    """Quadrature of the pointwise Bregman gap over the positive orthant (d <= 2).

    Each axis takes BREGMAN_NODES nodes of half_line_rule; intended as a
    small diagnostic utility, not a tight numerical contract.
    """
    if spec.dim > 2:
        raise ValueError("divergence quadrature supports dim <= 2 only")
    xs, ws = half_line_rule(BREGMAN_NODES, 1.0)
    total = 0.0
    if spec.dim == 1:
        for xi, wi in zip(xs, ws):
            total += wi * _bregman_integrand(spec, field_p, field_q, np.array([xi]))
    else:
        for xi, wi in zip(xs, ws):
            for yj, wj in zip(xs, ws):
                total += wi * wj * _bregman_integrand(
                    spec, field_p, field_q, np.array([xi, yj])
                )
    return total
