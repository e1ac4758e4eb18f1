"""Log-penalized least squares and its LASSO counterpart.

The one dimensional problem (unit design norm, sufficient statistic z) is

    minimize  beta^2 - 2 beta z + 2 lambda log(1 + |beta|),

whose solution thresholds at |z| = lambda and otherwise solves a quadratic;
unlike soft thresholding it approaches the unbiased estimator z as |z|
grows.  The multivariate version applies the 1-d solution inside cyclic
coordinate descent, treating the penalty as separable per coordinate; the
penalty weight that matches a (d+1) log(1 + |beta|) objective is
lambda = (d+1)/2.

Note the thresholding rule describes the global minimizer for lambda <= 1;
for larger lambda the objective can develop an interior minimum slightly
below the threshold, which the rule deliberately ignores (it returns a
stationary point whose objective never exceeds the value at zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PenaltyExperimentConfig",
    "log_penalty_estimate_1d",
    "lasso_estimate_1d",
    "estimator_gap",
    "mse_experiment",
    "logpenalty_objective",
    "coordinate_descent_logpenalty",
]

MAX_NOISE_DRAWS = 10**7  # mse_experiment's n * reps cap: it draws them as one array, 80 MB


@dataclass(frozen=True)
class PenaltyExperimentConfig:
    beta_true: float
    lam: float
    n: int = 100
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be > 0")
        if self.n < 2 or self.reps < 1:
            raise ValueError("need n >= 2 and reps >= 1")
        if self.n * self.reps > MAX_NOISE_DRAWS:
            raise ValueError(f"n * reps = {self.n * self.reps} exceeds {MAX_NOISE_DRAWS} noise draws; use fewer")


def log_penalty_estimate_1d(z, lam: float):
    """Threshold at |z| <= lambda, else the stationary point on z's side.

    Elementwise in z: a float for a float, an array for an array.
    """
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    pos = z > lam
    neg = z < -lam
    zp = z[pos]
    out[pos] = (zp - 1.0) / 2.0 + np.sqrt(zp - lam + (zp - 1.0) ** 2 / 4.0)
    zn = z[neg]
    out[neg] = (1.0 + zn) / 2.0 - np.sqrt(-lam - zn + (1.0 + zn) ** 2 / 4.0)
    return float(out) if out.ndim == 0 else out


def lasso_estimate_1d(z, lam: float):
    """Soft threshold: 0 for |z| <= lambda, else z shrunk by lambda; elementwise as above."""
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    z = np.asarray(z, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    return float(out) if out.ndim == 0 else out


def estimator_gap(z: float, lam: float) -> float:
    """log-penalty estimate minus z, for z > lambda; tends to 0 as z grows."""
    if z <= lam:
        raise ValueError("estimator_gap requires z > lambda")
    return log_penalty_estimate_1d(z, lam) - z


def mse_experiment(config: PenaltyExperimentConfig) -> tuple[float, float]:
    """Mean squared errors (LASSO, log penalty) over seeded replicates.

    Each replicate draws y_i = beta + N(0,1) noise, takes z = mean(y), and
    applies both estimators with the configured lambda.
    """
    rng = np.random.default_rng(config.seed)
    eps = rng.standard_normal((config.reps, config.n))
    z = config.beta_true + eps.mean(axis=1)
    err_l = lasso_estimate_1d(z, config.lam) - config.beta_true
    err_n = log_penalty_estimate_1d(z, config.lam) - config.beta_true
    return float(np.mean(err_l**2)), float(np.mean(err_n**2))


def logpenalty_objective(X, y, beta, lam: float) -> float:
    """Residual sum of squares plus 2 lambda sum log(1 + |beta_j|)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta = np.asarray(beta, dtype=float)
    r = np.asarray(y, dtype=float) - X @ beta
    return float(r @ r) + 2.0 * lam * float(np.sum(np.log1p(np.abs(beta))))


def coordinate_descent_logpenalty(
    X,
    y,
    lam: float | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Cyclic coordinate descent on the log-penalized least squares objective.

    Columns of X must be normalized to unit sum of squares so every
    coordinate update is exactly the 1-d problem.  ``lam`` defaults to
    (d+1)/2, matching a (d+1) log(1+|beta|) penalty.  Raises RuntimeError
    with the objective history attached if the sweep cap is hit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    norms = np.sum(X**2, axis=0)
    if not np.allclose(norms, 1.0, atol=1e-8):
        raise ValueError("columns of X must have unit sum of squares")
    if lam is None:
        lam = (d + 1) / 2.0
    if not lam > 0:
        raise ValueError("lambda must be > 0")

    beta = np.zeros(d)
    r = y.copy()  # running residual y - X beta
    history = []
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(d):
            zj = float(X[:, j] @ r) + beta[j]
            new = log_penalty_estimate_1d(zj, lam)
            if new != beta[j]:
                r -= (new - beta[j]) * X[:, j]
                delta = max(delta, abs(new - beta[j]))
                beta[j] = new
        history.append(logpenalty_objective(X, y, beta, lam))
        if delta < tol:
            return beta
    err = RuntimeError(
        f"coordinate descent did not converge in {max_sweeps} sweeps; "
        f"last objectives {history[-5:]}"
    )
    err.objective_history = history
    raise err
