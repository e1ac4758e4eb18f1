"""Tests for the log-penalty estimator, LASSO counterpart, and coordinate descent."""

import math

import numpy as np
import pytest

from lomaxprior import penalty as pn

def objective_1d(beta, z, lam):
    return beta * beta - 2.0 * beta * z + 2.0 * lam * math.log(1.0 + abs(beta))


def test_log_penalty_values():
    assert pn.log_penalty_estimate_1d(0.3, 0.5) == 0.0
    got = pn.log_penalty_estimate_1d(2.0, 0.5)
    assert got == pytest.approx(0.5 + math.sqrt(1.75), rel=1e-14)
    assert got == pytest.approx(1.822876, abs=1e-6)
    assert pn.log_penalty_estimate_1d(-2.0, 0.5) == pytest.approx(-got, rel=1e-14)


def test_lasso_values():
    assert pn.lasso_estimate_1d(2.0, 0.5) == 1.5
    assert pn.lasso_estimate_1d(-0.4, 0.5) == 0.0
    assert pn.lasso_estimate_1d(-2.0, 0.5) == -1.5


def test_problem_validation():
    for rule in (pn.log_penalty_estimate_1d, pn.lasso_estimate_1d):
        with pytest.raises(ValueError):
            rule(1.0, 0.0)
        with pytest.raises(ValueError):
            rule(np.ones(3), -0.5)
    with pytest.raises(ValueError):
        pn.PenaltyExperimentConfig(1.0, -0.5)
    with pytest.raises(ValueError, match="need n >= 2"):
        pn.PenaltyExperimentConfig(1.0, 0.5, n=1)


def test_threshold_equivalence():
    # both estimators are exactly zero iff |z| <= lambda
    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = 0.05 + rng.random()
        z = rng.normal(0, 1.5)
        lp = pn.log_penalty_estimate_1d(z, lam)
        la = pn.lasso_estimate_1d(z, lam)
        if abs(z) <= lam:
            assert lp == 0.0 and la == 0.0
        else:
            assert lp != 0.0 and la != 0.0


def test_array_input_matches_scalar_input():
    rng = np.random.default_rng(24)
    z = rng.normal(0, 2.0, 500)
    for rule in (pn.log_penalty_estimate_1d, pn.lasso_estimate_1d):
        got = rule(z, 0.7)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert isinstance(rule(float(z[0]), 0.7), float)
        assert got.tolist() == [rule(float(v), 0.7) for v in z]


def test_boundary_returns_zero():
    assert pn.log_penalty_estimate_1d(0.5, 0.5) == 0.0
    assert pn.log_penalty_estimate_1d(-0.5, 0.5) == 0.0


def test_stationarity():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        lam = 0.05 + 0.95 * rng.random()
        z = rng.normal(0, 2.0)
        if abs(z) <= lam:
            continue
        beta = pn.log_penalty_estimate_1d(z, lam)
        deriv = 2 * beta - 2 * z + 2 * lam * math.copysign(1.0, beta) / (1 + abs(beta))
        assert abs(deriv) < 1e-10
        checked += 1


def test_sign_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(100):
        lam = 0.05 + rng.random()
        z = rng.normal(0, 2.0)
        assert pn.log_penalty_estimate_1d(-z, lam) == pytest.approx(
            -pn.log_penalty_estimate_1d(z, lam), abs=1e-15
        )
        assert pn.lasso_estimate_1d(-z, lam) == pytest.approx(
            -pn.lasso_estimate_1d(z, lam), abs=1e-15
        )


def test_ordering():
    # for z > lambda: 0 <= lasso < logpen < z, mirrored on the negative side
    rng = np.random.default_rng(15)
    for _ in range(100):
        lam = 0.05 + 0.95 * rng.random()
        z = lam + 0.01 + 3.0 * rng.random()
        la = pn.lasso_estimate_1d(z, lam)
        lp = pn.log_penalty_estimate_1d(z, lam)
        assert 0.0 <= la < lp < z
        assert -z < -lp < -la <= 0.0
        assert pn.log_penalty_estimate_1d(-z, lam) == pytest.approx(-lp)


def test_objective_never_worse_than_zero():
    rng = np.random.default_rng(16)
    for _ in range(100):
        lam = 0.05 + 0.95 * rng.random()
        z = rng.normal(0, 2.0)
        beta = pn.log_penalty_estimate_1d(z, lam)
        assert objective_1d(beta, z, lam) <= objective_1d(0.0, z, lam) + 1e-12


def test_grid_oracle_agreement():
    # the closed form matches a brute-force grid argmin (lambda <= 1, where
    # the threshold rule is the global minimizer)
    rng = np.random.default_rng(17)
    for _ in range(100):
        lam = 0.05 + 0.95 * rng.random()
        z = rng.normal(0, 2.0)
        if abs(z) < 1e-3:
            continue
        grid = np.arange(-2 * abs(z), 2 * abs(z) + 1e-4, 1e-4)
        vals = grid**2 - 2 * grid * z + 2 * lam * np.log1p(np.abs(grid))
        best = grid[np.argmin(vals)]
        assert pn.log_penalty_estimate_1d(z, lam) == pytest.approx(best, abs=2e-4)


def test_estimator_gap():
    assert abs(pn.estimator_gap(1e3, 0.5)) < 1e-3
    assert pn.estimator_gap(2.0, 0.5) == pytest.approx(-0.177124, abs=1e-6)
    with pytest.raises(ValueError):
        pn.estimator_gap(0.4, 0.5)
    # the gap shrinks monotonically toward zero
    gaps = [abs(pn.estimator_gap(z, 0.5)) for z in (1.0, 2.0, 5.0, 20.0, 100.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# repeated experiment


def test_mse_experiment_known_ranges():
    ml, mn = pn.mse_experiment(pn.PenaltyExperimentConfig(2.0, 0.5, 100, 1000, seed=0))
    assert 0.22 <= ml <= 0.30
    assert 0.03 <= mn <= 0.06
    ml, mn = pn.mse_experiment(pn.PenaltyExperimentConfig(0.5, 0.5, 100, 1000, seed=0))
    assert 0.18 <= ml <= 0.25
    assert 0.16 <= mn <= 0.24


def test_mse_experiment_zero_beta():
    ml, mn = pn.mse_experiment(pn.PenaltyExperimentConfig(0.0, 0.5, 100, 1000, seed=0))
    assert ml == 0.0 and mn == 0.0
    ml, mn = pn.mse_experiment(pn.PenaltyExperimentConfig(0.0, 0.1, 100, 1000, seed=0))
    assert 5e-4 <= ml <= 5e-3
    assert 5e-4 <= mn <= 5e-3
    assert ml < mn


def test_mse_experiment_deterministic():
    cfg = pn.PenaltyExperimentConfig(1.0, 0.5, 50, 200, seed=42)
    assert pn.mse_experiment(cfg) == pn.mse_experiment(cfg)


# ---------------------------------------------------------------------------
# coordinate descent


def unit_columns(X):
    return X / np.sqrt(np.sum(X**2, axis=0))


def lasso_cd_oracle(X, y, lam, sweeps=5000, tol=1e-12):
    # plain soft-threshold coordinate descent on the same scaling
    beta = np.zeros(X.shape[1])
    r = y.copy()
    for _ in range(sweeps):
        delta = 0.0
        for j in range(X.shape[1]):
            zj = float(X[:, j] @ r) + beta[j]
            new = math.copysign(max(abs(zj) - lam, 0.0), zj)
            if new != beta[j]:
                r -= (new - beta[j]) * X[:, j]
                delta = max(delta, abs(new - beta[j]))
                beta[j] = new
        if delta < tol:
            break
    return beta


def test_cd_orthonormal_separates():
    rng = np.random.default_rng(18)
    Q, _ = np.linalg.qr(rng.normal(size=(30, 3)))
    y = rng.normal(0, 2.0, 30)
    lam = 0.7
    got = pn.coordinate_descent_logpenalty(Q, y, lam)
    want = [pn.log_penalty_estimate_1d(float(Q[:, j] @ y), lam) for j in range(3)]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_cd_single_covariate_reduces():
    rng = np.random.default_rng(19)
    x = unit_columns(rng.normal(size=(40, 1)))
    y = 2.0 * x[:, 0] + 0.3 * rng.normal(size=40)
    lam = 0.5
    got = pn.coordinate_descent_logpenalty(x, y, lam)
    want = pn.log_penalty_estimate_1d(float(x[:, 0] @ y), lam)
    assert got[0] == pytest.approx(want, abs=1e-8)


def test_cd_beats_lasso_and_zero():
    rng = np.random.default_rng(20)
    X = unit_columns(rng.normal(size=(50, 3)))
    beta_true = np.array([3.0, 0.0, -2.0])
    y = X @ beta_true + 0.2 * rng.normal(size=50)
    lam = 2.0  # default (d+1)/2 for d=3
    got = pn.coordinate_descent_logpenalty(X, y, lam)
    obj = pn.logpenalty_objective(X, y, got, lam)
    assert obj <= pn.logpenalty_objective(X, y, lasso_cd_oracle(X, y, lam), lam) + 1e-10
    assert obj <= pn.logpenalty_objective(X, y, np.zeros(3), lam) + 1e-10


def test_cd_local_stability():
    # no single-coordinate nudge of size tol may improve the objective
    rng = np.random.default_rng(21)
    X = unit_columns(rng.normal(size=(40, 3)))
    y = X @ np.array([1.5, -0.5, 0.0]) + 0.1 * rng.normal(size=40)
    tol = 1e-8
    got = pn.coordinate_descent_logpenalty(X, y, lam=1.0, tol=tol)
    base = pn.logpenalty_objective(X, y, got, 1.0)
    for j in range(3):
        for sign in (-1.0, 1.0):
            trial = got.copy()
            trial[j] += sign * tol
            assert pn.logpenalty_objective(X, y, trial, 1.0) >= base - 1e-12


def test_cd_default_lambda_and_validation():
    rng = np.random.default_rng(22)
    X = unit_columns(rng.normal(size=(30, 2)))
    y = rng.normal(size=30)
    got_default = pn.coordinate_descent_logpenalty(X, y)
    got_explicit = pn.coordinate_descent_logpenalty(X, y, lam=1.5)
    np.testing.assert_allclose(got_default, got_explicit, atol=1e-12)
    with pytest.raises(ValueError):
        pn.coordinate_descent_logpenalty(2.0 * X, y)
    with pytest.raises(ValueError, match="lambda must be > 0"):
        pn.coordinate_descent_logpenalty(X, y, lam=-1)


def test_cd_nonconvergence_reports_history():
    rng = np.random.default_rng(23)
    X = unit_columns(rng.normal(size=(30, 2)))
    y = 5.0 * X[:, 0] + rng.normal(size=30)
    with pytest.raises(RuntimeError) as exc:
        pn.coordinate_descent_logpenalty(X, y, lam=0.5, tol=0.0, max_sweeps=3)
    assert hasattr(exc.value, "objective_history")
    assert len(exc.value.objective_history) == 3
