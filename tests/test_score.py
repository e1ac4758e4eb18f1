"""Tests for the convex generator, Euler identity, and Bregman score checks."""

import math

import numpy as np
import pytest

from lomaxprior.lomax import LomaxSpec
from lomaxprior import score as sc


def test_alpha_spec_validation():
    with pytest.raises(ValueError):
        sc.AlphaSpec(2, 2)  # even k
    with pytest.raises(ValueError):
        sc.AlphaSpec(-1, 2)
    with pytest.raises(ValueError):
        sc.AlphaSpec(1, 0)
    for args, message in [
        ((True, True), "'k' must be a number (an integer), got True"),
        ((1, True), "'dim' must be a number (an integer), got True"),
        ((1.5, 2), "'k' must be a number (an integer), got 1.5"),
        (("1", 2), "'k' must be a number (an integer), got '1'"),
    ]:
        with pytest.raises(ValueError) as info:
            sc.AlphaSpec(*args)
        assert str(info.value) == message


def test_alpha_values():
    a12 = sc.AlphaSpec(1, 2)
    assert sc.alpha(a12, [1.0, 1.0]) == 2.0
    assert sc.alpha(a12, [-1.0, -1.0]) == -2.0  # odd exponent 3
    assert sc.alpha(sc.AlphaSpec(1, 1), [2.0]) == 0.25
    with pytest.raises(ValueError):
        sc.alpha(a12, [0.0, 1.0])


def test_alpha_hessian_det_values():
    assert sc.alpha_hessian_det(sc.AlphaSpec(1, 1), [1.0]) == 6.0
    assert sc.alpha_hessian_det(sc.AlphaSpec(1, 2), [1.0, 1.0]) == 144.0
    assert sc.alpha_hessian_det(sc.AlphaSpec(1, 2), [2.0, 1.0]) == pytest.approx(4.5, rel=1e-14)
    with pytest.raises(ValueError):
        sc.alpha_hessian_det(sc.AlphaSpec(1, 2), [-1.0, 1.0])


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_alpha_hessian_det_matches_finite_differences(k, d):
    spec = sc.AlphaSpec(k, d)
    rng = np.random.default_rng(17)
    for _ in range(12):
        u = 0.5 + 1.5 * rng.random(d)
        fd = sc.finite_difference_hessian(lambda v: sc.alpha(spec, v), u)
        got = sc.alpha_hessian_det(spec, u)
        assert abs(np.linalg.det(fd) - got) / abs(got) < 1e-4


def test_phi_values():
    a12 = sc.AlphaSpec(1, 2)
    assert sc.phi(a12, 1.0, [1.0, 1.0]) == 2.0
    assert sc.phi(a12, 2.0, [2.0, 2.0]) == 4.0
    assert sc.phi(a12, 1.0, [-2.0, -2.0]) == pytest.approx(-0.25, rel=1e-14)
    with pytest.raises(ValueError):
        sc.phi(a12, -1.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        sc.phi(a12, 1.0, [0.0, 1.0])


def test_phi_homogeneity():
    rng = np.random.default_rng(23)
    for k, d in [(1, 1), (1, 2), (3, 3)]:
        spec = sc.AlphaSpec(k, d)
        for _ in range(25):
            q = 0.3 + rng.random()
            g = rng.choice([-1.0, 1.0], d) * (0.4 + 2.0 * rng.random(d))
            c = 0.1 + 3.0 * rng.random()
            lhs = sc.phi(spec, c * q, c * g)
            rhs = c * sc.phi(spec, q, g)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_euler_identity_examples():
    a12 = sc.AlphaSpec(1, 2)
    for q, g in [(1.0, [-3.0, -3.0]), (0.5, [-1.0, -2.0])]:
        r = sc.euler_identity_residual(a12, q, g)
        assert abs(r) < 1e-6 * (1 + abs(sc.phi(a12, q, g)))
    a32 = sc.AlphaSpec(3, 2)
    r = sc.euler_identity_residual(a32, 1.0, [1.0, 1.0])
    assert abs(r) < 1e-6 * (1 + abs(sc.phi(a32, 1.0, [1.0, 1.0])))


def test_euler_identity_random():
    rng = np.random.default_rng(31)
    count = 0
    while count < 100:
        k = int(rng.choice([1, 3]))
        d = int(rng.choice([1, 2, 3]))
        spec = sc.AlphaSpec(k, d)
        q = 0.4 + 1.6 * rng.random()
        g = rng.choice([-1.0, 1.0], d) * (0.5 + 2.0 * rng.random(d))
        resid = sc.euler_identity_residual(spec, q, g)
        assert abs(resid) < 1e-6 * (1 + abs(sc.phi(spec, q, g)))
        count += 1


def test_phi_partials_consistency():
    # analytic partials agree with central differences
    rng = np.random.default_rng(41)
    spec = sc.AlphaSpec(3, 2)
    for _ in range(10):
        q = 0.5 + rng.random()
        g = rng.choice([-1.0, 1.0], 2) * (0.5 + rng.random(2))
        dq, dg = sc.phi_partials(spec, q, g)
        h = 1e-6 * max(1.0, q)
        fd_q = (sc.phi(spec, q + h, g) - sc.phi(spec, q - h, g)) / (2 * h)
        assert dq == pytest.approx(fd_q, rel=1e-6, abs=1e-8)
        for i in range(2):
            hp, hm = g.copy(), g.copy()
            hi = 1e-6 * max(1.0, abs(g[i]))
            hp[i] += hi
            hm[i] -= hi
            fd_i = (sc.phi(spec, q, hp) - sc.phi(spec, q, hm)) / (2 * hi)
            assert dg[i] == pytest.approx(fd_i, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# the score itself


def test_score_vanishes_on_matching_lomax():
    s = sc.score(sc.AlphaSpec(1, 2), sc.lomax_field(LomaxSpec(2)), [1.0, 1.0])
    assert abs(s) < 1e-5
    s = sc.score(sc.AlphaSpec(3, 3), sc.lomax_field(LomaxSpec(3, 3.0, 2.0)), [0.5, 1.0, 2.0])
    assert abs(s) < 1e-5


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_score_grid_lomax(d, k, a):
    field = sc.lomax_field(LomaxSpec(d, float(k), a))
    values = sc.score_grid(sc.AlphaSpec(k, d), field)
    assert values.shape == (20,)
    assert np.max(np.abs(values)) < 1e-5


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3])
def test_score_separates_exponential(d, k):
    values = sc.score_grid(sc.AlphaSpec(k, d), sc.exponential_field(d))
    assert np.min(np.abs(values)) > 1e-2


def test_score_exponential_closed_form():
    # for the unit-rate product field the score is the constant
    # sign(-1)^(k+d) * d * (k+d+1); spot check one case
    got = sc.score(sc.AlphaSpec(1, 2), sc.exponential_field(2), [1.0, 1.0])
    assert got == pytest.approx(8.0, abs=1e-4)


def test_score_domain_errors():
    spec = sc.AlphaSpec(1, 2)
    field = sc.lomax_field(LomaxSpec(2))
    with pytest.raises(ValueError):
        sc.score(spec, field, [1.0, -1.0])
    with pytest.raises(ValueError):
        sc.score(spec, field, [1.0])


def test_score_underflow_error():
    # a field that underflows to zero density must be reported, not NaN
    dead = sc.DensityField(density=lambda x: 0.0, grad=lambda x: np.zeros(2))
    with pytest.raises(FloatingPointError):
        sc.score(sc.AlphaSpec(1, 2), dead, [1.0, 1.0])


def test_lomax_field_rejects_folded():
    with pytest.raises(ValueError):
        sc.lomax_field(LomaxSpec(2, folded=frozenset({1})))


# ---------------------------------------------------------------------------
# divergence utility


def test_divergence_self_is_zero():
    a11 = sc.AlphaSpec(1, 1)
    f = sc.lomax_field(LomaxSpec(1))
    assert sc.bregman_divergence(a11, f, f) == pytest.approx(0.0, abs=1e-12)
    a12 = sc.AlphaSpec(1, 2)
    f2 = sc.lomax_field(LomaxSpec(2))
    assert sc.bregman_divergence(a12, f2, f2) == pytest.approx(0.0, abs=1e-12)


def test_divergence_finite_for_distinct_fields():
    a11 = sc.AlphaSpec(1, 1)
    d = sc.bregman_divergence(a11, sc.exponential_field(1), sc.lomax_field(LomaxSpec(1)))
    assert math.isfinite(d)
    assert d != 0.0


def test_divergence_dim_cap():
    with pytest.raises(ValueError):
        sc.bregman_divergence(
            sc.AlphaSpec(1, 3),
            sc.exponential_field(3),
            sc.lomax_field(LomaxSpec(3)),
        )
