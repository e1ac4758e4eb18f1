"""Bit identity of the sampler and the posterior kernels against reference copies.

The reference below is a verbatim copy of ``run_chain``, ``_gamma_logpdf``
and the three ``*_target`` functions as they stood before the sampler loop
and the kernels were tuned for speed (numpy scalars, ``np.sum``, a
``gammaln`` call per evaluation).  The tuned code must reproduce every
draw, acceptance rate and final step bit for bit: the replication criteria
pin their seeds, so a faster engine has to give today's numbers.  Both
sides run here, on the same machine, so the comparison holds whatever the
CPU's vectorized ``exp`` and ``log`` return.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from lomaxprior import experiments as ex
from lomaxprior import models as md
from lomaxprior.lomax import normalizing_constant
from lomaxprior.mcmc import (
    ADAPT_WINDOW,
    ChainConfig,
    ChainInitError,
    ChainOutput,
    PosteriorTarget,
    adapt_steps,
    run_chain,
)
from lomaxprior.models import PriorSpec, _positive_data

# ---------------------------------------------------------------------------
# reference copies (verbatim apart from the names)


def reference_run_chain(target: PosteriorTarget, config: ChainConfig) -> ChainOutput:
    """Run one Metropolis-within-Gibbs chain.

    Returns floor((iterations - burn_in) / thin) retained draws, the
    post-burn-in per-coordinate acceptance rates, and the (frozen) final
    step sizes.
    """
    log_post = target.log_post
    d = target.dim
    x = np.array(config.initial, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"initial point must have shape ({d},)")
    if not target.in_support(x):
        raise ChainInitError(f"initial point {x} violates the support")
    lp = float(log_post(x))
    if not math.isfinite(lp):
        raise ChainInitError(f"log posterior not finite at initial point {x}")

    positive = [s == "positive" for s in target.support]
    steps = np.array(config.steps, dtype=float)
    rng = np.random.default_rng(config.seed)

    iterations, burn_in, thin = config.iterations, config.burn_in, config.thin
    n_keep = (iterations - burn_in) // thin
    draws = np.empty((n_keep, d))
    kept = 0
    win_acc = np.zeros(d)
    win_len = 0
    post_acc = np.zeros(d)
    post_sweeps = 0

    t = 0
    while t < iterations:
        block = min(ADAPT_WINDOW, iterations - t)
        eps = rng.standard_normal((block, d))
        unif = rng.random((block, d))
        for b in range(block):
            t += 1
            burning = t <= burn_in
            for j in range(d):
                old = x[j]
                if positive[j]:
                    shift = steps[j] * eps[b, j]
                    x[j] = old * math.exp(shift)
                    log_corr = shift  # log(x'/x) for the log-scale walk
                else:
                    x[j] = old + steps[j] * eps[b, j]
                    log_corr = 0.0
                lp_new = float(log_post(x))
                u = unif[b, j]
                lu = math.log(u) if u > 0.0 else -math.inf
                if lu < lp_new - lp + log_corr:
                    lp = lp_new
                    if burning:
                        win_acc[j] += 1
                    else:
                        post_acc[j] += 1
                else:
                    x[j] = old
            if not burning:
                post_sweeps += 1
                if (t - burn_in) % thin == 0:
                    draws[kept] = x
                    kept += 1
        win_len += block
        if config.adapt and t <= burn_in:
            steps = adapt_steps(win_acc / win_len, steps)
            win_acc[:] = 0.0
            win_len = 0

    rates = post_acc / post_sweeps if post_sweeps else np.zeros(d)
    return ChainOutput(
        draws=draws[:kept],
        accept_rates=rates,
        final_steps=steps,
        names=target.names,
    )


def _gamma_logpdf(x, shape, rate):
    return shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * math.log(x) - rate * x


def reference_weibull_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))

    if prior.kind == "lomax":
        spec = prior.lomax_spec
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

    def log_post(v):
        th, be = v[0], v[1]
        if th <= 0 or be <= 0:
            return -math.inf
        z = np.exp(be * (logx - math.log(th)))
        ll = n * math.log(be) + (be - 1.0) * slogx - n * be * math.log(th) - float(np.sum(z))
        return ll + logp(th, be)

    return PosteriorTarget(log_post, ("positive", "positive"), ("scale", "shape"))


def reference_dagum_target(data, prior: PriorSpec) -> PosteriorTarget:
    x = _positive_data(data)
    n = x.size
    logx = np.log(x)
    slogx = float(np.sum(logx))

    if prior.kind == "lomax":
        spec = prior.lomax_spec
        const = math.log(normalizing_constant(spec))
        expo = spec.shape + 3.0
        a0 = spec.scale

        def logp(a, b, p):
            return const - expo * math.log(a0 + a + b + p)

    elif prior.kind == "vague-gamma-product":
        shapes = prior.gamma_shapes
        rates = prior.gamma_rates

        def logp(a, b, p):
            return (
                _gamma_logpdf(a, shapes[0], rates[0])
                + _gamma_logpdf(b, shapes[1], rates[1])
                + _gamma_logpdf(p, shapes[2], rates[2])
            )

    else:
        raise ValueError(f"prior {prior.kind!r} is not defined for the Dagum model")

    def log_post(v):
        a, b, p = v[0], v[1], v[2]
        if a <= 0 or b <= 0 or p <= 0:
            return -math.inf
        w = a * (logx - math.log(b))
        ll = (
            n * (math.log(a) + math.log(p))
            - slogx
            + p * float(np.sum(w))
            - (p + 1.0) * float(np.sum(np.logaddexp(0.0, w)))
        )
        return ll + logp(a, b, p)

    return PosteriorTarget(log_post, ("positive",) * 3, ("a", "b", "p"))


def reference_linreg_target(X, y, prior: PriorSpec) -> PosteriorTarget:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    full = np.column_stack([np.ones(n), X])
    names = ("beta0", *(f"beta{j}" for j in range(1, p + 1)), "sigma2")
    support = ("real",) * (p + 1) + ("positive",)
    half_n_log2pi = 0.5 * n * math.log(2.0 * math.pi)

    kind = prior.kind
    if kind == "lomax":
        spec = prior.lomax_spec
        if spec.dim != p + 2:
            raise ValueError("lomax prior dimension must cover coefficients plus variance")
        const = math.log(normalizing_constant(spec))
        expo = spec.shape + spec.dim
        a0 = spec.scale

        def logp(coef, var):
            return const - expo * math.log(a0 + float(np.sum(np.abs(coef))) + var)

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
        var = v[-1]
        if var <= 0:
            return -math.inf
        coef = v[:-1]
        r = y - full @ coef
        ll = -half_n_log2pi - 0.5 * n * math.log(var) - float(r @ r) / (2.0 * var)
        return ll + logp(coef, var)

    return PosteriorTarget(log_post, support, names)


# ---------------------------------------------------------------------------
# the comparison

# two adaptation windows end inside burn-in, the third block straddles its end
ITERATIONS, BURN_IN, THIN = 2 * ADAPT_WINDOW + 700, 2 * ADAPT_WINDOW + 200, 3


def _weibull_case(prior, seed):
    data = md.weibull_sample(md.WeibullParams(1.0, 1.0), 30, np.random.default_rng(seed))
    return (
        md.weibull_target(data, prior),
        reference_weibull_target(data, prior),
        md.weibull_init(data),
        np.array([0.3, 0.3]),
    )


def _dagum_case(prior, seed):
    data = md.dagum_sample(md.DagumParams(4.0, 1.0, 0.5), 40, np.random.default_rng(seed))
    return (
        md.dagum_target(data, prior),
        reference_dagum_target(data, prior),
        md.dagum_init(data),
        np.array([0.3, 0.3, 0.3]),
    )


def _linreg_case(prior, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, size=(100, 2))
    y = md.linreg_sample(md.LinRegParams(2.0, (1.0, -0.5), 4.0), X, rng)
    if prior.kind == "zellner-g":
        prior = prior.with_design(X)
    ls = md.least_squares_init(X, y)
    full = np.column_stack([np.ones(X.shape[0]), X])
    se = np.sqrt(ls.variance * np.diag(np.linalg.inv(full.T @ full)))
    return (
        md.linreg_target(X, y, prior),
        reference_linreg_target(X, y, prior),
        ls.as_vector(),
        np.append(2.4 * np.maximum(se, 1e-6), 0.35),
    )


CASES = {
    "weibull-lomax": (_weibull_case, PriorSpec.lomax(2)),
    "weibull-lomax-k3-a0.5": (_weibull_case, PriorSpec.lomax(2, shape=3.0, scale=0.5)),
    "weibull-reference": (_weibull_case, PriorSpec.weibull_reference()),
    "dagum-lomax": (_dagum_case, PriorSpec.lomax(3)),
    "dagum-vague-gamma": (_dagum_case, PriorSpec.vague_gamma()),
    "linreg-lomax": (_linreg_case, PriorSpec.lomax(4, folded={1, 2, 3})),
    "linreg-vague-normal": (_linreg_case, PriorSpec.vague_normal()),
    "linreg-zellner": (_linreg_case, PriorSpec.zellner()),
}


def _assert_same_chain(got: ChainOutput, want: ChainOutput):
    assert np.array_equal(got.draws, want.draws)
    assert np.array_equal(got.accept_rates, want.accept_rates)
    assert np.array_equal(got.final_steps, want.final_steps)
    assert got.names == want.names


@pytest.mark.parametrize("seed, step_scale", [(3, 1.0), (11, 4.0)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_matches_reference(case, seed, step_scale):
    """Recipe steps, and steps 4x too wide so that every adaptation window acts."""
    build, prior = CASES[case]
    target, reference, init, steps = build(prior, seed)
    steps = step_scale * steps
    config = ChainConfig(
        iterations=ITERATIONS, burn_in=BURN_IN, thin=THIN, initial=init, steps=steps, seed=seed
    )
    got = run_chain(target, config)
    want = reference_run_chain(reference, config)
    _assert_same_chain(got, want)
    assert got.draws.shape == ((ITERATIONS - BURN_IN) // THIN, target.dim)
    if step_scale > 1.0:
        assert np.all(got.final_steps < steps)


@pytest.mark.parametrize("case", sorted(CASES))
def test_log_post_matches_reference(case):
    build, prior = CASES[case]
    target, reference, init, steps = build(prior, 5)
    positive = np.array([s == "positive" for s in target.support])
    rng = np.random.default_rng(17)
    for _ in range(200):
        jitter = rng.normal(0.0, 0.5, init.size)
        v = np.where(positive, init * np.exp(jitter), init + 4.0 * jitter)
        assert float(target.log_post(v)) == float(reference.log_post(v))
    outside = init.copy()
    outside[-1] = -outside[-1]
    assert target.log_post(outside) == reference.log_post(outside) == -math.inf


def test_unadapted_chain_and_plain_target_match_reference():
    """adapt=False and a caller-written target go through the same loop."""

    def lp(x):
        if x[1] <= 0:
            return -math.inf
        return -0.5 * float(x[0] ** 2) - 2.0 * math.log(1.0 + x[1])

    target = PosteriorTarget(lp, ("real", "positive"), ("m", "s"))
    config = ChainConfig(
        iterations=ITERATIONS, burn_in=BURN_IN, thin=1, initial=[0.5, 1.0], steps=[1.0, 0.8],
        adapt=False, seed=99,
    )
    _assert_same_chain(run_chain(target, config), reference_run_chain(target, config))


def test_scenario_replicate_matches_reference(monkeypatch):
    """A scenario replicate, through experiments, gives the reference engine's numbers."""
    spec = ex.ScenarioSpec(
        model="dagum",
        truth={"a": 4.0, "b": 1.0, "p": 0.5},
        n=30,
        replicates=1,
        priors=(PriorSpec.lomax(3), PriorSpec.vague_gamma()),
        preset=(ITERATIONS, BURN_IN, THIN),
        seed=8,
    )
    got = ex._run_replicate(spec, 0)
    monkeypatch.setattr(ex, "run_chain", reference_run_chain)
    monkeypatch.setattr(ex.md, "dagum_target", reference_dagum_target)
    want = ex._run_replicate(spec, 0)
    assert np.array_equal(got, want)
