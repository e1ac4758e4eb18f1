"""Bit identity of the sampler and the posterior kernels against reference copies.

The reference below is a verbatim copy of ``run_chain``, ``_gamma_logpdf``
and the three ``*_target`` functions as they stood before the sampler loop
and the kernels were tuned for speed (numpy scalars, ``np.sum``, a
``gammaln`` call per evaluation).  The tuned code must reproduce every
draw, acceptance rate and final step bit for bit: the replication criteria
pin their seeds, so a faster engine has to give today's numbers.  Both
sides run here, on the same machine, so the comparison holds whatever the
CPU's vectorized ``exp`` and ``log`` return.  The program side of each
case is built by ``md.chain_inputs``, the recipe ``fit`` and ``simulate``
share, and its initial point and steps must equal the recipe written out
below.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from lomaxprior import experiments as ex
from lomaxprior import mcmc
from lomaxprior import models as md
from lomaxprior.lomax import LomaxSpec, normalizing_constant
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
        if t <= burn_in:
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
        spec = LomaxSpec(2, prior.shape, prior.scale)
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
        spec = LomaxSpec(3, prior.shape, prior.scale)
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
        spec = LomaxSpec(p + 2, prior.shape, prior.scale, frozenset(range(1, p + 2)))
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


# Each case builder returns (data, reference target, init, steps), the last two
# written out here as the recipe ``md.chain_inputs`` must follow.


def _weibull_case(prior, seed):
    data = md.weibull_sample(md.WeibullParams(1.0, 1.0), 30, np.random.default_rng(seed))
    return data, reference_weibull_target(data, prior), md.weibull_init(data), np.array([0.3, 0.3])


def _dagum_case(prior, seed):
    data = md.dagum_sample(md.DagumParams(4.0, 1.0, 0.5), 40, np.random.default_rng(seed))
    return data, reference_dagum_target(data, prior), md.dagum_init(data), np.array([0.3, 0.3, 0.3])


def _linreg_case(prior, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, size=(100, 2))
    y = md.linreg_sample(md.LinRegParams(2.0, (1.0, -0.5), 4.0), X, rng)
    ls = md.least_squares_init(X, y)
    full = np.column_stack([np.ones(X.shape[0]), X])
    se = np.sqrt(ls.variance * np.diag(np.linalg.inv(full.T @ full)))
    return (
        (X, y),
        reference_linreg_target(X, y, prior),
        ls.as_vector(),
        np.append(2.4 * np.maximum(se, 1e-6), 0.35),
    )


CASE_DATA = {"weibull": _weibull_case, "dagum": _dagum_case, "linreg": _linreg_case}

CASES = {
    "weibull-lomax": ("weibull", PriorSpec.lomax(2)),
    "weibull-lomax-k3-a0.5": ("weibull", PriorSpec.lomax(2, shape=3.0, scale=0.5)),
    "weibull-reference": ("weibull", PriorSpec.weibull_reference()),
    "dagum-lomax": ("dagum", PriorSpec.lomax(3)),
    "dagum-vague-gamma": ("dagum", PriorSpec.vague_gamma()),
    "linreg-lomax": ("linreg", PriorSpec.lomax(4, folded={1, 2, 3})),
    "linreg-vague-normal": ("linreg", PriorSpec.vague_normal()),
    "linreg-zellner": ("linreg", PriorSpec.zellner()),
}


def _build(case, seed):
    """Program target from ``md.chain_inputs``, reference target, and the written-out init and steps."""
    model, prior = CASES[case]
    data, reference, init, steps = CASE_DATA[model](prior, seed)
    target, got_init, got_steps = md.chain_inputs(model, prior, data)
    assert np.array_equal(got_init, init)
    assert np.array_equal(got_steps, steps)
    return target, reference, init, steps


def _assert_same_chain(got: ChainOutput, want: ChainOutput):
    assert np.array_equal(got.draws, want.draws)
    assert np.array_equal(got.accept_rates, want.accept_rates)
    assert np.array_equal(got.final_steps, want.final_steps)
    assert got.names == want.names


@pytest.mark.parametrize("seed, step_scale", [(3, 1.0), (11, 4.0)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_matches_reference(case, seed, step_scale):
    """Recipe steps, and steps 4x too wide so that every adaptation window acts."""
    target, reference, init, steps = _build(case, seed)
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
    target, reference, init, steps = _build(case, 5)
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
    """A caller-written target goes through the same loop."""

    def lp(x):
        if x[1] <= 0:
            return -math.inf
        return -0.5 * float(x[0] ** 2) - 2.0 * math.log(1.0 + x[1])

    target = PosteriorTarget(lp, ("real", "positive"), ("m", "s"))
    config = ChainConfig(
        iterations=ITERATIONS, burn_in=BURN_IN, thin=1, initial=[0.5, 1.0], steps=[1.0, 0.8], seed=99,
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_log_post_walk_matches_reference(case):
    """A sampler's single-coordinate walk, with returns to earlier states.

    Each step moves one coordinate in turn, as a sweep does, and is accepted
    or rejected; now and then the walk jumps back to a state it held before,
    or puts a real coordinate on 0.0 or -0.0.  The vector is changed in
    place, as ``run_chain`` changes it, so every value a target serves from
    its cache must still equal the reference's.
    """
    target, reference, init, steps = _build(case, 5)
    positive = [s == "positive" for s in target.support]
    rng = np.random.default_rng(29)
    x = init.copy()
    held = [x.copy()]
    assert target.log_post(x) == reference.log_post(x)
    for step in range(1500):
        j = step % x.size
        if rng.random() < 0.05:
            x[:] = held[rng.integers(len(held))]
        old = x[j]
        shift = 2.0 * steps[j] * rng.standard_normal()
        if positive[j]:
            x[j] = old * math.exp(shift)
        elif rng.random() < 0.02:
            x[j] = rng.choice([0.0, -0.0])
        else:
            x[j] = old + shift
        assert target.log_post(x) == reference.log_post(x)
        if rng.random() < 0.5:
            held.append(x.copy())
        else:
            x[j] = old
        if rng.random() < 0.2:
            assert target.log_post(x) == reference.log_post(x)


# per model, a numpy call that each pass over the data makes exactly once
DATA_PASS = {"dagum": "logaddexp", "linreg": "subtract"}


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] in DATA_PASS))
def test_one_data_pass_per_distinct_key(case, monkeypatch):
    """A chain passes over the data once per distinct key: once per move that changes the key.

    Dagum's data sums are keyed on (a, b), so a p move reuses them; the
    regression's on the coefficients, so a sigma2 move reuses them.  Every
    other move proposes a new key, so a chain of ``t`` sweeps over ``d``
    coordinates makes ``(d - 1) t + 1`` passes in ``d t + 1`` evaluations.
    """
    model = CASES[case][0]
    target, _, init, steps = _build(case, 3)
    name = DATA_PASS[model]
    passes = [0]
    real = getattr(np, name)

    def spy(*args, **kwargs):
        passes[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, spy)
    keys = set()
    evals = [0]

    def log_post(v):
        evals[0] += 1
        keys.add(v[:2].tobytes() if model == "dagum" else v[:-1].tobytes())
        return target.log_post(v)

    config = ChainConfig(
        iterations=ITERATIONS, burn_in=BURN_IN, thin=THIN, initial=init, steps=steps, seed=3
    )
    run_chain(PosteriorTarget(log_post, target.support, target.names), config)
    d = target.dim
    assert evals[0] == d * ITERATIONS + 1
    assert passes[0] == len(keys) == (d - 1) * ITERATIONS + 1


def _bits(value):
    return "nan" if math.isnan(value) else struct.pack("d", value)


# coordinates a kernel must pass through exactly as the reference does
EDGE_VALUES = (0.0, -0.0, 5e-324, 2.5e-310, -1.0, 1e300, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("case", sorted(CASES))
def test_log_post_bits_match_reference_at_edge_values(case):
    """Points mixing ordinary values with zeros, subnormals, huge values, infinities and NaN.

    The log posteriors are compared by their bytes, so -0.0 differs from 0.0.
    A NaN equals any NaN: its sign depends on whether a sum of two NaNs ran
    on numpy scalars, as in the reference, or on Python floats, and no
    decision reads it, as ``run_chain`` rejects every NaN proposal.
    """
    target, reference, init, steps = _build(case, 5)
    positive = [s == "positive" for s in target.support]

    def coordinate(j):
        ordinary = st.floats(-4.0, 4.0).map(
            lambda jitter: float(init[j] * math.exp(jitter) if positive[j] else init[j] + 4.0 * jitter)
        )
        return st.one_of(ordinary, st.sampled_from(EDGE_VALUES))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.tuples(*(coordinate(j) for j in range(init.size))))
    def check(point):
        v = np.array(point)
        with np.errstate(all="ignore"):
            got, want = target.log_post(v), reference.log_post(v.copy())
        assert _bits(got) == _bits(want), (point, got, want)

    check()


def _assert_same_bits(target, reference, points):
    for v in points:
        got, want = target.log_post(v), reference.log_post(v.copy())
        assert _bits(got) == _bits(want), (v, got, want)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from([PriorSpec.lomax(), PriorSpec.vague_normal(), PriorSpec.zellner()]),
    # half the draws keep n small, where a last bit of the prior term still shows in the sum
    st.integers(1, 10).flatmap(
        lambda p: st.tuples(st.just(p), st.one_of(st.integers(p + 2, 100), st.integers(p + 2, 20_000)))
    ),
    st.integers(0, 2**32 - 1),
)
@example(PriorSpec.lomax(), (10, 20_000), 0)
@example(PriorSpec.zellner(), (10, 20_000), 1)
@example(PriorSpec.vague_normal(), (1, 3), 2)
@example(PriorSpec.lomax(), (10, 12), 3)
def test_linreg_log_post_bits_match_reference_at_any_shape(prior, shape, seed):
    """Beyond the pinned p = 2, n = 100: every prior, p = 1..10, n = p + 2..20,000.

    With p + 1 > 8 coefficients numpy's add.reduce runs its 8-accumulator
    pairwise sum in the Lomax |coef| term; past 10^4 rows OpenBLAS may split
    the residual's ddot across threads.  Both sides run in one process, on
    one thread count.
    """
    p, n = shape
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 3.0, size=(n, p))
    y = 2.0 + X @ rng.normal(size=p) + rng.normal(0.0, 2.0, size=n)
    target, reference = md.linreg_target(X, y, prior), reference_linreg_target(X, y, prior)
    init = md.least_squares_init(X, y).as_vector()
    jitter = rng.normal(0.0, 0.5, size=(50, p + 2))
    points = [init] + [np.append(init[:-1] + j[:-1], init[-1] * math.exp(j[-1])) for j in jitter]
    points[-1][1:-1] = -0.0
    _assert_same_bits(target, reference, points)


@settings(max_examples=30, deadline=None, database=None)
@given(
    st.sampled_from([PriorSpec.lomax(), PriorSpec.vague_gamma()]),
    st.sampled_from([19, 200, 5_000]),
    st.integers(0, 2**32 - 1),
)
def test_dagum_log_post_bits_match_reference_at_any_size(prior, n, seed):
    """Beyond the pinned n = 40: 19 rows, and 200 and 5,000, past numpy's 128-element pairwise block."""
    rng = np.random.default_rng(seed)
    data = md.dagum_sample(md.DagumParams(4.0, 1.0, 0.5), n, rng)
    target, reference = md.dagum_target(data, prior), reference_dagum_target(data, prior)
    init = md.dagum_init(data)
    points = [init] + list(init * np.exp(rng.normal(0.0, 0.5, size=(50, 3))))
    points[-1][:2] = points[-2][:2]  # a p move: the (a, b) sums come from the cache
    _assert_same_bits(target, reference, points)


# ---------------------------------------------------------------------------
# the log-uniform rule: run_chain decides every move with math.log, never np.log


class _NumpyWithLog:
    """numpy as ``mcmc`` sees it, with ``log`` replaced."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        return getattr(np, name)


def _alternating(out):
    """+1.0 on every other element of ``out``, -1.0 on the rest."""
    return np.where(np.arange(out.size).reshape(out.shape) % 2 == 0, 1.0, -1.0)


def _log_shifted_by(delta):
    def log(a):
        out = np.log(a)
        return out + delta * _alternating(out)

    return log


def test_np_log_error_moves_no_draw(monkeypatch):
    """An np.log off by 1e-2 moves no draw: no accept decision reads np.log."""
    monkeypatch.setattr(mcmc, "np", _NumpyWithLog(_log_shifted_by(1e-2)))
    for case in sorted(CASES):
        for seed, step_scale in [(3, 1.0), (11, 4.0)]:
            target, reference, init, steps = _build(case, seed)
            config = ChainConfig(
                iterations=ITERATIONS, burn_in=BURN_IN, thin=THIN, initial=init, steps=step_scale * steps, seed=seed
            )
            got, want = run_chain(target, config), reference_run_chain(reference, config)
            assert np.array_equal(got.draws, want.draws), (case, seed)


_default_rng = np.random.default_rng


class _ZeroUniforms:
    """A generator whose uniform blocks hold 0.0 on every seventh row."""

    def __init__(self, seed):
        self.rng = _default_rng(seed)

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape)

    def random(self, shape):
        out = self.rng.random(shape)
        out[::7] = 0.0
        return out


@pytest.mark.parametrize("moved", [-math.inf, math.inf])
def test_zero_uniform_against_infinite_ratio(monkeypatch, moved):
    """A uniform of 0.0 has log -inf: it rejects a move to -inf and accepts one to +inf, without raising."""
    start = np.array([0.5, 1.0])

    def lp(x):
        return 0.0 if np.array_equal(x, start) else moved

    monkeypatch.setattr(np.random, "default_rng", _ZeroUniforms)
    target = PosteriorTarget(lp, ("real", "positive"), ("m", "s"))
    config = ChainConfig(iterations=ITERATIONS, burn_in=BURN_IN, thin=1, initial=start, steps=[1.0, 0.8], seed=4)
    got = run_chain(target, config)
    _assert_same_chain(got, reference_run_chain(target, config))
    if moved < 0:
        assert np.all(got.draws == start) and np.all(got.accept_rates == 0.0)
