"""Metropolis-within-Gibbs sampler with burn-in step adaptation.

One sweep updates each coordinate in turn with a random-walk proposal:
Gaussian on the coordinate itself when its support is the real line, and
Gaussian on the log scale (with the x'/x Jacobian correction folded into the
acceptance ratio) when the support is the positive half-line.  Step sizes
adapt on a fixed schedule during burn-in only, so the retained draws come
from a fixed transition kernel.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PosteriorTarget",
    "ChainConfig",
    "ChainOutput",
    "ChainInitError",
    "run_chain",
    "adapt_steps",
    "summarize",
    "effective_sample_size",
    "chain_to_csv",
    "read_draws_csv",
    "summaries_to_json",
]

ADAPT_WINDOW = 500
ADAPT_FACTOR = 1.2
ADAPT_HIGH = 0.5
ADAPT_LOW = 0.2

SUPPORTS = ("real", "positive")


class ChainInitError(ValueError):
    """The chain cannot start: log posterior not finite at the initial point."""


@dataclass
class PosteriorTarget:
    """Log posterior plus per-coordinate support descriptors and names.

    ``log_post`` must be finite on the interior of the support and return
    -inf outside it.
    """

    log_post: Callable[[np.ndarray], float]
    support: tuple[str, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        self.support = tuple(self.support)
        self.names = tuple(self.names)
        if len(self.support) != len(self.names):
            raise ValueError("support and names must have equal length")
        bad = [s for s in self.support if s not in SUPPORTS]
        if bad:
            raise ValueError(f"unknown support descriptors {bad}; use {SUPPORTS}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def in_support(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        for i, s in enumerate(self.support):
            if s == "positive" and x[i] <= 0:
                return False
        return True


@dataclass
class ChainConfig:
    iterations: int
    burn_in: int
    thin: int
    initial: np.ndarray
    steps: np.ndarray
    adapt: bool = True
    seed: int = 0

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.steps = np.asarray(self.steps, dtype=float)
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if np.any(self.steps <= 0):
            raise ValueError("step sizes must be positive")
        if self.initial.shape != self.steps.shape:
            raise ValueError("initial point and steps must have matching shape")


@dataclass
class ChainOutput:
    draws: np.ndarray  # (kept, dim)
    accept_rates: np.ndarray  # per coordinate, post burn-in
    final_steps: np.ndarray
    names: tuple[str, ...] = field(default_factory=tuple)


def adapt_steps(rates, steps) -> np.ndarray:
    """Scale steps up (acceptance > 0.5) or down (< 0.2) by the factor 1.2."""
    rates = np.asarray(rates, dtype=float)
    steps = np.asarray(steps, dtype=float).copy()
    steps[rates > ADAPT_HIGH] *= ADAPT_FACTOR
    steps[rates < ADAPT_LOW] /= ADAPT_FACTOR
    return steps


def run_chain(target: PosteriorTarget, config: ChainConfig) -> ChainOutput:
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
    # the inner loop works on Python floats and ints: numpy scalar arithmetic
    # costs several times more per operation and gives the same IEEE results
    xs = x.tolist()  # mirror of x; x itself is what log_post sees
    win_acc = [0] * d
    win_len = 0
    post_acc = [0] * d
    post_sweeps = 0

    t = 0
    while t < iterations:
        block = min(ADAPT_WINDOW, iterations - t)
        eps = rng.standard_normal((block, d))
        unif = rng.random((block, d))
        shifts = (eps * steps).tolist()
        log_unif = [
            [math.log(u) if u > 0.0 else -math.inf for u in row] for row in unif.tolist()
        ]
        for shift_row, lu_row in zip(shifts, log_unif):
            t += 1
            burning = t <= burn_in
            acc = win_acc if burning else post_acc
            for j in range(d):
                old = xs[j]
                shift = shift_row[j]
                if positive[j]:
                    new = old * math.exp(shift)
                    log_corr = shift  # log(x'/x) for the log-scale walk
                else:
                    new = old + shift
                    log_corr = 0.0
                x[j] = new
                lp_new = float(log_post(x))
                if lu_row[j] < lp_new - lp + log_corr:
                    lp = lp_new
                    xs[j] = new
                    acc[j] += 1
                else:
                    x[j] = old
            if not burning:
                post_sweeps += 1
                if (t - burn_in) % thin == 0:
                    draws[kept] = x
                    kept += 1
        win_len += block
        if config.adapt and t <= burn_in:
            steps = adapt_steps(np.array(win_acc) / win_len, steps)
            win_acc = [0] * d
            win_len = 0

    rates = np.array(post_acc) / post_sweeps if post_sweeps else np.zeros(d)
    return ChainOutput(
        draws=draws[:kept],
        accept_rates=rates,
        final_steps=steps,
        names=target.names,
    )


def summarize(draws, names: Sequence[str] | None = None) -> dict:
    """Per-coordinate mean, median, variance and equal-tailed 95% interval.

    Quantiles interpolate linearly between order statistics.  Accepts a
    ChainOutput or a (kept, dim) array; needs at least 100 retained draws.
    """
    if isinstance(draws, ChainOutput):
        names = names or draws.names
        draws = draws.draws
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    n, d = draws.shape
    if n < 100:
        raise ValueError(f"need at least 100 retained draws, got {n}")
    if names is None:
        names = [f"x{j}" for j in range(d)]
    out = {}
    for j, name in enumerate(names):
        col = draws[:, j]
        lo, hi = np.percentile(col, [2.5, 97.5])
        out[name] = {
            "mean": float(np.mean(col)),
            "median": float(np.median(col)),
            "variance": float(np.var(col, ddof=1)),
            "ci95": [float(lo), float(hi)],
        }
    return out


def effective_sample_size(series) -> float:
    """ESS from the initial-positive-sequence autocorrelation estimate."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return float(n)
    # autocovariance via FFT
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / n
    rho = acov / var
    s = 0.0
    for lag in range(1, n):
        pair = rho[lag] + (rho[lag + 1] if lag + 1 < n else 0.0)
        if pair < 0:
            break
        s += pair
        if lag + 1 >= n:
            break
    return float(n / (1.0 + 2.0 * s))


def chain_to_csv(output: ChainOutput, path):
    """One column per coordinate, full repr precision so values round-trip."""
    names = output.names or [f"x{j}" for j in range(output.draws.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in output.draws:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_draws_csv(path):
    """Inverse of chain_to_csv: returns (names, draws)."""
    with open(path) as fh:
        header = fh.readline().strip()
        names = tuple(header.split(","))
        draws = np.loadtxt(fh, delimiter=",", ndmin=2)
    return names, draws


def summaries_to_json(summaries: dict, path):
    with open(path, "w") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")
