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
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PosteriorTarget",
    "ChainConfig",
    "ChainOutput",
    "ChainInitError",
    "run_chain",
    "check_schedule",
    "adapt_steps",
    "summarize",
    "effective_sample_size",
    "write_csv",
    "chain_to_csv",
    "read_csv",
    "summaries_to_json",
]

ADAPT_WINDOW = 500
ADAPT_FACTOR = 1.2
ADAPT_HIGH = 0.5
ADAPT_LOW = 0.2

SUPPORTS = ("real", "positive")

MIN_DRAWS = 100  # retained draws below which summaries are refused
MAX_DRAWS = 10**7  # retained draws above which a schedule is refused: run_chain holds them all


def check_schedule(iterations: int, burn_in: int, thin: int) -> None:
    """Refuse a schedule keeping fewer than MIN_DRAWS or more than MAX_DRAWS draws, (iterations - burn_in) // thin."""
    # with thin >= 1, keeping MIN_DRAWS draws implies burn_in < iterations
    if burn_in < 0 or thin < 1 or (iterations - burn_in) // thin < MIN_DRAWS:
        raise ValueError(
            f"[iterations, burn_in, thin] = {[iterations, burn_in, thin]} needs burn_in >= 0, thin >= 1"
            f" and at least {MIN_DRAWS} retained draws, (iterations - burn_in) // thin"
        )
    if (iterations - burn_in) // thin > MAX_DRAWS:
        raise ValueError(
            f"[iterations, burn_in, thin] = {[iterations, burn_in, thin]} keeps more than {MAX_DRAWS} draws;"
            " raise thin or burn_in"
        )


class ChainInitError(ValueError):
    """The chain cannot start: log posterior not finite at the initial point."""


@dataclass
class PosteriorTarget:
    """Log posterior plus per-coordinate support descriptors and names.

    ``log_post(v)`` takes ``v``, a 1-d float64 ndarray of ``dim``
    coordinates.  It must be finite on the interior of the support and
    return -inf outside it.  It may cache what it computes, but must return
    the same value for the same ``v``: ``run_chain`` changes ``v`` in place
    between calls.
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
    seed: int = 0

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.steps = np.asarray(self.steps, dtype=float)
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be >= 0 and smaller than iterations")
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
    names: tuple[str, ...]


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
    post_acc = [0] * d

    t = 0
    while t < iterations:
        block = min(ADAPT_WINDOW, iterations - t)
        eps = rng.standard_normal((block, d))
        unif = rng.random((block, d))
        shifts = (eps * steps).tolist()
        for shift_row, u_row in zip(shifts, unif.tolist()):
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
                u = u_row[j]
                if (math.log(u) if u > 0.0 else -math.inf) < lp_new - lp + log_corr:
                    lp = lp_new
                    xs[j] = new
                    acc[j] += 1
                else:
                    x[j] = old
            if not burning and (t - burn_in) % thin == 0:
                draws[kept] = x
                kept += 1
        if t <= burn_in:  # the whole block burnt in
            steps = adapt_steps(np.array(win_acc) / block, steps)
            win_acc = [0] * d

    rates = np.array(post_acc) / (iterations - burn_in)  # ChainConfig keeps burn_in < iterations
    return ChainOutput(
        draws=draws[:kept],
        accept_rates=rates,
        final_steps=steps,
        names=target.names,
    )


def summarize(draws, names: Sequence[str] | None = None) -> dict:
    """Per-coordinate mean, median, variance and equal-tailed 95% interval.

    Quantiles interpolate linearly between order statistics.  Accepts a
    ChainOutput or a (kept, dim) array; needs at least MIN_DRAWS retained draws.
    """
    if isinstance(draws, ChainOutput):
        names = names or draws.names
        draws = draws.draws
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    n, d = draws.shape
    if n < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} retained draws, got {n}")
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
    """ESS n / (-1 + 2 sum_k Gamma_k) by Geyer's initial positive sequence.

    Gamma_k = rho_2k + rho_2k+1 sums disjoint pairs of autocorrelations and
    stops before the first negative pair.  The estimate is capped at
    n log10(n), as for antithetic chains the denominator can approach zero.
    """
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
    for k in range(n // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        s += pair
    return float(n / max(-1.0 + 2.0 * s, 1.0 / math.log10(n)))


def write_csv(path, header, rows):
    """Write a headed CSV: floats by repr, so they read back exactly, anything else by str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def read_csv(path):
    """(column names, (rows, columns) float array) of a headed CSV such as write_csv writes.

    A ValueError naming the file refuses one with no data rows, with a value that is not finite,
    or with a row that is not one number per header column, whose line it names.
    """
    with open(path) as fh:
        names = tuple(h.strip() for h in fh.readline().strip().split(","))
        lines = fh.readlines()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # no rows: refused below
        try:
            body = np.loadtxt(lines, delimiter=",", ndmin=2)
            if body.size and body.shape[1] != len(names):
                raise ValueError(f"rows of {body.shape[1]} numbers below {len(names)} column names")
        except ValueError as exc:
            bad = (f"line {number}: {line.strip()!r} is not one number per column of {list(names)}"
                   for number, line in enumerate(lines, 2) if not _is_row(line, len(names)))
            raise ValueError(f"{path} {next(bad, exc)}") from None
    if body.size == 0:
        raise ValueError(f"{path} has no data rows below its header")
    if not np.isfinite(body).all():
        raise ValueError(f"{path} holds a value that is not a finite number")
    return names, body


def _is_row(line: str, width: int) -> bool:
    """Whether loadtxt skips ``line`` (blank or a comment) or reads ``width`` numbers from it."""
    try:
        row = np.loadtxt([line], delimiter=",", ndmin=2)
    except ValueError:
        return False
    return row.size == 0 or row.shape[1] == width


def chain_to_csv(output: ChainOutput, path):
    """One column per coordinate; read_csv returns (names, draws)."""
    write_csv(path, output.names, output.draws)


def summaries_to_json(summaries: dict, path):
    with open(path, "w") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")
