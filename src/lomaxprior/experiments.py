"""Repeated-sample comparison harness: relative RMSE and coverage by prior.

A scenario fixes a data model, its true parameters, a sample size and a
list of priors; each replicate draws a fresh dataset, runs one MCMC chain
per prior, and records the posterior mean and equal-tailed 95% interval
per parameter.  Aggregation reports, per (prior, parameter),

    relative RMSE  = sqrt(mean (posterior mean - truth)^2) / |truth|,
    coverage       = fraction of intervals containing the truth,
    mean width     = average interval length.

Replicate seeds derive injectively from the master seed, so results are
bit-identical regardless of how many worker processes execute them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from lomaxprior import models as md
from lomaxprior.mcmc import ChainConfig, ChainInitError, check_schedule, run_chain, summarize, write_csv

__all__ = [
    "CHAIN_PRESETS",
    "ScenarioSpec",
    "ScenarioError",
    "MetricsRow",
    "MetricsTable",
    "relative_rmse",
    "coverage",
    "run_scenario",
    "builtin_dataset",
    "scenario_from_json",
    "scenario_to_json",
]

MAX_REPLICATES = 10**5  # a scenario's replicates: one result row each, held until aggregation
MAX_SAMPLE_SIZE = 10**6  # a scenario's n: each replicate's dataset, and its design matrix for linreg
MAX_WORKERS = 256  # worker processes a scenario may ask for; the pool starts at most one per replicate

CHAIN_PRESETS = {
    "desk": (20_000, 5_000, 10),
    "full": (100_000, 10_000, 50),
}

_BUILTIN_DATASETS = {
    # 19 times to breakdown (minutes) of an insulating fluid at 34 kV
    "breakdown34kv": np.array(
        [0.96, 4.15, 0.19, 0.78, 8.01, 31.75, 7.35, 6.50, 8.27, 33.91,
         32.52, 3.16, 4.85, 2.78, 4.67, 1.31, 12.06, 36.71, 72.89]
    ),
}


class ScenarioError(RuntimeError):
    """Scenario could not produce trustworthy aggregates."""


def builtin_dataset(name: str) -> np.ndarray:
    try:
        return _BUILTIN_DATASETS[name].copy()
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(_BUILTIN_DATASETS)}"
        ) from None


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioSpec:
    model: str
    truth: dict
    n: int
    replicates: int
    priors: tuple
    preset: str | tuple = "desk"
    seed: int = 0
    covariate_sd: float = 3.0

    def __post_init__(self):
        try:
            for key in ("n", "replicates", "seed"):
                object.__setattr__(self, key, md.integer_key(key, getattr(self, key)))
            object.__setattr__(self, "covariate_sd", md.real_key("covariate_sd", self.covariate_sd))
        except ValueError as exc:
            raise ValueError(f"scenario {exc}") from None
        if not 0 < self.covariate_sd < math.inf:
            raise ValueError(f"scenario 'covariate_sd' must be > 0 and finite, got {self.covariate_sd}")
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"need between 1 and {MAX_REPLICATES} replicates, got {self.replicates}")
        if not 2 <= self.n <= MAX_SAMPLE_SIZE:
            raise ValueError(f"sample size must be between 2 and {MAX_SAMPLE_SIZE}, got {self.n}")
        object.__setattr__(self, "priors", tuple(self.priors))
        # a bool is refused as md.real_key and md.integer_key refuse it
        if not (isinstance(self.truth, dict) and all(_is_number(v, numbers.Real) for v in self.truth.values())):
            raise ValueError(f"truth must map parameter names to numbers, got {self.truth!r}")
        object.__setattr__(self, "truth", dict(self.truth))
        names, supports = md.parameters(self.model, len(self.truth) - 2)  # as _param_names reads them
        if set(self.truth) != set(names):
            raise ValueError(f"truth keys {list(self.truth)} are not the {self.model} parameters {list(names)}")
        support = dict(zip(names, supports))
        for key, value in self.truth.items():  # relative RMSE divides by |truth|
            if value == 0 or not math.isfinite(value):
                raise ValueError(f"truth {key!r} must be finite and nonzero, got {value!r}")
            if value < 0 and support[key] == "positive":
                raise ValueError(f"truth {key!r} must be > 0 in the {self.model} model, got {value!r}")
        if not self.priors:
            raise ValueError("need at least one prior to compare")
        # the preset is checked here so that a bad one fails before any chain runs
        if isinstance(self.preset, str):
            if self.preset not in CHAIN_PRESETS:
                raise ValueError(f"unknown preset {self.preset!r}; use one of {sorted(CHAIN_PRESETS)}")
        elif isinstance(self.preset, (list, tuple)) and len(self.preset) == 3 and all(
            _is_number(v, numbers.Integral) for v in self.preset
        ):
            object.__setattr__(self, "preset", tuple(int(v) for v in self.preset))
        else:
            raise ValueError(f"preset must be a name or [iterations, burn_in, thin], got {self.preset!r}")
        check_schedule(*self.chain_dims())

    def chain_dims(self) -> tuple[int, int, int]:
        return CHAIN_PRESETS[self.preset] if isinstance(self.preset, str) else self.preset


@dataclass(frozen=True)
class MetricsRow:
    prior: str
    parameter: str
    rel_rmse: float
    coverage: float
    mean_width: float


@dataclass
class MetricsTable:
    rows: list = field(default_factory=list)
    scenario: str = ""
    replicates_used: int = 0
    replicates_failed: int = 0

    def get(self, prior: str, parameter: str) -> MetricsRow:
        for row in self.rows:
            if row.prior == prior and row.parameter == parameter:
                return row
        raise KeyError(f"no row for ({prior!r}, {parameter!r})")

    def to_csv(self, path):
        write_csv(
            path,
            ("scenario", "prior", "parameter", "rel_rmse", "coverage", "mean_width"),
            ((self.scenario, r.prior, r.parameter, r.rel_rmse, r.coverage, r.mean_width) for r in self.rows),
        )

    def to_text(self) -> str:
        header = f"{'prior':<22}{'parameter':<12}{'rel_rmse':>12}{'coverage':>10}{'width':>12}"
        lines = [header, "-" * len(header)]
        if self.scenario:
            lines.insert(0, f"scenario: {self.scenario}")
        for r in self.rows:
            lines.append(
                f"{r.prior:<22}{r.parameter:<12}{r.rel_rmse:>12.4f}{r.coverage:>10.3f}{r.mean_width:>12.4f}"
            )
        return "\n".join(lines) + "\n"


def relative_rmse(estimates, truth: float) -> float:
    """sqrt(mean squared error) divided by |true value| (must be nonzero)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        raise ValueError("estimates must be nonempty")
    if truth == 0:
        raise ValueError("relative RMSE is undefined for truth == 0")
    return float(np.sqrt(np.mean((estimates - truth) ** 2)) / abs(truth))


def coverage(intervals, truth: float) -> float:
    """Fraction of closed intervals [lo, hi] containing the truth."""
    hits = 0
    total = 0
    for lo, hi in intervals:
        if lo > hi:
            raise ValueError(f"malformed interval ({lo}, {hi})")
        hits += bool(lo <= truth <= hi)
        total += 1
    if total == 0:
        raise ValueError("intervals must be nonempty")
    return hits / total


# ---------------------------------------------------------------------------
# scenario execution


def _prior_labels(priors) -> list[str]:
    labels = []
    seen = {}
    for p in priors:
        base = p.kind
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return labels


def _param_names(spec: ScenarioSpec) -> tuple[str, ...]:
    # a regression's truth holds beta0, sigma2 and one coefficient per covariate
    return md.parameters(spec.model, len(spec.truth) - 2)[0]


def _draw_dataset(spec: ScenarioSpec, rng: np.random.Generator):
    truth = np.array([float(spec.truth[k]) for k in _param_names(spec)])
    if spec.model == "weibull":
        params = md.WeibullParams(scale=truth[0], shape=truth[1])
        return md.weibull_sample(params, spec.n, rng)
    if spec.model == "dagum":
        params = md.DagumParams(*truth)
        return md.dagum_sample(params, spec.n, rng)
    n_coef = truth.size - 2
    X = rng.normal(0.0, spec.covariate_sd, size=(spec.n, n_coef))
    params = md.LinRegParams(truth[0], tuple(truth[1:-1]), truth[-1])
    return X, md.linreg_sample(params, X, rng)


def _chain_seed(master: int, replicate: int) -> int:
    # one stream per replicate, shared by every prior: common random numbers
    # make the across-prior comparisons paired at the chain level too
    seq = np.random.SeedSequence(master, spawn_key=(replicate, 1))
    return int(seq.generate_state(1, np.uint64)[0])


def _run_replicate(spec: ScenarioSpec, replicate: int):
    """(n_priors, n_params, 3) array of posterior mean, lo, hi; None on failure."""
    data_rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(replicate,))
    )
    dataset = _draw_dataset(spec, data_rng)
    names = _param_names(spec)
    iterations, burn_in, thin = spec.chain_dims()
    out = np.empty((len(spec.priors), len(names), 3))
    chain_seed = _chain_seed(spec.seed, replicate)
    # every prior is checked against the model before the first chain runs
    inputs = [md.chain_inputs(spec.model, prior, dataset) for prior in spec.priors]
    for prior_index, (target, init, steps) in enumerate(inputs):
        config = ChainConfig(
            iterations=iterations,
            burn_in=burn_in,
            thin=thin,
            initial=init,
            steps=steps,
            seed=chain_seed,
        )
        try:
            chain = run_chain(target, config)
        except ChainInitError:
            return None
        summ = summarize(chain)
        for j, name in enumerate(names):
            s = summ[name]
            out[prior_index, j] = (s["mean"], s["ci95"][0], s["ci95"][1])
    return out


def run_scenario(spec: ScenarioSpec, workers: int = 0) -> MetricsTable:
    """Run all replicates (optionally across processes) and aggregate.

    Results are identical for any ``workers`` because every replicate's
    randomness derives from (master seed, replicate index) alone.  Failed
    replicates are dropped; the scenario errors if they reach 1% of the
    total.
    """
    if not 0 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be between 0 and {MAX_WORKERS}, got {workers}")
    # a forked pool starts all its processes at the first submit, so it gets no more than there are replicates
    workers = min(workers, spec.replicates)
    args = [spec] * spec.replicates, range(spec.replicates)
    if workers > 1:
        # imported here so that the serial path, and the CLI start-up, load no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate, *args))
    else:
        results = list(map(_run_replicate, *args))

    ok = [res for res in results if res is not None]
    failed = spec.replicates - len(ok)
    if failed > 0 and failed / spec.replicates >= 0.01:
        raise ScenarioError(
            f"{failed}/{spec.replicates} replicates failed chain initialization"
        )
    stacked = np.stack(ok)  # (reps_ok, n_priors, n_params, 3)
    names = _param_names(spec)
    truth = [float(spec.truth[k]) for k in names]
    labels = _prior_labels(spec.priors)
    table = MetricsTable(
        scenario=f"{spec.model}-n{spec.n}-seed{spec.seed}",
        replicates_used=len(ok),
        replicates_failed=failed,
    )
    for i, label in enumerate(labels):
        for j, name in enumerate(names):
            means = stacked[:, i, j, 0]
            lows = stacked[:, i, j, 1]
            highs = stacked[:, i, j, 2]
            table.rows.append(
                MetricsRow(
                    prior=label,
                    parameter=name,
                    rel_rmse=relative_rmse(means, truth[j]),
                    coverage=coverage(zip(lows, highs), truth[j]),
                    mean_width=float(np.mean(highs - lows)),
                )
            )
    return table


# ---------------------------------------------------------------------------
# scenario files


def scenario_to_json(spec: ScenarioSpec) -> str:
    doc = {f.name: getattr(spec, f.name) for f in fields(ScenarioSpec)}  # json writes a tuple preset as a list
    doc["priors"] = [p.to_dict() for p in spec.priors]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def scenario_from_json(text: str) -> ScenarioSpec:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("scenario file must hold a JSON object")
    known = tuple(f.name for f in fields(ScenarioSpec))
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"scenario file has unknown key {unknown[0]!r}; use {known}")
    for key in (f.name for f in fields(ScenarioSpec) if f.default is MISSING):
        if key not in doc:
            raise ValueError(f"scenario file is missing {key!r}")
    if not isinstance(doc["priors"], list):
        raise ValueError(f"scenario 'priors' must be a list, got {doc['priors']!r}")
    return ScenarioSpec(**dict(doc, priors=tuple(md.PriorSpec.from_dict(p) for p in doc["priors"])))
