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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from lomaxprior import models as md
from lomaxprior.mcmc import ChainConfig, ChainInitError, run_chain, summarize

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

CHAIN_PRESETS = {
    "desk": (20_000, 5_000, 10),
    "full": (100_000, 10_000, 50),
}

MODELS = ("weibull", "dagum", "linreg")

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
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; use one of {MODELS}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n < 2:
            raise ValueError("sample size must be >= 2")
        object.__setattr__(self, "priors", tuple(self.priors))
        object.__setattr__(self, "truth", dict(self.truth))
        if not self.priors:
            raise ValueError("need at least one prior to compare")

    def chain_dims(self) -> tuple[int, int, int]:
        if isinstance(self.preset, str):
            try:
                return CHAIN_PRESETS[self.preset]
            except KeyError:
                raise ValueError(
                    f"unknown preset {self.preset!r}; use one of {sorted(CHAIN_PRESETS)}"
                ) from None
        it, burn, thin = self.preset
        return int(it), int(burn), int(thin)


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

    def to_csv(self) -> str:
        lines = ["scenario,prior,parameter,rel_rmse,coverage,mean_width"]
        for r in self.rows:
            lines.append(
                f"{self.scenario},{r.prior},{r.parameter},"
                f"{r.rel_rmse!r},{r.coverage!r},{r.mean_width!r}"
            )
        return "\n".join(lines) + "\n"

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
        base = p.label
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return labels


def _param_names(spec: ScenarioSpec) -> tuple[str, ...]:
    if spec.model == "weibull":
        return ("scale", "shape")
    if spec.model == "dagum":
        return ("a", "b", "p")
    n_coef = len([k for k in spec.truth if k.startswith("beta")])
    return tuple(f"beta{j}" for j in range(n_coef)) + ("sigma2",)


def _truth_vector(spec: ScenarioSpec) -> np.ndarray:
    names = _param_names(spec)
    missing = [k for k in names if k not in spec.truth]
    if missing:
        raise ValueError(f"truth is missing {missing}")
    return np.array([float(spec.truth[k]) for k in names])


def _draw_dataset(spec: ScenarioSpec, rng: np.random.Generator):
    truth = _truth_vector(spec)
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


def _build_chain_inputs(spec: ScenarioSpec, prior, dataset):
    """Target, initial point, and proposal steps for one (prior, dataset)."""
    if spec.model == "weibull":
        target = md.weibull_target(dataset, prior)
        init = md.weibull_init(dataset)
        steps = np.array([0.3, 0.3])
    elif spec.model == "dagum":
        target = md.dagum_target(dataset, prior)
        init = md.dagum_init(dataset)
        steps = np.array([0.3, 0.3, 0.3])
    else:
        X, y = dataset
        if prior.kind == "zellner-g" and prior.design is None:
            prior = prior.with_design(X)
        target = md.linreg_target(X, y, prior)
        ls = md.least_squares_init(X, y)
        init = ls.as_vector()
        full = np.column_stack([np.ones(X.shape[0]), X])
        se = np.sqrt(ls.variance * np.diag(np.linalg.inv(full.T @ full)))
        steps = np.append(2.4 * np.maximum(se, 1e-6), 0.35)
    return target, init, steps


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
    for prior_index, prior in enumerate(spec.priors):
        target, init, steps = _build_chain_inputs(spec, prior, dataset)
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
    results = [None] * spec.replicates
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, res in enumerate(
                pool.map(_run_replicate, [spec] * spec.replicates, range(spec.replicates))
            ):
                results[r] = res
    else:
        for r in range(spec.replicates):
            results[r] = _run_replicate(spec, r)

    ok = [res for res in results if res is not None]
    failed = spec.replicates - len(ok)
    if failed > 0 and failed / spec.replicates >= 0.01:
        raise ScenarioError(
            f"{failed}/{spec.replicates} replicates failed chain initialization"
        )
    stacked = np.stack(ok)  # (reps_ok, n_priors, n_params, 3)
    truth = _truth_vector(spec)
    names = _param_names(spec)
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


def _prior_to_dict(prior: md.PriorSpec) -> dict:
    out = {"kind": prior.kind}
    if prior.kind == "lomax":
        spec = prior.lomax_spec
        out.update(
            dim=spec.dim, shape=spec.shape, scale=spec.scale, folded=sorted(spec.folded)
        )
    elif prior.kind == "vague-gamma-product":
        out.update(shapes=list(prior.gamma_shapes), rates=list(prior.gamma_rates))
    elif prior.kind == "vague-normal-sigma":
        out.update(c=prior.c)
    elif prior.kind == "zellner-g":
        out.update(g=prior.g)
    return out


def _prior_from_dict(d: dict) -> md.PriorSpec:
    kind = d.get("kind")
    if kind == "lomax":
        if "dim" not in d:
            raise ValueError("lomax prior in scenario file is missing 'dim'")
        return md.PriorSpec.lomax(
            dim=int(d["dim"]),
            shape=float(d.get("shape", 1.0)),
            scale=float(d.get("scale", 1.0)),
            folded=frozenset(int(i) for i in d.get("folded", [])),
        )
    if kind == "weibull-reference":
        return md.PriorSpec.weibull_reference()
    if kind == "vague-gamma-product":
        shapes = d.get("shapes", [0.01] * 3)
        rates = d.get("rates", [0.01] * 3)
        return md.PriorSpec(
            kind=kind, gamma_shapes=tuple(shapes), gamma_rates=tuple(rates)
        )
    if kind == "vague-normal-sigma":
        return md.PriorSpec.vague_normal(c=float(d.get("c", 1e6)))
    if kind == "zellner-g":
        return md.PriorSpec.zellner(g=float(d.get("g", 500.0)))
    raise ValueError(f"unknown prior kind {kind!r} in scenario file")


def scenario_to_json(spec: ScenarioSpec) -> str:
    doc = {
        "model": spec.model,
        "truth": spec.truth,
        "n": spec.n,
        "replicates": spec.replicates,
        "priors": [_prior_to_dict(p) for p in spec.priors],
        "preset": list(spec.preset) if isinstance(spec.preset, tuple) else spec.preset,
        "seed": spec.seed,
        "covariate_sd": spec.covariate_sd,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def scenario_from_json(text: str) -> ScenarioSpec:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("scenario file must hold a JSON object")
    for key in ("model", "truth", "n", "replicates", "priors"):
        if key not in doc:
            raise ValueError(f"scenario file is missing {key!r}")
    preset = doc.get("preset", "desk")
    if isinstance(preset, list):
        preset = tuple(preset)
    return ScenarioSpec(
        model=doc["model"],
        truth=doc["truth"],
        n=int(doc["n"]),
        replicates=int(doc["replicates"]),
        priors=tuple(_prior_from_dict(p) for p in doc["priors"]),
        preset=preset,
        seed=int(doc.get("seed", 0)),
        covariate_sd=float(doc.get("covariate_sd", 3.0)),
    )
