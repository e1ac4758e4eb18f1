"""Checks of the CLI's outputs against the benchmark's own computations.

Each check returns a list of problems; an empty list means the output is
correct.  Monte Carlo tolerances are multiples of the standard error of a
posterior mean, sd / sqrt(ESS).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

# |chain mean - exact mean| / MCSE for one fit: 5 keeps a false alarm below
# ~1e-6 per parameter even with an ESS estimate that is somewhat optimistic
Z_FIT = 5.0
# (iterations, burn_in, thin) of the program's documented presets
PRESETS = {"desk": (20_000, 5_000, 10), "full": (100_000, 10_000, 50)}
# simulate outputs carry no draws, so their MCSE assumes an ESS of this share
# of the retained draws; desk chains on the workloads' scenarios measured
# ESS between 0.63 and 1.1 times their 1500 draws (Geyer, 96 chains)
ESS_SHARE_FLOOR = 1.0 / 3.0
# |rel_rmse - exact| is bounded by ||MC errors|| / (sqrt(R) |truth|); 3 times
# its expected size leaves P(chi2_R > 9R) as the false-alarm rate
Z_SIM = 3.0
SUMMARY_RTOL = 1e-9


def _close(a, b, rtol=SUMMARY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def read_draws(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), np.array([[float(v) for v in row] for row in rows[1:]])


def check_fit(out: Path, names, rows: int, oracle) -> list:
    """draws.csv shape, summaries.json against draws.csv, means against ``oracle()``."""
    problems = []
    try:
        header, draws = read_draws(out / "draws.csv")
        summaries = json.loads((out / "summaries.json").read_text())
    except (OSError, ValueError, IndexError) as exc:
        return [f"{out.name}: unreadable output: {exc}"]
    if header != tuple(names):
        problems.append(f"{out.name}: draws.csv header {header} != {tuple(names)}")
        return problems
    if draws.shape != (rows, len(names)):
        problems.append(f"{out.name}: draws.csv holds {draws.shape[0]} rows, expected {rows}")
        return problems
    for j, name in enumerate(names):
        col = draws[:, j]
        lo, hi = np.percentile(col, [2.5, 97.5])
        want = {
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "variance": float(col.var(ddof=1)),
        }
        got = summaries.get(name, {})
        for key, value in want.items():
            if not _close(got.get(key, math.nan), value):
                problems.append(f"{out.name}: summaries {name}.{key}={got.get(key)} but draws give {value}")
        ci = got.get("ci95", [math.nan, math.nan])
        if not (_close(ci[0], lo) and _close(ci[1], hi)):
            problems.append(f"{out.name}: summaries {name}.ci95={ci} but draws give {[lo, hi]}")
    exact, _ = oracle()
    for j, name in enumerate(names):
        mcse = oracles.mcse_of_mean(draws[:, j])
        err = abs(draws[:, j].mean() - exact[j])
        if not err <= Z_FIT * mcse:
            problems.append(
                f"{out.name}: posterior mean of {name} {draws[:, j].mean():.6g} is "
                f"{err / mcse:.1f} MCSE from the exact {exact[j]:.6g}"
            )
    return problems


# ---------------------------------------------------------------------------
# simulate


def _param_names(scenario: dict):
    if scenario["model"] == "weibull":
        return ("scale", "shape")
    coefs = sorted(k for k in scenario["truth"] if k.startswith("beta"))
    return (*coefs, "sigma2")


def replicate_moments(scenario: dict, prior: dict, replicate: int):
    """Exact posterior (means, variances) on one replicate's dataset, or None."""
    seed, n, truth = scenario["seed"], scenario["n"], scenario["truth"]
    kind = prior["kind"]
    if scenario["model"] == "weibull":
        data = oracles.weibull_dataset(seed, replicate, n, truth["scale"], truth["shape"])
        if kind == "lomax":
            return oracles.weibull_posterior(data, kind, prior.get("shape", 1.0), prior.get("scale", 1.0))
        return oracles.weibull_posterior(data, kind)
    if scenario["model"] == "linreg" and kind in ("zellner-g", "vague-normal-sigma"):
        names = _param_names(scenario)
        coefs = tuple(truth[k] for k in names[:-1])
        X, y = oracles.linreg_dataset(seed, replicate, n, coefs, truth["sigma2"], scenario["covariate_sd"])
        if kind == "zellner-g":
            return oracles.zellner_posterior(X, y, prior["g"])
        return oracles.vague_normal_posterior(X, y, prior["c"])
    return None


def check_simulate(out: Path, scenario: dict) -> list:
    """metrics.csv rows, coverage, widths and |rel_rmse| against exact posteriors."""
    try:
        with open(out / "metrics.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"unreadable metrics.csv: {exc}"]
    reps = scenario["replicates"]
    preset = scenario["preset"]
    iterations, burn_in, thin = PRESETS[preset] if isinstance(preset, str) else preset
    ess_floor = ESS_SHARE_FLOOR * ((iterations - burn_in) // thin)
    names = _param_names(scenario)
    priors = {p["kind"]: p for p in scenario["priors"]}
    label = f"{scenario['model']}-n{scenario['n']}-seed{scenario['seed']}"
    problems = []
    try:
        rows = {(r["prior"], r["parameter"]): r for r in table}
        values = {
            key: {f: float(r[f]) for f in ("rel_rmse", "coverage", "mean_width")}
            for key, r in rows.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed metrics.csv: {exc}"]
    want = {(p, name) for p in priors for name in names}
    if set(rows) != want or len(table) != len(want):
        problems.append(f"metrics.csv rows {sorted(rows)} != {sorted(want)}")
        return problems
    for key, r in rows.items():
        v = values[key]
        if r["scenario"] != label:
            problems.append(f"{key}: scenario {r['scenario']!r} != {label!r}")
        hits = v["coverage"] * reps
        if not (0.0 <= v["coverage"] <= 1.0 and abs(hits - round(hits)) < 1e-9):
            problems.append(f"{key}: coverage {v['coverage']} is not a multiple of 1/{reps} in [0, 1]")
        if not (math.isfinite(v["mean_width"]) and v["mean_width"] > 0):
            problems.append(f"{key}: mean width {v['mean_width']} is not > 0")
    for kind, prior in priors.items():
        moments = [replicate_moments(scenario, prior, r) for r in range(reps)]
        if moments[0] is None:
            continue
        means = np.array([m for m, _ in moments])
        variances = np.array([v for _, v in moments])
        for j, name in enumerate(names):
            truth = scenario["truth"][name]
            exact = math.sqrt(np.mean((means[:, j] - truth) ** 2)) / abs(truth)
            tol = Z_SIM * math.sqrt(variances[:, j].sum() / ess_floor / reps) / abs(truth)
            got = abs(values[(kind, name)]["rel_rmse"])
            if not abs(got - exact) <= tol + 1e-12:
                problems.append(
                    f"({kind}, {name}): |rel_rmse| {got:.6g} vs exact {exact:.6g}, tolerance {tol:.3g}"
                )
    return problems
