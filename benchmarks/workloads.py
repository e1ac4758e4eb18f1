"""The benchmark's workloads: generated inputs, CLI commands and their checks.

A workload is a list of CLI operations that make up one round.  Every round
gets its own seed, derived from the run's ``--seed`` and the round index, so
the same seed always produces the same inputs.  The program only ever sees
files written here: a scenario JSON, a design CSV, or the built-in dataset
name.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracles

# 19 times to breakdown (minutes) of an insulating fluid at 34 kV (Nelson 1982)
BREAKDOWN_34KV = np.array(
    [0.96, 4.15, 0.19, 0.78, 8.01, 31.75, 7.35, 6.50, 8.27, 33.91,
     32.52, 3.16, 4.85, 2.78, 4.67, 1.31, 12.06, 36.71, 72.89]
)

# the g the CLI's `--prior zellner` uses (PriorSpec.zellner's documented default)
CLI_ZELLNER_G = 500.0

# docs/scenario_weibull.json and docs/scenario_linreg.json as of this
# benchmark's creation, kept here so the workload stays fixed if docs change
WEIBULL_SCENARIO = {
    "model": "weibull",
    "truth": {"scale": 1.0, "shape": 1.0},
    "n": 30,
    "priors": [
        {"kind": "lomax", "dim": 2, "shape": 1.0, "scale": 1.0, "folded": []},
        {"kind": "weibull-reference"},
    ],
    "preset": "desk",
    "covariate_sd": 3.0,
}
LINREG_SCENARIO = {
    "model": "linreg",
    "truth": {"beta0": 20.0, "beta1": 5.0, "beta2": -3.0, "sigma2": 2.0},
    "n": 100,
    "priors": [
        {"kind": "lomax", "dim": 4, "shape": 1.0, "scale": 1.0, "folded": [1, 2, 3]},
        {"kind": "vague-normal-sigma", "c": 1000000.0},
        {"kind": "zellner-g", "g": 500.0},
    ],
    "preset": "desk",
    "covariate_sd": 1.0,
}
PARAM_NAMES = {
    "weibull": ("scale", "shape"),
    "dagum": ("a", "b", "p"),
    "linreg": ("beta0", "beta1", "beta2", "sigma2"),
}

# replicates per simulate operation: enough for a few seconds of chains, so
# several operations fit in one run and the reported medians are steady
SIMULATE_REPLICATES = 4
FIT_LINREG_N = 2000


@dataclass
class Op:
    """One CLI command of a round and how to judge its outputs."""

    argv: list  # arguments after `python -m lomaxprior.cli -q`
    out: Path
    sweeps: int  # Metropolis-within-Gibbs sweeps: iterations x chains
    evals: int  # log-posterior evaluations: sum over chains of iterations x dim + 1
    parse: str  # Python statement that parses this operation's input
    check: Callable[[Path], list]  # returns the problems found in `out`


def round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# simulate workloads


def _simulate_round(base: dict, workers: int, round_dir: Path, seed: int) -> list:
    scenario = dict(base, replicates=SIMULATE_REPLICATES, seed=seed)
    path = round_dir / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n")
    out = round_dir / "out"
    iterations = checks.PRESETS[scenario["preset"]][0]
    chains = scenario["replicates"] * len(scenario["priors"])
    dim = len(PARAM_NAMES[scenario["model"]])
    return [
        Op(
            argv=["simulate", "--scenario", str(path), "--workers", str(workers), "--out", str(out)],
            out=out,
            sweeps=chains * iterations,
            evals=chains * (iterations * dim + 1),
            parse=f"ex.scenario_from_json(open({str(path)!r}).read())",
            check=functools.partial(checks.check_simulate, scenario=scenario),
        )
    ]


# ---------------------------------------------------------------------------
# fit-full


@functools.cache
def _builtin_oracle(model: str):
    if model == "weibull":
        return oracles.weibull_posterior(BREAKDOWN_34KV, "lomax")
    return oracles.dagum_posterior(BREAKDOWN_34KV)


def fit_linreg_data(seed: int):
    return oracles.linreg_dataset(seed, 0, FIT_LINREG_N, (20.0, 5.0, -3.0), 2.0, 1.0)


def _fit_round(round_dir: Path, seed: int) -> list:
    X, y = fit_linreg_data(seed)
    csv = round_dir / "design.csv"
    with open(csv, "w") as fh:
        fh.write("x1,x2,y\n")
        for (x1, x2), yi in zip(X.tolist(), y.tolist()):
            fh.write(f"{x1!r},{x2!r},{yi!r}\n")
    iterations, burn_in, thin = checks.PRESETS["full"]
    rows = (iterations - burn_in) // thin
    cases = [
        ("weibull", "lomax", "builtin:breakdown34kv", functools.partial(_builtin_oracle, "weibull")),
        ("dagum", "lomax", "builtin:breakdown34kv", functools.partial(_builtin_oracle, "dagum")),
        ("linreg", "zellner", str(csv), lambda: oracles.zellner_posterior(X, y, CLI_ZELLNER_G)),
    ]
    ops = []
    for model, prior, data, oracle in cases:
        out = round_dir / f"{model}-{prior}"
        argv = ["fit", "--model", model, "--prior", prior, "--data", data,
                "--full-scale", "--seed", str(seed), "--out", str(out)]
        if model == "linreg":
            argv += ["--response", "y"]
            parse = f"md.read_design_csv({data!r}, 'y')"
        else:
            parse = "ex.builtin_dataset('breakdown34kv')"
        dim = len(PARAM_NAMES[model])
        ops.append(
            Op(
                argv=argv,
                out=out,
                sweeps=iterations,
                evals=iterations * dim + 1,
                parse=parse,
                check=functools.partial(
                    checks.check_fit, names=PARAM_NAMES[model], rows=rows, oracle=oracle
                ),
            )
        )
    return ops


WORKLOADS = {
    "simulate-weibull": functools.partial(_simulate_round, WEIBULL_SCENARIO, 0),
    "simulate-linreg-w2": functools.partial(_simulate_round, LINREG_SCENARIO, 2),
    "fit-full": _fit_round,
}


def probe_inputs(workload: str, seed: int) -> dict:
    """Per-model data for the traced run's layer probes.

    A model the workload runs is probed on the workload's own round-0 data;
    any other on the data another workload would give it for the same seed.
    """
    s0 = round_seed(seed, 0)
    if workload == "fit-full":
        return {"weibull": BREAKDOWN_34KV, "dagum": BREAKDOWN_34KV, "linreg": fit_linreg_data(s0)}
    w, t = WEIBULL_SCENARIO["truth"], LINREG_SCENARIO["truth"]
    return {
        "weibull": oracles.weibull_dataset(s0, 0, WEIBULL_SCENARIO["n"], w["scale"], w["shape"]),
        "dagum": BREAKDOWN_34KV,
        "linreg": oracles.linreg_dataset(
            s0, 0, LINREG_SCENARIO["n"], (t["beta0"], t["beta1"], t["beta2"]), t["sigma2"],
            LINREG_SCENARIO["covariate_sd"],
        ),
    }
