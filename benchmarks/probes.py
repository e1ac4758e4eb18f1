"""Direct timings of single layers, outside any CLI command.

Every traced run reports every per-layer metric.  The log-posterior,
target-building and Lomax-density figures always come from here; the
chain-writing and scenario figures come from here only on workloads whose
commands never reach that layer (see README.md).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from lomaxprior import experiments as ex
from lomaxprior import lomax as lx
from lomaxprior import mcmc
from lomaxprior import models as md

REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Median over REPEATS batches of the seconds one call takes."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def _targets(inputs: dict):
    """(label, target, point) for every model x prior the workloads use."""
    w, d = inputs["weibull"], inputs["dagum"]
    X, y = inputs["linreg"]
    w0, d0 = md.weibull_init(w), md.dagum_init(d)
    l0 = md.least_squares_init(X, y).as_vector()
    p = X.shape[1]
    return [
        ("weibull-lomax", md.weibull_target(w, md.PriorSpec.lomax(2)), w0),
        ("weibull-weibull-reference", md.weibull_target(w, md.PriorSpec.weibull_reference()), w0),
        ("dagum-lomax", md.dagum_target(d, md.PriorSpec.lomax(3)), d0),
        ("linreg-lomax", md.linreg_target(X, y, md.PriorSpec.lomax(p + 2, folded=range(1, p + 2))), l0),
        ("linreg-vague-normal-sigma", md.linreg_target(X, y, md.PriorSpec.vague_normal()), l0),
        ("linreg-zellner-g", md.linreg_target(X, y, md.PriorSpec.zellner(design=X)), l0),
    ]


def layer_zero(inputs: dict) -> dict:
    out = {}
    for label, target, point in _targets(inputs):
        out[f"models.log_post_us.{label}"] = 1e6 * _per_call(lambda: target.log_post(point), 2000)
    w, d = inputs["weibull"], inputs["dagum"]
    X, y = inputs["linreg"]
    builds = {
        "weibull": lambda: (md.weibull_target(w, md.PriorSpec.lomax(2)), md.weibull_init(w)),
        "dagum": lambda: (md.dagum_target(d, md.PriorSpec.lomax(3)), md.dagum_init(d)),
        "linreg": lambda: (
            md.linreg_target(X, y, md.PriorSpec.zellner(design=X)),
            md.least_squares_init(X, y),
        ),
    }
    for model, build in builds.items():
        out[f"models.target_build_ms.{model}"] = 1e3 * _per_call(build, 20)
    densities = {
        "2": (lx.LomaxSpec(2), np.array([0.5, 1.5])),
        "3": (lx.LomaxSpec(3), np.array([0.5, 1.5, 2.0])),
        "4-folded": (lx.LomaxSpec(4, folded=frozenset({1, 2, 3})), np.array([-0.5, 1.5, -2.0, 0.7])),
    }
    for label, (spec, x) in densities.items():
        out[f"lomax.log_density_us.{label}"] = 1e6 * _per_call(lambda: lx.log_density(spec, x), 5000)
    return out


def chain_to_csv_ms(kept: int, dim: int, path: Path) -> float:
    """Writing a chain of the workload's shape, for workloads that write none."""
    rng = np.random.default_rng(0)
    names = tuple(f"x{j}" for j in range(dim))
    chain = mcmc.ChainOutput(rng.standard_normal((kept, dim)), np.zeros(dim), np.ones(dim), names)
    return 1e3 * _per_call(lambda: mcmc.chain_to_csv(chain, path), 1)


# a scenario small enough to add well under a second to a traced run
PROBE_SCENARIO = {
    "model": "weibull",
    "truth": {"scale": 1.0, "shape": 1.0},
    "n": 30,
    "replicates": 2,
    "priors": [{"kind": "lomax", "dim": 2}, {"kind": "weibull-reference"}],
    "preset": [4000, 1000, 10],
}


def run_probe_scenario(seed: int):
    """Run PROBE_SCENARIO through the (possibly traced) public entry point."""
    spec = ex.scenario_from_json(json.dumps(dict(PROBE_SCENARIO, seed=seed)))
    return ex.run_scenario(spec, workers=0)
