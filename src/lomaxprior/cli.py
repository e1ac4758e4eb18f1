"""Command line entry point.

Subcommands: prior (density grids / samples), score-check (grid suite for
the score identities), fit (single-dataset posterior), simulate (repeated
sample scenario from a JSON file), penalty (estimator MSE experiment).
All output is CSV/JSON under --out (default: $LOMAX_PRIOR_OUTDIR or the
working directory) and is deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from lomaxprior import experiments as ex
from lomaxprior import lomax as lx
from lomaxprior import mcmc
from lomaxprior import models as md
from lomaxprior import penalty as pn
from lomaxprior import score as sc

DEFAULT_SEED = 1729  # documented fixed default so reruns reproduce byte-identical output

# --prior spellings of fit, each naming a PriorSpec kind
PRIOR_ALIASES = {
    "lomax": "lomax",
    "reference": "weibull-reference",
    "vague-gamma": "vague-gamma-product",
    "vague-normal": "vague-normal-sigma",
    "zellner": "zellner-g",
}

MAX_GRID_POINTS = 10**6  # prior --grid cap: N**dim rows, one density call each
MAX_SAMPLE_VALUES = 10**7  # prior --samples and score-check --points cap: count * dim floats, 80 MB per array
SCORE_PASS_TOL = 1e-5
SCORE_SEPARATION_TOL = 1e-2


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _odd_int(text: str) -> int:
    value = int(text)
    if value <= 0 or value % 2 == 0:
        raise argparse.ArgumentTypeError(
            f"k must be an odd positive integer (the generator needs odd k), got {text}"
        )
    return value


def _outdir(args) -> Path:
    out = Path(args.out or os.environ.get("LOMAX_PRIOR_OUTDIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# prior


def cmd_prior(args) -> int:
    folded = frozenset(int(t) for t in args.folded.split(",") if t.strip()) if args.folded else frozenset()
    spec = lx.LomaxSpec(dim=args.dim, shape=args.k, scale=args.a, folded=folded)
    if args.grid and spec.dim > 2:
        raise ValueError("density grids are emitted for dim <= 2 only")
    if args.grid**spec.dim > MAX_GRID_POINTS:
        raise ValueError(
            f"a {args.grid}**{spec.dim} density grid exceeds {MAX_GRID_POINTS} points; use a smaller --grid"
        )
    if args.samples * spec.dim > MAX_SAMPLE_VALUES:
        raise ValueError(
            f"{args.samples} samples of dimension {spec.dim} exceed {MAX_SAMPLE_VALUES} values; use fewer --samples"
        )
    wrote = []
    if args.grid:
        xmax = args.xmax or lx.univariate_quantile(spec.shape, spec.scale, 0.95)
        axes = [
            np.linspace(-xmax, xmax, args.grid) if i in spec.folded else np.linspace(xmax / args.grid, xmax, args.grid)
            for i in range(1, spec.dim + 1)
        ]
        # the density falls as sum |x_i| grows: if it is a float where that sum is least, it is everywhere
        least = [float(axis[np.argmin(np.abs(axis))]) for axis in axes]
        try:
            peak = lx.density(spec, least)
        except (ArithmeticError, ValueError):
            peak = math.inf
        if not peak < math.inf:
            raise ValueError(f"--k {args.k} and --a {args.a} leave the density no finite float value at {least}")
        rows = ((*map(float, pt), lx.density(spec, pt)) for pt in itertools.product(*axes))
        path = _outdir(args) / "prior_grid.csv"
        mcmc.write_csv(path, ["x", "y"][: spec.dim] + ["density"], rows)
        wrote.append(path)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        draws = lx.sample(spec, rng, size=args.samples)
        path = _outdir(args) / "prior_samples.csv"
        mcmc.write_csv(path, [f"x{i+1}" for i in range(spec.dim)], draws)
        wrote.append(path)
    if not wrote:
        raise ValueError("nothing to do: pass --grid and/or --samples")
    for p in wrote:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# score-check


def cmd_score_check(args) -> int:
    if args.points * args.dim > MAX_SAMPLE_VALUES:
        raise ValueError(
            f"{args.points} points of dimension {args.dim} exceed {MAX_SAMPLE_VALUES} values; use fewer --points"
        )
    spec = sc.AlphaSpec(args.k, args.dim)
    if args.field == "lomax":
        field = sc.lomax_field(lx.LomaxSpec(args.dim, float(args.k), args.a))
    else:
        field = sc.exponential_field(args.dim)
    points = sc.default_grid(args.dim, args.points)
    values = sc.score_grid(spec, field, points)
    if not args.quiet:
        print(f"{'point':<30}{'score':>15}")
        for pt, v in zip(points, values):
            label = "(" + ", ".join(f"{c:.3f}" for c in pt) + ")"
            print(f"{label:<30}{v:>15.3e}")
    worst = float(np.max(np.abs(values)))
    smallest = float(np.min(np.abs(values)))
    if args.field == "lomax":
        print(f"max |score| = {worst:.3e} (tolerance {SCORE_PASS_TOL:.0e})")
        if worst < SCORE_PASS_TOL:
            print("PASS: score vanishes on the Lomax field")
            return 0
        print("FAIL: score does not vanish")
        return 1
    print(f"min |score| = {smallest:.3e} (separation bound {SCORE_SEPARATION_TOL:.0e})")
    if smallest > SCORE_SEPARATION_TOL:
        print("NONZERO as expected for a non-Lomax field")
        return 0
    print("FAIL: expected the score to separate this field")
    return 1


# ---------------------------------------------------------------------------
# fit


def _fit_inputs(args):
    builtin = args.data.startswith("builtin:")
    if args.model == "linreg":
        if builtin:
            raise ValueError("regression fits need a CSV with a response column")
        data = md.read_design_csv(args.data, args.response)
    elif builtin:
        data = ex.builtin_dataset(args.data.split(":", 1)[1])
    else:
        data = md.read_column_csv(args.data, args.column)
    prior = {"kind": PRIOR_ALIASES[args.prior]}
    if args.prior == "lomax":
        prior.update(shape=args.prior_k, scale=args.prior_a)
    try:
        return md.chain_inputs(args.model, md.PriorSpec.from_dict(prior), data)
    except md.PriorRangeError as exc:  # fit sets the prior's shape by --prior-k
        raise ValueError(f"--prior-k: {exc}") from None


def cmd_fit(args) -> int:
    iterations, burn_in, thin = (
        ex.CHAIN_PRESETS["full"] if args.full_scale else ex.CHAIN_PRESETS["desk"]
    )
    if args.iterations:
        iterations = args.iterations
    if args.burn_in is not None:
        burn_in = args.burn_in
    if args.thin:
        thin = args.thin
    mcmc.check_schedule(iterations, burn_in, thin)
    target, init, steps = _fit_inputs(args)
    config = mcmc.ChainConfig(
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        initial=init,
        steps=steps,
        seed=args.seed,
    )
    chain = mcmc.run_chain(target, config)
    out = _outdir(args)
    draws_path = out / "draws.csv"
    mcmc.chain_to_csv(chain, draws_path)
    summaries = mcmc.summarize(chain)
    summ_path = out / "summaries.json"
    mcmc.summaries_to_json(summaries, summ_path)
    print(draws_path)
    print(summ_path)
    if not args.quiet:
        for name, s in summaries.items():
            print(
                f"{name}: mean={s['mean']:.4g} median={s['median']:.4g} "
                f"var={s['variance']:.4g} ci95=({s['ci95'][0]:.4g}, {s['ci95'][1]:.4g})"
            )
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    try:
        spec = ex.scenario_from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"scenario file is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    overrides = {}
    if args.full_scale:
        overrides.update(preset="full", replicates=max(spec.replicates, 250))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = replace(spec, **overrides)
    table = ex.run_scenario(spec, workers=args.workers)
    out = _outdir(args)
    csv_path = out / "metrics.csv"
    table.to_csv(csv_path)
    txt_path = out / "metrics.txt"
    txt_path.write_text(table.to_text())
    print(csv_path)
    print(txt_path)
    if not args.quiet:
        print(table.to_text())
    return 0


# ---------------------------------------------------------------------------
# penalty


def cmd_penalty(args) -> int:
    rows = []
    for lam in args.lam:
        for beta in args.beta:
            ml, mn = pn.mse_experiment(
                pn.PenaltyExperimentConfig(
                    beta_true=beta, lam=lam, n=args.n, reps=args.reps, seed=args.seed
                )
            )
            rows.append((lam, beta, ml, mn))
    out = _outdir(args)
    path = out / "penalty.csv"
    mcmc.write_csv(path, ["lambda", "beta", "mse_lasso", "mse_logpenalty"], rows)
    print(path)
    if not args.quiet:
        for lam, beta, ml, mn in rows:
            print(f"lambda={lam} beta={beta}: M_L={ml:.4f} M_N={mn:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lomax-prior",
        description="Multivariate Lomax objective prior tools",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print output paths only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prior", help="evaluate or sample the prior density")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--a", type=_positive_float, default=1.0)
    p.add_argument("--folded", default="", help="comma separated 1-based indices")
    p.add_argument("--grid", type=_positive_int, default=0, help="grid points per axis (dim <= 2)")
    p.add_argument("--samples", type=_positive_int, default=0)
    p.add_argument("--xmax", type=_positive_float, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("score-check", help="score identities over a grid")
    p.add_argument("--field", choices=("lomax", "exponential"), default="lomax")
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--k", type=_odd_int, default=1)
    p.add_argument("--a", type=_positive_float, default=1.0)
    p.add_argument("--points", type=_positive_int, default=20)
    p.set_defaults(func=cmd_score_check)

    p = sub.add_parser("fit", help="posterior for one dataset")
    p.add_argument("--model", choices=md.MODELS, required=True)
    p.add_argument("--prior", choices=tuple(PRIOR_ALIASES), default="lomax")
    p.add_argument("--data", required=True, help="CSV path or builtin:<name>")
    p.add_argument("--column", default=None, help="data column for vector CSVs")
    p.add_argument("--response", default="y", help="response column for linreg")
    p.add_argument("--prior-k", type=_positive_float, default=1.0)
    p.add_argument("--prior-a", type=_positive_float, default=1.0)
    p.add_argument("--iterations", type=_positive_int, default=0)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=_positive_int, default=0)
    p.add_argument("--full-scale", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="repeated-sample scenario from JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--full-scale", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("penalty", help="estimator MSE experiment")
    p.add_argument("--beta", type=float, action="append", required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_float, action="append", required=True)
    p.add_argument("--n", type=_positive_int, default=100)
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_penalty)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
