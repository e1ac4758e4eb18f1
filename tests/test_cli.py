"""End-to-end tests of the command line interface (in-process)."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lomaxprior import cli, mcmc
from lomaxprior import experiments as ex
from lomaxprior import models as md


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# prior


def test_prior_grid_rows(tmp_path):
    out = tmp_path / "o"
    assert run_cli("prior", "--dim", "2", "--k", "1", "--a", "1", "--grid", "50", "--out", str(out)) == 0
    lines = (out / "prior_grid.csv").read_text().splitlines()
    assert lines[0] == "x,y,density"
    assert len(lines) == 2501


def test_prior_samples_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "prior", "--dim", "1", "--k", "1", "--a", "1",
            "--samples", "1000", "--seed", "7", "--out", str(out),
        ) == 0
    assert (a / "prior_samples.csv").read_text() == (b / "prior_samples.csv").read_text()


def test_prior_rejects_dim_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli("prior", "--dim", "0", "--grid", "10")
    assert exc.value.code == 2


def test_prior_needs_work(tmp_path):
    assert run_cli("prior", "--dim", "1", "--out", str(tmp_path)) == 1


def test_prior_folded_grid(tmp_path):
    out = tmp_path / "f"
    assert run_cli(
        "prior", "--dim", "1", "--folded", "1", "--grid", "21", "--xmax", "3", "--out", str(out),
    ) == 0
    body = np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1)
    assert body[0, 0] == -3.0 and body[-1, 0] == 3.0
    # symmetric density on the folded axis
    np.testing.assert_allclose(body[:, 1], body[::-1, 1], rtol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dim", "2", "--grid", "1001"],
        ["--dim", "1", "--grid", str(cli.MAX_GRID_POINTS + 1)],
        ["--dim", "2", "--folded", "1", "--grid", "5000", "--samples", "10"],
    ],
)
def test_prior_refuses_large_grid(tmp_path, capsys, monkeypatch, argv):
    def no_density(*args):
        raise AssertionError("a density was evaluated before the grid was refused")

    monkeypatch.setattr(cli.lx, "density", no_density)
    out = tmp_path / "o"
    assert run_cli("prior", *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--dim", "2", "--k", "1.5", "--a", "2", "--grid", "13"],
        ["--dim", "2", "--folded", "2", "--grid", "9", "--xmax", "4"],
        ["--dim", "1", "--grid", "17"],
    ],
)
def test_prior_grid_bytes(tmp_path, argv):
    """The streamed grid writes the rows a list of every (x, [y,] density) tuple gives."""
    out = tmp_path / "o"
    assert run_cli("prior", *argv, "--out", str(out)) == 0
    args = cli.build_parser().parse_args(["prior", *argv])
    folded = frozenset(int(t) for t in args.folded.split(",")) if args.folded else frozenset()
    spec = cli.lx.LomaxSpec(dim=args.dim, shape=args.k, scale=args.a, folded=folded)
    xmax = args.xmax or cli.lx.univariate_quantile(spec.shape, spec.scale, 0.95)
    axes = [
        np.linspace(-xmax, xmax, args.grid) if i + 1 in folded else np.linspace(xmax / args.grid, xmax, args.grid)
        for i in range(spec.dim)
    ]
    if spec.dim == 1:
        rows = [(float(x), cli.lx.density(spec, [x])) for x in axes[0]]
        header = ["x", "density"]
    else:
        rows = [(float(x), float(y), cli.lx.density(spec, [x, y])) for x in axes[0] for y in axes[1]]
        header = ["x", "y", "density"]
    mcmc.write_csv(tmp_path / "want.csv", header, rows)
    assert (out / "prior_grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# score-check


def test_score_check_lomax_passes(capsys):
    assert run_cli("score-check", "--field", "lomax", "--dim", "2", "--k", "1") == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_score_check_exponential(capsys):
    assert run_cli("score-check", "--field", "exponential", "--dim", "2", "--k", "1") == 0
    assert "NONZERO as expected" in capsys.readouterr().out


def test_score_check_rejects_even_k(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("score-check", "--field", "lomax", "--k", "2")
    assert exc.value.code == 2
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--points", str(10**9)],
        ["--dim", str(10**9), "--points", "1"],
        ["--dim", "2", "--points", str(cli.MAX_SAMPLE_VALUES // 2 + 1)],
    ],
    ids=["points", "dim", "just-above-cap"],
)
def test_score_check_refuses_large_grid(capsys, monkeypatch, argv):
    def no_grid(*args):
        raise AssertionError("a grid was built before its size was refused")

    monkeypatch.setattr(cli.sc, "default_grid", no_grid)
    assert run_cli("score-check", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"exceed {cli.MAX_SAMPLE_VALUES} values" in err


def test_score_check_grid_at_cap_is_built(monkeypatch):
    class Built(Exception):
        pass

    def grid_reached(dim, n_points):
        assert dim * n_points == cli.MAX_SAMPLE_VALUES
        raise Built

    monkeypatch.setattr(cli.sc, "default_grid", grid_reached)
    with pytest.raises(Built):
        run_cli("score-check", "--dim", "2", "--points", str(cli.MAX_SAMPLE_VALUES // 2))


# ---------------------------------------------------------------------------
# fit


def test_fit_builtin_weibull(tmp_path):
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--model", "weibull", "--prior", "lomax", "--data", "builtin:breakdown34kv",
        "--iterations", "4000", "--burn-in", "1000", "--thin", "5",
        "--seed", "3", "--out", str(out),
    ) == 0
    summaries = json.loads((out / "summaries.json").read_text())
    assert set(summaries) == {"scale", "shape"}
    # round trip: re-summarizing the draws reproduces the JSON exactly
    names, draws = mcmc.read_csv(out / "draws.csv")
    assert mcmc.summarize(draws, names) == summaries


def test_fit_linreg_csv(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(0, 3, size=(60, 2))
    y = 1.0 + 2.0 * X[:, 0] - 1.0 * X[:, 1] + rng.normal(0, 1.0, 60)
    data = tmp_path / "reg.csv"
    rows = ["x1,x2,y"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)
    ]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit"
    assert run_cli(
        "fit", "--model", "linreg", "--prior", "lomax", "--data", str(data),
        "--response", "y", "--iterations", "4000", "--burn-in", "1000", "--thin", "5",
        "--seed", "4", "--out", str(out),
    ) == 0
    summaries = json.loads((out / "summaries.json").read_text())
    assert set(summaries) == {"beta0", "beta1", "beta2", "sigma2"}
    assert summaries["beta1"]["median"] == pytest.approx(2.0, abs=0.3)


def test_fit_missing_data_file(tmp_path, capsys):
    assert run_cli(
        "fit", "--model", "weibull", "--data", str(tmp_path / "absent.csv"),
    ) == 1
    assert "error" in capsys.readouterr().err


def test_fit_prior_model_mismatch(tmp_path, capsys):
    assert run_cli(
        "fit", "--model", "weibull", "--prior", "zellner",
        "--data", "builtin:breakdown34kv", "--out", str(tmp_path),
    ) == 1
    err = capsys.readouterr().err
    assert err == "error: prior 'zellner-g' is not defined for the Weibull model\n"


@pytest.mark.parametrize(
    "schedule, match",
    [
        (["--iterations", "1000", "--burn-in", "950"], "at least 100 retained draws"),
        (["--iterations", "1000", "--burn-in", "-5"], "burn_in >= 0"),
        (["--burn-in", "20000"], "at least 100 retained draws"),
        (["--thin", "200"], "at least 100 retained draws"),
    ],
    ids=["few-draws", "negative-burn-in", "burn-in-whole-chain", "thin-too-coarse"],
)
def test_fit_rejects_short_schedule_before_chain(tmp_path, capsys, monkeypatch, schedule, match):
    def no_chain(*args):
        raise AssertionError("a chain ran before the schedule was rejected")

    monkeypatch.setattr(mcmc, "run_chain", no_chain)
    out = tmp_path / "fit"
    argv = ["fit", "--model", "weibull", "--data", "builtin:breakdown34kv", *schedule, "--out", str(out)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err
    assert not (out / "draws.csv").exists()


# ---------------------------------------------------------------------------
# simulate


def scenario_file(tmp_path, reps=2):
    spec = ex.ScenarioSpec(
        model="weibull",
        truth={"scale": 1.0, "shape": 1.0},
        n=15,
        replicates=reps,
        priors=(md.PriorSpec.lomax(2), md.PriorSpec.weibull_reference()),
        preset=(1200, 300, 5),
        seed=10,
    )
    path = tmp_path / "scenario.json"
    path.write_text(ex.scenario_to_json(spec))
    return path


def test_simulate_writes_metrics(tmp_path):
    path = scenario_file(tmp_path)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "scenario,prior,parameter,rel_rmse,coverage,mean_width"
    assert len(lines) == 5
    assert (out / "metrics.txt").exists()


def test_simulate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "weibull",\n  broken\n}')
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_simulate_missing_scenario_key(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path).read_text())
    del doc["n"]
    bad = tmp_path / "no_n.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "sim")) == 1
    err = capsys.readouterr().err
    assert err == "error: scenario file is missing 'n'\n"
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "change, match",
    [
        ({"n": None}, "'n' must be a number"),
        ({"truth": [1, 2]}, "truth must map"),
        ({"truth": {"scale": None, "shape": 1.0}}, "truth must map"),
        ({"priors": 5}, "'priors' must be a list"),
        ({"priors": ["lomax"]}, "JSON object"),
        ({"priors": [{"kind": "vague-gamma-product", "shapes": ["x", "x", "x"]}]}, "bad 'vague-gamma-product'"),
        ({"preset": [200, 100, 10]}, "at least 100 retained draws"),
        ({"covariate-sd": 1.0}, "unknown key 'covariate-sd'"),
        ({"priors": [{"kind": "lomax", "dim": 2, "shpae": 3.0}]}, "unknown key 'shpae'"),
        ({"n": 30.7}, "scenario 'n' must be a number (an integer), got 30.7"),
        ({"replicates": 2.5}, "scenario 'replicates' must be a number (an integer), got 2.5"),
        ({"replicates": True}, "scenario 'replicates' must be a number (an integer), got True"),
        ({"seed": 1.9}, "scenario 'seed' must be a number (an integer), got 1.9"),
        ({"covariate_sd": "3"}, "scenario 'covariate_sd' must be a number, got '3'"),
        ({"priors": [{"kind": "lomax", "dim": 2.5}]}, "bad 'lomax' prior: 'dim' must be a number (an integer)"),
        ({"priors": [{"kind": "lomax", "dim": 2, "folded": [1.7]}]}, "'folded' must be a number (an integer)"),
        ({"priors": [{"kind": "lomax", "dim": 2, "shape": "3"}]}, "'shape' must be a number, got '3'"),
        (
            {"priors": [{"kind": "weibull-reference"}, {"kind": "lomax", "dim": 2, "folded": [1, 2]}]},
            "the Weibull model needs a lomax prior of dimension 2 folded on [], got dimension 2 folded on [1, 2]",
        ),
        ({"truth": {"scale": 1, "shape": 1, "shap": 3}}, "are not the weibull parameters ['scale', 'shape']"),
        ({"truth": {"scale": 1}}, "truth keys ['scale'] are not the weibull parameters"),
        (
            {"model": "linreg", "truth": {"beta0": 1.0, "beta2": 2.0, "sigma2": 1.0}},
            "are not the linreg parameters ['beta0', 'beta1', 'sigma2']",
        ),
        (
            {"model": "linreg", "truth": {"beta0": 1.0, "beta1": 0.0, "sigma2": 1.0}},
            "truth 'beta1' must be finite and nonzero, got 0.0",
        ),
        ({"truth": {"scale": 1.0, "shape": float("inf")}}, "truth 'shape' must be finite and nonzero, got inf"),
        ({"truth": {"scale": float("nan"), "shape": 1.0}}, "truth 'scale' must be finite and nonzero, got nan"),
    ],
    ids=[
        "n-null", "truth-list", "truth-value-null", "priors-number", "prior-string", "gamma-shapes-strings",
        "preset-few-draws", "scenario-key-misspelt", "prior-key-misspelt", "n-fraction", "replicates-fraction",
        "replicates-bool", "seed-fraction", "covariate-sd-string", "dim-fraction", "folded-fraction",
        "shape-string", "folded-weibull", "truth-extra-key", "truth-missing-key", "truth-regression-gap",
        "truth-zero", "truth-infinite", "truth-nan",
    ],
)
def test_simulate_wrong_typed_scenario_key(tmp_path, capsys, monkeypatch, change, match):
    doc = json.loads((Path(__file__).parent.parent / "docs" / "scenario_weibull.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, **change}))

    def no_chain(*args):
        raise AssertionError("a chain ran before the scenario was rejected")

    monkeypatch.setattr(ex, "run_chain", no_chain)
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "sim")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("workers", ["-1", str(ex.MAX_WORKERS + 1), "5000"])
def test_simulate_refuses_worker_count(tmp_path, capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool or a chain started before the worker count was refused")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(ex, "run_chain", no_pool)
    path = scenario_file(tmp_path)
    assert run_cli("simulate", "--scenario", str(path), "--workers", workers, "--out", str(tmp_path / "sim")) == 1
    err = capsys.readouterr().err
    assert err == f"error: workers must be between 0 and {ex.MAX_WORKERS}, got {workers}\n"
    assert not (tmp_path / "sim").exists()


def test_simulate_missing_file(tmp_path):
    assert run_cli("simulate", "--scenario", str(tmp_path / "none.json"), "--out", str(tmp_path)) == 1


def simulate_metrics(tmp_path, label, doc):
    """metrics.csv bytes of ``simulate`` on the scenario ``doc``."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / label)) == 0
    return (tmp_path / label / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "flags, replicates, changes",
    [
        ([], 2, {}),
        (["--seed", "11"], 2, {"seed": 11}),
        (["--seed", "0"], 2, {"seed": 0}),
        (["--full-scale"], 2, {"preset": "full", "replicates": 250}),
        (["--full-scale"], 300, {"preset": "full"}),
        (["--full-scale", "--seed", "-3"], 7, {"preset": "full", "replicates": 250, "seed": -3}),
    ],
    ids=["none", "seed", "seed-zero", "full-scale", "full-scale-keeps-more-replicates", "both"],
)
def test_simulate_seed_and_full_scale_overrides(tmp_path, monkeypatch, flags, replicates, changes):
    path = scenario_file(tmp_path, reps=replicates)
    ran = []

    def run_scenario(spec, workers):  # records the spec instead of running 250 replicates
        ran.append(spec)
        return ex.MetricsTable()

    monkeypatch.setattr(cli.ex, "run_scenario", run_scenario)
    assert run_cli("simulate", "--scenario", str(path), *flags, "--out", str(tmp_path / "o")) == 0
    assert ran == [replace(ex.scenario_from_json(path.read_text()), **changes)]


@pytest.mark.parametrize("name", ["weibull", "dagum", "linreg"])
def test_simulate_derives_lomax_prior(tmp_path, name):
    """A scenario's {"kind": "lomax"} is the explicit prior of docs/: metrics.csv keeps every byte."""
    doc = json.loads((Path(__file__).parent.parent / "docs" / f"scenario_{name}.json").read_text())
    doc.update(replicates=2, preset=[1200, 200, 5])
    bare = [{"kind": "lomax"} if p["kind"] == "lomax" else p for p in doc["priors"]]
    assert bare != doc["priors"]
    assert simulate_metrics(tmp_path, "explicit", doc) == simulate_metrics(tmp_path, "derived", dict(doc, priors=bare))


@pytest.mark.parametrize("p", [1, 3])
def test_simulate_dimless_regression_prior(tmp_path, p):
    """One dim-less prior is LM(p + 2) with the p + 1 coefficients folded, for any covariate count p."""
    truth = {"beta0": 1.0, **{f"beta{j}": float(j) for j in range(1, p + 1)}, "sigma2": 1.0}
    doc = {"model": "linreg", "truth": truth, "n": 40, "replicates": 2, "preset": [1200, 200, 5]}
    explicit = {"kind": "lomax", "dim": p + 2, "shape": 2.0, "folded": list(range(1, p + 2))}
    derived = simulate_metrics(tmp_path, "derived", dict(doc, priors=[{"kind": "lomax", "shape": 2.0}]))
    assert derived == simulate_metrics(tmp_path, "explicit", dict(doc, priors=[explicit]))
    assert [row.split(",")[2] for row in derived.decode().splitlines()[1:]] == list(truth)


def _no_allocation(*args, **kwargs):
    raise AssertionError("the oversize input was not refused before the work began")


@pytest.mark.parametrize(
    "argv, patch, match",
    [
        (["prior", "--dim", "2", "--samples", str(10**12)], (cli.lx, "sample"), "exceed 10000000 values"),
        (
            ["fit", "--model", "weibull", "--data", "builtin:breakdown34kv", "--iterations", str(10**12),
             "--burn-in", "0", "--thin", "1"],
            (mcmc, "run_chain"),
            "keeps more than 10000000 draws",
        ),
        (["penalty", "--beta", "1", "--lambda", "0.5", "--n", str(10**6), "--reps", str(10**6)],
         (cli.pn, "mse_experiment"), "exceeds 10000000 noise draws"),
        (["simulate", {"replicates": 10**10}], (ex, "run_chain"), "need between 1 and 100000 replicates"),
        (["simulate", {"n": 10**12}], (ex, "run_chain"), "sample size must be between 2 and 1000000"),
    ],
    ids=["prior-samples", "fit-iterations", "penalty-n-reps", "simulate-replicates", "simulate-n"],
)
def test_oversize_inputs_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, patch, match):
    if argv[0] == "simulate":
        doc = json.loads((Path(__file__).parent.parent / "docs" / "scenario_weibull.json").read_text())
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**doc, **argv[1]}))
        argv = ["simulate", "--scenario", str(path)]
    monkeypatch.setattr(*patch, _no_allocation)
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err


XY_CSV = "x,y\n" + "".join(f"{i},{2 * i + (-1) ** i}\n" for i in range(10))  # a regression's data

# data files test_arithmetic_error_is_one_error_line reads: each lacks a data row or holds a non-finite value
BAD_DATA = {
    "EMPTY": "",
    "HEADER-ONLY": "x\n",
    "NAN": "x\n1.5\nnan\n2.5\n",
    "INF": "x\n1.5\ninf\n2.5\n",
    "XY-NAN": "x,y\n" + "".join(f"{i},{'nan' if i == 3 else 2 * i}\n" for i in range(10)),
}


@pytest.mark.filterwarnings("error")  # a numpy warning on the way to the error line fails the case
@pytest.mark.parametrize(
    "argv",
    [
        ["score-check", "--dim", "2", "--k", "1", "--a", "1e-300"],
        ["score-check", "--dim", "400", "--k", "1"],
        ["prior", "--dim", "2", "--k", "1", "--a", "1e-320", "--grid", "3", "--out", "OUT"],
        ["fit", "--model", "dagum", "--data", "builtin:breakdown34kv", "--prior-k", "1e120", "--prior-a", "1e300",
         "--out", "OUT"],
        ["simulate", "--scenario", "SCENARIO", "--out", "OUT"],
        ["fit", "--model", "weibull", "--data", "EMPTY", "--out", "OUT"],
        ["fit", "--model", "weibull", "--data", "HEADER-ONLY", "--out", "OUT"],
        ["fit", "--model", "weibull", "--data", "NAN", "--out", "OUT"],
        ["fit", "--model", "dagum", "--data", "INF", "--out", "OUT"],
        ["fit", "--model", "linreg", "--data", "XY-NAN", "--out", "OUT"],
    ],
    ids=[
        "score-check-tiny-a",
        "score-check-dim-400",
        "prior-tiny-a",
        "fit-huge-prior",
        "simulate-huge-prior",
        "fit-empty-data",
        "fit-header-only-data",
        "fit-nan-data",
        "fit-inf-data",
        "fit-linreg-nan-data",
    ],
)
def test_arithmetic_error_is_one_error_line(tmp_path, capsys, argv):
    spec = ex.ScenarioSpec(
        model="dagum",
        truth={"a": 2.0, "b": 1.0, "p": 1.0},
        n=15,
        replicates=2,
        priors=(md.PriorSpec.lomax(shape=1e120, scale=1e300),),
        preset=(1200, 300, 5),
    )
    scenario = tmp_path / "huge_prior.json"
    scenario.write_text(ex.scenario_to_json(spec))
    places = {"OUT": str(tmp_path / "out"), "SCENARIO": str(scenario)}
    for name, text in BAD_DATA.items():
        places[name] = str(tmp_path / f"{name.lower()}.csv")
        Path(places[name]).write_text(text)
    assert run_cli(*(places.get(a, a) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(places[a] in err for a in argv if a in BAD_DATA), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["prior", "--dim", "2", "--k", "1", "--a", "1e-320", "--grid", "3"], ["--k 1.0", "--a 1e-320"]),
        (["prior", "--dim", "1", "--k", "1", "--a", "1e-320", "--grid", "3", "--samples", "5"], ["--k 1.0", "--a 1e-320"]),
        # only the points nearest the origin overflow; a folded axis reaches them after other rows
        (["prior", "--dim", "1", "--k", "1", "--a", "1e-320", "--grid", "3", "--xmax", "1e-314"], ["--k", "--a"]),
        (["prior", "--dim", "1", "--folded", "1", "--a", "1e-320", "--grid", "3", "--xmax", "1e-314"], ["--k", "--a"]),
        # k(k+1)(k+2) overflows; the scale never leaves the float range in log space
        (["fit", "--model", "dagum", "--data", "builtin:breakdown34kv", "--prior-k", "1e120", "--prior-a", "1e300"],
         ["--prior-k", "shape 1e+120"]),
        # k(k+1)(k+2) / 4, with two folded coefficients, underflows to 0
        (["fit", "--model", "linreg", "--data", "DATA", "--prior-k", "5e-324", "--prior-a", "1e-300"],
         ["--prior-k", "shape 5e-324"]),
        (["simulate", "--scenario", "SCENARIO"], ["shape 1e+120"]),
        (["fit", "--model", "weibull", "--data", "builtin:breakdown34kv", "--prior-k", "1e200"], ["--prior-k", "shape 1e+200"]),
        (["fit", "--model", "dagum", "--data", "builtin:breakdown34kv", "--prior-k", "1e200"], ["--prior-k", "shape 1e+200"]),
        (["fit", "--model", "linreg", "--data", "DATA", "--prior-k", "1e200"], ["--prior-k", "shape 1e+200"]),
    ],
    ids=[
        "prior-tiny-a",
        "prior-grid-and-samples",
        "prior-overflow-near-origin",
        "prior-folded-overflow-at-origin",
        "fit-dagum-huge-prior",
        "fit-linreg-tiny-prior",
        "simulate-huge-prior",
        "fit-weibull-huge-shape",
        "fit-dagum-huge-shape",
        "fit-linreg-huge-shape",
    ],
)
def test_out_of_range_prior_names_its_inputs_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, names):
    spec = ex.ScenarioSpec(
        model="dagum",
        truth={"a": 2.0, "b": 1.0, "p": 1.0},
        n=15,
        replicates=2,
        priors=(md.PriorSpec.vague_gamma(), md.PriorSpec.lomax(shape=1e120, scale=1e300)),
        preset=(1200, 300, 5),
    )
    places = {"SCENARIO": tmp_path / "huge_prior.json", "DATA": tmp_path / "xy.csv"}
    places["SCENARIO"].write_text(ex.scenario_to_json(spec))
    places["DATA"].write_text(XY_CSV)
    monkeypatch.setattr(ex, "run_chain", _no_allocation)
    monkeypatch.setattr(mcmc, "run_chain", _no_allocation)
    out = tmp_path / "out"
    assert run_cli(*(str(places.get(a, a)) for a in argv), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err
    assert "--prior-a" not in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["weibull", "dagum", "linreg"])
def test_fit_takes_a_scale_whose_power_overflows(tmp_path, model):
    """a^k = 1e300^400 is beyond the floats, but its logarithm is not: every model runs the chain."""
    data = tmp_path / "xy.csv"
    data.write_text(XY_CSV)
    source = str(data) if model == "linreg" else "builtin:breakdown34kv"
    out = tmp_path / "out"
    assert run_cli(
        "fit", "--model", model, "--data", source, "--prior-k", "400", "--prior-a", "1e300",
        "--iterations", "1000", "--burn-in", "500", "--thin", "5", "--out", str(out),
    ) == 0
    assert (out / "summaries.json").exists()


def test_prior_grid_away_from_tiny_scale_is_written(tmp_path):
    # the density overflows near the origin only: a grid that keeps away from it is written
    out = tmp_path / "o"
    assert run_cli("prior", "--dim", "1", "--k", "1", "--a", "1e-200", "--grid", "3", "--xmax", "1", "--out", str(out)) == 0
    body = np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1)
    assert body.shape == (3, 2) and np.all(np.isfinite(body)) and np.all(body[:, 1] > 0)


@pytest.mark.parametrize(
    "flag, value", [("--prior-a", "inf"), ("--prior-k", "nan"), ("--prior-a", "1e309")], ids=["a-inf", "k-nan", "a-1e309"]
)
def test_fit_refuses_non_finite_prior_flag(tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(mcmc, "run_chain", _no_allocation)
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--model", "weibull", "--data", "builtin:breakdown34kv", flag, value, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"argument {flag}: expected a positive finite number, got {value}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "model, truth, prior, match",
    [
        ("linreg", {"beta0": 1.0, "beta1": 2.0, "sigma2": 1.0}, {"kind": "vague-normal-sigma", "c": math.nan},
         "bad 'vague-normal-sigma' prior: c must be > 0 and finite, got nan"),
        ("dagum", {"a": 2.0, "b": 1.0, "p": 1.0}, {"kind": "vague-gamma-product", "shapes": [math.nan, 1, 1]},
         "bad 'vague-gamma-product' prior: gamma shapes must be > 0 and finite"),
        ("weibull", {"scale": 1.0, "shape": 1.0}, {"kind": "lomax", "scale": math.inf},
         "bad 'lomax' prior: scale must be > 0 and finite, got inf"),
    ],
    ids=["linreg-c-nan", "dagum-gamma-shapes-nan", "weibull-lomax-scale-inf"],
)
def test_simulate_refuses_non_finite_prior_key(tmp_path, capsys, monkeypatch, model, truth, prior, match):
    doc = {"model": model, "truth": truth, "n": 15, "replicates": 4, "priors": [prior]}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity, which json.loads reads back
    monkeypatch.setattr(ex, "_draw_dataset", _no_allocation)
    assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# penalty


def test_penalty_rows(tmp_path, capsys):
    out = tmp_path / "p"
    assert run_cli(
        "penalty", "--beta", "2", "--beta", "0", "--lambda", "0.5",
        "--reps", "1000", "--seed", "1", "--out", str(out),
    ) == 0
    lines = (out / "penalty.csv").read_text().splitlines()
    assert lines[0] == "lambda,beta,mse_lasso,mse_logpenalty"
    assert len(lines) == 3
    row0 = lines[2].split(",")
    assert float(row0[2]) == 0.0 and float(row0[3]) == 0.0


def test_penalty_rejects_bad_lambda():
    with pytest.raises(SystemExit) as exc:
        run_cli("penalty", "--beta", "1", "--lambda", "-1")
    assert exc.value.code == 2


def test_penalty_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("penalty", "--beta", "1.5", "--lambda", "0.3", "--reps", "200", "--seed", "11", "--out", str(out))
    assert (a / "penalty.csv").read_text() == (b / "penalty.csv").read_text()


def test_quiet_flag(tmp_path, capsys):
    assert run_cli(
        "--quiet", "penalty", "--beta", "1", "--lambda", "0.5", "--reps", "100",
        "--out", str(tmp_path),
    ) == 0
    out = capsys.readouterr().out
    assert "penalty.csv" in out
    assert "M_L" not in out
