"""End-to-end tests of the command line interface (in-process)."""

import json

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
    names, draws = mcmc.read_draws_csv(out / "draws.csv")
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


def test_fit_prior_model_mismatch(tmp_path):
    assert run_cli(
        "fit", "--model", "weibull", "--prior", "zellner",
        "--data", "builtin:breakdown34kv", "--out", str(tmp_path),
    ) == 1


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


def test_simulate_missing_file(tmp_path):
    assert run_cli("simulate", "--scenario", str(tmp_path / "none.json"), "--out", str(tmp_path)) == 1


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
