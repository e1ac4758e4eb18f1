"""Tests for the replication harness: metrics, determinism, datasets."""

import json

import numpy as np
import pytest

from lomaxprior import experiments as ex
from lomaxprior import models as md


def tiny_weibull_spec(**overrides):
    base = dict(
        model="weibull",
        truth={"scale": 1.0, "shape": 1.0},
        n=20,
        replicates=3,
        priors=(md.PriorSpec.lomax(2), md.PriorSpec.weibull_reference()),
        preset=(1500, 400, 5),
        seed=7,
    )
    base.update(overrides)
    return ex.ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# metrics


def test_relative_rmse_values():
    assert ex.relative_rmse([1.0, 1.0, 1.0], 1.0) == 0.0
    assert ex.relative_rmse([0.0, 2.0], 1.0) == pytest.approx(1.0, rel=1e-14)
    assert ex.relative_rmse([1.1, 0.9], 1.0) == pytest.approx(0.1, rel=1e-12)
    # a negative truth scales by its magnitude: the error is still positive
    assert ex.relative_rmse([-2.2, -1.8], -2.0) == pytest.approx(0.1, rel=1e-12)
    assert ex.relative_rmse([-3.0, -1.0], -2.0) == ex.relative_rmse([3.0, 1.0], 2.0)
    with pytest.raises(ValueError):
        ex.relative_rmse([1.0], 0.0)
    with pytest.raises(ValueError):
        ex.relative_rmse([], 1.0)


def test_coverage_values():
    assert ex.coverage([(0.0, 2.0), (0.5, 1.5)], 1.0) == 1.0
    assert ex.coverage([(2.0, 3.0), (4.0, 5.0)], 1.0) == 0.0
    intervals = [(0.0, 2.0)] * 19 + [(5.0, 6.0)]
    assert ex.coverage(intervals, 1.0) == pytest.approx(0.95)
    # closed endpoints count
    assert ex.coverage([(1.0, 2.0)], 1.0) == 1.0
    with pytest.raises(ValueError):
        ex.coverage([(2.0, 1.0)], 1.5)
    with pytest.raises(ValueError):
        ex.coverage([], 1.0)


# ---------------------------------------------------------------------------
# builtin data


def test_builtin_dataset():
    data = ex.builtin_dataset("breakdown34kv")
    assert data.size == 19
    assert data.max() == 72.89
    assert data.min() == 0.19
    with pytest.raises(ValueError):
        ex.builtin_dataset("nope")


def test_builtin_dataset_returns_copy():
    a = ex.builtin_dataset("breakdown34kv")
    a[0] = -1
    assert ex.builtin_dataset("breakdown34kv")[0] == 0.96


# ---------------------------------------------------------------------------
# scenario plumbing


def test_scenario_validation():
    with pytest.raises(ValueError):
        tiny_weibull_spec(model="cauchy")
    with pytest.raises(ValueError):
        tiny_weibull_spec(replicates=0)
    with pytest.raises(ValueError):
        tiny_weibull_spec(priors=())
    with pytest.raises(ValueError):
        tiny_weibull_spec(preset="warp").chain_dims()
    assert tiny_weibull_spec(preset="desk").chain_dims() == (20_000, 5_000, 10)
    assert tiny_weibull_spec(preset="full").chain_dims() == (100_000, 10_000, 50)


def test_scenario_from_json_missing_keys():
    doc = json.loads(ex.scenario_to_json(tiny_weibull_spec()))
    for key in ("model", "truth", "n", "replicates", "priors"):
        partial = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValueError, match=f"scenario file is missing '{key}'"):
            ex.scenario_from_json(json.dumps(partial))
    no_dim = dict(doc, priors=[{"kind": "lomax"}])
    with pytest.raises(ValueError, match="missing 'dim'"):
        ex.scenario_from_json(json.dumps(no_dim))
    with pytest.raises(ValueError, match="JSON object"):
        ex.scenario_from_json("[1, 2]")


def test_chain_seed_injective():
    seeds = {ex._chain_seed(3, r) for r in range(500)}
    assert len(seeds) == 500
    # chain streams are distinct from the data streams of the same replicate
    data_seeds = {
        int(np.random.SeedSequence(3, spawn_key=(r,)).generate_state(1, np.uint64)[0])
        for r in range(500)
    }
    assert not seeds & data_seeds


def test_run_scenario_deterministic():
    spec = tiny_weibull_spec()
    t1 = ex.run_scenario(spec)
    t2 = ex.run_scenario(spec)
    assert t1 == t2


def test_run_scenario_workers_match_serial():
    spec = tiny_weibull_spec(replicates=4)
    serial = ex.run_scenario(spec)
    parallel = ex.run_scenario(spec, workers=2)
    assert serial == parallel


def test_run_scenario_single_replicate_coverage_degenerate():
    tab = ex.run_scenario(tiny_weibull_spec(replicates=1))
    assert tab.replicates_used == 1
    for row in tab.rows:
        assert row.coverage in (0.0, 1.0)


def test_run_scenario_table_shape():
    tab = ex.run_scenario(tiny_weibull_spec())
    assert len(tab.rows) == 4  # 2 priors x 2 parameters
    assert {row.prior for row in tab.rows} == {"lomax", "weibull-reference"}
    assert {row.parameter for row in tab.rows} == {"scale", "shape"}
    row = tab.get("lomax", "scale")
    assert row.rel_rmse >= 0
    assert 0.0 <= row.coverage <= 1.0
    with pytest.raises(KeyError):
        tab.get("lomax", "lifetime")


def test_run_scenario_dagum_and_linreg_smoke():
    dag = ex.ScenarioSpec(
        model="dagum",
        truth={"a": 2.1, "b": 1.0, "p": 1.0},
        n=25,
        replicates=2,
        priors=(md.PriorSpec.vague_gamma(),),
        preset=(1500, 400, 5),
        seed=3,
    )
    tab = ex.run_scenario(dag)
    assert {row.parameter for row in tab.rows} == {"a", "b", "p"}

    reg = ex.ScenarioSpec(
        model="linreg",
        truth={"beta0": 2.0, "beta1": 1.0, "beta2": -1.0, "sigma2": 1.0},
        n=40,
        replicates=2,
        priors=(
            md.PriorSpec.lomax(4, folded={1, 2, 3}),
            md.PriorSpec.zellner(),
        ),
        preset=(1500, 400, 5),
        seed=4,
    )
    tab = ex.run_scenario(reg)
    assert {row.parameter for row in tab.rows} == {"beta0", "beta1", "beta2", "sigma2"}
    # with n=40 the posterior means are near truth for every prior
    for row in tab.rows:
        assert row.rel_rmse == pytest.approx(0.0, abs=0.6)


def test_metrics_csv_and_text():
    tab = ex.run_scenario(tiny_weibull_spec(replicates=2))
    csv = tab.to_csv()
    assert csv.splitlines()[0] == "scenario,prior,parameter,rel_rmse,coverage,mean_width"
    assert len(csv.splitlines()) == 5
    assert "np.float" not in csv  # plain repr floats only
    # every numeric cell parses back
    for line in csv.splitlines()[1:]:
        cells = line.split(",")
        [float(c) for c in cells[3:]]
    text = tab.to_text()
    assert "weibull-reference" in text
    assert text.startswith("scenario: weibull-n20-seed7")


def test_scenario_json_round_trip():
    spec = ex.ScenarioSpec(
        model="linreg",
        truth={"beta0": 20.0, "beta1": 5.0, "beta2": -3.0, "sigma2": 2.0},
        n=100,
        replicates=10,
        priors=(
            md.PriorSpec.lomax(4, folded={1, 2, 3}),
            md.PriorSpec.vague_normal(c=1e6),
            md.PriorSpec.zellner(g=500.0),
            md.PriorSpec.vague_gamma(),
        ),
        preset="full",
        seed=11,
    )
    assert ex.scenario_from_json(ex.scenario_to_json(spec)) == spec
    explicit = tiny_weibull_spec(preset=(900, 100, 2))
    assert ex.scenario_from_json(ex.scenario_to_json(explicit)) == explicit


def test_scenario_json_rejects_unknown_prior():
    with pytest.raises(ValueError):
        ex.scenario_from_json(
            '{"model": "weibull", "truth": {"scale": 1, "shape": 1}, "n": 10,'
            ' "replicates": 1, "priors": [{"kind": "flat"}]}'
        )


def test_truth_must_cover_parameters():
    spec = tiny_weibull_spec(truth={"scale": 1.0})
    with pytest.raises(ValueError):
        ex.run_scenario(spec)
