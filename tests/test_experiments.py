"""Tests for the replication harness: metrics, determinism, datasets."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomaxprior import experiments as ex
from lomaxprior import models as md
from lomaxprior.mcmc import MIN_DRAWS, ChainInitError

SCENARIO_FILES = sorted((Path(__file__).parent.parent / "docs").glob("scenario_*.json"))

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


@pytest.mark.parametrize(
    "preset, match",
    [
        ("warp", "unknown preset"),
        ((2000, 500), r"\[iterations, burn_in, thin\]"),
        ((2000.0, 500, 5), r"\[iterations, burn_in, thin\]"),
        (("2000", 500, 5), r"\[iterations, burn_in, thin\]"),
        (5, r"\[iterations, burn_in, thin\]"),
        ((1200, True, 5), r"\[iterations, burn_in, thin\]"),
        ((200, 100, 10), "at least 100 retained draws"),
        ((1000, 1000, 1), "at least 100 retained draws"),
        ((1000, 2000, 1), "at least 100 retained draws"),
        ((2000, -1, 5), "burn_in >= 0"),
        ((2000, 500, 0), "thin >= 1"),
        ((2000, 500, -2), "thin >= 1"),
    ],
    ids=[
        "unknown-name", "two-values", "float", "string", "number", "bool", "few-draws",
        "burn-in-equals-iterations", "burn-in-exceeds-iterations", "negative-burn-in",
        "thin-zero", "thin-negative",
    ],
)
def test_scenario_rejects_bad_preset_on_construction(preset, match):
    with pytest.raises(ValueError, match=match):
        tiny_weibull_spec(preset=preset)


def test_scenario_rejects_bool_truth():
    # True is a numbers.Real, but like every other real key a truth value refuses it
    with pytest.raises(ValueError, match="truth must map parameter names to numbers"):
        tiny_weibull_spec(truth={"scale": True, "shape": 1.0})
    doc = json.loads(ex.scenario_to_json(tiny_weibull_spec()))
    doc["truth"]["shape"] = True
    with pytest.raises(ValueError, match="truth must map parameter names to numbers"):
        ex.scenario_from_json(json.dumps(doc))


def test_smallest_preset_is_accepted():
    assert tiny_weibull_spec(preset=[1100, 100, 10]).chain_dims() == (1100, 100, 10)


def test_scenario_from_json_missing_keys():
    doc = json.loads(ex.scenario_to_json(tiny_weibull_spec()))
    for key in ("model", "truth", "n", "replicates", "priors"):
        partial = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValueError, match=f"scenario file is missing '{key}'"):
            ex.scenario_from_json(json.dumps(partial))
    no_dim = dict(doc, priors=[{"kind": "lomax"}])
    assert ex.scenario_from_json(json.dumps(no_dim)).priors == (md.PriorSpec.lomax(),)
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


# one small scenario per model, with every prior the model defines
_WORKER_SCENARIOS = {
    "weibull": ({"scale": 1.0, "shape": 1.5}, (md.PriorSpec.lomax(), md.PriorSpec.weibull_reference())),
    "dagum": ({"a": 3.0, "b": 1.0, "p": 0.8}, (md.PriorSpec.lomax(), md.PriorSpec.vague_gamma())),
    "linreg": (
        {"beta0": 1.0, "beta1": -0.5, "sigma2": 2.0},
        (md.PriorSpec.lomax(), md.PriorSpec.vague_normal(), md.PriorSpec.zellner()),
    ),
}


def _outcome(spec, workers):
    """The scenario's table, or the error that ended it."""
    try:
        return ex.run_scenario(spec, workers)
    except ex.ScenarioError as exc:
        return repr(exc)


@pytest.mark.parametrize("model", md.MODELS)
@settings(max_examples=4, deadline=None, database=None)  # each example starts a pool of two processes
@given(replicates=st.integers(2, 3), seed=st.integers(0, 2**32))
def test_run_scenario_workers_match_serial_property(model, replicates, seed):
    truth, priors = _WORKER_SCENARIOS[model]
    spec = ex.ScenarioSpec(
        model=model, truth=truth, n=20, replicates=replicates, priors=priors, preset=(1100, 100, 10), seed=seed
    )
    assert _outcome(spec, 0) == _outcome(spec, 2)


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "replicates, workers, sizes",
    [(3, ex.MAX_WORKERS, [3]), (3, 2, [2]), (1, 8, []), (3, 1, []), (3, 0, [])],
    ids=["cap-at-replicates", "fewer-workers", "one-replicate-serial", "one-worker-serial", "serial"],
)
def test_pool_starts_no_more_workers_than_replicates(monkeypatch, replicates, workers, sizes):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    spec = tiny_weibull_spec(replicates=replicates, preset=(300, 100, 2))
    assert ex.run_scenario(spec, workers=workers) == ex.run_scenario(spec)
    assert _RecordingPool.sizes == sizes


def _run_chain_failing_on(spec, failing):
    """ex.run_chain, raising ChainInitError on the last prior's chain of each replicate in ``failing``."""
    replicate_of = {ex._chain_seed(spec.seed, r): r for r in range(spec.replicates)}
    calls = collections.Counter()
    run_chain = ex.run_chain

    def fake(target, config):
        r = replicate_of[config.seed]
        calls[r] += 1
        if r in failing and calls[r] % len(spec.priors) == 0:
            raise ChainInitError("log posterior not finite at initial point")
        return run_chain(target, config)

    return fake


def test_failed_replicate_below_cap_is_dropped(monkeypatch):
    spec = tiny_weibull_spec(replicates=101, n=10, preset=(100, 0, 1))
    kept = [ex._run_replicate(spec, r) for r in range(spec.replicates) if r != 37]
    monkeypatch.setattr(ex, "run_chain", _run_chain_failing_on(spec, {37}))
    assert ex._run_replicate(spec, 37) is None
    table = ex.run_scenario(spec)
    assert (table.replicates_used, table.replicates_failed) == (100, 1)
    # the aggregates are those of the 100 replicates that ran
    stacked = np.stack(kept)
    for i, label in enumerate(("lomax", "weibull-reference")):
        for j, name in enumerate(("scale", "shape")):
            row = table.get(label, name)
            assert row.rel_rmse == ex.relative_rmse(stacked[:, i, j, 0], 1.0)
            assert row.mean_width == float(np.mean(stacked[:, i, j, 2] - stacked[:, i, j, 1]))


@pytest.mark.parametrize(
    "replicates, failing", [(100, {5}), (200, {0, 199}), (3, {1})], ids=["1-of-100", "2-of-200", "1-of-3"]
)
def test_failed_replicates_at_cap_raise(monkeypatch, replicates, failing):
    spec = tiny_weibull_spec(replicates=replicates, n=10, preset=(100, 0, 1))
    monkeypatch.setattr(ex, "run_chain", _run_chain_failing_on(spec, failing))
    with pytest.raises(ex.ScenarioError, match=f"^{len(failing)}/{replicates} replicates failed chain initialization$"):
        ex.run_scenario(spec)


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


def test_metrics_csv_and_text(tmp_path):
    tab = ex.run_scenario(tiny_weibull_spec(replicates=2))
    tab.to_csv(tmp_path / "metrics.csv")
    csv = (tmp_path / "metrics.csv").read_text()
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


_PRIORS = (
    md.PriorSpec.lomax(),
    md.PriorSpec.lomax(shape=2.5, folded=()),
    md.PriorSpec.lomax(4, scale=0.5, folded={1, 2, 3}),
    md.PriorSpec.weibull_reference(),
    md.PriorSpec.vague_gamma(shapes=(0.1, 0.2, 0.3)),
    md.PriorSpec.vague_normal(c=10.0),
    md.PriorSpec.zellner(g=50.0),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _schedules(draw):
    """An [iterations, burn_in, thin] preset that keeps at least MIN_DRAWS draws."""
    burn_in, thin = draw(st.integers(0, 10**5)), draw(st.integers(1, 50))
    return burn_in + thin * draw(st.integers(MIN_DRAWS, 10**5)), burn_in, thin


@st.composite
def _scenarios(draw):
    model = draw(st.sampled_from(md.MODELS))
    names, supports = md.parameters(model, draw(st.integers(1, 3)))
    truths = {"real": _finite.filter(bool), "positive": _positive}
    return ex.ScenarioSpec(
        model=model,
        truth={name: draw(truths[support]) for name, support in zip(names, supports)},
        n=draw(st.integers(2, ex.MAX_SAMPLE_SIZE)),
        replicates=draw(st.integers(1, ex.MAX_REPLICATES)),
        priors=draw(st.lists(st.sampled_from(_PRIORS), min_size=1, max_size=3)),
        preset=draw(st.sampled_from(sorted(ex.CHAIN_PRESETS)) | _schedules()),
        seed=draw(st.integers(0, 2**63)),
        covariate_sd=draw(_positive),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(_scenarios())
def test_scenario_json_round_trip_property(spec):
    text = ex.scenario_to_json(spec)
    assert ex.scenario_from_json(text) == spec
    assert ex.scenario_to_json(ex.scenario_from_json(text)) == text


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_scenario_files_round_trip(path):
    text = path.read_text()
    assert ex.scenario_to_json(ex.scenario_from_json(text)) == text


def test_scenario_json_rejects_unknown_prior():
    with pytest.raises(ValueError):
        ex.scenario_from_json(
            '{"model": "weibull", "truth": {"scale": 1, "shape": 1}, "n": 10,'
            ' "replicates": 1, "priors": [{"kind": "flat"}]}'
        )


def test_truth_must_cover_parameters():
    with pytest.raises(ValueError, match=r"truth keys \['scale'\] are not the weibull parameters"):
        tiny_weibull_spec(truth={"scale": 1.0})
