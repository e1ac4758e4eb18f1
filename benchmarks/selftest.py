"""Self-tests of the benchmark: its oracles, its checks and its assumptions.

    python3 benchmarks/selftest.py        # from the repository root, ~30 s

Each oracle is tested on a case whose answer is known by another route;
each output check is shown to pass on real CLI output and to fail on a
perturbed copy; the determinism the benchmark relies on (same seed, any
worker count, same bytes) is checked on the CLI itself.  The file name
keeps these tests out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np
from scipy import stats

import checks
import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lomaxprior.cli", "-q", *map(str, argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"CLI failed: {proc.stderr}")


class Scratch(unittest.TestCase):
    def setUp(self):
        (HERE / "_runs").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "_runs"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# oracles on known answers


class GridQuadrature(unittest.TestCase):
    def test_gamma_product_2d(self):
        # Gamma(3, rate 2) x Gamma(5, rate 1): means 1.5, 5 and variances 0.75, 5
        means, variances = oracles.grid_moments(
            lambda a, b: stats.gamma.logpdf(a, 3, scale=0.5) + stats.gamma.logpdf(b, 5),
            (-20.0, -12.0), (6.0, 6.0), (True, True),
        )
        np.testing.assert_allclose(means, [1.5, 5.0], rtol=1e-9)
        np.testing.assert_allclose(variances, [0.75, 5.0], rtol=1e-8)

    def test_mixed_3d(self):
        # N(1, 2^2) on the real line x Gamma(2, rate 4) x Gamma(7, rate 3)
        means, variances = oracles.grid_moments(
            lambda x, a, b: stats.norm.logpdf(x, 1.0, 2.0)
            + stats.gamma.logpdf(a, 2, scale=0.25)
            + stats.gamma.logpdf(b, 7, scale=1 / 3),
            (-40.0, -25.0, -10.0), (40.0, 5.0, 5.0), (False, True, True), nodes=(64, 120),
        )
        np.testing.assert_allclose(means, [1.0, 0.5, 7 / 3], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(variances, [4.0, 0.125, 7 / 9], rtol=1e-7)

    def test_mass_on_the_edge_is_refused(self):
        with self.assertRaises(oracles.OracleError):
            oracles.grid_moments(
                lambda a, b: stats.gamma.logpdf(a, 3) + stats.gamma.logpdf(b, 3),
                (-1.0, -1.0), (6.0, 6.0), (True, True),
            )


class Likelihoods(unittest.TestCase):
    data = workloads.BREAKDOWN_34KV

    def test_weibull_matches_scipy(self):
        for theta, beta in [(12.2, 0.77), (3.0, 2.5)]:
            want = stats.weibull_min.logpdf(self.data, beta, scale=theta).sum()
            self.assertAlmostEqual(float(oracles.weibull_loglik(self.data, theta, beta)), want, places=9)

    def test_dagum_matches_scipy_burr(self):
        # Dagum(a, b, p) is scipy's Burr III with c=a, d=p, scale=b
        for a, b, p in [(1.0, 2.6, 1.9), (3.0, 0.5, 0.4)]:
            want = stats.burr.logpdf(self.data, a, p, scale=b).sum()
            self.assertAlmostEqual(float(oracles.dagum_loglik(self.data, a, b, p)), want, places=9)

    def test_weibull_posterior_grid_converged(self):
        coarse = oracles.grid_moments(
            lambda t, b: oracles.weibull_loglik(self.data, t, b) + oracles.lomax_log_prior(t, b),
            (-25.0, -5.0), (30.0, 5.0), (True, True), nodes=(200, 400),
        )
        np.testing.assert_allclose(oracles.weibull_posterior(self.data, "lomax")[0], coarse[0], rtol=1e-7)


class Regression(unittest.TestCase):
    rng = np.random.default_rng(11)
    X = rng.normal(0.0, 1.5, size=(40, 1))
    y = 2.0 - 1.5 * X[:, 0] + rng.normal(0.0, 0.8, 40)

    def _grid(self, log_prior):
        x, y = self.X[:, 0], self.y
        ols = np.polyfit(x, y, 1)[::-1]

        def log_post(b0, b1, s2):
            r2 = sum((yi - b0 - b1 * xi) ** 2 for xi, yi in zip(x, y))
            return -0.5 * x.size * np.log(s2) - r2 / (2 * s2) + log_prior(b0, b1, s2)

        return oracles.grid_moments(log_post, (ols[0] - 40, ols[1] - 40, -8.0), (ols[0] + 40, ols[1] + 40, 14.0),
                                    (False, False, True), nodes=(96, 160))

    def test_zellner_closed_form_matches_quadrature(self):
        g = 5.0
        xc = self.X[:, 0] - self.X[:, 0].mean()
        xtx = float(xc @ xc)
        want = self._grid(lambda b0, b1, s2: -np.log(s2) - 0.5 * np.log(s2 * g) - b1**2 * xtx / (2 * s2 * g))
        got = oracles.zellner_posterior(self.X, self.y, g)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-7)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-6)

    def test_zellner_slopes_shrink_ols(self):
        g = 500.0
        full = np.column_stack([np.ones(40), self.X])
        ols = np.linalg.lstsq(full, self.y, rcond=None)[0]
        means, _ = oracles.zellner_posterior(self.X, self.y, g)
        self.assertAlmostEqual(means[1], g / (1 + g) * ols[1], places=12)

    def test_vague_normal_matches_quadrature(self):
        c = 10.0
        want = self._grid(lambda b0, b1, s2: -np.log(s2) - (b0**2 + b1**2) / (2 * c))
        got = oracles.vague_normal_posterior(self.X, self.y, c)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-7)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-6)


class EffectiveSampleSize(unittest.TestCase):
    def test_iid(self):
        x = np.random.default_rng(1).standard_normal(20000)
        self.assertAlmostEqual(oracles.ess(x) / x.size, 1.0, delta=0.1)

    def test_ar1(self):
        # AR(1) with phi = 0.5: ESS / n = (1 - phi) / (1 + phi) = 1/3
        rng = np.random.default_rng(2)
        e = rng.standard_normal(200000)
        x = np.empty_like(e)
        x[0] = e[0]
        for t in range(1, e.size):
            x[t] = 0.5 * x[t - 1] + e[t]
        self.assertAlmostEqual(oracles.ess(x) / x.size, 1 / 3, delta=0.02)


# ---------------------------------------------------------------------------
# checks pass on real output and fail on perturbed output


def _rewrite_draws(out: Path, transform):
    header, draws = checks.read_draws(out / "draws.csv")
    draws = transform(draws)
    with open(out / "draws.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in draws:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class FitCheck(Scratch):
    def setUp(self):
        super().setUp()
        self.out = self.tmp / "fit"
        run_cli("fit", "--model", "weibull", "--prior", "lomax", "--data", "builtin:breakdown34kv",
                "--iterations", 20000, "--burn-in", 2000, "--thin", 10, "--seed", 5, "--out", self.out)
        self.oracle = lambda: oracles.weibull_posterior(workloads.BREAKDOWN_34KV, "lomax")

    def problems(self):
        return checks.check_fit(self.out, ("scale", "shape"), 1800, self.oracle)

    def test_passes_on_cli_output(self):
        self.assertEqual(self.problems(), [])

    def test_shifted_draws_fail_the_oracle(self):
        _rewrite_draws(self.out, lambda d: d * np.array([1.15, 1.0]))
        self.assertTrue(any("MCSE" in p for p in self.problems()))

    def test_missing_row_fails(self):
        _rewrite_draws(self.out, lambda d: d[:-1])
        self.assertTrue(any("rows" in p for p in self.problems()))

    def test_summary_disagreeing_with_draws_fails(self):
        _edit_json(self.out / "summaries.json", lambda d: d["shape"].update(median=d["shape"]["median"] * 1.001))
        self.assertTrue(any("shape.median" in p for p in self.problems()))


class SimulateCheck(Scratch):
    def _run(self, base, reps):
        scenario = dict(base, replicates=reps, seed=9)
        path = self.tmp / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = self.tmp / "out"
        run_cli("simulate", "--scenario", path, "--out", out)
        return scenario, out

    def _edit_row(self, out, prior, parameter, field, value):
        path = out / "metrics.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[1] == prior and cells[2] == parameter:
                cells[header.index(field)] = value(float(cells[header.index(field)]))
                lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_weibull(self):
        scenario, out = self._run(workloads.WEIBULL_SCENARIO, 2)
        self.assertEqual(checks.check_simulate(out, scenario), [])
        cases = [
            ("rel_rmse", lambda v: repr(v + 0.1), "rel_rmse"),
            ("coverage", lambda v: "0.3", "coverage"),
            ("mean_width", lambda v: "0.0", "width"),
        ]
        for field, value, expect in cases:
            with self.subTest(field=field):
                work = self.tmp / f"bad-{field}"
                shutil.copytree(out, work)
                self._edit_row(work, "weibull-reference", "shape", field, value)
                self.assertTrue(any(expect in p for p in checks.check_simulate(work, scenario)))
        lines = (out / "metrics.csv").read_text().splitlines()
        (out / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")
        self.assertTrue(any("rows" in p for p in checks.check_simulate(out, scenario)))

    def test_linreg(self):
        scenario, out = self._run(workloads.LINREG_SCENARIO, 2)
        self.assertEqual(checks.check_simulate(out, scenario), [])
        for prior in ("zellner-g", "vague-normal-sigma"):
            with self.subTest(prior=prior):
                work = self.tmp / f"bad-{prior}"
                shutil.copytree(out, work)
                self._edit_row(work, prior, "beta1", "rel_rmse", lambda v: repr(v + 0.01))
                self.assertTrue(any(prior in p for p in checks.check_simulate(work, scenario)))


# ---------------------------------------------------------------------------
# determinism and the trace's evaluation count


class Determinism(Scratch):
    def test_same_seed_same_draws(self):
        outs = [self.tmp / "a", self.tmp / "b"]
        for out in outs:
            run_cli("fit", "--model", "dagum", "--prior", "lomax", "--data", "builtin:breakdown34kv",
                    "--iterations", 3000, "--burn-in", 500, "--thin", 5, "--seed", 77, "--out", out)
        self.assertEqual((outs[0] / "draws.csv").read_bytes(), (outs[1] / "draws.csv").read_bytes())

    def test_workers_do_not_change_metrics(self):
        scenario = dict(workloads.LINREG_SCENARIO, replicates=4, seed=3, preset=[3000, 1000, 10])
        path = self.tmp / "scenario.json"
        path.write_text(json.dumps(scenario))
        for workers in (0, 2):
            run_cli("simulate", "--scenario", path, "--workers", workers, "--out", self.tmp / f"w{workers}")
        self.assertEqual((self.tmp / "w0" / "metrics.csv").read_bytes(),
                         (self.tmp / "w2" / "metrics.csv").read_bytes())


class TracedEvaluations(Scratch):
    def test_one_chain_counts_iterations_times_dim_plus_one(self):
        sys.path.insert(0, str(SRC))
        import tracer
        from lomaxprior import mcmc, models

        tr = tracer.Tracer(self.tmp)
        tr.install()
        try:
            data = workloads.BREAKDOWN_34KV
            target = models.dagum_target(data, models.PriorSpec.lomax(3))
            config = mcmc.ChainConfig(1234, 234, 5, models.dagum_init(data), np.full(3, 0.3), seed=1)
            mcmc.run_chain(target, config)
        finally:
            tr.uninstall()
        (chain,) = tracer.named(tr.collect(), "mcmc.run_chain")
        self.assertEqual(chain["evals"], 1234 * 3 + 1)


class BareCheckout(Scratch):
    def test_fails_without_the_program(self):
        shutil.copytree(HERE, self.tmp / "benchmarks", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "fit-full", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
