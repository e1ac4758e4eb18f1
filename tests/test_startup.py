"""The command line tool runs without scipy and starts without a process pool; the Brent port replaces scipy exactly.

``models.weibull_mle`` solves the Weibull profile equation with
``models._brentq``, a port of scipy's C ``brentq``, so the library needs
numpy and the standard library only.  The port has to return the same bits
as scipy, or the chains started from the MLE would move.  scipy is a
dependency of the tests alone, as an oracle.  ``experiments`` imports the
process pool only when a scenario runs on more than one worker.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from lomaxprior import models as md

SRC = Path(md.__file__).resolve().parents[1]


def _profile_equations(count, seed):
    """(profile, lo, hi) exactly as weibull_mle brackets them, on generated samples."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(2, 200))
        shape = math.exp(rng.uniform(-2.5, 2.5))
        scale = math.exp(rng.uniform(-3.0, 3.0))
        x = md.weibull_sample(md.WeibullParams(scale, shape), n, rng)
        if np.all(x == x[0]):
            continue
        logx = np.log(x)
        mean_logx = float(np.mean(logx))

        def profile(be, x=x, logx=logx, mean_logx=mean_logx):
            w = x**be
            return float(np.sum(w * logx) / np.sum(w)) - 1.0 / be - mean_logx

        lo, hi = 1e-3, 2.0
        with np.errstate(all="ignore"):
            while profile(hi) <= 0:
                hi *= 2.0
            while profile(lo) >= 0:
                lo /= 2.0
        yield profile, lo, hi
        count -= 1


def _outcome(solver, *args, **kwargs):
    with np.errstate(all="ignore"):
        try:
            return solver(*args, **kwargs).hex()
        except (ValueError, RuntimeError) as exc:
            return type(exc).__name__


def test_brentq_port_matches_scipy_on_weibull_profiles():
    outcomes = set()
    for profile, lo, hi in _profile_equations(1200, seed=2302):
        want = _outcome(brentq, profile, lo, hi, xtol=1e-14, rtol=8.9e-16)
        got = _outcome(md._brentq, profile, lo, hi, xtol=1e-14, rtol=8.9e-16)
        assert got == want, (lo, hi)
        outcomes.add(want in ("ValueError", "RuntimeError"))
    assert False in outcomes  # most equations have a root


@pytest.mark.parametrize("xtol, rtol, maxiter", [(2e-12, 8.881784197001252e-16, 100), (1e-3, 1e-6, 8)])
def test_brentq_port_matches_scipy_on_cubics(xtol, rtol, maxiter):
    rng = np.random.default_rng(7)
    for _ in range(300):
        c = rng.normal(size=4)

        def f(t, c=c):
            return c[0] + c[1] * t + c[2] * t**3 + math.sin(c[3] * t)

        if math.copysign(1.0, f(-10.0)) == math.copysign(1.0, f(10.0)):
            continue
        want = _outcome(brentq, f, -10.0, 10.0, xtol=xtol, rtol=rtol, maxiter=maxiter)
        got = _outcome(md._brentq, f, -10.0, 10.0, xtol=xtol, rtol=rtol, maxiter=maxiter)
        assert got == want


def test_brentq_port_errors():
    with pytest.raises(ValueError, match="different signs"):
        md._brentq(lambda t: t * t + 1.0, -1.0, 1.0, 1e-12, 1e-15)
    with pytest.raises(ValueError, match="NaN"):
        md._brentq(lambda t: math.nan if t > 0 else -1.0, -1.0, 1.0, 1e-12, 1e-15)
    with pytest.raises(RuntimeError, match="converge"):
        md._brentq(lambda t: t**9 - 0.3, 0.0, 1.0, 1e-15, 1e-15, maxiter=3)
    assert md._brentq(lambda t: t, 0.0, 1.0, 1e-12, 1e-15) == 0.0


def _loaded_by_cli_import(*packages):
    """The modules of ``packages`` that a fresh interpreter holds after importing the CLI."""
    code = (
        "import sys, lomaxprior.cli\n"
        f"packages = {packages!r}\n"
        "print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in packages)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_fit_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: a vague-Gamma Dagum fit runs where it cannot be imported."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lomaxprior.cli import main\n"
        "sys.exit(main(['fit', '--model', 'dagum', '--prior', 'vague-gamma', '--data', 'builtin:breakdown34kv',"
        " '--iterations', '1000', '--burn-in', '500', '--thin', '5', '--out', sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "summaries.json").exists()


def test_cli_import_leaves_process_pool_unloaded():
    """Only ``simulate --workers`` above 1 needs a process pool; the CLI imports it there."""
    assert _loaded_by_cli_import("multiprocessing", "concurrent.futures.process") == "[]"


def test_fit_draws_do_not_follow_blas_threads(tmp_path):
    """The CLI runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise.

    OpenBLAS splits a ddot of more than 10^4 elements across its threads.
    On these 20,000 rows (data seed 0), a two-thread least-squares start
    differs in its last bits from a one-thread start, so on a multi-core host
    the chain's draws would follow the core count.  On a one-core host both
    runs are single-threaded and the test shows nothing.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20_000, 2))
    y = 1.0 + X @ [2.0, -1.0] + rng.normal(size=20_000)
    np.savetxt(tmp_path / "design.csv", np.column_stack([X, y]), delimiter=",", header="x1,x2,y", comments="")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    draws = []
    for threads in (None, "1"):
        out = tmp_path / f"out-{threads}"
        argv = [sys.executable, "-m", "lomaxprior.cli", "-q", "fit", "--model", "linreg", "--prior", "lomax",
                "--data", str(tmp_path / "design.csv"), "--response", "y",
                "--iterations", "200", "--burn-in", "100", "--thin", "1", "--out", str(out)]
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(argv, capture_output=True, text=True, env=run_env)
        assert done.returncode == 0, done.stderr
        draws.append((out / "draws.csv").read_bytes())
    assert draws[0] == draws[1]
