"""Layered benchmark of the lomax-prior CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: simulate-weibull,
simulate-linreg-w2, fit-full (see README.md).  A run generates its inputs
from --seed, then repeats whole rounds of the workload's CLI commands until
--seconds have passed (at least one round), and checks every output against
the benchmark's own computations.

--trace 0 runs each command as `python -m lomaxprior.cli` in a fresh process
and reports the end-to-end metrics.  --trace 1 calls `lomaxprior.cli.main`
in this process with timing wrappers around the public functions of each
module, and reports the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 3


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_process(argv, deadline: float):
    """(returncode, stderr) of a child that is killed, with its group, at the deadline."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -signal.SIGKILL, "timed out"
    return proc.returncode, err.decode(errors="replace")


def time_setup(ops, deadline: float) -> float:
    """Cold set-up: a fresh interpreter imports the CLI and parses the round's inputs."""
    code = "\n".join(
        ["import lomaxprior.cli", "from lomaxprior import experiments as ex, models as md"]
        + [op.parse for op in ops]
    )
    t0 = perf_counter()
    rc, err = _run_process([sys.executable, "-c", code], deadline)
    elapsed = perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_rounds(workload: str, seed: int, seconds: float, run_dir: Path, execute):
    """Whole rounds until ``seconds`` have passed; returns [(ops, [result per op])]."""
    import workloads

    make_round = workloads.WORKLOADS[workload]
    rounds = []
    start = perf_counter()
    k = 0
    while not rounds or perf_counter() - start < seconds:
        round_dir = run_dir / f"round-{k}"
        round_dir.mkdir()
        ops = make_round(round_dir, workloads.round_seed(seed, k))
        rounds.append((ops, [execute(k, i, op) for i, op in enumerate(ops)]))
        k += 1
    return rounds


def check_rounds(rounds):
    """(attempted, failed, problems): an operation fails on a non-zero exit or a failed check."""
    attempted = failed = 0
    problems = []
    for ops, results in rounds:
        for op, res in zip(ops, results):
            attempted += 1
            found = [f"exit {res['rc']}: {res['err'][-500:]}"] if res["rc"] != 0 else op.check(op.out)
            if found:
                failed += 1
                problems += [f"{' '.join(op.argv[:3])}: {p}" for p in found]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# --trace 0: end-to-end


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path, deadline: float):
    import speed

    with speed.Speedometer() as meter:
        return _end_to_end(workload, seed, seconds, run_dir, deadline, meter)


def _end_to_end(workload, seed, seconds, run_dir, deadline, meter):
    import speed
    import workloads

    setup_dir = run_dir / "setup"
    setup_dir.mkdir()
    setup_ops = workloads.WORKLOADS[workload](setup_dir, workloads.round_seed(seed, 0))
    # the calibration loop runs before and after the set-ups and after every
    # command, and each timed span is scaled by the speed measured on its sides
    before = meter.measure()
    setups = [time_setup(setup_ops, deadline) for _ in range(SETUP_SAMPLES)]
    after = [meter.measure()]

    def scaled(elapsed, j, prev, nxt):  # measured seconds -> reference seconds
        return elapsed * speed.REFERENCE_S / (0.5 * (prev[j] + nxt[j]))

    def execute(k, i, op):
        cpu0, t0 = _children_cpu(), perf_counter()
        rc, err = _run_process([sys.executable, "-m", "lomaxprior.cli", "-q", *op.argv], deadline)
        wall, cpu = perf_counter() - t0, _children_cpu() - cpu0
        prev = after[-1]
        after.append(meter.measure())
        return {"rc": rc, "err": err, "raw": wall,
                "wall": scaled(wall, 0, prev, after[-1]), "cpu": scaled(cpu, 1, prev, after[-1])}

    rounds = run_rounds(workload, seed, seconds, run_dir, execute)
    # setup_s is the first, cold set-up; one set-up varies by tens of percent,
    # so the per-command start-up taken out of sweeps_per_s is a median
    setup_s = scaled(setups[0], 0, before, after[0])
    startup_s = scaled(statistics.median(setups), 0, before, after[0])
    walls = [sum(r["wall"] for r in results) for _, results in rounds]
    cpus = [sum(r["cpu"] for r in results) for _, results in rounds]
    rates = [
        sum(op.sweeps for op in ops) / (wall - len(ops) * startup_s)
        for (ops, _), wall in zip(rounds, walls)
    ]
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "sweeps_per_s": (statistics.median(rates), "sweeps/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    raw = {
        "measured round walls (s)": [sum(r["raw"] for r in results) for _, results in rounds],
        "measured set-ups (s)": setups,
        "calibration loop walls (s)": [before[0]] + [c[0] for c in after],
    }
    return rounds, metrics, [], raw


# ---------------------------------------------------------------------------
# --trace 1: per-layer


def per_layer(workload: str, seed: int, seconds: float, run_dir: Path, import_s: float):
    import probes
    import tracer
    import workloads
    from lomaxprior import cli

    span_dir = run_dir / "spans"
    span_dir.mkdir()
    tr = tracer.Tracer(span_dir)
    per_round = {}  # round index -> spans of its operations
    problems = []

    def execute(k, i, op):
        tr.op = f"{k}.{i}"
        t0 = perf_counter()
        rc, err = 1, ""
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(["-q", *op.argv])
        except SystemExit as exc:
            rc, err = exc.code, "argument error"
        except Exception:  # a crash is a failed operation, reported with its traceback
            err = traceback.format_exc()
        tr.emit("cli.main", t0, perf_counter())
        per_round.setdefault(k, []).extend(tr.collect())
        return {"rc": rc, "err": err}

    tr.install()
    try:
        rounds = run_rounds(workload, seed, seconds, run_dir, execute)
        n_rounds = len(rounds)
        for k, (ops, _) in enumerate(rounds):
            evals = sum(c["evals"] for c in tracer.named(per_round[k], "mcmc.run_chain"))
            want = sum(op.evals for op in ops)
            if evals != want:
                problems.append(f"round {k}: {evals} log-posterior evaluations, configs give {want}")
        spans = [s for k in sorted(per_round) for s in per_round[k]]
        chains = tracer.named(spans, "mcmc.run_chain")
        figures = tracer.chain_figures(chains, n_rounds)
        figures.update(tracer.cli_figures(spans, os.getpid(), n_rounds))
        figures["mcmc.summarize_ms"] = tracer.median_ms(spans, "mcmc.summarize")

        # layers this workload's commands never reach are timed by probes
        figures["mcmc.chain_to_csv_ms"] = tracer.median_ms(spans, "mcmc.chain_to_csv")
        if figures["mcmc.chain_to_csv_ms"] is None:
            c = chains[0]
            kept = (c["iterations"] - c["burn_in"]) // c["thin"]
            figures["mcmc.chain_to_csv_ms"] = probes.chain_to_csv_ms(kept, c["dim"], run_dir / "probe.csv")
        if tracer.named(spans, "experiments.run_scenario"):
            figures.update(tracer.scenario_figures(spans, n_rounds))
        else:
            tr.op = "probe"
            probes.run_probe_scenario(seed)
            figures.update(tracer.scenario_figures(tr.collect(), 1))
    finally:
        tr.uninstall()
    figures["cli.import_s"] = import_s
    figures.update(probes.layer_zero(workloads.probe_inputs(workload, seed)))

    units = {"_us": "us", "_ms": "ms", "_s": "s", "evals": "count", "rate": "ratio"}
    metrics = {}
    for name, value in figures.items():
        leaf = name.split(".")[1]
        unit = next(u for suffix, u in units.items() if leaf.endswith(suffix))
        metrics[name] = (value, unit)
    trace_path = RUNS / f"trace-{workload}-seed{seed}.jsonl"
    trace_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    return rounds, metrics, problems, {}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (SRC / "lomaxprior" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'lomaxprior'} is missing", file=sys.stderr)
        return 2

    import_s = 0.0
    if args.trace:
        # first import of the CLI in this process, before numpy is loaded
        sys.path.insert(0, str(SRC))
        t0 = perf_counter()
        import lomaxprior.cli  # noqa: F401

        import_s = perf_counter() - t0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.trace:
            rounds, metrics, problems, raw = per_layer(args.workload, args.seed, args.seconds, run_dir, import_s)
        else:
            rounds, metrics, problems, raw = end_to_end(args.workload, args.seed, args.seconds, run_dir, deadline)
        attempted, failed, found = check_rounds(rounds)
        problems += found
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, values in raw.items():
        print(f"{args.workload:<20} {name:<40} {' '.join(f'{v:.3f}' for v in values)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<20} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:<20} {'operations attempted/failed':<40} {attempted:>8}/{failed}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
