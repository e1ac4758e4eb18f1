"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces module attributes of ``lomaxprior`` with timing
wrappers and ``uninstall`` restores them.  The program's code is not
changed.  Scenario pools fork their workers, which inherit the wrappers;
every span is therefore appended to a per-process JSON-lines file, and the
parent collects the files after each operation.  Timestamps come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from different
processes share one time axis.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from time import perf_counter

from lomaxprior import experiments as ex
from lomaxprior import mcmc
from lomaxprior import models as md

INPUT_SPAN = "cli.input"


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.op = None  # identifier shared by the spans of one CLI operation
        self._saved = []

    def emit(self, name: str, t0: float, t1: float, **attrs):
        rec = {"name": name, "op": self.op, "pid": os.getpid(), "t0": t0, "t1": t1, **attrs}
        with open(self.span_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(rec) + "\n")

    def collect(self) -> list:
        """Spans written since the last call, from every process."""
        spans = []
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return spans

    # wrappers ---------------------------------------------------------------

    def _timed(self, name, fn, **attrs):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.emit(name, t0, perf_counter(), **attrs)

        return wrapper

    def _run_chain(self, fn):
        def wrapper(target, config):
            stats = [0, 0.0]  # log_post calls, seconds inside them
            inner = target.log_post

            def log_post(v):
                t = perf_counter()
                value = inner(v)
                stats[1] += perf_counter() - t
                stats[0] += 1
                return value

            timed = mcmc.PosteriorTarget(log_post, target.support, target.names)
            t0 = perf_counter()
            accept = None
            try:
                out = fn(timed, config)
                accept = [float(a) for a in out.accept_rates]
                return out
            finally:
                self.emit(
                    "mcmc.run_chain", t0, perf_counter(),
                    evals=stats[0], log_post_s=stats[1], seed=int(config.seed),
                    iterations=int(config.iterations), burn_in=int(config.burn_in), thin=int(config.thin),
                    dim=target.dim, accept=accept,
                )

        return wrapper

    def _run_scenario(self, fn):
        def wrapper(*args, **kwargs):
            workers = kwargs.get("workers", args[1] if len(args) > 1 else 0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.emit("experiments.run_scenario", t0, perf_counter(), workers=max(1, int(workers or 0)))

        return wrapper

    def install(self):
        run_chain = self._run_chain(mcmc.run_chain)
        summarize = self._timed("mcmc.summarize", mcmc.summarize)
        # experiments binds run_chain and summarize by name at import
        patches = [
            (mcmc, "run_chain", run_chain),
            (ex, "run_chain", run_chain),
            (mcmc, "summarize", summarize),
            (ex, "summarize", summarize),
            (mcmc, "chain_to_csv", self._timed("mcmc.chain_to_csv", mcmc.chain_to_csv)),
            (mcmc, "summaries_to_json", self._timed("mcmc.summaries_to_json", mcmc.summaries_to_json)),
            (ex, "run_scenario", self._run_scenario(ex.run_scenario)),
        ]
        for module, attr in ((ex, "scenario_from_json"), (ex, "builtin_dataset"),
                             (md, "read_design_csv"), (md, "read_column_csv")):
            fn = getattr(module, attr)
            patches.append((module, attr, self._timed(INPUT_SPAN, fn, function=attr)))
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer figures from the spans


def named(spans, name):
    return [s for s in spans if s["name"] == name]


def _dur(span) -> float:
    return span["t1"] - span["t0"]


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def replicate_spans(chains) -> list:
    """(t0, t1) per replicate: a replicate's chains share their seed."""
    groups = {}
    for c in chains:
        groups.setdefault((c["op"], c["seed"]), []).append(c)
    return [(min(c["t0"] for c in g), max(c["t1"] for c in g)) for g in groups.values()]


def chain_figures(chains, rounds: int) -> dict:
    """mcmc.* figures per round, and the acceptance rate over all finished chains."""
    done = [c for c in chains if c["accept"] is not None]
    post = sum((c["iterations"] - c["burn_in"]) * c["dim"] for c in done)
    accepted = sum((c["iterations"] - c["burn_in"]) * sum(c["accept"]) for c in done)
    return {
        "mcmc.log_post_evals": sum(c["evals"] for c in chains) / rounds,
        "mcmc.log_post_s": sum(c["log_post_s"] for c in chains) / rounds,
        "mcmc.self_s": sum(_dur(c) - c["log_post_s"] for c in chains) / rounds,
        "mcmc.accept_rate": accepted / post,
    }


def scenario_figures(spans, rounds: int) -> dict:
    """experiments.* figures per round; a replicate's span runs from its first chain to its last."""
    self_s = idle_s = 0.0
    for scen in named(spans, "experiments.run_scenario"):
        chains = [c for c in named(spans, "mcmc.run_chain") if c["op"] == scen["op"]]
        reps = replicate_spans(chains)
        self_s += _dur(scen) - _union_length((c["t0"], c["t1"]) for c in chains)
        idle_s += scen["workers"] * _dur(scen) - sum(t1 - t0 for t0, t1 in reps)
    reps = replicate_spans(named(spans, "mcmc.run_chain"))
    return {
        "experiments.replicate_s": statistics.median(t1 - t0 for t0, t1 in reps),
        "experiments.self_s": self_s / rounds,
        "experiments.worker_idle_s": idle_s / rounds,
    }


def cli_figures(spans, main_pid: int, rounds: int) -> dict:
    """Input parsing and output writing per round, from the cli.main spans."""
    parse = sum(_dur(s) for s in named(spans, INPUT_SPAN))
    write = 0.0
    for main in named(spans, "cli.main"):
        mine = [s for s in spans if s["op"] == main["op"] and s["pid"] == main_pid]
        compute_end = max(
            (s["t1"] for s in mine if s["name"] in ("mcmc.run_chain", "experiments.run_scenario")),
            default=main["t1"],
        )
        after = sum(_dur(s) for s in mine if s["name"] == "mcmc.summarize" and s["t0"] >= compute_end)
        write += main["t1"] - compute_end - after
    return {"cli.input_parse_ms": 1e3 * parse / rounds, "cli.output_write_ms": 1e3 * write / rounds}


def median_ms(spans, name):
    durations = [_dur(s) for s in named(spans, name)]
    return 1e3 * statistics.median(durations) if durations else None
