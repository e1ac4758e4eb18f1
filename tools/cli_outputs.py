"""Run a fixed matrix of ``lomax-prior`` commands and record everything they write.

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR [--write FILE | --check FILE]

Each run gets a directory ``OUTDIR/<name>/`` holding the files the command
wrote (under ``out/``), its arguments, stdout, stderr and exit code.  The
matrix covers ``fit`` for every model and prior of the README table on the
built-in dataset and on seeded generated CSVs, ``simulate`` on each
``docs/scenario_*.json`` cut to 3 replicates, serially and on two workers,
``prior --grid``/``--samples``, ``score-check`` on both fields, and
``penalty``.  Chains are short (3000 iterations, 1000 burn-in, thin 10).

The commands run in-process through ``lomaxprior.cli.main``, whichever
``lomaxprior`` PYTHONPATH selects, with OUTDIR as the working directory and
relative paths only.  So two source trees can be compared byte for byte:

    PYTHONPATH=/path/to/other/src python tools/cli_outputs.py /tmp/other
    PYTHONPATH=src python tools/cli_outputs.py /tmp/this
    diff -r /tmp/other /tmp/this

``--write FILE`` records the SHA-256 of every file under OUTDIR in FILE, one
``digest  path`` line each, after a header naming the numpy version and the
SIMD features numpy enabled: numpy's vectorized ``exp`` and ``log`` may round
differently on another CPU.  ``--check FILE`` compares the run with such a
record and names every file whose digest moved; the committed record is
``tools/cli_outputs.sha256``:

    PYTHONPATH=src python tools/cli_outputs.py /tmp/this --check tools/cli_outputs.sha256

The exit status is 1 when any command exited non-zero or any digest moved,
and 3 when the record was written under another numpy or CPU (so nothing
was compared).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

# before numpy: importing the CLI sets its OpenBLAS thread default, which only
# acts if it is in the environment when numpy loads OpenBLAS
from lomaxprior import cli

import numpy as np

DOCS = Path(__file__).resolve().parent.parent / "docs"
SCHEDULE = ["--iterations", "3000", "--burn-in", "1000", "--thin", "10"]
FIT_PRIORS = {
    "weibull": ("lomax", "reference"),
    "dagum": ("lomax", "vague-gamma"),
    "linreg": ("lomax", "vague-normal", "zellner"),
}


def _write_table(path: Path, header, columns):
    # written here, not by lomaxprior, whose CSV writer is one of the things compared
    rows = zip(*columns)
    path.write_text(",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def write_inputs(inputs: Path) -> dict:
    """Seeded data files and cut scenario files; returns their relative paths by name."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20240)
    weibull = (2.0 * rng.weibull(1.5, 40)).tolist()
    _write_table(inputs / "weibull.csv", ["x"], [weibull])
    u = rng.random(50)
    dagum = (1.5 * (u ** (-1.0 / 0.8) - 1.0) ** (-1.0 / 3.0)).tolist()
    _write_table(inputs / "dagum.csv", ["skip", "x"], [rng.random(50).tolist(), dagum])
    X = rng.normal(0.0, 1.5, (60, 2))
    y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + rng.standard_normal(60)
    _write_table(inputs / "linreg.csv", ["x1", "y", "x2"], [X[:, 0].tolist(), y.tolist(), X[:, 1].tolist()])
    paths = {name: f"inputs/{name}.csv" for name in ("weibull", "dagum", "linreg")}
    for scenario in sorted(DOCS.glob("scenario_*.json")):
        doc = dict(json.loads(scenario.read_text()), replicates=3, preset=[3000, 1000, 10])
        (inputs / scenario.name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths[scenario.stem] = f"inputs/{scenario.name}"
    return paths


def matrix(paths: dict) -> list:
    """(run name, argv, writes files) for every command, in a fixed order."""
    runs = []
    for model, priors in FIT_PRIORS.items():
        sources = {"csv": [paths[model]]}
        if model != "linreg":
            sources = {"builtin": ["builtin:breakdown34kv"], **sources}
        for prior in priors:
            for label, data in sources.items():
                argv = ["fit", "--model", model, "--prior", prior, "--data", *data, *SCHEDULE]
                if model == "dagum" and label == "csv":
                    argv += ["--column", "x"]
                runs.append((f"fit-{model}-{prior}-{label}", argv, True))
    runs.append((
        "fit-weibull-lomax-k3-a0.5",
        ["fit", "--model", "weibull", "--data", paths["weibull"], "--prior-k", "3", "--prior-a", "0.5",
         "--seed", "11", *SCHEDULE],
        True,
    ))
    for name in ("scenario_weibull", "scenario_dagum", "scenario_linreg"):
        for workers in (0, 2):
            runs.append((f"simulate-{name}-w{workers}",
                         ["simulate", "--scenario", paths[name], "--workers", str(workers)], True))
    runs += [
        ("prior-grid-2d", ["prior", "--dim", "2", "--grid", "20"], True),
        ("prior-grid-2d-folded", ["prior", "--dim", "2", "--k", "2", "--a", "0.5", "--folded", "1",
                                  "--grid", "15", "--xmax", "4"], True),
        ("prior-grid-samples-1d", ["prior", "--dim", "1", "--grid", "30", "--samples", "200"], True),
        ("prior-samples-3d-folded", ["prior", "--dim", "3", "--folded", "1,3", "--samples", "500",
                                     "--seed", "7"], True),
        ("score-check-lomax", ["score-check", "--field", "lomax", "--dim", "2", "--k", "1"], False),
        ("score-check-lomax-3d", ["score-check", "--field", "lomax", "--dim", "3", "--k", "3", "--a", "2",
                                  "--points", "10"], False),
        ("score-check-exponential", ["score-check", "--field", "exponential", "--dim", "3", "--k", "3"], False),
        ("penalty", ["penalty", "--beta", "2", "--beta", "0.5", "--beta", "0", "--lambda", "0.5",
                     "--lambda", "1.5", "--n", "100", "--reps", "1000"], True),
    ]
    return runs


def run_one(name: str, argv: list, writes: bool) -> int:
    """Run one command into ``name/`` (relative to the working directory) and record it."""
    run_dir = Path(name)
    run_dir.mkdir()
    if writes:
        argv = [*argv, "--out", f"{name}/out"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    (run_dir / "argv.txt").write_text(" ".join(argv) + "\n")
    (run_dir / "stdout.txt").write_text(stdout.getvalue())
    (run_dir / "stderr.txt").write_text(stderr.getvalue())
    (run_dir / "exit.txt").write_text(f"{code}\n")
    return code


def host_header() -> list:
    """The record's header lines: numpy's version and its enabled SIMD features."""
    from numpy._core._multiarray_umath import __cpu_features__

    enabled = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return [f"# numpy {np.__version__}", f"# cpu {enabled}"]


def digests(outdir: Path) -> dict:
    """SHA-256 hex digest of every file under ``outdir``, by its relative path."""
    return {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.rglob("*"))
        if path.is_file()
    }


def write_record(outdir: Path, record: Path) -> None:
    lines = host_header() + [f"{digest}  {name}" for name, digest in digests(outdir).items()]
    record.write_text("\n".join(lines) + "\n")


def check_record(outdir: Path, record: Path) -> int:
    """0 when every digest matches ``record``, 1 when any moved, 3 when its header differs."""
    lines = record.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    here = host_header()
    if header != here:
        differs = [f"{a[2:]!r} there, {b[2:]!r} here" for a, b in zip(header, here) if a != b]
        print(f"{record} was written on another host: {'; '.join(differs) or header}", file=sys.stderr)
        return 3
    want = {name: digest for digest, name in (line.split("  ", 1) for line in lines if not line.startswith("#"))}
    got = digests(outdir)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in moved:
        print(f"digest moved: {name}", file=sys.stderr)
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the CLI output matrix into OUTDIR.")
    parser.add_argument("outdir", metavar="OUTDIR")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", type=Path, help="record every output file's SHA-256 in FILE")
    mode.add_argument("--check", metavar="FILE", type=Path, help="name every file whose SHA-256 differs from FILE")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 2
    print(f"lomaxprior from {Path(cli.__file__).parent}")
    home = os.getcwd()
    os.chdir(outdir)
    try:
        failed = []
        for name, run_argv, writes in matrix(write_inputs(Path("inputs"))):
            code = run_one(name, run_argv, writes)
            print(f"{code:>3}  {name}")
            if code != 0:
                failed.append(name)
    finally:
        os.chdir(home)
    if failed:
        print(f"{len(failed)} command(s) exited non-zero: {', '.join(failed)}", file=sys.stderr)
    if args.write:
        write_record(outdir, args.write)
    checked = check_record(outdir, args.check) if args.check else 0
    return 1 if failed else checked


if __name__ == "__main__":
    sys.exit(main())
