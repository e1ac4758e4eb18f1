"""The machine's current speed, from a fixed calibration loop.

The 2-vCPU VM this benchmark was built on runs the same command anywhere
between 1x and 1.8x its fastest time, in phases of a second to minutes, and
each vCPU slows on its own because other guests share the host.  The program
and this loop slow down together, so the end-to-end timings are scaled by
how fast the loop ran around them, on every CPU the benchmark may use: a
figure in reference seconds is what the measured time would have been had
the loop taken REFERENCE_S.  The loop is the benchmark's own code, so no
change to the program can move it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time

import numpy as np

# median time of one loop on the reference machine (2-vCPU Xeon VM, Python
# 3.11.7, numpy 2.4.6); it only fixes the unit of the scaled figures
REFERENCE_S = 0.2
_ITERATIONS = 40_000


def calibrate() -> tuple:
    """(wall, cpu) seconds of a fixed loop with the program's instruction mix:
    interpreted Python around numpy calls on 30-element arrays."""
    a = np.linspace(0.1, 1.0, 30)
    total = 0.0
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(_ITERATIONS):
        total += float(np.sum(np.exp(a * (1.0 + i * 1e-6)))) + math.log(1.0 + i)
    w1, c1 = time.perf_counter(), time.process_time()
    if not math.isfinite(total):
        raise RuntimeError("calibration loop diverged")
    return w1 - w0, c1 - c0


def _helper(conn, cpu: int):
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(calibrate())


class Speedometer:
    """Runs the loop on each allowed CPU at once: here on the first, in a
    helper process on the others.  Use as a context manager."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.helpers = []

    def __enter__(self):
        ctx = multiprocessing.get_context("spawn")
        for cpu in self.cpus[1:]:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child, cpu), daemon=True)
            proc.start()
            self.helpers.append((proc, parent))
        return self

    def __exit__(self, *exc):
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def measure(self) -> tuple:
        """Mean (wall, cpu) seconds of the loop over all CPUs."""
        for _, conn in self.helpers:
            conn.send(True)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            samples = [calibrate()]
        finally:
            os.sched_setaffinity(0, self.cpus)
        samples += [conn.recv() for _, conn in self.helpers]
        return tuple(sum(s[j] for s in samples) / len(samples) for j in (0, 1))
