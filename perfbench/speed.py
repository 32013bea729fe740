"""Job times at a reference CPU speed, from speed samples taken during the job.

On a shared host the CPU this process runs on changes speed by a factor of
up to 1.7 from one 20-100 ms stretch to the next (another tenant on the same
core), and CPU time changes with wall time.  Raw job times of the same code
then spread by more than any useful bound, in a run and between runs.

A SpeedSampler measures the speed while the jobs run.  A SIGALRM interval
timer interrupts the benchmark's only thread every INTERVAL_S of wall time;
the handler times one pass of a fixed calibration kernel and records when
it ran and how long it took.  A job's time at the reference speed is its
wall time less the passes that ran inside it, times REF_PASS_S over the mean
pass time in and next to the job.  The kernel is benchmark code only
(Fraction elimination and dict updates, the kind of work leibnizkit does),
so a change to leibnizkit moves the reference-speed time of a job by the
same share as it moves the job's own work.  The correction is not exact:
repeats of one job still differ by about 5 % at the reference speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.010   # one calibration pass per 10 ms of wall time (6-10 % of it)
REF_PASS_S = 0.001   # a pass at the reference speed


def calibration_pass():
    """Fixed work: eliminate a 7x7 Fraction matrix, then 400 dict updates."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    acc = {}
    for i in range(400):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + i
    return m, acc


class SpeedSampler:
    """Calibration passes on a wall-clock timer while active (a context manager)."""

    def __init__(self):
        self.starts = []    # perf_counter at the start of each pass, increasing
        self.passes = []    # seconds each pass took
        self._busy = False

    def sample(self, *_):
        if self._busy:      # the timer fired during a pass that was held up
            return
        self._busy = True
        # no collection of the program's garbage inside a pass
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        calibration_pass()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.passes.append(t1 - t0)
        self._busy = False

    def __enter__(self):
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()

    def seconds(self, t0, t1):
        """(wall seconds, reference-speed seconds) of the work between
        perf_counter readings t0 and t1, both without the passes inside.
        A pass runs whole inside or whole outside such an interval."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - sum(self.passes[i:j])
        near = self.passes[max(i - 1, 0):j + 1]
        return wall, wall * REF_PASS_S / statistics.fmean(near)

    def summary(self):
        return {"passes": len(self.passes), "median_pass_s": statistics.median(self.passes),
                "min_pass_s": min(self.passes), "max_pass_s": max(self.passes),
                "ref_pass_s": REF_PASS_S, "interval_s": INTERVAL_S}
