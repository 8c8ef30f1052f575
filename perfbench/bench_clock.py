"""Host-speed normalisation of measured times.

The CPU speed a process gets on a shared host drifts: on the reference
machine (2-vCPU Xeon, Python 3.11.7) a fixed pure-Python loop runs up to
twice as slow for tens of seconds at a time.  `SpeedProbe` samples that
speed while a process works: a SIGALRM timer interrupts it every `period`
seconds to time one fixed calibration unit (exact `Fraction` arithmetic,
the same kind of work toricmmp does).  A measured interval is reported as

    (wall time - time spent in calibration units) * REF_UNIT_S / m,

where m is the mean time of the calibration units sampled in the same
process during the interval (at least `nearest` of them, widened
symmetrically if needed): seconds at the reference speed of the
calibration unit.  A subprocess runs its own probe and reports its stats
through a pipe (`run_probed`, `normalize_child`).  Raw wall times are kept
alongside.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import time
from fractions import Fraction

# mean time of one calibration unit on the reference machine when the host
# is quiet; normalised times are seconds at this speed
REF_UNIT_S = 0.27e-3


def calibration_unit():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 97, i % 13 + 1)
    return s


class SpeedProbe:
    def __init__(self, period=0.01, nearest=25):
        self.period = period
        self.nearest = nearest
        self.stamps = []   # start of each calibration unit
        self.units = []    # its duration
        self.spent = 0.0   # total time spent in calibration units
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        calibration_unit()
        dt = time.perf_counter() - t0
        self.stamps.append(t0)
        self.units.append(dt)
        self.spent += dt

    def __enter__(self):
        self._tick(None, None)  # every probed interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def mark(self):
        """(clock, calibration time so far), to bracket an interval."""
        return time.perf_counter(), self.spent

    def normalize(self, start, end):
        """Normalised seconds between two `mark()`s."""
        (t0, s0), (t1, s1) = start, end
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < self.nearest and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        speed = REF_UNIT_S / statistics.fmean(self.units[lo:hi])
        return (t1 - t0 - (s1 - s0)) * speed

    def stats(self):
        return {"spent": self.spent, "units": len(self.units),
                "mean": statistics.fmean(self.units)}


def normalize_child(wall, stats):
    """Normalised seconds of a subprocess that ran a probe and reported its
    `stats()`."""
    return (wall - stats["spent"]) * REF_UNIT_S / stats["mean"]


def run_probed(make_argv, **kwargs):
    """`subprocess.run(make_argv(fd), ...)` for a child that writes one JSON
    object (with its probe stats under "probe") to the inherited `fd`;
    returns the completed process and that object."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.run(make_argv(write_fd), pass_fds=(write_fd,),
                              **kwargs)
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    return proc, json.loads(text) if text else None
