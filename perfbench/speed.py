"""The machine's speed, sampled while the measured child works.

The benchmark runs on shared virtual CPUs whose speed drifts: a fixed
pure-Python loop can take 1.6 times longer in one second than in the next,
and a whole run can be that much slower than another.  Raw times then
spread more than any useful bound.

So the child times a fixed loop, which calls no stansym code, every
``PERIOD_S`` seconds from a ``SIGALRM`` handler while its ops run.  An op's
time is scaled by the loop's median time around it:

    scaled = (measured - loop time inside the op) * REF_S / median loop time

The result reads as seconds on a machine on which the loop takes ``REF_S``.
A change to stansym cannot move the loop, so it moves the scaled time as
much as the raw time; a slow second of the machine moves both, and cancels.
"""

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

LOOP_N = 3000  # iterations of the calibration loop
REF_S = 0.25e-3  # reference time of one loop, in seconds
PERIOD_S = 0.02  # seconds between samples while ops run
WINDOW_S = 0.2  # samples this close to an op also count for it
BURST = 15  # loops per burst around set-up


def _loop():
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


def sample():
    """(start, seconds) of one run of the calibration loop."""
    t = perf_counter()
    _loop()
    return t, perf_counter() - t


def burst():
    """Loop times of ``BURST`` back-to-back runs."""
    return [sample()[1] for _ in range(BURST)]


class Sampler:
    """Samples the loop from a timer signal until ``stop``."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def own_seconds(samples, t0, t1):
    """Seconds of [t0, t1] not spent in the loop; ``samples`` sorted by start."""
    lo, hi = bisect_left(samples, (t0,)), bisect_left(samples, (t1,))
    return t1 - t0 - sum(d for _, d in samples[lo:hi])


def scaled(samples, t0, t1):
    """Seconds at reference speed of the work done in [t0, t1]."""
    lo = bisect_left(samples, (t0 - WINDOW_S,))
    hi = bisect_left(samples, (t1 + WINDOW_S,))
    near = [d for _, d in samples[lo:hi]]
    if not near:  # no tick came near: take the closest one
        mid = (t0 + t1) / 2
        near = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return own_seconds(samples, t0, t1) * REF_S / statistics.median(near)
