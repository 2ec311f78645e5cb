"""Host-speed calibration of op times.

The benchmark runs on a virtual machine whose speed drifts: the same
pure-Python loop runs up to twice as slow in some seconds as in others,
and the slow stretches last from milliseconds to minutes.  Timing ops in
plain seconds therefore measures the neighbours as much as the program.

``Sampler`` times a fixed reference loop every ``INTERVAL_S`` seconds of
wall time, from a ``SIGALRM`` handler, while the workload runs in the main
thread.  An op that took ``dt`` seconds while the reference loop took
``ref`` seconds on average around it is reported as
``dt * NOMINAL_S / ref``: its time on a machine where the reference loop
takes ``NOMINAL_S``.  A slowdown that hits the op and the loop alike
cancels; a change to the program does not touch the loop, so it shows in
full.  The time the handler spends inside an op is taken out of the op.

The loop allocates nothing the garbage collector tracks, so it neither
triggers nor pays for a collection of the workload's objects.
"""

import bisect
import signal
import time
from array import array

CLOCK = time.perf_counter
INTERVAL_S = 0.005
# the reference loop's median duration on the 2-core VM the benchmark was
# written on (Python 3.11; single runs had medians of 110 to 195 us), so
# calibrated times are near wall times there
NOMINAL_S = 160e-6

_KEYS = [frozenset((i, i + 3, (i * 7) % 31)) for i in range(128)]
_MEMBERS = set(_KEYS[::2])
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_REPS = 12


def reference_loop():
    """Set and dict lookups of frozenset keys and small-int arithmetic,
    the kind of work the library does most."""
    acc = 0
    for _ in range(_REPS):
        for k in _KEYS:
            if k in _MEMBERS:
                acc += _INDEX[k]
            else:
                acc ^= len(k)
    return acc


class Sampler:
    """Times the reference loop every ``INTERVAL_S`` seconds between
    ``start()`` and ``stop()``."""

    def __init__(self):
        # arrays, so that memory does not grow with objects per sample
        self.starts = array("d")  # sample start times, increasing
        self.spent = array("d", [0.0])  # spent[k]: loop seconds in samples 0..k-1
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = CLOCK()
        reference_loop()
        t1 = CLOCK()
        self.starts.append(t0)
        self.spent.append(self.spent[-1] + (t1 - t0))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0, t1):
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_right(self.starts, t1))

    def own_time(self, t0, t1):
        """Wall time between ``t0`` and ``t1`` minus the samples taken in it."""
        i, j = self._range(t0, t1)
        return (t1 - t0) - (self.spent[j] - self.spent[i])

    def reference(self, t0, t1):
        """Mean duration of the reference loop from one interval before
        ``t0`` to one after ``t1``; the nearest samples if none fall there."""
        i, j = self._range(t0 - INTERVAL_S, t1 + INTERVAL_S)
        if j <= i:
            i, j = max(0, i - 1), min(len(self.starts), i + 1)
        if j <= i:
            raise RuntimeError("no reference samples were taken")
        return (self.spent[j] - self.spent[i]) / (j - i)

    def calibrate(self, t0, t1):
        """The op from ``t0`` to ``t1`` in seconds at the nominal speed."""
        return self.own_time(t0, t1) * NOMINAL_S / self.reference(t0, t1)

    def summary(self):
        """(samples, median reference seconds, share of wall time spent)."""
        n = len(self.starts)
        if not n:
            return 0, 0.0, 0.0
        durs = sorted(self.spent[k + 1] - self.spent[k] for k in range(n))
        wall = self.starts[-1] - self.starts[0] + durs[-1]
        return n, durs[n // 2], self.spent[-1] / wall if wall > 0 else 0.0
