"""Machine-speed sampler: wall times normalized to one reference speed.

The machine this benchmark was tuned on (Intel Xeon, 2 vCPUs) changes speed
by up to 70 % over tens of seconds (other tenants share its cores), and the
CPU time of a pass moves with its wall time, so no statistic of whole-pass
times is steady there.  While a pass or a set-up runs, a SIGALRM timer runs a fixed snippet
every ``INTERVAL_S`` in the main thread and times its second, cache-warm run.
Each sample gives the machine's speed relative to the reference,
``REF_SNIPPET_S / snippet time``; the mean over an interval estimates the
time integral of that relative speed, so ``raw seconds * factor`` is the time
the interval would take on the reference machine at its typical speed.

The snippet touches only numpy and the interpreter, never mkvflow, so a
change to the package moves the measured time and not the reference.  The
handler's own time is subtracted from the interval it interrupted.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.fft import fft, ifft

INTERVAL_S = 0.05
# median cache-warm snippet time on the reference machine (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4), rounded; its 5th to 95th percentile
# there was 0.30 to 0.59 ms
REF_SNIPPET_S = 5.0e-4

_X = np.random.default_rng(0).standard_normal(1024)


def _snippet():
    """Interpreter loops and 1-d transforms, the workloads' two costs.

    Of the snippets tried in the benchmark itself this one kept the run
    medians steadiest; larger ones (validated field objects, 2-d transforms)
    tracked single passes well in one process but drifted between processes.
    Bound names only: the handler may fire inside an import and must not
    import itself.
    """
    for _ in range(8):
        ifft(fft(_X) * 2.0)
        s = 0
        for i in range(150):
            s += i


class SpeedSampler:
    """Samples relative machine speed while running; ``take`` resets."""

    def __init__(self):
        self._ratios: list = []
        self._overhead = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a late tick arriving inside the handler itself
            return
        self._busy = True
        t0 = time.perf_counter()
        _snippet()
        t1 = time.perf_counter()
        _snippet()
        t2 = time.perf_counter()
        self._ratios.append(REF_SNIPPET_S / (t2 - t1))
        self._overhead += t2 - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def take(self):
        """(speed factor, handler seconds, samples) since the last take."""
        ratios, overhead = self._ratios, self._overhead
        self._ratios, self._overhead = [], 0.0
        factor = sum(ratios) / len(ratios) if ratios else 1.0
        return factor, overhead, len(ratios)
