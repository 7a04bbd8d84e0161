"""Host speed probe: a fixed reference kernel timed every 50 ms during a pass.

The machines this benchmark runs on are shared: other tenants slow a process
by up to 1.7x, in stretches of a second to minutes, so a pass's seconds vary
from run to run with the host's load, not with the code. `SpeedProbe` times a
small fixed kernel (twenty 10x10 symmetric eigendecompositions, about 0.3 ms
on a quiet host) from a SIGALRM handler, in the same thread as the pass and at
the same moments. `work()` then divides each stretch of the pass between two
samples by the kernel time around it and sums: the pass's length in reference
kernels, which a uniform slowdown of the host leaves unchanged. The kernel's
own time is left out of both.

Signals reach Python between bytecodes, so a sample due during a long call
into LAPACK is taken when the call returns; the stretch that call covers is
then weighed by the samples at its two ends.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
KERNEL_REPS = 20


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        self._matrix = a + a.T
        self.samples = []       # (start, seconds) of each kernel run
        self._previous = None
        self._busy = False

    def _kernel(self, signum=None, frame=None):
        if self._busy:          # a tick that fell due inside the kernel
            return
        self._busy = True
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            np.linalg.eigh(self._matrix)
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def start(self):
        """Begin sampling; the first sample is taken now, before the pass."""
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        self._kernel()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """End sampling; the last sample is taken now, after the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernel()

    def kernel_seconds(self):
        """Seconds the kernel took inside the pass, to subtract from its time."""
        return sum(secs for _, secs in self.samples[1:-1])

    def work(self):
        """The pass's length in reference kernels: each stretch between the end
        of one sample and the start of the next, over the mean of the two."""
        total = 0.0
        for (s0, c0), (s1, c1) in zip(self.samples, self.samples[1:]):
            total += (s1 - (s0 + c0)) / (0.5 * (c0 + c1))
        return total
