"""Reference-speed clock: op times in reference seconds.

The host's speed drifts on a scale of tens of milliseconds (a fixed loop
takes anywhere from 1x to 1.8x its fastest time, back to back, on one core)
and the guest cannot see the cause, so neither wall time nor CPU time is
steady. This module measures an op's CPU time and, on the same core and
during the op, the CPU time of a fixed stdlib reference loop. An interval
timer (ITIMER_PROF, which counts this process's CPU time) fires every
`interval_s` of CPU (in practice every scheduler tick, ~4 ms, at most); its
handler runs the loop with the garbage collector paused and records the
loop's time and its own. All CPU times come from the thread clock: while a
CPU timer is armed the process clock only advances at ticks.

Because samples fall uniformly in CPU time, each stands for an equal slice
of the op's CPU time, and the work done in that slice is the slice divided
by the loop's time there. So

    reference seconds = (op CPU - handler CPU) * mean(1 / sample) * NOMINAL_S

which is exact when speed is constant within each slice. Ops shorter than
one interval are bracketed: `BRACKET` samples are taken just before and just
after the op and pooled with any taken during it.
"""

from __future__ import annotations

import gc
import itertools
import os
import signal
import time
from fractions import Fraction

# Nominal time of one reference_loop() call: a fixed unit, never re-measured.
# A reference second is the time 1/NOMINAL_S loops take; the value makes it
# roughly one CPU second on the 2-vCPU VM (Python 3.11) it was chosen on.
NOMINAL_S = 300e-6
INTERVAL_S = 0.004
BRACKET = 3


def reference_loop() -> tuple:
    """The program's two kinds of work in miniature: a small Fraction
    elimination and an integer box walk with a solved coordinate."""
    m = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    for c in range(3):
        inv = 1 / m[c][c]
        for i in range(c + 1, 4):
            f = m[i][c] * inv
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    hits = 0
    for t in itertools.product(range(-2, 3), repeat=3):
        q, r = divmod(sum(c * w for c, w in zip(t, (3, 5, 7))), 4)
        hits += q if r else 0
    return m[3][3], hits


def pin_to_core() -> None:
    """Pin this process (and the children it starts) to its highest core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Sampler:
    """Samples reference_loop() during timed regions; see the module doc."""

    def __init__(self, interval_s: float = INTERVAL_S, in_op: bool = True):
        self.interval_s = interval_s
        self.in_op = in_op
        self.samples: list[int] = []
        self.handler_ns = 0
        reference_loop()  # first call pays one-off costs

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time_ns()
        reference_loop()
        self.samples.append(time.thread_time_ns() - t0)
        if enabled:
            gc.enable()

    def _handler(self, signum, frame) -> None:
        t0 = time.thread_time_ns()
        self._sample()
        self.handler_ns += time.thread_time_ns() - t0

    def measure(self, fn, *args):
        """Run fn(*args); return (result, Timing).

        An exception propagates; the region's Timing is then in `self.last`.
        """
        self.samples = []
        self.handler_ns = 0
        for _ in range(BRACKET):
            self._sample()
        old = None
        if self.in_op:
            old = signal.signal(signal.SIGPROF, self._handler)
            signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        t0 = time.thread_time_ns()
        try:
            result = fn(*args)
        finally:
            if self.in_op:
                # a tick already pending runs its handler before cpu_ns is read
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
            cpu_ns = time.thread_time_ns() - t0
            if self.in_op:
                signal.signal(signal.SIGPROF, old)
            in_op = len(self.samples) - BRACKET
            handler_ns = self.handler_ns
            for _ in range(BRACKET):
                self._sample()
            self.last = Timing(cpu_ns - handler_ns, handler_ns, list(self.samples), in_op)
        return result, self.last


class Timing:
    """One measured region: CPU time, reference samples, derived figures."""

    __slots__ = ("cpu_ns", "handler_ns", "samples", "in_op")

    def __init__(self, cpu_ns, handler_ns, samples, in_op):
        self.cpu_ns = cpu_ns
        self.handler_ns = handler_ns
        self.samples = samples
        self.in_op = in_op

    @property
    def factor(self) -> float:
        """Reference seconds per CPU second in this region."""
        inv = sum(1.0 / s for s in self.samples) / len(self.samples)
        return inv * NOMINAL_S * 1e9

    @property
    def ref_s(self) -> float:
        return self.cpu_ns / 1e9 * self.factor

    @property
    def overhead_share(self) -> float:
        """Sampler CPU during the op as a share of the op's own CPU."""
        return self.handler_ns / self.cpu_ns if self.cpu_ns else 0.0

    def to_json(self) -> dict:
        return {
            "ref_s": self.ref_s,
            "cpu_s": self.cpu_ns / 1e9,
            "factor": self.factor,
            "samples": len(self.samples),
            "in_op_samples": self.in_op,
            "overhead_share": self.overhead_share,
        }
