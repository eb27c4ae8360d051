"""The machine's current speed, sampled while a timed pass runs.

On a shared box the same pass can take 35% longer a few seconds later,
because other tenants slow the core down; medians over passes cannot
remove swings that last longer than a run.  ``SpeedProbe`` measures the
swing where it happens: every ``PERIOD`` seconds a SIGALRM handler times a
fixed pure-Python loop (about 0.25 ms, so the pass slows by about 0.5%).
The loop adds integers and then sums ``Fraction`` objects.  The allocation
in the second half matters: in the slow spells the workloads, which
allocate heavily, slow down about a quarter more than a loop over small
integers does.  The mixed loop tracks them better: over the passes of
one run, the coefficient of variation of pass times in reference seconds
drops by about a quarter on every workload (2-vCPU Xeon, Python 3.11).
``factor`` is ``REFERENCE_S`` over the mean loop time, and a pass's wall
time times that factor is its time in reference seconds: the time the
pass would take on a machine where the loop takes ``REFERENCE_S``.
The loop is part of the benchmark, not of fairshift.  A change to the
program moves reference seconds as it moves wall time only as long as the
change does not alter how long the loop itself takes.  The loop runs in the
measured process, so a change that does (say, one that keeps the second
core busy while the pass runs, or that changes how often the interpreter
is interrupted) is credited or charged in reference seconds for a speed it
did not gain or lose.  ``suite.py --compare`` therefore prints the raw wall
time next to each reference time and flags the pairs that disagree.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from statistics import mean

PERIOD = 0.05
INT_TERMS = 2000
FRACTION_TERMS = 25
REFERENCE_S = 200e-6


class SpeedProbe:
    """Context manager that samples the loop time until it exits."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(INT_TERMS):
            acc += i
        frac = Fraction(0)
        for k in range(1, FRACTION_TERMS + 1):
            frac += Fraction(1, k)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        return REFERENCE_S / mean(self.samples)
