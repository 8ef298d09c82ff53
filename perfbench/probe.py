"""Speed probe: rescale wall time to seconds at a fixed reference speed.

On a small virtual machine the guest CPU runs at a speed that changes
every few seconds, and the slowdown is not accounted as steal, so raw
wall time and CPU time of one and the same computation spread by a
quarter or more.  A measured process therefore runs a small fixed
exact-arithmetic kernel on an interval timer and records how long each
run of the kernel took.  Between two samples the process is assumed to
run at the speed the samples saw, and each interval of wall time is
rescaled by NOMINAL / d, where d is the kernel's duration there and
NOMINAL its duration at the reference speed.  The sum is "seconds at
reference speed".

NOMINAL is a constant of the benchmark and is never re-measured: a
changed NOMINAL would rescale every figure ever recorded.

A sample is a pair (start, end) of raw clock readings around one run
of the kernel.  The time inside the kernel belongs to no interval, so
the probe's own cost is not charged to the program.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Duration of one kernel run at reference speed, in seconds.  Chosen
# once, near the kernel's median duration on the machine the notes
# describe; see perfbench/NOTES.md.
NOMINAL = 0.0018
# Interval-timer period, in seconds.
PERIOD = 0.1
# Samples taken back to back when the probe starts and when it stops.
EDGE_SAMPLES = 3

clock = time.perf_counter


class ProbeError(ValueError):
    """Too few samples, or unusable ones: the time cannot be rescaled."""


def kernel() -> int:
    """A fixed piece of small-denominator Fraction arithmetic (~2 ms)."""
    total = 0
    for k in range(1, 201):
        a = Fraction(k, 2 * k + 1)
        b = Fraction(3, k + 2)
        c = a * b + a - b
        total += c.numerator % 7
    return total


def smoothed_durations(samples) -> list:
    """Kernel duration at each sample, as the median of it and its neighbours.

    A kernel run that the hypervisor interrupted reads slow although
    the program around it was not; the median of three drops such a
    single spike, while a change of speed that lasts two samples or
    more passes through unchanged.
    """
    durations = [end - start for start, end in samples]
    if len(durations) < 2:
        raise ProbeError(f'{len(durations)} probe samples; need two')
    if min(durations) <= 0:
        raise ProbeError('a probe sample has no duration')
    out = []
    for i in range(len(durations)):
        window = sorted(durations[max(0, i - 1):i + 2])
        mid = len(window) // 2
        out.append(window[mid] if len(window) % 2
                   else (window[mid - 1] + window[mid]) / 2)
    return out


def interval_rates(samples) -> list:
    """Reference seconds per raw second for each interval.

    Entry j (1 <= j < len(samples)) covers the time between sample j-1
    and sample j; entry 0 is unused and is 0.
    """
    d = smoothed_durations(samples)
    return [0.0] + [NOMINAL / ((d[j - 1] + d[j]) / 2)
                    for j in range(1, len(samples))]


def reference_time(samples) -> float:
    """Seconds at reference speed between the first and the last sample."""
    rates = interval_rates(samples)
    return sum((samples[j][0] - samples[j - 1][1]) * rates[j]
               for j in range(1, len(samples)))


def reference_between(samples, t0: float, t1: float) -> float:
    """Seconds at reference speed inside the raw interval [t0, t1].

    Time before the first sample is rescaled at the first sample's
    speed, time after the last one at the last sample's speed.
    """
    d = smoothed_durations(samples)
    rates = interval_rates(samples)
    edges = ([(float('-inf'), samples[0][0], NOMINAL / d[0])]
             + [(samples[j - 1][1], samples[j][0], rates[j])
                for j in range(1, len(samples))]
             + [(samples[-1][1], float('inf'), NOMINAL / d[-1])])
    total = 0.0
    for lo, hi, rate in edges:
        overlap = min(hi, t1) - max(lo, t0)
        if overlap > 0:
            total += overlap * rate
    return total


def raw_time(samples) -> float:
    """Wall seconds between the samples, without the kernel runs."""
    return sum(samples[j][0] - samples[j - 1][1]
               for j in range(1, len(samples)))


def slowdown(samples) -> float:
    """Mean kernel duration over NOMINAL (1.0 means reference speed)."""
    durations = [end - start for start, end in samples]
    return sum(durations) / len(durations) / NOMINAL


class Probe:
    """Samples the kernel at start, every PERIOD seconds, and at stop.

    Start and stop take EDGE_SAMPLES samples back to back, so even a
    process shorter than the timer period has an interval to rescale,
    and the median filter can drop an interrupted kernel run at either
    end.  The collector is off while the kernel runs, so garbage the
    program left is not charged to the probe.
    """

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            kernel()
            end = clock()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((start, end))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        for _ in range(EDGE_SAMPLES):
            self.sample()
