"""Timing in reference-speed seconds, for a host whose speed drifts.

On the 2-core Xeon host the benchmark was sized on, the same fixed work ran
up to 2.3x faster or slower in phases lasting 5 to 30 s, with CPU time
tracking wall time, so the drift is the host's speed, not scheduling. A
fixed pure-Python kernel timed next to the work drifts with it: over a
minute of alternating 0.2 s of model evaluations with the kernel, medians
of ten work times spread by 22% (coefficient of variation) and medians of
ten work/kernel ratios by 2.8%.

``SpeedClock`` cuts a measured interval into short segments, times the
kernel at every cut, and scales each segment by the reference kernel time
over the kernel time around it. The sum is the interval's length at the
reference speed; kernel time is excluded from both sums.
"""
import math
import time

# kernel time in the slower, more common phase of the sizing host
# (Intel Xeon, 2.1 GHz, 2 cores); the faster phase takes about 0.005 s
REF_KERNEL_S = 0.008


def kernel() -> float:
    """Seconds taken by a fixed pure-Python numeric loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        a = math.sqrt(1.0 + (i % 7) * 0.1)
        acc += math.atan2(a, 1.0 + acc * 1e-9) + math.cos(a)
        acc += sum(math.sin(a * k) for k in range(7)) * 1e-3
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """An interval's length at the reference speed."""
    return seconds * REF_KERNEL_S / (0.5 * (kernel_before + kernel_after))


class SpeedClock:
    """Accumulates raw and reference-speed seconds over segments of about
    ``segment_s``; ``tick`` is called often from inside the measured work
    and cuts a segment when one is due."""

    def __init__(self, segment_s: float = 0.25):
        self.segment_s = segment_s
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._kernel = kernel()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= self.segment_s:
            self.cut()

    def cut(self) -> None:
        seconds = time.perf_counter() - self._since
        after = kernel()
        self.raw_s += seconds
        self.ref_s += to_reference(seconds, self._kernel, after)
        self._kernel = after
        self._since = time.perf_counter()
