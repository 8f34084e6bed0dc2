"""Wall time scaled to a reference speed of the machine.

On a shared host the same pass can take from 1x to 2x its fastest time,
in phases of seconds to minutes that come from other tenants.  The slowdown
hits process CPU time as much as wall time, so no clock of the process
removes it.  What does is to time a fixed piece of reference work (plain
Python: `fractions.Fraction` arithmetic on dict-keyed polynomials and a
Gaussian elimination, like the program's own inner loops but none of its
code) often and close to the program, and to count each stretch of the
program's wall time in units of the reference work's time around it:

    reference seconds = sum over stretches of
                        wall time of the stretch * REFERENCE_S / reference time

`REFERENCE_S` is the reference work's time on a 2-vCPU Intel Xeon virtual
machine under CPython 3.11.7 at its full speed (the 5th percentile of 1500
samples; the median sample took 1.8 times as long), so on such a machine at
full speed a reference second is about a wall second.  A change to the
program changes its wall time and not the reference work's, so it moves the
figure by the same share.

`Sampler` times the reference work from a SIGALRM handler every
`interval` seconds while the program runs; the handler's own time is left
out of every stretch.  The garbage collector is off while the reference
work runs, so that the program's heap does not slow the yardstick.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Seconds that one `reference_work()` takes on the reference machine.
REFERENCE_S = 0.0065
# Runs of the reference work in one sample.
SAMPLE_REPEATS = 2
# A speed sample is the median time of this many neighbouring samples.
SMOOTHING = 5


def reference_work() -> int:
    """A fixed piece of pure-Python work (`REFERENCE_S` on the reference machine)."""
    p = {(k, k % 3): Fraction(k + 1, k + 20) for k in range(-6, 7)}
    product = p
    for _ in range(6):
        q: dict = {}
        for (a, b), x in p.items():
            for (c, d), y in p.items():
                q[(a + c, b + d)] = q.get((a + c, b + d), 0) + x * y
        product = {k: v for k, v in q.items() if v}
    n = 9
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
            for i in range(n)]
    rank = 0
    for _ in range(3):
        a = [row[:] for row in rows]
        rank = 0
        for k in range(n):
            pivot = next((r for r in range(rank, n) if a[r][k]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            for r in range(rank + 1, n):
                f = a[r][k] / a[rank][k]
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
            rank += 1
    return len(product) + rank


def time_reference(repeats: int) -> float:
    """Seconds per `reference_work()`, over `repeats` runs with the GC off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed / repeats


class Sampler:
    """Samples the reference work every `interval` seconds of wall time
    while installed (a context manager), and once on entry and on exit."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # start, end, s/unit
        self._armed = False

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        per_unit = time_reference(SAMPLE_REPEATS)
        self.samples.append((start, time.perf_counter(), per_unit))
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_clock(self):
        """A function from a `time.perf_counter()` reading taken while the
        sampler was installed to the reference seconds of the program's time
        since the first sample; the difference of two readings is the
        reference time between them."""
        times = [s[2] for s in self.samples]
        half = SMOOTHING // 2
        smooth = [statistics.median(times[max(0, k - half):k + half + 1])
                  for k in range(len(times))]
        # Gap k runs from the end of sample k to the start of sample k + 1.
        gaps, total = [], 0.0
        for k in range(len(self.samples) - 1):
            low, high = self.samples[k][1], self.samples[k + 1][0]
            rate = 2 * REFERENCE_S / (smooth[k] + smooth[k + 1])
            gaps.append((low, high, rate, total))
            total += max(0.0, high - low) * rate
        starts = [g[0] for g in gaps]

        def clock(t: float) -> float:
            k = bisect.bisect_right(starts, t) - 1
            if k < 0:
                return 0.0
            low, high, rate, before = gaps[k]
            return before + (min(t, high) - low) * rate
        return clock

    def wall_seconds(self, start: float, end: float) -> float:
        """The program's wall time within [start, end], samples left out."""
        inside = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.samples)
        return end - start - inside
