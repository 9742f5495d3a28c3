"""Host-speed calibration.

On the 2-vCPU Xeon virtual machine this benchmark was built on, the same
pure-Python work runs up to 1.5 times more slowly at some times than at
others, in phases that last from seconds to minutes; CPU time follows wall
time, so the slowdown is outside the process.  A run cannot average such phases away.  So every
round also times a fixed integer loop (a "slice") right after set-up, after
every CALIBRATE_EVERY_NS of item time, and after its last item.  Over
10-second windows, lexseg's own work and the slice slow down together
(log-log slope about 1.2, correlation 0.9), and scaling by the slice cut
the window-to-window spread of the same work from 14 % to 6 %.

An item's time is multiplied by REFERENCE_NS / (median of the two slices
before and the two after it); set-up times by REFERENCE_NS / (median of
the slices that the set-up-only processes took right after set-up).  Scaled times are in reference seconds: the time the work
takes while a slice takes REFERENCE_NS.  The slice runs no lexseg code, so a change to lexseg
cannot move it; the unscaled times are kept in the run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_NS = 5_000_000
CALIBRATE_EVERY_NS = 250_000_000


def slice_ns() -> int:
    """Wall time of one slice: a fixed integer loop, about 5 ms."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter_ns() - start


def factor(slices) -> float:
    """Multiplier from wall time to reference time for these slice times."""
    return REFERENCE_NS / statistics.median(slices)


def scale(times_ns, slices, width=2) -> list[float]:
    """Item times in reference seconds.  slices holds (index of the next
    item, ns); item i is scaled by the median of the `width` slices taken
    before it and the `width` taken after it."""
    starts = [i for i, _ in slices]
    out = []
    for i, t in enumerate(times_ns):
        after = bisect.bisect_right(starts, i)
        near = [ns for _, ns in slices[max(0, after - width) : after + width]]
        out.append(t * factor(near) / 1e9)
    return out
