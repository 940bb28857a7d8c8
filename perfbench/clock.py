"""Times in nominal seconds, corrected for the speed of a shared core.

On a shared 2-core box each vCPU flips between a fast state and one about
1.5x slower, for stretches from under a second to minutes, so raw wall
times of the same work differ by 30% between runs minutes apart.  Every
timed operation is therefore bracketed by a fixed pure-Python reference
loop, and its wall time is scaled by REF_NOMINAL_S over the mean of the two
reference times: the result is the time the operation would take on a
core that runs the reference loop in REF_NOMINAL_S.  Raw wall times are
kept alongside in the run record.
"""

from __future__ import annotations

import time

# the reference loop's wall time on a fast core of the 2-core Xeon box
# this benchmark was written on; a fixed scale, never re-measured
REF_NOMINAL_S = 0.0015


def reference() -> float:
    """Wall time of one pass of a fixed loop of integer, tuple and dict work."""
    t = time.perf_counter()
    acc, table = 1, {}
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
        table[(i & 127, acc & 7)] = acc
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to nominal seconds for work between two
    reference samples."""
    return REF_NOMINAL_S / ((before + after) / 2)
