"""Host-speed calibration: reported times are scaled to one CPU speed.

On a shared host the same code runs 20-30% faster or slower from one
minute to the next, and in some minutes twice as slow (a fixed loop's
wall time and CPU time move together, so this is the processor's speed,
not preemption).  The benchmark therefore times a fixed pure-Python
snippet -- hash-join work on tuples of strings, like the program's, and
none of the program's code -- in the process under test: before the
timed phase and after each block of it, and around each set-up.  A
run's times are multiplied by ``REFERENCE_S`` over the median snippet
time: reported times are what the run would have measured on a host
where the snippet takes ``REFERENCE_S``.  Raw figures stay in the run
record.  The correction is partial: in a slow spell the snippet and the
workloads slow down by similar but not equal factors (within about 10%
for throughput and the median, up to 30% for the 95th percentile).
"""

from __future__ import annotations

import random
import statistics
import time

#: Snippet time the reported figures are scaled to (about its time on
#: the 2-core machine the benchmark was written on).
REFERENCE_S = 0.0005

_rng = random.Random("perfbench-calibration")
_ROWS = tuple(
    (f"o{_rng.randint(1, 2000)}", f"o{_rng.randint(1, 2000)}")
    for _ in range(2000)
)


def _snippet() -> int:
    index: dict = {}
    for a, b in _ROWS:
        index.setdefault(a, []).append(b)
    out = set()
    for a, b in _ROWS:
        for c in index.get(b, ()):
            out.add((a, c))
    return len(out)


def snippet_seconds(repeats: int = 9) -> float:
    """Median wall time of the snippet over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        _snippet()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for times measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
