"""The machine-speed probe shared by run.py and child.py.

The shared machine the bounds were set on changes speed by tens of percent
over seconds to minutes.  A fixed pure-Python loop, timed on the same CPU
close to the measured work, tells how fast the machine is running at that
moment; times are rescaled by ``REF_S_PER_MLOOP`` over the probe's reading.
"""
from __future__ import annotations

import time

#: Probe seconds per million iterations at reference speed: close to the
#: probe's fastest reading on the 2-core Xeon VM the bounds were set on.
REF_S_PER_MLOOP = 0.0875


def probe(loops: int) -> float:
    """Seconds per million iterations of a fixed pure-Python loop, now."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e6 / loops
