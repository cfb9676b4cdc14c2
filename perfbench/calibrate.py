"""Host-speed calibration for the benchmark's timings.

On a shared 2-core host, the speed of a core can change by up to a factor
of 2 within seconds or minutes. The cause is load from outside the
container: process CPU time grows with wall time, so this is not
throttling. Raw wall times then spread from run to run by 30-45%, wider
than any useful regression bound.

So run.py times this fixed kernel, which is benchmark code independent of
ergolab, on the same pinned core just before and just after each
repetition. It scales the repetition's timings by REFERENCE_S over the mean
of the two kernel times, so timings read as seconds on a core that runs the
kernel in REFERENCE_S. The kernel builds the exact distribution of all 2^15
words of a Bernoulli(5/17) process as a dict of Fractions. That is the same
kind of work as ergolab's exact enumeration, with a working set of several
MB.

Four kernels were tried on 3- to 5-minute stretches of repeated `enumerate`
and `sample` runs: this one, a 2^11-word version, a numpy window-code pass
and a Python integer loop. This one tracked the slowdowns best. The spread
of 35 s medians fell from 0.43 to 0.05 on `enumerate` and from 0.26 to 0.03
on `sample`. The others left 0.04-0.21.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time on an uncontended core of the host the bounds were set on (a
# 2-vCPU KVM guest on an Intel Xeon with AVX-512); the 35 s-window minimum.
REFERENCE_S = 0.15
LEVELS = 15


def kernel() -> int:
    weights = (Fraction(5, 17), Fraction(12, 17))
    dist = {(): Fraction(1)}
    for _ in range(LEVELS):
        dist = {word + (s,): p * q for word, p in dist.items() for s, q in enumerate(weights)}
    return len(dist)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
