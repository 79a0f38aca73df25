"""A fixed reference loop that tracks the host's current pace.

On a shared virtual machine the speed of a CPU-bound Python process drifts by
30% and more over minutes, as other tenants come and go. The benchmark runs
this loop right before every timed job and import, and rescales the measured
wall time by ``REF_S / reference_s()``: the time the work would have taken at
the pace where this loop takes ``REF_S`` seconds. The loop uses no hyperdiff
code, so no change to the program can move it.

Its work is the program's hot paths in miniature: products and remainders of
integers with thousands of digits and big rationals, as in exact arithmetic;
prefix slices of float lists, as in the running verdicts; complex Horner
steps, as in the circle scan. The first part tracks the exact-arithmetic jobs
best, the others track interpreter-bound work such as imports.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

REF_S = 0.025  # nominal duration of one reference loop, in seconds


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    for _ in range(4):
        value, total = 1, 0
        for i in range(1, 1500):
            value *= i
            total += value % 1000003
    x = Fraction(1)
    for i in range(1, 600):
        x = x * Fraction(-7, 2) + Fraction(i, 3)
    logs = [math.log(i) for i in range(1, 1500)]
    below = 0
    for i in range(0, 1500, 4):
        below += sum(1 for v in logs[: i + 1] if v < 3.0)
    z = 0j
    for t in range(20000):
        z = z * cmath.exp(0.01j * t) + 1.0
    return time.perf_counter() - start
