"""A fixed piece of pure-Python work that gauges the host's speed.

The benchmark's host is shared, and its speed drifts by 10-20 % over tens of
seconds and halves in bursts of a second or two, for the library and this
loop alike.  `at_nominal_speed` rescales a time measured next to a run of
the loop to the host's nominal speed.
"""

import math
import time

ITERATIONS = 5000
# the loop's time on an idle host: 2 vCPUs of an Intel Xeon, Python 3.11.7;
# rescaled times read as wall times on that host
NOMINAL_S = 2.0e-3
# On that host the library's time grows only as about the 0.65-0.75th power
# of the loop's when the host slows (fitted over 28 two-second stretches of
# route-compare requests and 877 damped-lattice requests), so rescaling by
# the full ratio would overcorrect.  Across five seeds of each workload this
# exponent gave about the smallest seed-to-seed spread of the metrics.
EXPONENT = 0.8


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def reference_loop():
    """Run the loop, like the library's own work in kind (float arithmetic,
    calls, attribute and dict access), and return its wall time in s."""
    t0 = time.perf_counter()
    acc, slots = 0.0, {}
    for i in range(ITERATIONS):
        p = _Point(i * 0.5, math.exp(-i * 1e-4))
        acc += p.x * p.y / (1.0 + p.y)
        slots[i & 255] = acc
    return time.perf_counter() - t0


def at_nominal_speed(seconds, loop_seconds):
    """`seconds` measured while the loop took `loop_seconds`, rescaled to the
    loop's nominal speed."""
    return seconds * (NOMINAL_S / loop_seconds) ** EXPONENT
