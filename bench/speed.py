"""The machine's current speed, read from a fixed pure-Python reference loop.

The benchmark shares a few cores of a host whose speed moves by up to 1.7x,
in CPU time as in wall time, from one tenth of a second to the next and for
minutes at a stretch.  The reference loop builds tuples, strings, dicts and
Fractions, the kind of work the package does, and slows with it.  Timed
right before and right after each call, it follows the call's speed: over a
minute of cold 6 ms coproducts, the interquartile range of their times was
0.49 of the median, and of their times as multiples of the loop's 0.07
(2 cores, Python 3.11.7).

Every time the benchmark reports is therefore a wall time scaled to a
machine on which the loop takes ``REFERENCE_S``: the time measured, times
``REFERENCE_S`` over the mean of the loop's times just before and just
after.  The loop does not touch the package, so a change to the package
moves the scaled figures in full.  The raw wall times stay in the report
under ``bench/out/``.
"""

from fractions import Fraction
from time import perf_counter

# The loop's time in the host's fast stretches, 2 cores, Python 3.11.7.
REFERENCE_S = 0.0007


def _reference():
    table = {}
    for i in range(300):
        key = (i % 97, "ab"[i % 2] * (i % 5))
        table[key] = table.get(key, 0) + Fraction(i, 7)
    return len(table)


def sample():
    """The wall time of one run of the reference loop."""
    start = perf_counter()
    _reference()
    return perf_counter() - start


def factor(before, after):
    """The scale to the reference speed of a call between two samples."""
    return 2 * REFERENCE_S / (before + after)
