"""The pace probe: a fixed pure-Python loop that tells how fast the CPU runs now.

Usage::

    python3 perfbench/pace.py PACE_FILE

``run.py`` starts one probe on the CPU its children run on, so the probe and
the child share that CPU in slices of a few milliseconds.  After every unit
of work the probe writes ``(units, cpu_ns, units)`` into the first
``RECORD.size`` bytes of PACE_FILE, which must already be that long:
``units`` done so far and its own CPU time in nanoseconds.  Reading the
record before and after a child gives the probe's cost per unit while the
child ran, i.e. the speed of the CPU in that very window.  A reader takes a
record only when both ``units`` fields agree.

The unit is Fraction arithmetic on small and growing integers with a dict
store, close to the mix of the program under test.  It runs until killed.
"""

from __future__ import annotations

import mmap
import struct
import sys
import time
from fractions import Fraction

RECORD = struct.Struct("<QQQ")


def unit() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 30):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        seen[i] = acc.numerator % 7
    return acc


def main(path: str) -> None:
    with open(path, "r+b") as fh:
        record = mmap.mmap(fh.fileno(), RECORD.size)
    write, clock = RECORD.pack_into, time.thread_time_ns
    units = 0
    while True:
        unit()
        units += 1
        write(record, 0, units, clock(), units)


if __name__ == "__main__":
    main(sys.argv[1])
