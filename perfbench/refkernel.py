"""Reference CPU kernel and its helper process.

The benchmark divides every timing by the speed of this fixed kernel,
measured on the same machine at the same moment, so that a slow phase of
the host does not read as a slow program.  The kernel is a few ms of pure
Python plus a little numpy, and this module imports nothing from the
program under test: a change to the program can never change the yardstick.

Run as a script, the module is the helper process.  It reads one command
per line on stdin and answers one line on stdout:

``S <n>``
    run the kernel ``n`` times; answer the durations in ms.
``Q``
    exit.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: Median kernel time (ms) at the reference speed.  A timing multiplied by
#: ``REFERENCE_MS / local_kernel_median`` reads as at that speed.
REFERENCE_MS = 4.0

_LOW = np.array([0.1, 0.2, 0.3])
_HIGH = np.array([0.4, 0.6, 0.5])


def kernel() -> float:
    """One fixed unit of CPU work; returns a checksum.

    Interpreter-bound like the program: integer and dict work, then many
    numpy calls on 3-vectors (as in MBR arithmetic), whose cost is call
    overhead rather than arithmetic.
    """
    acc = 0
    table: dict[int, int] = {}
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
        table[i & 511] = acc
    total = float(sum(sorted(table.values())[::7]))
    low, high = _LOW, _HIGH
    for i in range(700):
        shifted = low + (i % 7) * 0.01
        union_low = np.minimum(shifted, high)
        union_high = np.maximum(shifted, high)
        total += float(np.prod(union_high - union_low))
    return total


def timed_kernel() -> float:
    """Kernel duration in ms."""
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1e3


def _reply(values: list[float]) -> None:
    sys.stdout.write(" ".join(f"{value:.6f}" for value in values) + "\n")
    sys.stdout.flush()


def serve() -> int:
    """The helper process loop (see the module docstring)."""
    for _ in range(5):
        timed_kernel()  # warm the interpreter and numpy before sampling
    _reply([])
    while True:
        command = sys.stdin.readline().split()
        if not command or command[0] == "Q":
            return 0
        if command[0] == "S":
            _reply([timed_kernel() for _ in range(int(command[1]))])


if __name__ == "__main__":
    sys.exit(serve())
