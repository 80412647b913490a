"""Reference-speed normaliser: the helper-process kernel and its timeline.

The host's speed changes in phases of seconds, and its two vCPUs do not
always run at the same speed, so a raw wall-clock time of unchanged code
spreads widely from run to run.  :class:`Calibrator` keeps the reference
kernel (:mod:`refkernel`) in a helper process, which shares no interpreter
lock with the program, pins it to the CPU the run is pinned to, and
samples it at pauses of the load, when no request is in flight
(:meth:`pause`).  A timing divided by the kernel's median at the pauses
around it and multiplied by :data:`refkernel.REFERENCE_MS` reads as at the
reference speed.

The kernel never runs beside the program: sampling it back to back on the
other vCPU across a long call made that call's time noisier, not steadier,
and a helper on the other vCPU read that CPU's speed (see README.md).
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refkernel import REFERENCE_MS

#: Kernel runs per pause.
SAMPLES_PER_PAUSE = 3
#: Pauses on each side of a moment that make up its local median.
NEIGHBOUR_PAUSES = 2


def pin(pid: int, cpu: int) -> None:
    """Pin ``pid`` (0: the calling thread) to one CPU, where supported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu})


class Calibrator:
    """Owns the helper process and every kernel sample of one run."""

    def __init__(self, cpu: int) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, "-u", str(Path(__file__).with_name("refkernel.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        pin(self._helper.pid, cpu)
        self._read()  # the helper says it is warm with an empty line
        self._pause_times: list[float] = []
        self._pause_medians: list[float] = []
        #: Every kernel duration (ms) seen in this run.
        self.samples: list[float] = []

    def _read(self) -> list[float]:
        assert self._helper.stdout is not None
        line = self._helper.stdout.readline()
        if not line.endswith("\n"):
            raise RuntimeError("reference kernel helper exited")
        return [float(value) for value in line.split()]

    def close(self) -> None:
        if self._helper.poll() is None:
            try:
                assert self._helper.stdin is not None
                self._helper.stdin.write("Q\n")
                self._helper.stdin.close()
            except OSError:
                pass
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
        if self._helper.stdout is not None:
            self._helper.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sampling -------------------------------------------------------
    def pause(self) -> float:
        """Sample the kernel now (the caller has no request in flight)."""
        assert self._helper.stdin is not None
        self._helper.stdin.write(f"S {SAMPLES_PER_PAUSE}\n")
        self._helper.stdin.flush()
        values = self._read()
        self.samples.extend(values)
        median = statistics.median(values)
        self._pause_times.append(time.monotonic())
        self._pause_medians.append(median)
        return median

    # -- normalisation --------------------------------------------------
    def local_median(self, moment: float) -> float:
        """Kernel median (ms) of the pauses nearest ``moment``."""
        if not self._pause_times:
            raise RuntimeError("no pause samples taken yet")
        at = bisect.bisect_left(self._pause_times, moment)
        lo = max(0, at - NEIGHBOUR_PAUSES)
        hi = min(len(self._pause_times), at + NEIGHBOUR_PAUSES)
        return statistics.median(self._pause_medians[lo:hi])

    def factor(self, moment: float) -> float:
        """Multiplier taking a raw timing at ``moment`` to reference units."""
        return REFERENCE_MS / self.local_median(moment)

    @property
    def median_ms(self) -> float:
        """The kernel's median over the whole run (``bench.calib_ms``)."""
        return statistics.median(self.samples)
