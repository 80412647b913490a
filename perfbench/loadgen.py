"""Seeded inputs, the paused closed loop, and the statistics it reports.

Everything the program receives is generated here from ``--seed`` alone,
by the benchmark's own generator, so a change to the program's data
generators cannot change the benchmark's inputs.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from calib import Calibrator

DIMENSION = 3
#: Seconds of load between two calibration pauses.
PAUSE_EVERY_S = 0.05
#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def video_stream(rng: np.random.Generator, frames: int) -> np.ndarray:
    """A shot-structured stream: drifting shots around a theme colour."""
    out = np.empty((frames, DIMENSION))
    theme = rng.random(DIMENSION)
    done = 0
    while done < frames:
        length = min(int(rng.integers(12, 61)), frames - done)
        centre = np.clip(theme + rng.normal(0.0, 0.1, DIMENSION), 0.0, 1.0)
        walk = np.cumsum(rng.normal(0.0, 0.004, (length, DIMENSION)), axis=0)
        out[done : done + length] = (
            centre + walk + rng.normal(0.0, 0.012, (length, DIMENSION))
        )
        done += length
    return np.clip(out, 0.0, 1.0)


_GOLDEN = (5**0.5 - 1) / 2


def spread(i: int, bounds: tuple[int, int]) -> int:
    """The ``i``-th value of an equidistributed sequence over ``bounds``.

    Sizes come from this sequence rather than from the seed, so every seed
    gets the same mix of short and long inputs, and a run's medians move
    less with the seed.
    """
    lo, hi = bounds
    return lo + int(((i + 1) * _GOLDEN) % 1.0 * (hi - lo + 1))


def video_corpus(
    rng: np.random.Generator, count: int, frames: tuple[int, int], prefix: str
) -> dict[str, np.ndarray]:
    """``count`` streams whose lengths spread evenly over ``frames``."""
    lengths = [spread(i, frames) for i in range(count)]
    rng.shuffle(lengths)
    return {f"{prefix}-{i}": video_stream(rng, length) for i, length in enumerate(lengths)}


def cut_query(
    rng: np.random.Generator, corpus: dict[str, np.ndarray], length: int
) -> np.ndarray:
    """A noisy excerpt of a random stream, ``length`` long (clipped to it)."""
    ids = list(corpus)
    source = corpus[ids[int(rng.integers(len(ids)))]]
    length = min(len(source), length)
    start = int(rng.integers(0, len(source) - length + 1))
    noisy = source[start : start + length] + rng.normal(0.0, 0.01, (length, DIMENSION))
    return np.clip(noisy, 0.0, 1.0)


def zipf_weights(size: int, s: float = 1.1) -> np.ndarray:
    """Probabilities of a Zipf(s) law over ranks ``0..size-1``."""
    weights = 1.0 / np.arange(1, size + 1) ** s
    return weights / weights.sum()


@dataclass
class Op:
    """One generated operation."""

    kind: str  # search | knn | insert | append | remove
    points: np.ndarray | None = None
    epsilon: float = 0.0
    k: int = 0
    sequence_id: str = ""


def kinds(rng: np.random.Generator, pattern: list[str]) -> Callable[[], str]:
    """Operation kinds in seed-shuffled blocks of ``pattern``: the mix is
    exact over every block, the order is random."""
    block: list[str] = []

    def draw() -> str:
        if not block:
            block.extend(pattern)
            rng.shuffle(block)
        return block.pop()

    return draw


class OpStream:
    """An endless operation stream, generated on demand and then kept.

    ``make()`` is called once per operation, in order, so it may keep
    state; the stream stays a pure function of the generator's seed, and
    only the operations a run reaches take memory.
    """

    def __init__(self, make: Callable[[], Op]) -> None:
        self._make = make
        self._ops: list[Op] = []

    def __getitem__(self, index: int) -> Op:
        while len(self._ops) <= index:
            self._ops.append(self._make())
        return self._ops[index]

    def head(self, count: int) -> list[Op]:
        return [self[index] for index in range(count)]


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One executed operation."""

    index: int
    kind: str
    start: float
    seconds: float
    ok: bool
    result: Any = None
    error: str = ""
    norm_ms: float = 0.0


@dataclass
class LoopResult:
    samples: list[Sample]
    ops_per_s: float = 0.0
    raw_ops_per_s: float = 0.0
    #: In a traced run: ops_per_s of the untraced first half of the loop.
    untraced_ops_per_s: float = 0.0


def closed_loop(
    calib: Calibrator,
    ops: OpStream,
    execute: Callable[[Op], Any],
    seconds: float,
    *,
    clients: int = 1,
    first: int = 0,
) -> LoopResult:
    """Run ``ops`` from ``first`` in closed loops until ``seconds`` elapse.

    Every ``PAUSE_EVERY_S`` the load stops, no request is in flight, and the
    reference kernel is sampled.  Latencies and throughput are normalised by
    the pauses around them.
    """
    lock = threading.Condition()
    state = {"next": first, "inflight": 0, "paused": False, "stop": False}
    samples: list[Sample] = []

    def client() -> None:
        while True:
            with lock:
                while state["paused"] and not state["stop"]:
                    lock.wait()
                if state["stop"]:
                    return
                index = state["next"]
                state["next"] += 1
                state["inflight"] += 1
                op = ops[index]
            started = time.monotonic()
            try:
                result, ok, error = execute(op), True, ""
            except Exception as exc:  # a refusal or error is a failed op
                result, ok, error = None, False, f"{type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - started
            with lock:
                samples.append(Sample(index, op.kind, started, elapsed, ok, result, error))
                state["inflight"] -= 1
                lock.notify_all()

    calib.pause()
    busy: list[tuple[float, float]] = []
    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    began = segment = time.monotonic()
    for thread in threads:
        thread.start()
    while not state["stop"]:
        time.sleep(PAUSE_EVERY_S)
        with lock:
            state["paused"] = True
            while state["inflight"]:
                lock.wait()
            now = time.monotonic()
            busy.append((segment, now))
        calib.pause()
        with lock:
            state["stop"] = now - began >= seconds
            state["paused"] = False
            segment = time.monotonic()
            lock.notify_all()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda sample: sample.index)
    for sample in samples:
        sample.norm_ms = sample.seconds * 1e3 * calib.factor(sample.start)
    raw_busy = sum(end - start for start, end in busy)
    norm_busy = sum((end - start) * calib.factor((start + end) / 2) for start, end in busy)
    done = sum(1 for sample in samples if sample.ok)
    return LoopResult(samples, done / norm_busy, done / raw_busy)


def paced(calib: Calibrator, step: Callable[[], bool]) -> tuple[float, float]:
    """Call ``step()`` until it returns True, pausing between calls.

    For a long piece of work the benchmark can drive step by step (a
    corpus load, a follower catch-up).  Returns (normalised s, raw s) of
    the steps alone.
    """
    calib.pause()
    spans: list[tuple[float, float]] = []
    mark = time.monotonic()
    done = False
    while not done:
        started = time.monotonic()
        done = step()
        now = time.monotonic()
        spans.append((started, now))
        if now - mark >= PAUSE_EVERY_S:
            calib.pause()
            mark = time.monotonic()
    calib.pause()
    raw = sum(end - start for start, end in spans)
    norm = sum((end - start) * calib.factor(end) for start, end in spans)
    return norm, raw


def single(calib: Calibrator, call: Callable[[], Any], pauses: int = 4) -> tuple[Any, float, float]:
    """Time one call that cannot be paused; normalise by pauses around it.

    Returns (result, normalised s, raw s).
    """
    for _ in range(pauses):
        calib.pause()
    started = time.monotonic()
    result = call()
    raw = time.monotonic() - started
    for _ in range(pauses):
        calib.pause()
    return result, raw * calib.factor(started + raw), raw


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    return float(np.percentile(values, q * 100)) if values else math.nan


def tail_ok(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``TAIL_SAMPLES`` beyond quantile ``q``."""
    return count * (1.0 - q) >= TAIL_SAMPLES


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set of another live process (MB), from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
