"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from calib import Calibrator  # noqa: E402
from tracing import Span, Tracer, blocking_steps, children_of, self_times  # noqa: E402
from workloads import NoTracer, Scale  # noqa: E402

from repro.service import QueryEngine  # noqa: E402


# ----------------------------------------------------------------------
# Reference-speed normaliser
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module", ["refkernel.py", "calib.py"])
def test_reference_kernel_imports_nothing_from_the_program(module: str) -> None:
    tree = ast.parse((HERE / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name == "repro" or name.startswith("repro.") for name in imported)


def _synthetic_load() -> float:
    """A fixed unit of program-like work; returns its duration in s."""
    started = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc = (acc * 7 + i) % 99991
    low = np.zeros(3)
    for i in range(300):
        low = np.minimum(low + 0.01, np.ones(3))
    return time.perf_counter() - started


def _hog() -> subprocess.Popen:
    """A busy loop pinned to CPU 0, which halves that CPU's speed."""
    spin = "import os\nos.sched_setaffinity(0, {0})\nwhile True:\n    pass\n"
    return subprocess.Popen([sys.executable, "-c", spin])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_normalised_time_spreads_less_than_raw_time() -> None:
    """Alternate quiet blocks with blocks where a busy loop shares the CPU
    the load and the kernel helper are pinned to: the raw time of a fixed
    load moves with the CPU's speed, the normalised time much less."""
    raw_blocks, norm_blocks = [], []
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {0})
    with Calibrator(0) as calib:
        for block in range(4):
            hogs = [_hog()] if block % 2 else []
            try:
                time.sleep(0.05)
                raw, norm = [], []
                for _ in range(8):
                    calib.pause()
                    seconds = _synthetic_load()
                    factor = calib.factor(time.monotonic())
                    raw.append(seconds)
                    norm.append(seconds * factor)
                calib.pause()
            finally:
                for hog in hogs:
                    hog.kill()
                    hog.wait()
            raw_blocks.append(statistics.median(raw))
            norm_blocks.append(statistics.median(norm))
    os.sched_setaffinity(0, mask)
    raw_spread = max(raw_blocks) / min(raw_blocks)
    norm_spread = max(norm_blocks) / min(norm_blocks)
    assert norm_spread < raw_spread, (raw_blocks, norm_blocks)


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
TINY = Scale(streams=24, frames=(40, 80), setups=1, warmup_ops=2, range_checks=1000, knn_checks=1000, pool=8)


#: Calls a fake target serves faithfully first (past the warm-up).
HONEST_CALLS = 3


class DropsOneAnswer(QueryEngine):
    """Serves correctly except that one search loses its only answer."""

    calls = 0
    dropped = False

    def search(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        result = super().search(*args, **kwargs)
        DropsOneAnswer.calls += 1
        if DropsOneAnswer.calls > HONEST_CALLS and not DropsOneAnswer.dropped and len(result.answers) == 1:
            DropsOneAnswer.dropped = True
            result.answers = []
        return result


class LosesOneWrite(QueryEngine):
    """Acknowledges one insert without applying it."""

    calls = 0
    lost = False

    def insert(self, points, sequence_id=None):  # type: ignore[no-untyped-def]
        LosesOneWrite.calls += 1
        if LosesOneWrite.calls > HONEST_CALLS and not LosesOneWrite.lost:
            LosesOneWrite.lost = True
            return sequence_id
        return super().insert(points, sequence_id=sequence_id)


def _run(workload: str, engine_type: type) -> workloads.Report:
    with Calibrator(0) as calib:
        return workloads.WORKLOADS[workload](calib, 5, 1.5, NoTracer(), TINY, engine_type=engine_type)


def test_correct_program_scores_one() -> None:
    report = _run("search_scale", QueryEngine)
    assert report.verdict.checked > 0
    assert report.metrics["ok_ratio"][0] == 1.0


def test_dropped_answer_drives_ok_ratio_below_one() -> None:
    DropsOneAnswer.calls, DropsOneAnswer.dropped = 0, False
    report = _run("search_scale", DropsOneAnswer)
    assert DropsOneAnswer.dropped
    assert report.metrics["ok_ratio"][0] < 1.0
    assert any("false dismissal" in failure for failure in report.verdict.failures)


def test_lost_acknowledged_write_drives_ok_ratio_below_one() -> None:
    LosesOneWrite.calls, LosesOneWrite.lost = 0, False
    report = _run("ingest_durable", LosesOneWrite)
    assert LosesOneWrite.lost
    assert report.metrics["ok_ratio"][0] < 1.0
    assert any(failure.startswith("recovery") for failure in report.verdict.failures)


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
def _span(span_id: int, name: str, parent: int | None, start: float, end: float) -> Span:
    return Span(span_id, name, parent, 1, start, "loop", end)


def test_self_times_of_nested_spans_add_up_to_the_root() -> None:
    spans = [
        _span(1, "root", None, 0.0, 10.0),
        _span(2, "a", 1, 1.0, 4.0),
        _span(3, "b", 1, 5.0, 9.0),
        _span(4, "b.inner", 3, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)
    steps = blocking_steps(spans[0], children_of(spans))
    assert sum(seconds for _, seconds in steps) == pytest.approx(10.0)


def test_blocking_steps_of_a_fan_out_follow_the_slowest_branch() -> None:
    spans = [
        _span(1, "coordinator", None, 0.0, 10.0),
        _span(2, "backend-0", 1, 1.0, 6.0),
        _span(3, "backend-1", 1, 1.0, 8.0),
        _span(4, "merge", 1, 8.5, 9.5),
    ]
    steps = dict(blocking_steps(spans[0], children_of(spans)))
    assert "backend-0" not in steps
    assert sum(steps.values()) == pytest.approx(10.0)
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_carries_parents_across_a_thread_pool() -> None:
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("loop", True)
        with ThreadPoolExecutor(1) as pool:
            root = tracer.open("root")
            pool.submit(lambda: tracer.close(tracer.open("worker"))).result()
            tracer.close(root)
    finally:
        tracer.uninstall()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["worker"].parent == by_name["root"].id
    assert by_name["worker"].request == by_name["root"].request
