"""Benchmark entry point.

    python3 perfbench/run.py --workload search_scale --seed 1 --seconds 12 --trace 0

Runs one workload from the root of a source checkout and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it is a JSON detail record
with the raw wall-clock values, sample counts and the kernel median,
which are kept beside the gated numbers but never gated.

``--repeat N`` runs the workload N times in child processes, with seeds
``seed .. seed+N-1``, and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOAD_NAMES = ("search_scale", "ingest_durable", "http_cluster")


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N seeds and summarise")
    return parser.parse_args(argv)


def _locate_program() -> None:
    """Put the checkout's ``src`` on the path, or stop with exit code 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def run_once(args: argparse.Namespace) -> dict:
    """One measured run; returns the result object."""
    from calib import Calibrator, pin
    from workloads import CPU, SCALES, WORKLOADS, NoTracer, gated, own

    tracer = NoTracer()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    pin(0, CPU)  # threads started from here on inherit the CPU
    try:
        with Calibrator(CPU) as calib:
            report = WORKLOADS[args.workload](
                calib, args.seed, args.seconds, tracer, SCALES[args.workload]
            )
            calib_ms = calib.median_ms
    finally:
        if args.trace:
            tracer.uninstall()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "calib_ms": calib_ms,
        "own": {name: value for name, (value, _) in own(args.workload, report).items()},
        "raw": report.raw,
        "samples": {k: v for k, v in report.counts.items() if k.endswith(("_samples", "_resolved", "setup_runs"))},
        "failures": report.verdict.failures[:10],
        "checked": report.verdict.checked,
    }
    if args.trace:
        from tracing import layer_metrics

        metrics, check = layer_metrics(tracer, report, calib_ms)
        detail["blocking_check"] = check
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in gated(args.workload, report).items()}
    print(json.dumps(detail, default=str))
    return {
        "correct": report.verdict.failed == 0 and report.errors == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def repeat(args: argparse.Namespace) -> None:
    """Run ``--repeat`` seeds in child processes; print medians and quartiles."""
    values: dict[str, list[float]] = {}
    for offset in range(args.repeat):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + offset),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        started = time.monotonic()
        lines = subprocess.run(command, check=True, capture_output=True, text=True).stdout.splitlines()
        wall = time.monotonic() - started
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("bench.calib_ms", []).append(detail["calib_ms"])
        for kind in ("own", "raw"):
            for name, value in detail[kind].items():
                values.setdefault(f"{kind}.{name}", []).append(value)
        values.setdefault("run_wall_s", []).append(wall)
        print(json.dumps({"seed": args.seed + offset, "correct": result["correct"], "wall_s": wall, **{k: v["value"] for k, v in result["metrics"].items()}}), flush=True)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name:32} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    _locate_program()
    if args.repeat:
        repeat(args)
        return 0
    result = run_once(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
