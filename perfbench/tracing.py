"""Span recorder for the traced run, and the per-layer metrics it yields.

:class:`Tracer` wraps public entry points of each layer from outside the
program (nothing under ``src/`` changes).  A span records its name,
start, end, parent and request id; spans stay in memory and are read when
the run ends.  ``ThreadPoolExecutor.submit`` is wrapped too, so a span
opened on a worker thread has the submitting span as its parent, and a
coordinator span on an HTTP handler thread is linked to the client span
that sent the same query.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from refkernel import REFERENCE_MS


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int
    start: float
    phase: str
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def points_key(points: Any, epsilon: Any = None) -> str:
    """The identity of a query as both sides of the HTTP hop see it."""
    digest = hashlib.blake2b(np.asarray(points, dtype=np.float64).tobytes(), digest_size=8)
    return f"{digest.hexdigest()}:{epsilon}"


# (module, owner or None for a module function, attribute, span name)
ENTRY_POINTS = [
    ("repro.core.search", None, "partition_sequence", "partition.query"),
    ("repro.core.database", None, "partition_sequence", "partition.write"),
    ("repro.index.rtree", "RTree", "search_within", "index.search_within"),
    ("repro.index.rtree", "RTree", "insert", "index.insert"),
    ("repro.index.rtree", "RTree", "nearest", "index.nearest"),
    ("repro.core.search", "SimilaritySearch", "search", "search.search"),
    ("repro.core.search", "SimilaritySearch", "knn", "search.knn"),
    ("repro.core.database", "SequenceDatabase", "clone", "database.clone"),
    ("repro.core.database", "SequenceDatabase", "add", "database.add"),
    ("repro.core.database", "SequenceDatabase", "append_points", "database.append_points"),
    ("repro.service.wal", "WriteAheadLog", "append", "wal.append"),
    ("repro.service.engine", None, "replay_into", "wal.replay_into"),
    ("repro.service.engine", None, "verify_frozen", "engine.verify_frozen"),
    ("repro.service.engine", "QueryEngine", "search_detailed", "engine.search"),
    ("repro.service.engine", "QueryEngine", "knn", "engine.knn"),
    ("repro.service.engine", "QueryEngine", "insert", "engine.insert"),
    ("repro.service.engine", "QueryEngine", "append", "engine.append"),
    ("repro.service.engine", "QueryEngine", "remove", "engine.remove"),
    ("repro.service.engine", "QueryEngine", "apply_records", "engine.apply_records"),
    ("repro.service.engine", "QueryEngine", "wal_tail", "engine.wal_tail"),
    ("repro.service.follower", None, "decode_frames", "follower.decode"),
    ("repro.service.cache", "EpsilonCache", "apply_write", "cache.apply_write"),
    ("repro.cluster.coordinator", "ClusterCoordinator", "search", "cluster.search"),
    ("repro.cluster.coordinator", "ClusterCoordinator", "insert", "cluster.insert"),
    ("repro.cluster.coordinator", None, "merge_search_payloads", "cluster.merge"),
    ("repro.cluster.backends", "LocalBackend", "search", "backend.search"),
    ("repro.cluster.backends", "LocalBackend", "insert", "backend.insert"),
    ("repro.service.client", "ServiceClient", "search", "client.search"),
    ("repro.service.client", "ServiceClient", "insert", "client.insert"),
]


def _record(name: str, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """Attributes a span keeps from its call."""
    if name == "search.search":
        span.attrs["stats"] = result.stats
        span.attrs["answers"] = len(result.answers)
    elif name == "engine.apply_records":
        span.attrs["records"] = len(args[1])
    elif name == "wal.replay_into":
        span.attrs["records"] = len(args[1])
    elif name == "cluster.search":
        span.attrs["key"] = points_key(args[1], float(args[2]))
    elif name == "cluster.insert":
        span.attrs["key"] = points_key(args[1], None)
    elif name in ("client.search", "client.insert"):
        points = np.asarray(args[1], dtype=np.float64).tolist()
        if name == "client.search":
            body = {"points": points, "epsilon": float(args[2]), "find_intervals": kwargs.get("find_intervals", True)}
            span.attrs["key"] = points_key(args[1], float(args[2]))
        else:
            body = {"points": points, "sequence_id": kwargs.get("sequence_id")}
            span.attrs["key"] = points_key(args[1], None)
        span.attrs["request_bytes"] = len(json.dumps(body))
        span.attrs["response_bytes"] = len(json.dumps(result))


class Tracer:
    """In-memory spans around the program's public entry points."""

    traced_run = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.current_phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def phase(self, name: str, enabled: bool) -> None:
        self.current_phase = name
        self.enabled = enabled

    # -- span stack -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id, name, None if parent is None else parent.id,
            span_id if parent is None else parent.request,
            time.perf_counter(), self.current_phase,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                _record(name, span, args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        return traced

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point, and carry span context across pools."""
        for module_name, owner_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name))
        submit = ThreadPoolExecutor.submit
        tracer = self

        def carrying_submit(pool: ThreadPoolExecutor, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def run(*inner: Any, **inner_kw: Any) -> Any:
                mine = tracer._stack()
                mine.append(parent)
                try:
                    return fn(*inner, **inner_kw)
                finally:
                    mine.remove(parent)

            return submit(pool, run, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", carrying_submit)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def link_http(spans: list[Span]) -> None:
    """Parent each server-side cluster span to the client span that sent it."""
    clients = defaultdict(list)
    for span in spans:
        if span.name.startswith("client.") and "key" in span.attrs:
            clients[span.attrs["key"]].append(span)
    children = children_of(spans)
    for span in spans:
        if span.parent is None and span.name.startswith("cluster.") and "key" in span.attrs:
            for client in clients.get(span.attrs["key"], ()):
                if client.start <= span.start and span.end <= client.end:
                    span.parent = client.id
                    _set_request(span, client.request, children)
                    break


def _set_request(root: Span, request: int, children: dict[int, list[Span]]) -> None:
    pending = [root]
    while pending:
        span = pending.pop()
        span.request = request
        pending.extend(children.get(span.id, ()))


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of ``kids`` clipped to ``span``."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    covered, reach = 0.0, span.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time child spans cover, per span id."""
    children = children_of(spans)
    return {span.id: span.seconds - _covered(span, children.get(span.id, [])) for span in spans}


def blocking_steps(span: Span, children: dict[int, list[Span]]) -> list[tuple[str, float]]:
    """Self times along the blocking path under ``span``.

    Of overlapping children (a fan-out), the one that ends last blocks the
    parent; the others ran beside it.  The returned self times add up to
    the span's duration.
    """
    chain: list[Span] = []
    cursor = span.end
    for kid in sorted(children.get(span.id, []), key=lambda k: k.end, reverse=True):
        if kid.end <= cursor and kid.start >= span.start:
            chain.append(kid)
            cursor = kid.start
    own = span.seconds - sum(kid.seconds for kid in chain)
    steps = [(span.name, own)]
    for kid in reversed(chain):
        steps.extend(blocking_steps(kid, children))
    return steps


# Metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "partitioning.query_ms": "ms",
    "partitioning.query_segments": "count",
    "partitioning.write_ms": "ms",
    "index.probe_ms": "ms",
    "index.node_accesses": "count",
    "index.candidates": "count",
    "index.insert_ms": "ms",
    "index.build_s": "s",
    "search.phase3_ms": "ms",
    "search.dnorm_evals": "count",
    "search.precision": "ratio",
    "search.knn_ms": "ms",
    "database.clone_ms": "ms",
    "database.add_ms": "ms",
    "engine.overhead_ms": "ms",
    "engine.queue_wait_ms": "ms",
    "engine.publish_ms": "ms",
    "engine.write_other_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.patch_ms": "ms",
    "cache.patches_per_write": "count",
    "wal.append_ms": "ms",
    "wal.bytes_per_record": "bytes",
    "wal.replay_ms": "ms",
    "follower.tail_ms": "ms",
    "follower.apply_ms": "ms",
    "http.transport_ms": "ms",
    "http.request_bytes": "bytes",
    "http.response_bytes": "bytes",
    "client.retries": "count",
    "cluster.fanout_ms": "ms",
    "cluster.merge_ms": "ms",
    "cluster.backend_calls_per_op": "count",
    "cluster.replicate_ms": "ms",
    "bench.calib_ms": "ms",
    "bench.trace_overhead": "ratio",
}

WRITES = ("engine.insert", "engine.append", "engine.remove")


def layer_metrics(tracer: Tracer, report: Any, calib_ms: float) -> tuple[dict, dict]:
    """Every per-layer metric (0 where the layer did not run), plus the
    blocking-path check of one sampled request."""
    spans = [span for span in tracer.spans if span.end > 0]
    link_http(spans)
    own = self_times(spans)
    children = children_of(spans)
    scale = REFERENCE_MS / calib_ms  # per-layer times in reference units too

    def pick(name: str, phases: tuple[str, ...] = ("loop",)) -> list[Span]:
        return [s for s in spans if s.name == name and s.phase in phases]

    def pick_any(name: str, phases: tuple[str, ...]) -> list[Span]:
        """Loop spans, or the first listed phase that has some."""
        for phase in phases:
            found = pick(name, (phase,))
            if found:
                return found
        return []

    def mean_ms(chosen: list[Span], per: int | None = None, self_time: bool = True) -> float:
        if not chosen:
            return 0.0
        total = sum(own[s.id] if self_time else s.seconds for s in chosen)
        return total * 1e3 * scale / (per or len(chosen))

    def kid_sum(span: Span, names: tuple[str, ...]) -> float:
        return sum(k.seconds for k in children.get(span.id, []) if k.name in names)

    out: dict[str, float] = {}
    searches = pick("search.search")
    stats = [s.attrs["stats"] for s in searches]
    out["partitioning.query_ms"] = mean_ms(pick("partition.query"))
    out["partitioning.query_segments"] = _mean([st.query_segments for st in stats])
    out["partitioning.write_ms"] = mean_ms(pick_any("partition.write", ("loop", "setup")))
    out["index.probe_ms"] = mean_ms(pick("index.search_within"), per=len(searches) or None)
    out["index.node_accesses"] = _mean([st.node_accesses for st in stats])
    out["index.candidates"] = _mean([st.candidates_after_dmbr for st in stats])
    out["index.insert_ms"] = mean_ms(pick_any("index.insert", ("loop", "setup")))
    build = pick("index.insert", ("setup",))
    out["index.build_s"] = sum(own[s.id] for s in build) * scale
    out["search.phase3_ms"] = _mean([st.phase3_seconds * 1e3 * scale for st in stats])
    out["search.dnorm_evals"] = _mean([st.dnorm_evaluations for st in stats])
    candidates = sum(st.candidates_after_dmbr for st in stats)
    out["search.precision"] = sum(s.attrs["answers"] for s in searches) / candidates if candidates else 0.0
    out["search.knn_ms"] = mean_ms(pick("search.knn"))
    out["database.clone_ms"] = mean_ms(pick("database.clone"))
    out["database.add_ms"] = mean_ms(pick_any("database.add", ("loop", "setup")))
    engine_searches = pick("engine.search")
    out["engine.overhead_ms"] = (
        _mean([(s.seconds - kid_sum(s, ("search.search",))) * 1e3 * scale for s in engine_searches])
    )
    engine_stats = report.counts.get("engine_stats", {})
    out["engine.queue_wait_ms"] = float(engine_stats.get("admission", {}).get("queue_wait_ms", {}).get("p50", 0.0) or 0.0)
    writes = [s for s in spans if s.name in WRITES and s.phase == "loop"]
    publish = [k for w in writes for k in children.get(w.id, []) if k.name == "engine.verify_frozen"]
    out["engine.publish_ms"] = mean_ms(publish, per=len(writes) or None)
    out["engine.write_other_ms"] = mean_ms(writes)
    cache = engine_stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("refines", 0) + cache.get("misses", 0)
    out["cache.hit_ratio"] = (cache.get("hits", 0) + cache.get("refines", 0)) / lookups if lookups else 0.0
    out["cache.patch_ms"] = mean_ms(pick("cache.apply_write"))
    engine_writes = sum(engine_stats.get("requests", {}).get(op, 0) for op in ("insert", "append", "remove"))
    out["cache.patches_per_write"] = cache.get("patches", 0) / engine_writes if engine_writes else 0.0
    out["wal.append_ms"] = mean_ms(pick("wal.append"))
    records = report.counts.get("wal_records", 0)
    out["wal.bytes_per_record"] = report.counts.get("wal_bytes", 0) / records if records else 0.0
    replays = pick("wal.replay_into", ("recovery",))
    replayed = sum(s.attrs["records"] for s in replays)
    out["wal.replay_ms"] = sum(s.seconds for s in replays) * 1e3 * scale / replayed if replayed else 0.0
    tails = pick("engine.wal_tail", ("catchup",))
    decodes = pick("follower.decode", ("catchup",))
    out["follower.tail_ms"] = (
        (sum(s.seconds for s in tails) + sum(s.seconds for s in decodes)) * 1e3 * scale / len(tails) if tails else 0.0
    )
    applies = pick("engine.apply_records", ("catchup",))
    applied = sum(s.attrs["records"] for s in applies)
    out["follower.apply_ms"] = sum(s.seconds for s in applies) * 1e3 * scale / applied if applied else 0.0
    client_spans = [s for s in spans if s.name.startswith("client.") and s.phase == "loop"]
    out["http.transport_ms"] = mean_ms(client_spans)
    out["http.request_bytes"] = _mean([s.attrs["request_bytes"] for s in client_spans])
    out["http.response_bytes"] = _mean([s.attrs["response_bytes"] for s in client_spans])
    out["client.retries"] = float(sum(t.get("retries", 0) for t in report.counts.get("transport", [])))
    cluster_searches = pick("cluster.search")
    out["cluster.fanout_ms"] = mean_ms(cluster_searches)
    out["cluster.merge_ms"] = mean_ms(pick("cluster.merge"), per=len(cluster_searches) or None)
    cluster_ops = cluster_searches + pick("cluster.insert")
    backend_calls = [s for s in spans if s.name.startswith("backend.") and s.phase == "loop"]
    out["cluster.backend_calls_per_op"] = len(backend_calls) / len(cluster_ops) if cluster_ops else 0.0
    out["cluster.replicate_ms"] = _mean(
        [
            (s.seconds - max((k.seconds for k in children.get(s.id, []) if k.name == "backend.insert"), default=0.0)) * 1e3 * scale
            for s in pick("cluster.insert")
        ]
    )
    out["bench.calib_ms"] = calib_ms
    plain = report.loop.untraced_ops_per_s
    out["bench.trace_overhead"] = report.loop.ops_per_s / plain if plain else 0.0

    metrics = {name: {"value": float(out[name]), "unit": unit} for name, unit in LAYER_UNITS.items()}
    return metrics, blocking_check(spans, children)


def blocking_check(spans: list[Span], children: dict[int, list[Span]]) -> dict:
    """The slowest-median request root of the loop, walked along its
    blocking steps: the self times must add up to the root's duration."""
    roots = [s for s in spans if s.parent is None and s.phase == "loop"]
    if not roots:
        return {}
    roots.sort(key=lambda s: s.seconds)
    root = roots[len(roots) // 2]
    steps = blocking_steps(root, children)
    total = sum(seconds for _, seconds in steps)
    return {
        "root": root.name,
        "root_ms": root.seconds * 1e3,
        "blocking_sum_ms": total * 1e3,
        "steps": [(name, round(seconds * 1e3, 4)) for name, seconds in steps],
    }


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0

