"""The three workloads: search_scale, ingest_durable and http_cluster.

Each workload builds its inputs from the seed, sets the program up
several times (``setup_s`` is the median), warms up, drives a paused
closed loop for the run's seconds, then times its after-phases and checks
answers outside every timing.  With a tracer, the workload sets up once,
runs half its loop untraced and half traced (for the overhead ratio), and
traces its after-phases.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from calib import Calibrator
from loadgen import (
    DIMENSION,
    LoopResult,
    Op,
    OpStream,
    closed_loop,
    cut_query,
    median,
    paced,
    peak_rss_mb,
    peak_rss_mb_of,
    percentile,
    single,
    spread,
    kinds,
    tail_ok,
    video_corpus,
    video_stream,
    zipf_weights,
)
from oracle import Verdict, check_knn, check_range, check_state, sample_indices

from repro.cluster import ClusterCoordinator, LocalBackend, serve_cluster
from repro.core.database import SequenceDatabase
from repro.service import QueryEngine, ServiceClient
from repro.service.follower import WalFollower
from repro.service.wal import DurabilityConfig

#: Range-search thresholds, alternated; query lengths in frames.
EPSILONS = (0.05, 0.10)
QUERY_FRAMES = (24, 96)
#: The CPU every process of a run is pinned to: the benchmark with its
#: client threads, the kernel helper and the cluster-serve child.  One CPU
#: for all keeps the kernel on the CPU whose speed the program sees.
CPU = 0
#: Where a run keeps its data directories and corpus files.
WORK = Path(__file__).resolve().parent / "work"
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Scale:
    """Sizes of one workload; tests shrink them."""

    streams: int
    frames: tuple[int, int] = (56, 256)
    setups: int = 3
    warmup_ops: int = 20
    range_checks: int = 24
    knn_checks: int = 6
    pool: int = 64


SCALES = {
    "search_scale": Scale(streams=256),
    "ingest_durable": Scale(streams=192, range_checks=16),
    "http_cluster": Scale(streams=128, setups=3, range_checks=24),
}


@dataclass
class Report:
    """What one run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    verdict: Verdict = field(default_factory=Verdict)
    counts: dict[str, Any] = field(default_factory=dict)
    loop: LoopResult | None = None

    @property
    def failed(self) -> int:
        return self.errors + self.verdict.failed

    def finish(self) -> None:
        ok = max(0, self.attempted - self.failed) / max(1, self.attempted)
        self.metrics["ok_ratio"] = (ok, "ratio")


class NoTracer:
    """Stands in for :class:`tracing.Tracer` in untraced runs."""

    enabled = False
    traced_run = False

    def phase(self, name: str, enabled: bool) -> None:
        pass


def _loop_metrics(report: Report, loop: LoopResult, kinds: dict[str, str]) -> None:
    """ops_per_s plus the p50 (and tail) of each latency group in ``kinds``.

    ``kinds`` maps a metric prefix to a comma-separated list of op kinds.
    """
    report.metrics["ops_per_s"] = (loop.ops_per_s, "1/s")
    report.raw["ops_per_s"] = loop.raw_ops_per_s
    report.attempted += len(loop.samples)
    report.errors += sum(1 for sample in loop.samples if not sample.ok)
    for prefix, group in kinds.items():
        members = group.split(",")
        chosen = [s for s in loop.samples if s.ok and s.kind in members]
        norm = [s.norm_ms for s in chosen]
        raw = [s.seconds * 1e3 for s in chosen]
        report.counts[f"{prefix}_samples"] = len(norm)
        report.metrics[f"{prefix}_p50_ms"] = (median(norm), "ms")
        report.raw[f"{prefix}_p50_ms"] = median(raw)
        for name, q in (("p95", 0.95), ("p99", 0.99)):
            report.counts[f"{prefix}_{name}_resolved"] = tail_ok(len(norm), q)
            report.metrics[f"{prefix}_{name}_ms"] = (percentile(norm, q), "ms")
            report.raw[f"{prefix}_{name}_ms"] = percentile(raw, q)


def _setups(calib: Calibrator, count: int, build: Callable[[int], tuple[Any, float, float]]) -> tuple[Any, list[float], list[float]]:
    """Set up ``count`` times; keep the last instance, close the others."""
    norms, raws, kept = [], [], None
    for attempt in range(count):
        if kept is not None:
            kept.close()
        kept, norm, raw = build(attempt)
        norms.append(norm)
        raws.append(raw)
    return kept, norms, raws


def _build_database(calib: Calibrator, corpus: dict[str, np.ndarray]) -> tuple[SequenceDatabase, float, float]:
    """Hand the corpus to the program stream by stream, pausing between."""
    database = SequenceDatabase(DIMENSION)
    items = iter(corpus.items())

    def step() -> bool:
        entry = next(items, None)
        if entry is None:
            return True
        database.add(entry[1], sequence_id=entry[0])
        return False

    norm, raw = paced(calib, step)
    return database, norm, raw


def _warm_pool(pool: list[np.ndarray], search: Callable[[np.ndarray, float], Any]) -> None:
    """Search every pool query once, untimed, so the loop's reads are the
    cache hits the workload is about rather than a seed-dependent share of
    first-time misses."""
    for rank, query in enumerate(pool):
        search(query, EPSILONS[rank % 2])


def _split_loop(calib: Calibrator, tracer: Any, ops: OpStream, execute: Callable[[Op], Any], seconds: float, clients: int, start: int) -> LoopResult:
    """The timed loop; traced runs measure half untraced, half traced."""
    if not tracer.traced_run:
        return closed_loop(calib, ops, execute, seconds, clients=clients, first=start)
    tracer.phase("loop", False)
    plain = closed_loop(calib, ops, execute, seconds / 2, clients=clients, first=start)
    tracer.phase("loop", True)
    first = max(s.index for s in plain.samples) + 1
    traced = closed_loop(calib, ops, execute, seconds / 2, clients=clients, first=first)
    traced.untraced_ops_per_s = plain.ops_per_s
    traced.samples = plain.samples + traced.samples  # every answer is checked
    return traced


# ----------------------------------------------------------------------
# search_scale
# ----------------------------------------------------------------------
def search_scale(calib: Calibrator, seed: int, seconds: float, tracer: Any, scale: Scale, engine_type: type = QueryEngine) -> Report:
    """Read-only: distinct range searches and kNNs over a static corpus."""
    rng = np.random.default_rng([seed, 1])
    corpus = video_corpus(rng, scale.streams, scale.frames, "video")
    count = iter(range(1 << 62))

    def make() -> Op:
        i = next(count)
        query = cut_query(rng, corpus, spread(i, QUERY_FRAMES))
        if i % 10 == 9:
            return Op("knn", query, k=5)
        return Op("search", query, epsilon=EPSILONS[i % 2])

    ops = OpStream(make)
    report = Report()

    def build(_: int) -> tuple[Any, float, float]:
        database, norm, raw = _build_database(calib, corpus)
        engine, norm_e, raw_e = single(calib, lambda: engine_type(database, workers=2), pauses=0)
        return engine, norm + norm_e, raw + raw_e

    tracer.phase("setup", True)
    engine, norms, raws = _setups(calib, 1 if tracer.traced_run else scale.setups, build)
    try:
        def execute(op: Op) -> Any:
            if op.kind == "knn":
                return engine.knn(op.points, op.k)
            return engine.search(op.points, op.epsilon, find_intervals=True)

        tracer.phase("warmup", False)
        for op in ops.head(scale.warmup_ops):
            execute(op)
        loop = _split_loop(calib, tracer, ops, execute, seconds, 1, scale.warmup_ops)
        tracer.phase("checks", False)
        report.counts["engine_stats"] = engine.stats()
    finally:
        engine.close()
    report.metrics["setup_s"] = (median(norms), "s")
    report.raw["setup_s"] = median(raws)
    report.counts["setup_runs"] = len(norms)
    _loop_metrics(report, loop, {"search": "search", "knn": "knn"})
    report.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.loop = loop

    sampler = np.random.default_rng([seed, 99])
    ok = [s for s in loop.samples if s.ok]
    ranges = [s.index for s in ok if s.kind == "search"]
    knns = [s.index for s in ok if s.kind == "knn"]
    by_index = {s.index: s for s in ok}
    for index in sample_indices(sampler, ranges, scale.range_checks):
        op, sample = ops[index], by_index[index]
        check_range(report.verdict, f"op {index}", op.points, op.epsilon, sample.result.answers, corpus)
    for index in sample_indices(sampler, knns, scale.knn_checks):
        op, sample = ops[index], by_index[index]
        check_knn(report.verdict, f"op {index}", op.points, op.k, sample.result, corpus)
    report.finish()
    return report


#: The metric set every workload reports, and which of a workload's own
#: metrics fills each generic slot.
GATED = ("setup_s", "ops_per_s", "search_p50_ms", "tail_ms", "heavy_p50_ms", "peak_rss_mb", "ok_ratio")
SLOTS = {
    "search_scale": {"tail_ms": "search_p95_ms", "heavy_p50_ms": "knn_p50_ms"},
    "ingest_durable": {"tail_ms": "write_p95_ms", "heavy_p50_ms": "insert_p50_ms"},
    "http_cluster": {"tail_ms": "search_p95_ms", "heavy_p50_ms": "write_p50_ms"},
}
#: The workload's own metrics, reported (ungated) in the detail line.
OWN = {
    "search_scale": ("setup_s", "ops_per_s", "search_p50_ms", "search_p95_ms", "search_p99_ms", "knn_p50_ms", "peak_rss_mb", "ok_ratio"),
    "ingest_durable": (
        "setup_s", "ops_per_s", "search_p50_ms", "write_p50_ms", "write_p95_ms", "insert_p50_ms", "recovery_s",
        "catchup_records_per_s", "stored_bytes_per_user_byte", "peak_rss_mb", "ok_ratio",
    ),
    "http_cluster": ("setup_s", "ops_per_s", "search_p50_ms", "search_p95_ms", "search_p99_ms", "write_p50_ms", "peak_rss_mb", "ok_ratio"),
}


def gated(workload: str, report: Report) -> dict[str, tuple[float, str]]:
    """The common metric set, each slot filled from the workload's own."""
    slots = SLOTS[workload]
    return {name: report.metrics[slots.get(name, name)] for name in GATED}


def own(workload: str, report: Report) -> dict[str, tuple[float, str]]:
    return {name: report.metrics[name] for name in OWN[workload]}


# ----------------------------------------------------------------------
# ingest_durable
# ----------------------------------------------------------------------
#: Every NOISE_EVERY-th insert is NOISE_POINTS unit-cube points, about one
#: MBR per point: the write path's worst case.  They are 12% of writes, so
#: write_p95_ms falls inside this group rather than on its edge.
NOISE_POINTS = 64
NOISE_EVERY = 5


def ingest_ops(rng: np.random.Generator, corpus: dict[str, np.ndarray], scale: Scale) -> tuple[OpStream, list[np.ndarray]]:
    """The write-heavy operation stream and its query pool (pure in rng)."""
    pool = [cut_query(rng, corpus, spread(i, QUERY_FRAMES)) for i in range(scale.pool)]
    weights = zipf_weights(scale.pool)
    removable = list(corpus)
    rng.shuffle(removable)
    inserted: list[str] = []
    kind = kinds(rng, ["insert"] * 9 + ["append"] * 5 + ["remove"] + ["search"] * 5)

    def make() -> Op:
        chosen = kind()
        if chosen == "insert" or not inserted or (chosen == "remove" and not removable):
            sequence_id = f"ins-{len(inserted)}"
            if len(inserted) % NOISE_EVERY == NOISE_EVERY - 1:
                points = rng.random((NOISE_POINTS, DIMENSION))
            else:
                points = video_stream(rng, spread(len(inserted), (56, 192)))
            inserted.append(sequence_id)
            return Op("insert", points, sequence_id=sequence_id)
        if chosen == "append":
            target = inserted[-1 - int(rng.integers(min(16, len(inserted))))]
            return Op("append", video_stream(rng, 16), sequence_id=target)
        if chosen == "remove":
            return Op("remove", sequence_id=removable.pop())
        rank = int(rng.choice(scale.pool, p=weights))
        return Op("search", pool[rank], epsilon=EPSILONS[rank % 2])

    return OpStream(make), pool


def apply_model(model: dict[str, np.ndarray], op: Op) -> None:
    """Apply one acknowledged write to the model of stored sequences."""
    if op.kind == "insert":
        model[op.sequence_id] = op.points
    elif op.kind == "append":
        model[op.sequence_id] = np.vstack([model[op.sequence_id], op.points])
    elif op.kind == "remove":
        del model[op.sequence_id]


def _stored(engine: Any) -> dict[object, np.ndarray]:
    export = engine.export_sequences()
    return {entry["id"]: np.asarray(entry["points"], dtype=np.float64) for entry in export["sequences"]}


def ingest_durable(calib: Calibrator, seed: int, seconds: float, tracer: Any, scale: Scale, engine_type: type = QueryEngine) -> Report:
    """Write-heavy durable engine, then restart, follower catch-up, disk use."""
    rng = np.random.default_rng([seed, 2])
    corpus = video_corpus(rng, scale.streams, scale.frames, "video")
    ops, pool = ingest_ops(rng, corpus, scale)
    report = Report()
    root = WORK / f"ingest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    follower_seed: list[SequenceDatabase] = []

    def config(attempt: int) -> DurabilityConfig:
        return DurabilityConfig(root / f"leader-{attempt}", fsync=True, checkpoint_every=0, checkpoint_on_close=False)

    def build(attempt: int) -> tuple[Any, float, float]:
        shutil.rmtree(root / f"leader-{attempt - 1}", ignore_errors=True)
        database, norm, raw = _build_database(calib, corpus)
        follower_seed[:] = [database.clone()]
        engine, norm_e, raw_e = single(
            calib, lambda: engine_type(database, workers=2, durability=config(attempt))
        )
        return engine, norm + norm_e, raw + raw_e

    model = dict(corpus)
    engines: list[Any] = []
    try:
        tracer.phase("setup", True)
        engine, norms, raws = _setups(calib, 1 if tracer.traced_run else scale.setups, build)
        engines.append(engine)
        cfg = config(len(norms) - 1)

        def execute(op: Op) -> Any:
            if op.kind == "insert":
                return engine.insert(op.points, sequence_id=op.sequence_id)
            if op.kind == "append":
                return engine.append(op.sequence_id, op.points)
            if op.kind == "remove":
                return engine.remove(op.sequence_id)
            return engine.search(op.points, op.epsilon, find_intervals=True)

        tracer.phase("warmup", False)
        _warm_pool(pool, lambda query, epsilon: engine.search(query, epsilon, find_intervals=True))
        for op in ops.head(scale.warmup_ops):
            execute(op)
            apply_model(model, op)
        loop = _split_loop(calib, tracer, ops, execute, seconds, 1, scale.warmup_ops)
        tracer.phase("checks", False)
        # Searches are checked against the corpus as it stood when they ran.
        sampler = np.random.default_rng([seed, 99])
        done = {s.index: s for s in loop.samples}
        searches = [s.index for s in loop.samples if s.ok and s.kind == "search"]
        wanted = set(sample_indices(sampler, searches, scale.range_checks))
        last = max(done)
        for index in range(scale.warmup_ops, last + 1):
            sample = done[index]
            if index in wanted:
                check_range(report.verdict, f"op {index}", ops[index].points, ops[index].epsilon, sample.result.answers, model)
            if sample.ok and ops[index].kind != "search":
                apply_model(model, ops[index])
        report.counts["engine_stats"] = engine.stats()
        user_bytes = 8 * DIMENSION * sum(len(points) for points in model.values())
        disk = cfg.snapshot_path.stat().st_size + cfg.wal_path.stat().st_size
        report.counts["wal_bytes"] = cfg.wal_path.stat().st_size
        report.counts["wal_records"] = engine.wal_last_seq
        report.metrics["stored_bytes_per_user_byte"] = (disk / user_bytes, "ratio")
        engines.remove(engine)
        engine.close()
        engine = None  # the stopped leader's memory is not the restarted one's

        tracer.phase("recovery", True)

        def restart() -> Any:
            revived = engine_type(None, workers=2, durability=cfg)
            revived.search(pool[0], 0.05)
            return revived

        leader, recovery_norm, recovery_raw = single(calib, restart)
        engines.append(leader)
        tracer.phase("checks", False)
        check_state(report.verdict, "recovery", model, _stored(leader), exact_points=False)

        tracer.phase("catchup", True)
        follower_engine = engine_type(follower_seed[0], workers=2)
        engines.append(follower_engine)
        follower = WalFollower(follower_engine, leader, cursor_path=root / "follower-cursor.json", batch_limit=32)

        def poll() -> bool:
            summary = follower.poll()
            return summary["lag"] == 0 and summary["count"] < 32

        catchup_norm, catchup_raw = paced(calib, poll)
        tracer.phase("checks", False)
        records = leader.wal_last_seq
        report.counts["follower_status"] = follower.status()
        report.counts["catchup_records"] = records
        check_state(report.verdict, "follower", _stored(leader), _stored(follower_engine), exact_points=True)
    finally:
        for running in engines:
            running.close()
        shutil.rmtree(root, ignore_errors=True)

    report.metrics["setup_s"] = (median(norms), "s")
    report.raw["setup_s"] = median(raws)
    report.counts["setup_runs"] = len(norms)
    _loop_metrics(report, loop, {"search": "search", "write": "insert,append,remove", "insert": "insert"})
    report.metrics["recovery_s"] = (recovery_norm, "s")
    report.raw["recovery_s"] = recovery_raw
    report.metrics["catchup_records_per_s"] = (records / catchup_norm, "1/s")
    report.raw["catchup_records_per_s"] = records / catchup_raw
    report.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.loop = loop
    report.finish()
    return report


# ----------------------------------------------------------------------
# http_cluster
# ----------------------------------------------------------------------
class ClusterProcess:
    """``repro cluster-serve`` in a child process, self-contained mode."""

    def __init__(self, corpus_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster-serve",
                "--corpus", str(corpus_path),
                "--local-backends", "2", "--replication", "2",
                "--workers", "2", "--no-hedge",
                "--probe-interval", "3600", "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.close()
            raise RuntimeError(f"cluster-serve did not start: {line!r}")
        self.url = "http://" + line.rsplit("http://", 1)[1].strip()
        ServiceClient(self.url).healthz()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.process.pid)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.read()
            self.process.stdout.close()


class ClusterThread:
    """The same cluster hosted on a thread of this process (traced runs)."""

    def __init__(self, corpus: dict[str, np.ndarray]) -> None:
        shards = []
        for _ in range(2):
            shard = SequenceDatabase(DIMENSION)
            for sequence_id, points in corpus.items():
                shard.add(points, sequence_id=sequence_id)
            shards.append(shard)
        self.engines = [QueryEngine(shard, workers=2) for shard in shards]
        self.coordinator = ClusterCoordinator(
            [LocalBackend(e, name=f"local-{i}") for i, e in enumerate(self.engines)],
            replication=2, hedge=None, probe_interval=3600.0,
        )
        self.coordinator.seed_order(list(corpus))
        self.server = serve_cluster(self.coordinator, port=0)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        self.server.shutdown()
        self.server.drain(10.0)
        self.coordinator.close()
        self.server.server_close()
        self.thread.join(timeout=10)
        for engine in self.engines:
            engine.close()


def cluster_ops(rng: np.random.Generator, corpus: dict[str, np.ndarray], scale: Scale) -> tuple[OpStream, list[np.ndarray]]:
    """90% Zipf range searches over a pool, 10% short inserts (pure in rng)."""
    pool = [cut_query(rng, corpus, spread(i, QUERY_FRAMES)) for i in range(scale.pool)]
    weights = zipf_weights(scale.pool)
    inserts = iter(range(1 << 62))
    kind = kinds(rng, ["insert"] + ["search"] * 9)

    def make() -> Op:
        if kind() == "insert":
            number = next(inserts)
            points = video_stream(rng, spread(number, (24, 64)))
            return Op("insert", points, sequence_id=f"ins-{number}")
        rank = int(rng.choice(scale.pool, p=weights))
        return Op("search", pool[rank], epsilon=EPSILONS[rank % 2])

    return OpStream(make), pool


def http_cluster(calib: Calibrator, seed: int, seconds: float, tracer: Any, scale: Scale, engine_type: type = QueryEngine) -> Report:
    """Two HTTP clients against a two-backend, replication-2 cluster."""
    rng = np.random.default_rng([seed, 3])
    corpus = video_corpus(rng, scale.streams, scale.frames, "video")
    ops, pool = cluster_ops(rng, corpus, scale)
    report = Report()
    WORK.mkdir(parents=True, exist_ok=True)
    corpus_path = WORK / f"cluster-{os.getpid()}.npz"
    seed_db = SequenceDatabase(DIMENSION)
    for sequence_id, points in corpus.items():
        seed_db.add(points, sequence_id=sequence_id)
    seed_db.save(corpus_path)
    cluster: Any = None
    try:
        def build(_: int) -> tuple[Any, float, float]:
            if tracer.traced_run:
                return single(calib, lambda: ClusterThread(corpus))
            return single(calib, lambda: ClusterProcess(corpus_path))

        tracer.phase("setup", True)
        cluster, norms, raws = _setups(calib, 1 if tracer.traced_run else scale.setups, build)
        clients: dict[int, ServiceClient] = {}

        def execute(op: Op) -> Any:
            client = clients.setdefault(threading.get_ident(), ServiceClient(cluster.url, timeout=60))
            if op.kind == "insert":
                return client.insert(op.points, sequence_id=op.sequence_id)
            return client.search(op.points, op.epsilon, find_intervals=False)

        tracer.phase("warmup", False)
        _warm_pool(pool, lambda query, epsilon: execute(Op("search", query, epsilon=epsilon)))
        for op in ops.head(scale.warmup_ops):
            execute(op)
        loop = _split_loop(calib, tracer, ops, execute, seconds, 2, scale.warmup_ops)
        tracer.phase("checks", False)
        report.metrics["peak_rss_mb"] = (cluster.peak_rss_mb(), "MB")
        report.counts["transport"] = [c.transport_stats() for c in clients.values()]
        probe = ServiceClient(cluster.url, timeout=60)
        report.counts["cluster_stats"] = probe.stats()
        if isinstance(cluster, ClusterThread):
            report.counts["engine_stats"] = cluster.engines[0].stats()

        # Loop answers: no false dismissal over the seed corpus, no
        # unknown ids.  Then the cluster must equal one node on the
        # final corpus for sampled pool queries.
        acked = {ops[s.index].sequence_id: ops[s.index].points for s in loop.samples if s.ok and s.kind == "insert"}
        acked.update({op.sequence_id: op.points for op in ops.head(scale.warmup_ops) if op.kind == "insert"})
        final = {**corpus, **acked}
        sampler = np.random.default_rng([seed, 99])
        searches = [s for s in loop.samples if s.ok and s.kind == "search"]
        chosen = set(sample_indices(sampler, [s.index for s in searches], scale.range_checks))
        for sample in searches:
            if sample.index in chosen:
                op = ops[sample.index]
                answers = sample.result["answers"]
                check_range(report.verdict, f"op {sample.index}", op.points, op.epsilon, [a for a in answers if a in corpus], corpus)
                unknown = set(answers) - set(final)
                if unknown:
                    report.verdict.fail(f"op {sample.index}: unknown ids {sorted(unknown)[:3]}")
        single_db = seed_db.clone()
        for sequence_id, points in acked.items():
            single_db.add(points, sequence_id=sequence_id)
        with engine_type(single_db, workers=1) as node:
            for rank in sample_indices(sampler, list(range(scale.pool)), 16):
                epsilon = EPSILONS[rank % 2]
                expect = set(node.search(pool[rank], epsilon, find_intervals=False).answers)
                got = set(probe.search(pool[rank], epsilon, find_intervals=False)["answers"])
                report.verdict.checked += 1
                if expect != got:
                    report.verdict.fail(f"pool query {rank}: cluster {sorted(got)[:3]} != single node {sorted(expect)[:3]}")
    finally:
        if cluster is not None:
            cluster.close()
        corpus_path.unlink(missing_ok=True)
    report.metrics["setup_s"] = (median(norms), "s")
    report.raw["setup_s"] = median(raws)
    report.counts["setup_runs"] = len(norms)
    _loop_metrics(report, loop, {"search": "search", "write": "insert"})
    report.loop = loop
    report.finish()
    return report


WORKLOADS: dict[str, Callable[..., Report]] = {
    "search_scale": search_scale,
    "ingest_durable": ingest_durable,
    "http_cluster": http_cluster,
}
