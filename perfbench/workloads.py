"""The four benchmark workloads, driven only through the repo's public entry points.

Each workload generates its inputs from the seed with ``repro.datasets``,
sets the system up ``sizes.setups`` times (reporting the median), runs a
closed loop for the requested seconds of measured operation time, and
checks every output outside the timed region.  With ``traced=True`` the
loop runs twice: once untraced (the end-to-end numbers) and once with the
:class:`~spans.Tracer` installed (the per-layer numbers); the difference of
the two medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Optional
from urllib.parse import urlencode

from spans import Tracer, self_seconds

from repro import AnonymizationService, ServiceConfig, ShardedPipeline, StreamParams, audit
from repro.core.dataset import TransactionDataset
from repro.datasets import generate_quest
from repro.pubstore import PublicationStore, QueryEngine

#: The analyst query ops of the read side, in round-robin order.
QUERY_OPS = ("cooccurrence_count", "expected_support", "lower_bound", "top_terms", "frequent_pairs")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the paper's (|T|=1000, record length 10)."""

    batch_records: int = 10_000
    batch_datasets: int = 4
    stream_records: int = 40_000
    window: int = 2_000
    delta_base: int = 20_000
    delta_records: int = 150
    delta_pool: int = 3_000
    delta_ops: int = 4
    query_batch: int = 25
    http_base: int = 5_000
    http_post: int = 500
    http_posts: int = 4
    http_clients: int = 2
    setups: int = 3
    min_ops: int = 3


#: Tiny sizes for the smoke test: every path and check runs in seconds.
SMOKE = Sizes(
    batch_records=300, batch_datasets=2, stream_records=1_200, window=300,
    delta_base=900, delta_records=8, delta_pool=200, delta_ops=2, query_batch=5,
    http_base=400, http_post=60, http_posts=2, setups=2, min_ops=2,
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    readable: list = field(default_factory=list)  # (name, value, unit, note)
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None  # the traced pass's spans
    server_spans: Optional[Path] = None  # the traced server's span dump

    def fail(self, message: str) -> None:
        """Record one failed operation or check."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record a human-readable metric line."""
        self.readable.append((name, value, unit, note))


# -- helpers ---------------------------------------------------------------- #
def sub_seed(seed: int, purpose: str) -> int:
    """A deterministic per-purpose seed derived from the run seed."""
    return zlib.crc32(f"{seed}:{purpose}".encode())


def quest_records(count: int, seed: int, purpose: str) -> list:
    """``count`` QUEST records (|T|=1000, length 10) as sorted term lists."""
    data = generate_quest(count, domain_size=1000, avg_transaction_size=10,
                          seed=sub_seed(seed, purpose))
    return [sorted(record) for record in data]


def freeze_inputs() -> None:
    """Move the generated inputs out of the cyclic GC's reach.

    The inputs are the benchmark's, not the program's: without this, every
    full collection the program triggers would also scan them.
    """
    gc.collect()
    gc.freeze()


def base_config(sizes: Sizes, **extra) -> ServiceConfig:
    """The paper defaults: k=5, m=2, max_cluster_size=30, jobs=1."""
    return ServiceConfig(k=5, m=2, max_cluster_size=30, jobs=1, shards=4,
                         max_records_in_memory=sizes.window, **extra)


def tail(samples: list) -> tuple:
    """``(value, percentile)``: the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return max(samples), 100
    percentile = math.floor(100 * (n - 10) / n)
    rank = math.ceil(percentile / 100 * n)
    return sorted(samples)[rank - 1], percentile


def canonical(payload) -> str:
    """The byte form two publications are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setups(sizes: Sizes, build) -> tuple:
    """Run ``build(attempt)`` ``sizes.setups`` times.

    ``build`` returns ``(state, dispose)``; every state but the last is
    disposed of right away.  Returns ``(median seconds, state, dispose)``
    of the last set-up.
    """
    durations, state = [], None
    for attempt in range(sizes.setups):
        start = time.perf_counter()
        state, dispose = build(attempt)
        durations.append(time.perf_counter() - start)
        if attempt < sizes.setups - 1:
            dispose()
    return statistics.median(durations), state, dispose


def closed_loop(seconds: float, min_ops: int, op) -> list:
    """Call ``op(i)`` until ``seconds`` of measured time and ``min_ops`` calls.

    ``op`` returns its measured latency in seconds, or ``None`` when its
    inputs are exhausted.  Checks inside ``op`` run outside the measurement.
    Each call starts from a fully collected heap, so a cyclic-GC pass left
    over from the previous call's garbage is not charged to this one.
    """
    latencies: list = []
    while sum(latencies) < seconds or len(latencies) < min_ops:
        gc.collect()
        latency = op(len(latencies))
        if latency is None:
            break
        latencies.append(latency)
    return latencies


def zipf_queries(terms: list, count: int, seed: int, min_support: int) -> list:
    """``count`` ``(op, params)`` queries, terms drawn Zipf-skewed by support rank."""
    rng = random.Random(seed)
    cumulative = list(accumulate(1.0 / (rank + 1) ** 1.1 for rank in range(len(terms))))
    queries = []
    for index in range(count):
        op = QUERY_OPS[index % len(QUERY_OPS)]
        if op == "top_terms":
            params = {"count": 10}
        elif op == "frequent_pairs":
            params = {"min_support": min_support}
        else:
            pair = set()
            while len(pair) < 2:
                pair.add(rng.choices(terms, cum_weights=cumulative)[0])
            params = {"terms": sorted(pair)}
        queries.append((op, params))
    return queries


def published_terms(pubstore_dir) -> list:
    """Every published term, most supported first."""
    with PublicationStore(pubstore_dir) as store:
        return [term for term, _ in QueryEngine(store).top_terms(count=1_000_000)]


def check_publication(outcome: Outcome, publication, records: int, what: str) -> None:
    """Audit one publication and check it covers every input record."""
    if not audit(publication).ok:
        outcome.fail(f"{what}: publication fails the k^m audit")
    elif publication.total_records() != records:
        outcome.fail(f"{what}: publication holds {publication.total_records()} of {records} records")


# -- per-layer metrics -------------------------------------------------------- #
LAYER_TIMES = (
    "core.horizontal", "core.vertical", "core.refine", "core.verify", "core.anonymize",
    "stream.spill", "stream.boundary", "stream.store.mutate", "stream.store.window_write",
    "stream.store.publication_write", "pubstore.build", "pubstore.query",
)
LAYER_COUNTS = (
    "core.anonymize.calls", "core.refine.merges_attempted", "core.refine.merges_applied",
    "core.clusters", "stream.spill.records", "stream.boundary.demotions",
    "pubstore.build.calls",
)


def layer_metrics(spans: list, counts, iterations: int, root_names: tuple) -> dict:
    """Per-iteration self time per layer plus the counters, from one span set."""
    selfs = self_seconds(spans)
    per = max(iterations, 1)
    metrics = {f"{name}.busy_s": (selfs.get(name, 0.0) / per, "s") for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0) / per, "count")
    attempted = counts.get("core.refine.merges_attempted", 0)
    metrics["core.refine.merge_yield"] = (
        counts.get("core.refine.merges_applied", 0) / attempted if attempted else 0.0, "ratio")
    metrics["stream.store.bytes_written"] = (counts.get("stream.store.bytes_written", 0) / per, "bytes")
    for op in QUERY_OPS:
        durations = [(s.end - s.start) * 1000 for s in spans if s.name == "pubstore.query" and s.op == op]
        metrics[f"pubstore.query.{op}.p50_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    metrics["unattributed_s"] = (sum(selfs.get(name, 0.0) for name in root_names) / per, "s")
    return metrics


def service_metrics(before: dict, after: dict, wall: float, iterations: int) -> dict:
    """Queue wait, execute time and worker utilization from two ``stats()`` snapshots."""
    busy = sum(after["workers"]["busy_seconds"].values()) - sum(before["workers"]["busy_seconds"].values())
    waits = after["latency"]["queue_wait_seconds"]
    count = waits["count"] or 0
    tail_key = next((f"p{q}_seconds" for q in (99, 90, 50) if count * (1 - q / 100) >= 10), "max_seconds")
    workers = after["workers"]["configured"]
    return {
        "service.queue_wait.p50_ms": ((waits["p50_seconds"] or 0.0) * 1000, "ms"),
        "service.queue_wait.tail_ms": ((waits[tail_key] or 0.0) * 1000, "ms"),
        "service.execute.busy_s": (busy / max(iterations, 1), "s"),
        "service.worker_utilization": (busy / (wall * workers) if wall > 0 else 0.0, "ratio"),
    }


def store_metrics(reports: list, delta_bytes: int, counts, pubstore_dir) -> dict:
    """Window reuse, write amplification and pubstore size of a delta workload."""
    reused = sum(r["windows_reused"] for r in reports)
    recomputed = sum(r["windows_recomputed"] for r in reports)
    per = max(len(reports), 1)
    written = counts.get("stream.store.bytes_written", 0)
    file_bytes = 0
    if pubstore_dir is not None:
        file_bytes = sum(p.stat().st_size for p in Path(pubstore_dir).glob("publication.sqlite*"))
    return {
        "stream.window.reused": (reused / per, "count"),
        "stream.window.recomputed": (recomputed / per, "count"),
        "stream.window.reuse_ratio": (reused / (reused + recomputed) if reused + recomputed else 0.0, "ratio"),
        "stream.store.write_amp": (written / delta_bytes if delta_bytes else 0.0, "ratio"),
        "pubstore.file_bytes": (float(file_bytes), "bytes"),
    }


def zero_metrics() -> dict:
    """Every layer metric a workload does not exercise, at zero."""
    metrics = layer_metrics([], {}, 1, ())
    metrics.update(store_metrics([], 0, {}, None))
    metrics.update({
        "service.queue_wait.p50_ms": (0.0, "ms"), "service.queue_wait.tail_ms": (0.0, "ms"),
        "service.execute.busy_s": (0.0, "s"), "service.worker_utilization": (0.0, "ratio"),
        "http.overhead.p50_ms": (0.0, "ms"), "http.response_bytes": (0.0, "bytes"),
        "trace.overhead_ms": (0.0, "ms"),
    })
    return metrics


def measure(outcome: Outcome, traced: bool, seconds: float, min_ops: int, loop, root_names: tuple):
    """Run ``loop(seconds, min_ops, tracer)`` untraced and, when ``traced``, traced too.

    ``loop`` returns ``(latencies, per_layer_extra)``.  Returns the untraced
    latencies.  A traced run splits ``seconds`` between an untraced and a
    traced pass; the traced pass fills ``outcome.per_layer``.
    """
    if not traced:
        return loop(seconds, min_ops, None)[0]
    half = max(2, min_ops // 2)
    latencies = loop(seconds / 2, half, None)[0]
    tracer = Tracer().install()
    try:
        traced_latencies, extra = loop(seconds / 2, half, tracer)
    finally:
        tracer.uninstall()
    outcome.per_layer = zero_metrics()
    outcome.per_layer.update(layer_metrics(tracer.spans, tracer.counts, len(traced_latencies), root_names))
    outcome.per_layer.update(extra)
    outcome.per_layer["trace.overhead_ms"] = (
        (statistics.median(traced_latencies) - statistics.median(latencies)) * 1000, "ms")
    outcome.tracer = tracer
    return latencies


def publishes(outcome: Outcome, seconds: float, traced: bool, sizes: Sizes,
              datasets: list, warmup, mode: str) -> Outcome:
    """A closed loop of publishes through ``run(mode=mode)``, cycling ``datasets``."""
    config = base_config(sizes)

    def build(_):
        service = AnonymizationService(config)
        service.run(warmup, mode=mode)  # warm the engine, vocabulary and code paths
        return service, service.close

    setup_s, service, dispose = timed_setups(sizes, build)
    try:
        def loop(budget, min_ops, tracer):
            def op(i):
                dataset = datasets[i % len(datasets)]
                outcome.attempted += 1
                start = time.perf_counter()
                try:
                    with _root(tracer, "op.publish", i):
                        result = service.run(dataset, mode=mode)
                except Exception as exc:  # counted, then the loop goes on
                    outcome.fail(f"publish {i}: {exc!r}")
                    return time.perf_counter() - start
                latency = time.perf_counter() - start
                check_publication(outcome, result.publication, len(dataset), f"publish {i}")
                return latency

            before = service.stats()
            wall = time.perf_counter()
            latencies = closed_loop(budget, min_ops, op)
            extra = service_metrics(before, service.stats(), time.perf_counter() - wall, len(latencies))
            return latencies, extra

        latencies = measure(outcome, traced, seconds, sizes.min_ops, loop, ("op.publish",))
    finally:
        dispose()
    p50 = statistics.median(latencies)
    rate = len(datasets[0]) * len(latencies) / sum(latencies)
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("publish_p50_s", p50, "s", f"{len(latencies)} samples")
    outcome.metric("records_per_s", rate, "records/s")
    outcome.end_to_end.update({
        "setup_s": (setup_s, "s"), "publish_p50_ms": (p50 * 1000, "ms"),
        "records_per_s": (rate, "records/s"),
    })
    return outcome


# -- workloads ---------------------------------------------------------------- #
def paper_batch(seed: int, seconds: float, traced: bool, sizes: Sizes, workdir: Path) -> Outcome:
    """Independent QUEST datasets published one at a time through ``run(mode="batch")``."""
    datasets = [TransactionDataset(quest_records(sizes.batch_records, seed, f"batch{i}"))
                for i in range(sizes.batch_datasets)]
    freeze_inputs()
    outcome = Outcome(inputs={"records": sizes.batch_records, "datasets": sizes.batch_datasets})
    return publishes(outcome, seconds, traced, sizes, datasets, datasets[0], "batch")


def sharded_stream(seed: int, seconds: float, traced: bool, sizes: Sizes, workdir: Path) -> Outcome:
    """One QUEST dataset streamed through 4 shards in bounded windows."""
    records = quest_records(sizes.stream_records, seed, "stream")
    dataset = TransactionDataset(records)
    warmup = TransactionDataset(records[: 2 * sizes.window])
    freeze_inputs()
    outcome = Outcome(inputs={"records": sizes.stream_records, "shards": 4, "window": sizes.window})
    return publishes(outcome, seconds, traced, sizes, [dataset], warmup, "stream")


def delta_query(seed: int, seconds: float, traced: bool, sizes: Sizes, workdir: Path) -> Outcome:
    """Append-only deltas on a store of QUEST records, each followed by a query batch."""
    records = quest_records(sizes.delta_base + sizes.delta_pool, seed, "delta")
    base, pool = records[: sizes.delta_base], records[sizes.delta_base:]
    freeze_inputs()
    # One delta size (0.75% of the base): a delta's time hardly depends on
    # its size, so random sizes would only add noise to records_per_s.
    size = sizes.delta_records
    deltas = [pool[i: i + size] for i in range(0, len(pool) - size + 1, size)]
    outcome = Outcome(inputs={"base_records": len(base), "delta_records": size,
                              "query_batch": sizes.query_batch})

    def build(attempt):
        directory = workdir / f"delta{attempt}"
        config = base_config(sizes, store_dir=str(directory / "shards"),
                             pubstore_dir=str(directory / "pub"))
        service = AnonymizationService(config)
        service.run(base, mode="delta")

        def dispose():
            service.close()
            shutil.rmtree(directory, ignore_errors=True)

        return service, dispose

    setup_s, service, dispose = timed_setups(sizes, build)
    pubstore_dir = service.config.pubstore_dir
    live = list(base)
    query_latencies: list = []
    appended: list = []
    last = {}
    try:
        terms = published_terms(pubstore_dir)

        def loop(budget, min_ops, tracer):
            reports, delta_bytes = [], 0

            def op(i):
                nonlocal delta_bytes
                if not deltas:
                    return None
                delta = deltas.pop(0)
                outcome.attempted += 1
                start = time.perf_counter()
                try:
                    with _root(tracer, "op.delta", len(live)):
                        result = service.run(delta, mode="delta")
                except Exception as exc:
                    outcome.fail(f"delta {i}: {exc!r}")
                    return time.perf_counter() - start
                latency = time.perf_counter() - start
                live.extend(delta)
                delta_bytes += len(json.dumps(delta))
                reports.append(result.report.counters())
                queries = zipf_queries(terms, sizes.query_batch, sub_seed(seed, f"q{len(live)}"),
                                       max(2, sizes.delta_base // 100))
                answers = []
                for op_name, params in queries:
                    outcome.attempted += 1
                    begin = time.perf_counter()
                    try:
                        with _root(tracer, "op.query", len(live)):
                            answers.append(service.query(op_name, params)["result"])
                    except Exception as exc:
                        outcome.fail(f"query {op_name}: {exc!r}")
                        answers.append(None)
                    query_latencies.append(time.perf_counter() - begin)
                check_publication(outcome, result.publication, len(live), f"delta {i}")
                last.update(publication=result.publication, queries=queries, answers=answers)
                return latency

            before = service.stats()
            wall = time.perf_counter()
            latencies = closed_loop(budget, min_ops, op)
            extra = service_metrics(before, service.stats(), time.perf_counter() - wall, len(latencies))
            if tracer is not None:
                extra.update(store_metrics(reports, delta_bytes, tracer.counts, pubstore_dir))
            appended.append(sum(r["appended"] for r in reports))
            return latencies, extra

        latencies = measure(outcome, traced, seconds, sizes.delta_ops, loop, ("op.delta", "op.query"))
    finally:
        config = service.config
        dispose()
    _check_delta(outcome, config, live, last)
    p50 = statistics.median(latencies)
    queries_ms = [q * 1000 for q in query_latencies[: sizes.query_batch * len(latencies)]]
    q50 = statistics.median(queries_ms)
    qtail, percentile = tail(queries_ms)
    rate = appended[0] / sum(latencies)
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("delta_p50_s", p50, "s", f"{len(latencies)} samples")
    outcome.metric("query_p50_ms", q50, "ms", f"{len(queries_ms)} samples")
    outcome.metric("query_tail_ms", qtail, "ms", f"p{percentile} of {len(queries_ms)} samples")
    outcome.end_to_end.update({
        "setup_s": (setup_s, "s"), "publish_p50_ms": (p50 * 1000, "ms"),
        "records_per_s": (rate, "records/s"),
    })
    return outcome


def _check_delta(outcome: Outcome, config: ServiceConfig, live: list, last: dict) -> None:
    """The final publication equals a cold sharded run; store answers equal memory's."""
    if not last:
        outcome.fail("no delta completed")
        return
    cold = ShardedPipeline(config.engine_params(),
                           StreamParams(shards=config.shards,
                                        max_records_in_memory=config.max_records_in_memory)
                           ).run(iter(live))
    if canonical(cold.to_dict()) != canonical(last["publication"].to_dict()):
        outcome.fail("final delta publication differs from a cold ShardedPipeline run")
    oracle = QueryEngine(last["publication"])
    for (op, params), answer in zip(last["queries"], last["answers"]):
        if oracle.execute(op, params)["result"] != answer:
            outcome.fail(f"store answer to {op} {params} differs from QueryEngine(publication)")


def http_mixed(seed: int, seconds: float, traced: bool, sizes: Sizes, workdir: Path) -> Outcome:
    """``repro serve`` over a prebuilt store: POST /anonymize then 4 GET /query, 2 clients."""
    records = quest_records(sizes.http_base + sizes.http_post * sizes.http_posts, seed, "http")
    base = records[: sizes.http_base]
    posts = [records[sizes.http_base + i * sizes.http_post: sizes.http_base + (i + 1) * sizes.http_post]
             for i in range(sizes.http_posts)]
    freeze_inputs()
    outcome = Outcome(inputs={"store_records": len(base), "post_records": sizes.http_post,
                              "clients": sizes.http_clients, "queries_per_post": 4})
    config = base_config(sizes)
    spans_file = workdir / "server-spans.json"

    def build(attempt):
        directory = workdir / f"http{attempt}"
        with AnonymizationService(config) as service:
            published = service.run(base, mode="batch")
        published.save_store(directory / "pub").close()
        server = _Server(directory / "pub", spans_file if traced else None, workdir / f"server{attempt}.log")
        return (server, published.publication, directory / "pub"), server.stop

    setup_s, (server, publication, pubstore_dir), dispose = timed_setups(sizes, build)
    answers: dict = {}
    windows: list = []
    lock = threading.Lock()
    try:
        queries = zipf_queries(published_terms(pubstore_dir), 1000, sub_seed(seed, "http-queries"),
                               max(2, len(base) // 100))

        def loop(budget, min_ops, tracer):
            window = {"posts": [], "queries": [], "bytes": 0, "requests": 0}
            before = server.stats() if tracer is not None else None
            start = time.perf_counter()
            # The clients start each round together (the barrier's action
            # decides once whether another round fits the budget), so their
            # POSTs always overlap: the contention pattern is the same in
            # every run instead of drifting with the clients' phase.
            rounds = {"go": True}
            barrier = threading.Barrier(
                sizes.http_clients,
                action=lambda: rounds.update(go=time.perf_counter() < start + budget))

            def exchange(connection, method, path, payload, kind, key, field_name):
                body = json.dumps(payload).encode() if payload is not None else None
                begin = time.perf_counter()
                with _root(tracer, "http.request", None):
                    connection.request(method, path, body=body,
                                       headers={"Content-Type": "application/json"} if body else {})
                    response = connection.getresponse()
                    data = response.read()
                latency = time.perf_counter() - begin
                ok = 200 <= response.status < 300
                value = json.loads(data)[field_name] if ok else None
                with lock:
                    outcome.attempted += 1
                    window[kind].append(latency)
                    window["bytes"] += len(data)
                    window["requests"] += 1
                    if not ok:
                        outcome.fail(f"{method} {path[:60]}: HTTP {response.status}")
                    elif answers.setdefault(key, value) != value:
                        outcome.fail(f"{method} {path[:60]}: answer differs from an earlier one")

            def client(index):
                connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
                try:
                    for round_ in range(10 ** 9):
                        barrier.wait(timeout=120)
                        if not rounds["go"]:
                            return
                        i = round_ * sizes.http_clients + index
                        with _root(tracer, "op.iteration", i):
                            post = i % len(posts)
                            exchange(connection, "POST", "/anonymize", {"records": posts[post]},
                                     "posts", ("post", post), "publication")
                            for j in range(4):
                                op, params = queries[(4 * i + j) % len(queries)]
                                fields = {"op": op, **{("term" if k == "terms" else k): v
                                                       for k, v in params.items()}}
                                exchange(connection, "GET", "/query?" + urlencode(fields, doseq=True),
                                         None, "queries", (op, canonical(params)), "result")
                except (OSError, http.client.HTTPException, threading.BrokenBarrierError) as exc:
                    with lock:
                        outcome.attempted += 1
                        outcome.fail(f"client {index}: {exc!r}")
                    barrier.abort()
                finally:
                    connection.close()

            threads = [threading.Thread(target=client, args=(n,)) for n in range(sizes.http_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window["elapsed"] = time.perf_counter() - start
            windows.append(window)
            extra = {}
            if tracer is not None:
                after = server.stats()
                extra = service_metrics(before, after, window["elapsed"], len(window["posts"]))
                server_query = after["latency"]["query_seconds"]["p50_seconds"] or 0.0
                extra["http.overhead.p50_ms"] = (
                    (statistics.median(window["queries"]) - server_query) * 1000, "ms")
                extra["http.response_bytes"] = (window["bytes"] / max(window["requests"], 1), "bytes")
            return window["posts"], extra

        measure(outcome, traced, seconds, sizes.min_ops, loop, ("op.iteration",))
        peak = server.peak_rss_mb()
    finally:
        dispose()
    if traced:
        _merge_server_spans(outcome, spans_file, sum(len(w["posts"]) for w in windows))
    _check_http(outcome, config, posts, publication, answers)
    first = windows[0]
    posts_ms = [latency * 1000 for latency in first["posts"]]
    queries_ms = [latency * 1000 for latency in first["queries"]]
    post_tail, post_pct = tail(posts_ms)
    query_tail, query_pct = tail(queries_ms)
    post_p50 = statistics.median(posts_ms)
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("anonymize_p50_ms", post_p50, "ms", f"{len(posts_ms)} samples")
    outcome.metric("anonymize_tail_ms", post_tail, "ms", f"p{post_pct} of {len(posts_ms)} samples")
    outcome.metric("query_p50_ms", statistics.median(queries_ms), "ms", f"{len(queries_ms)} samples")
    outcome.metric("query_tail_ms", query_tail, "ms", f"p{query_pct} of {len(queries_ms)} samples")
    outcome.metric("requests_per_s", first["requests"] / first["elapsed"], "requests/s")
    outcome.end_to_end.update({
        "setup_s": (setup_s, "s"), "publish_p50_ms": (post_p50, "ms"),
        "records_per_s": (len(posts_ms) * sizes.http_post / first["elapsed"], "records/s"),
        "peak_rss_mb": (peak, "MB"),
    })
    return outcome


def _check_http(outcome: Outcome, config: ServiceConfig, posts: list, publication, answers: dict) -> None:
    """HTTP publications equal ``service.run``'s; query answers equal the memory oracle's."""
    with AnonymizationService(config) as service:
        for index, records in enumerate(posts):
            got = answers.get(("post", index))
            if got is not None and canonical(got) != canonical(service.run(records).to_dict()):
                outcome.fail(f"HTTP publication of post {index} differs from service.run")
    oracle = QueryEngine(publication)
    for op, params in [key for key in answers if key[0] != "post"][:50]:
        expected = oracle.execute(op, json.loads(params))["result"]
        if answers[(op, params)] != json.loads(json.dumps(expected)):
            outcome.fail(f"HTTP answer to {op} {params} differs from QueryEngine(publication)")


def _merge_server_spans(outcome: Outcome, spans_file: Path, iterations: int) -> None:
    """Fold the server's spans into the per-layer metrics (per client iteration)."""
    spans, counts = Tracer.load(spans_file)
    server = layer_metrics(spans, counts, iterations, ())
    for name, value in server.items():
        if name != "unattributed_s":
            outcome.per_layer[name] = value
    # Round-trip time the server's traced layers do not cover: parsing,
    # JSON, queue wait, the store open and the network.
    client = outcome.tracer
    traced_iterations = sum(1 for s in client.spans if s.name == "op.iteration")
    round_trips = sum(s.end - s.start for s in client.spans if s.name == "op.iteration")
    covered = sum(s.end - s.start for s in spans if s.parent is None)
    outcome.per_layer["unattributed_s"] = (
        round_trips / max(traced_iterations, 1) - covered / max(iterations, 1), "s")
    outcome.server_spans = spans_file


def _root(tracer, name: str, request):
    """A span when tracing, else nothing."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, request=None if request is None else str(request))


class _Server:
    """``repro serve --workers 2`` in a child process, stopped with SIGINT."""

    def __init__(self, pubstore_dir: Path, spans_out, log: Path):
        command = [sys.executable, "-u", str(Path(__file__).with_name("server.py"))]
        if spans_out is not None:
            command.append(f"--spans-out={spans_out}")
        command += ["serve", "--port", "0", "--workers", "2", "--pubstore-dir", str(pubstore_dir),
                    "--k", "5", "--m", "2", "--max-cluster-size", "30", "--jobs", "1"]
        self._log = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._log, text=True)
        watchdog = threading.Timer(60, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {log.read_text(encoding='utf-8')[-2000:]}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stats(self) -> dict:
        """``GET /stats``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        kilobytes = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(kilobytes) / 1024

    def stop(self) -> None:
        """Interrupt the server (it drains and exits) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


#: Workload name -> runner.
WORKLOADS = {
    "paper-batch": paper_batch,
    "sharded-stream": sharded_stream,
    "delta-query": delta_query,
    "http-mixed": http_mixed,
}
