"""Cost of durability: a shard store build and its crash recovery.

The persistent :class:`~repro.stream.store.ShardStore` is the one durable
format of a sharded run, so two questions an operator asks before running
a long job through it (``repro anonymize --store-dir``):

* **What does durability cost?**  A fresh store build (every record
  routed into SQLite, one committed snapshot per window, the publication
  committed last) is timed against the plain, non-durable
  :class:`~repro.stream.ShardedPipeline` run over the same records.  Both
  are reported; neither is gated against the other -- the store build is
  the price of a run that can be finished after a crash.
* **What does recovery actually save?**  A store build is crashed right
  before the merge (every window committed, via the deterministic fault
  harness), then re-run with the same ``delta_id``: the committed
  mutation is recognized, every window snapshot is reused, and only the
  merge and the global boundary repair run again.  The recovered
  publication must be bit-for-bit identical to the plain run's, and
  ``resume_faster_than_cold`` must stay true -- a recovery that does not
  beat a fresh build would make the durable path pointless.

Timings land in ``BENCH_resilience.json`` for the CI perf gate.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import faults
from repro.core.engine import AnonymizationParams
from repro.core.verification import audit
from repro.datasets.quest import generate_quest
from repro.exceptions import FaultInjected
from repro.stream import IncrementalPipeline, ShardedPipeline, StreamParams

from benchmarks.conftest import emit, run_once, write_bench_json

PARAMS = AnonymizationParams(k=5, m=2, max_cluster_size=30, verify=False)

SHARDS = 4
MAX_RECORDS_IN_MEMORY = 600

#: Wall-time measurements per configuration (min is reported: the
#: interesting quantity is the cost floor, not scheduler noise).  One
#: untimed warmup of each configuration runs first so allocator and
#: page-cache warmup land on neither side of a comparison.
ROUNDS = 4


def _dataset():
    return generate_quest(
        num_transactions=4000, domain_size=800, avg_transaction_size=10.0, seed=0
    )


def _stream(store_dir=None) -> StreamParams:
    return StreamParams(
        shards=SHARDS, max_records_in_memory=MAX_RECORDS_IN_MEMORY, store_dir=store_dir
    )


def _plain(records):
    pipeline = ShardedPipeline(PARAMS, _stream())
    start = time.perf_counter()
    published = pipeline.run(records)
    return published, time.perf_counter() - start


def _build(records, store_dir):
    """One store build (or its re-run) under the idempotency token ``build``."""
    pipeline = IncrementalPipeline(PARAMS, _stream(store_dir))
    start = time.perf_counter()
    published = pipeline.run(append=records, delta_id="build")
    return published, time.perf_counter() - start, pipeline.last_report


def _bench_resilience(records, tmp_path) -> dict:
    # -- durability cost: plain run vs fresh store build ----------------- #
    _plain(records)
    _build(records, tmp_path / "warm")
    plain_times, build_times = [], []
    for round_index in range(ROUNDS):
        published, seconds = _plain(records)
        plain_times.append(seconds)
        _, seconds, _ = _build(records, tmp_path / f"build-{round_index}")
        build_times.append(seconds)
    assert audit(published, k=PARAMS.k, m=PARAMS.m).ok
    oracle_json = json.dumps(published.to_dict(), sort_keys=True)

    # -- recovery vs fresh build after a pre-merge crash ----------------- #
    crash_dir = tmp_path / "crash"
    plan = faults.FaultPlan([faults.FaultSpec("stream.merge", hit=1)])
    with faults.active(plan):
        try:
            _build(records, crash_dir)
            raise AssertionError("injected crash did not fire")
        except FaultInjected:
            pass
    recovered, resume_seconds, report = _build(records, crash_dir)
    assert report.delta_replayed and report.windows_recomputed == 0
    assert json.dumps(recovered.to_dict(), sort_keys=True) == oracle_json
    build_seconds = min(build_times)

    return {
        "workload": {
            "records": len(records),
            "shards": SHARDS,
            "max_records_in_memory": MAX_RECORDS_IN_MEMORY,
            "k": PARAMS.k,
            "m": PARAMS.m,
        },
        "plain_run_seconds": min(plain_times),
        "store_build_seconds": build_seconds,
        "resume_seconds": resume_seconds,
        "resume_speedup_factor": build_seconds / resume_seconds,
        "resume_faster_than_cold": resume_seconds < build_seconds,
        "resume_output_identical": True,  # asserted above
        "audit_ok": True,  # asserted above
    }


@pytest.mark.benchmark(group="resilience")
def test_bench_store_build_and_recovery(benchmark, tmp_path):
    """Measure the store build's cost + crash-recovery speedup; gate the latter."""
    records = list(_dataset())
    payload = run_once(benchmark, _bench_resilience, records, tmp_path)
    assert payload["resume_faster_than_cold"]
    write_bench_json("resilience", payload)
    emit(
        "Resilience: store build and crash recovery (4000 QUEST records)",
        [
            {
                "configuration": "plain sharded run",
                "seconds": round(payload["plain_run_seconds"], 3),
            },
            {
                "configuration": "store build",
                "seconds": round(payload["store_build_seconds"], 3),
            },
            {
                "configuration": "store re-run after pre-merge crash",
                "seconds": round(payload["resume_seconds"], 3),
            },
        ],
        "not a paper figure: operational cost of the durable store path "
        f"(recovery {payload['resume_speedup_factor']:.1f}x faster than a "
        "fresh build)",
    )
