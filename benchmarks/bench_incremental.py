"""Warm incremental delta vs cold full recompute on the persistent store.

The question the incremental store exists to answer: once 100k records
have been anonymized into a :class:`~repro.stream.ShardStore`, what does
publishing a small (1%) append-delta cost compared to re-running the
whole pipeline from scratch?  The warm run revalidates the stored plan,
reuses every clean window snapshot (fingerprint match), anonymizes only
the ~1% of records that landed in each shard's new tail window, and
re-runs the merge + global boundary repair -- so the expected shape is
"merge/verify cost plus epsilon" instead of "anonymize everything".

Append-only on purpose: a delete shifts the arrival-order window
packing of every later record in its shard, invalidating those windows'
fingerprints -- correct (the publication must match a cold run over the
mutated sequence bit-for-bit) but not the fast path this benchmark
budgets.  The differential fuzz suite covers the delete semantics; this
file gates the economics of the common append case:

* ``outputs_identical`` -- the warm delta publication is bit-for-bit
  the cold publication over the mutated 101k-record dataset;
* ``delta_speedup_ok`` -- the warm delta is at least
  ``MIN_DELTA_SPEEDUP`` (3x) faster than that cold run.

The same delta is then applied with the indexed publication store on
(``pubstore_dir``), through a second pipeline over a copy of the warm
shard store (so its window cache starts cold).  Its timings and work
counters land under ``warm_pubstore`` -- ``pubstore_clusters_rewritten``
counts the top-level clusters the store update rewrote -- and
``store_matches_rebuild`` gates that the updated store answers exactly
like one built from scratch for the same publication.

Timings land in ``BENCH_incremental.json`` for the CI perf gate.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import pytest

from repro.core.engine import AnonymizationParams
from repro.core.verification import audit
from repro.datasets.quest import generate_quest
from repro.pubstore import PublicationStore, QueryEngine
from repro.stream import IncrementalPipeline, ShardedPipeline, StreamParams

from benchmarks.conftest import emit, run_once, write_bench_json

PARAMS = AnonymizationParams(k=5, m=2, max_cluster_size=30)

SHARDS = 4
#: Smaller windows than the sharded-scale bench on purpose: the warm
#: delta re-anonymizes each shard's partial tail window, so the window
#: bound caps the worst-case recompute at ``shards * bound`` records.
MAX_RECORDS_IN_MEMORY = 2500

#: Base corpus and delta sizes: 100k records warm in the store, then a
#: 1% append published incrementally.
BASE_RECORDS = 100_000
DELTA_RECORDS = 1_000

#: The warm delta must beat the cold recompute by at least this factor;
#: ``delta_speedup_ok`` is gated as a boolean by the CI perf gate.
MIN_DELTA_SPEEDUP = 3.0


def _base_dataset():
    return generate_quest(
        num_transactions=BASE_RECORDS,
        domain_size=1500,
        avg_transaction_size=6.0,
        seed=0,
    )


def _delta_dataset():
    # A different seed over the same domain: the delta looks like the
    # next day's arrivals, not a replay of the base corpus.
    return generate_quest(
        num_transactions=DELTA_RECORDS,
        domain_size=1500,
        avg_transaction_size=6.0,
        seed=1,
    )


def _stream(store_dir=None, pubstore_dir=None) -> StreamParams:
    return StreamParams(
        shards=SHARDS,
        max_records_in_memory=MAX_RECORDS_IN_MEMORY,
        store_dir=store_dir,
        pubstore_dir=pubstore_dir,
    )


def _store_answers(store: PublicationStore, published) -> dict:
    """A seeded battery of store answers plus the faithful reload."""
    engine = QueryEngine(store)
    terms = [term for term, _ in engine.top_terms(200)]
    rng = random.Random(0)
    probes = [rng.sample(terms, rng.choice((1, 2, 3))) for _ in range(60)]
    return {
        "describe": {k: v for k, v in store.describe().items() if k != "path"},
        "top_terms": engine.top_terms(10**6),
        "frequent_pairs": engine.frequent_pairs(2),
        "supports": [engine.cooccurrence_count(probe) for probe in probes],
        "expected": [engine.expected_support(probe) for probe in probes],
        "reload_identical": store.load_publication().to_dict() == published.to_dict(),
    }


def _bench_pubstore_delta(warm_store, delta, published, tmp_path) -> tuple:
    """The same warm delta with the publication store on, checked vs a rebuild.

    Returns the ``warm_pubstore`` payload and ``store_matches_rebuild``.
    """
    pipeline = IncrementalPipeline(
        PARAMS, _stream(warm_store, pubstore_dir=tmp_path / "pub")
    )
    # The no-op run finds the pubstore missing and builds it in full.
    start = time.perf_counter()
    pipeline.run()
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    updated = pipeline.run(append=delta)
    delta_seconds = time.perf_counter() - start
    report = pipeline.last_report

    with PublicationStore(tmp_path / "pub") as store:
        with PublicationStore.from_publication(
            updated,
            tmp_path / "pub-rebuilt",
            generation=store.generation,
            source=store.source,
        ) as rebuilt:
            ours = _store_answers(store, updated)
            theirs = _store_answers(rebuilt, updated)
    matches = ours == theirs and ours["reload_identical"]
    return {
        "build_seconds": build_seconds,
        "delta_seconds": delta_seconds,
        "phases": report.phase_timings(),
        "counters": report.counters(),
        "published_top_level_clusters": len(updated.clusters),
        "outputs_identical": updated.to_dict() == published.to_dict(),
    }, matches


def _bench_incremental(base, delta, tmp_path) -> dict:
    # -- build the warm store (priced separately: it is the one-time cost)
    pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
    start = time.perf_counter()
    pipeline.run(append=base)
    build_seconds = time.perf_counter() - start
    shutil.copytree(tmp_path / "store", tmp_path / "store-pubstore")

    # -- warm 1% delta ---------------------------------------------------
    start = time.perf_counter()
    warm = pipeline.run(append=delta)
    warm_seconds = time.perf_counter() - start
    report = pipeline.last_report

    # -- cold full recompute over the mutated dataset --------------------
    start = time.perf_counter()
    cold = ShardedPipeline(PARAMS, _stream()).run(base + delta)
    cold_seconds = time.perf_counter() - start

    identical = json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
        cold.to_dict(), sort_keys=True
    )
    assert audit(warm, k=PARAMS.k, m=PARAMS.m).ok
    speedup = cold_seconds / warm_seconds

    warm_pubstore, store_matches_rebuild = _bench_pubstore_delta(
        tmp_path / "store-pubstore", delta, warm, tmp_path
    )

    return {
        "workload": {
            "base_records": len(base),
            "delta_records": len(delta),
            "shards": SHARDS,
            "max_records_in_memory": MAX_RECORDS_IN_MEMORY,
            "k": PARAMS.k,
            "m": PARAMS.m,
        },
        "store_build_seconds": build_seconds,
        "warm_delta_seconds": warm_seconds,
        "cold_full_run_seconds": cold_seconds,
        "delta_speedup_factor": speedup,
        "delta_speedup_budget": MIN_DELTA_SPEEDUP,
        "delta_speedup_ok": speedup >= MIN_DELTA_SPEEDUP,
        "outputs_identical": identical,
        "audit_ok": True,  # asserted above
        "warm_phases": report.phase_timings(),
        "counters": report.counters(),
        "warm_pubstore": warm_pubstore,
        "store_matches_rebuild": store_matches_rebuild,
    }


@pytest.mark.benchmark(group="incremental")
def test_bench_warm_delta_vs_cold_recompute(benchmark, tmp_path):
    """Measure the warm-delta speedup; gate identity + speedup as booleans."""
    base = list(_base_dataset())
    delta = list(_delta_dataset())
    payload = run_once(benchmark, _bench_incremental, base, delta, tmp_path)
    assert payload["outputs_identical"]
    assert payload["warm_pubstore"]["outputs_identical"]
    assert payload["store_matches_rebuild"]
    assert payload["delta_speedup_ok"], (
        f"warm delta is only {payload['delta_speedup_factor']:.2f}x faster "
        f"than the cold recompute, budget is {MIN_DELTA_SPEEDUP}x"
    )
    write_bench_json("incremental", payload)
    emit(
        "Incremental store: warm 1% delta vs cold recompute "
        f"({BASE_RECORDS} + {DELTA_RECORDS} QUEST records)",
        [
            {
                "configuration": "store build (one-time)",
                "seconds": round(payload["store_build_seconds"], 3),
            },
            {
                "configuration": "warm 1% append delta",
                "seconds": round(payload["warm_delta_seconds"], 3),
            },
            {
                "configuration": "cold full recompute",
                "seconds": round(payload["cold_full_run_seconds"], 3),
            },
            {
                "configuration": "warm 1% append delta, pubstore on",
                "seconds": round(payload["warm_pubstore"]["delta_seconds"], 3),
            },
        ],
        "not a paper figure: economics of the incremental store "
        f"(delta {payload['delta_speedup_factor']:.1f}x faster than cold; "
        f"{payload['counters']['windows_reused']} windows reused, "
        f"{payload['counters']['windows_recomputed']} recomputed)",
    )
