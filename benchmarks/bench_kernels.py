"""Kernel micro-benchmarks: numpy primitives vs their Python references.

Three micro-benches isolate the primitives of :mod:`repro.core.kernels` at
the batch sizes the kernels are built for (see ``PACKED_MIN_ROWS`` -- the
packed kernels only engage above ~1k rows, where vectorization beats
CPython's small-int bitops):

* **HORPART counting** -- term supports of record subsets, the per-node
  quantity HORPART maintains: ``Counter``-style per-record updates vs one
  gather + ``bincount`` over the contiguous id buffer (QUEST 5k x 1k, the
  committed benchmark configuration).
* **combination check** -- greedy k^m chunk-domain selection plus the
  whole-chunk ``is_km_anonymous`` DFS on a large chunk: per-candidate
  bigint AND/popcount walks vs one vectorized AND + ``bitwise_count`` per
  accepted batch over the packed uint64 matrix.
* **row assembly** -- shared-chunk sub-record reassembly from term row
  masks: per-row bigint shifts vs one ``unpackbits``.

Alongside the micro timings, the payload records end-to-end ``to_dict``
equivalence booleans (forced ``python`` vs ``numpy`` kernels, and an
engine interning onto a prewarmed vocabulary vs a fresh one) plus the numpy
pipeline's phase timings; ``BENCH_kernels.json`` is gated in CI by
``perf_gate.py`` like every other baseline.  Timings are min-of-N over a
deterministic workload, as for the other committed baselines.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter

from repro.core import kernels
from repro.core.anonymity import BitsetChunkChecker, _masks_are_km_anonymous
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.vocab import EncodedDataset, Vocabulary
from repro.datasets.quest import generate_quest

from benchmarks.conftest import emit, run_once, write_bench_json

#: Mirrors the BENCH_speedup.json configuration exactly.
QUEST_RECORDS = 5000
QUEST_DOMAIN = 1000
QUEST_AVG_LEN = 10.0
PARAMS = dict(k=5, m=2, max_cluster_size=30)

#: Large-chunk shape for the packed-mask micro-benches: past the
#: PACKED_MIN_ROWS crossover, the regime the kernels exist for
#: (dataset-level k^m checks, large max_cluster_size / max_join_size runs).
CHUNK_ROWS = 8000
CHUNK_TERMS = 220
CHUNK_DENSITY = 0.08

#: Timed quantities take the best of this many runs (min-of-N).
REPEATS = 5


def _best(function, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _bench_counting(encoded: EncodedDataset) -> dict:
    """Per-node support counting over HORPART-like row subsets."""
    rng = random.Random(0)
    total = len(encoded.records)
    # Node sizes spanning the partition tree: the root, mid splits, leaves.
    node_rows = [
        sorted(rng.sample(range(total), size))
        for size in (total, total // 2, total // 4, 1000, 200, 60, 30)
    ]

    def python_side():
        for rows in node_rows:
            counts = Counter()
            for row in rows:
                counts.update(encoded.records[row])

    buffer = kernels.RecordIdBuffer(encoded.records)
    arrays = [kernels.np.array(rows, dtype="int64") for rows in node_rows]

    def numpy_side():
        for rows in arrays:
            buffer.counts(rows)

    python_seconds = _best(python_side)
    numpy_seconds = _best(numpy_side)
    return {
        "nodes": [len(rows) for rows in node_rows],
        "python_seconds": python_seconds,
        "numpy_seconds": numpy_seconds,
        "speedup": python_seconds / numpy_seconds,
    }


def _chunk_masks() -> dict:
    rng = random.Random(1)
    masks = {}
    for index in range(CHUNK_TERMS):
        mask = 0
        for row in range(CHUNK_ROWS):
            if rng.random() < CHUNK_DENSITY:
                mask |= 1 << row
        if mask:
            masks[f"t{index:03d}"] = mask
    return masks


def _bench_combination_check(masks: dict) -> dict:
    """Greedy selection + whole-chunk k^m DFS on a large packed chunk."""
    k, m = PARAMS["k"], PARAMS["m"]
    ordered_masks = list(masks.values())

    def run(backend: str):
        checker = BitsetChunkChecker(
            masks, k, m, num_rows=CHUNK_ROWS, kernels_backend=backend
        )
        accepted = [term for term in sorted(masks) if checker.try_add(term)]
        if backend == "numpy":
            km = kernels.packed_km_anonymous(ordered_masks, CHUNK_ROWS, k, m)
        else:
            km = _masks_are_km_anonymous(ordered_masks, -1, 0, m, k)
        return accepted, km

    python_result = run("python")
    numpy_result = run("numpy")
    assert python_result == numpy_result  # decisions must not move
    python_seconds = _best(run, "python")
    numpy_seconds = _best(run, "numpy")
    return {
        "rows": CHUNK_ROWS,
        "terms": len(masks),
        "python_seconds": python_seconds,
        "numpy_seconds": numpy_seconds,
        "speedup": python_seconds / numpy_seconds,
    }


def _bench_assembly(masks: dict) -> dict:
    """Shared-chunk sub-record reassembly from term row masks."""
    term_masks = sorted(masks.items())[:40]
    python_result = kernels.assemble_subrecords_python(term_masks, CHUNK_ROWS)
    numpy_result = kernels.assemble_subrecords(term_masks, CHUNK_ROWS)
    assert python_result == numpy_result
    python_seconds = _best(kernels.assemble_subrecords_python, term_masks, CHUNK_ROWS)
    numpy_seconds = _best(kernels.assemble_subrecords, term_masks, CHUNK_ROWS)
    return {
        "rows": CHUNK_ROWS,
        "terms": len(term_masks),
        "python_seconds": python_seconds,
        "numpy_seconds": numpy_seconds,
        "speedup": python_seconds / numpy_seconds,
    }


def _equivalence(dataset) -> tuple[dict, dict]:
    """End-to-end equality booleans + min-of-N phase timings per backend."""
    published = {}
    phases = {}
    for backend in ("python", "numpy"):
        engine = Disassociator(AnonymizationParams(**PARAMS))
        best_total = float("inf")
        for _ in range(REPEATS):
            with kernels.use(backend):
                result = engine.anonymize(dataset)
            report = engine.last_report
            # The workload is deterministic; keep the least-noisy run's
            # timings (these are gated by perf_gate, single samples drift).
            if report.total_seconds < best_total:
                best_total = report.total_seconds
                phases[backend] = report.phase_timings()
        published[backend] = result.to_dict()

    # Interning order must not matter: prewarm every term in reversed
    # order so no id matches what the fresh engine above assigned.
    prewarmed = Vocabulary(sorted({term for record in dataset for term in record}, reverse=True))
    with kernels.use("numpy"):
        reused = Disassociator(AnonymizationParams(**PARAMS), vocabulary=prewarmed)
        reused = reused.anonymize(dataset).to_dict()

    flags = {
        "outputs_identical_kernels": published["python"] == published["numpy"],
        "outputs_identical_vocab_reuse": reused == published["numpy"],
    }
    return flags, phases


def run_kernel_benches() -> dict:
    """Run the three micro-benches and the end-to-end equivalence checks."""
    dataset = generate_quest(
        num_transactions=QUEST_RECORDS,
        domain_size=QUEST_DOMAIN,
        avg_transaction_size=QUEST_AVG_LEN,
        seed=0,
    )
    encoded = EncodedDataset.from_dataset(dataset)
    masks = _chunk_masks()
    flags, phases = _equivalence(dataset)
    return {
        "dataset": {
            "generator": "QUEST",
            "records": QUEST_RECORDS,
            "domain": QUEST_DOMAIN,
            "avg_record_length": QUEST_AVG_LEN,
        },
        "params": "k=5, m=2, max_cluster_size=30",
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "numpy_available": kernels.numpy_available(),
        "packed_min_rows": kernels.packed_min_rows(),
        "horpart_counting": _bench_counting(encoded),
        "combination_check": _bench_combination_check(masks),
        "row_assembly": _bench_assembly(masks),
        "equivalence": flags,
        "phases_python": phases["python"],
        "phases_numpy": phases["numpy"],
    }


def test_kernel_benches(benchmark):
    if not kernels.numpy_available():
        import pytest

        pytest.skip("numpy >= 2.0 not importable; kernel comparison needs both backends")
    payload = run_once(benchmark, run_kernel_benches)
    emit(
        "Vectorized kernels vs Python fallback (micro-benches, min-of-5)",
        [
            {
                "kernel": name,
                "python_ms": payload[name]["python_seconds"] * 1e3,
                "numpy_ms": payload[name]["numpy_seconds"] * 1e3,
                "speedup": payload[name]["speedup"],
            }
            for name in ("horpart_counting", "combination_check", "row_assembly")
        ],
        "identical outputs on both backends; numpy engages above the packed-rows threshold.",
    )
    write_bench_json("kernels", payload)
    assert payload["equivalence"]["outputs_identical_kernels"]
    assert payload["equivalence"]["outputs_identical_vocab_reuse"]
    # The kernels must earn their keep at the shapes they engage on.
    assert payload["horpart_counting"]["speedup"] >= 1.5
    assert payload["combination_check"]["speedup"] >= 1.5
