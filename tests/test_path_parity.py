"""Parity of the surviving execution shapes: packed vs bigint.

Every phase has exactly one algorithm, but it can run in more than one
shape: k^m checks switch to packed uint64 matrices above
:func:`repro.core.kernels.packed_min_rows` on the numpy backend, and the
audit re-runs the same chunk checks.  Each shape promises **bit-for-bit
identical decisions**.  This suite pins that down:

* VERPART under the packed kernels (crossover forced to 1) against the
  pure-Python kernels, on scenario partitions, ragged partitions and m=3,
* ``is_km_anonymous`` packed vs bigint on random chunks, and
  ``packed_km_anonymous`` against a brute-force pair count,
* the full pipeline (packed, per-cluster, string backend, numpy absent),
  its REFINE work counters, and the audit verdicts across kernels.
"""

from __future__ import annotations

import random

import pytest

from repro.core import kernels
from repro.core.anonymity import is_km_anonymous
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.horizontal import horizontal_partition
from repro.core.verification import audit
from repro.core.vertical import vertical_partition_fast
from tests.conftest import make_workload

requires_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy >= 2.0 not importable"
)

SCENARIOS = ("quest", "zipf", "clickstream")


def _scenario_dataset(name: str, seed: int) -> TransactionDataset:
    if name == "quest":
        return make_workload("quest", records=300, domain=90, avg_len=5.0, seed=seed)
    if name == "zipf":
        return make_workload("zipf", records=300, domain=120, avg_len=4.0, seed=seed)
    if name == "clickstream":
        return make_workload(
            "clickstream", records=300, domain=120, avg_len=4.0, seed=seed, sections=5
        )
    raise AssertionError(name)


def _partitions(seed: int) -> list:
    dataset = _scenario_dataset(SCENARIOS[seed % 3], seed)
    return horizontal_partition(dataset, max_cluster_size=30)


def _verpart(partitions, k: int, m: int) -> list[dict]:
    return [
        vertical_partition_fast(part, k, m, label=f"P{index}").cluster.to_dict()
        for index, part in enumerate(partitions)
    ]


def _publish(dataset, backend=None, min_rows=None, **params):
    """One engine run under a forced kernel backend / packed crossover."""
    with kernels.use(backend, min_rows):
        return Disassociator(AnonymizationParams(**params)).anonymize(dataset)


def _random_chunk(rng: random.Random, rows: int, terms: int, width: int) -> list:
    return [
        frozenset(f"t{rng.randint(0, terms)}" for _ in range(rng.randint(1, width)))
        for _ in range(rows)
    ]


# --------------------------------------------------------------------------- #
# VERPART
# --------------------------------------------------------------------------- #
class TestVerticalParity:
    @requires_numpy
    @pytest.mark.parametrize("seed", range(4))
    def test_packed_matches_python(self, seed):
        partitions = _partitions(seed)
        k = (2, 3, 5, 7)[seed % 4]
        with kernels.use("numpy", 1):
            packed = _verpart(partitions, k, 2)
        with kernels.use("python"):
            expected = _verpart(partitions, k, 2)
        assert packed == expected

    @requires_numpy
    def test_ragged_partitions(self):
        # Singleton, tiny and large partitions side by side: the packed
        # matrices are sized per cluster and must not change any verdict.
        rng = random.Random(11)
        partitions = [
            _random_chunk(rng, rows, 25, 6) for rows in (1, 1, 2, 800, 3, 37, 1, 450)
        ]
        with kernels.use("numpy", 1):
            packed = _verpart(partitions, 5, 2)
        with kernels.use("python"):
            expected = _verpart(partitions, 5, 2)
        assert packed == expected

    @requires_numpy
    def test_m3_packed_matches_python(self):
        partitions = _partitions(1)
        with kernels.use("numpy", 1):
            packed = _verpart(partitions, 3, 3)
        with kernels.use("python"):
            expected = _verpart(partitions, 3, 3)
        assert packed == expected


# --------------------------------------------------------------------------- #
# k^m checks
# --------------------------------------------------------------------------- #
class TestKmParity:
    @requires_numpy
    def test_random_chunks_packed_matches_bigint(self):
        rng = random.Random(0xBEEF)
        for trial in range(60):
            k = rng.randint(2, 6)
            m = rng.randint(1, 3)
            records = _random_chunk(rng, rng.randint(1, 70), 14, 5)
            with kernels.use("numpy", 1):
                packed = is_km_anonymous(records, k, m)
            with kernels.use("python"):
                expected = is_km_anonymous(records, k, m)
            assert packed == expected, f"trial {trial}"

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_empty_chunk_is_anonymous(self, backend):
        if backend == "numpy" and not kernels.numpy_available():
            pytest.skip("numpy >= 2.0 not importable")
        with kernels.use(backend, 1):
            assert is_km_anonymous([], 3, 2)

    @requires_numpy
    def test_packed_km_matches_brute_force_pairs(self):
        rng = random.Random(0x57A7E)
        for trial in range(60):
            k = rng.randint(2, 6)
            rows = rng.choice((1, 2, 5, 30, 70, 150))
            masks = []
            for _ in range(rng.randint(1, 7)):
                mask = 0
                density = rng.choice((0.1, 0.4, 0.8))
                for row in range(rows):
                    if rng.random() < density:
                        mask |= 1 << row
                if mask:
                    masks.append(mask)
            expected = all(mask.bit_count() >= k for mask in masks) and not any(
                0 < (left & right).bit_count() < k
                for index, left in enumerate(masks)
                for right in masks[index + 1 :]
            )
            got = kernels.packed_km_anonymous(masks, rows, k, 2)
            assert got == expected, f"trial {trial}"


# --------------------------------------------------------------------------- #
# end-to-end pipeline, counters and audit
# --------------------------------------------------------------------------- #
class TestPipelineParity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_packed_vs_per_cluster_vs_string(self, scenario):
        dataset = _scenario_dataset(scenario, seed=23)
        reference = _publish(dataset, "python")
        per_cluster = _publish(dataset, min_rows=1 << 30)
        assert per_cluster.to_dict() == reference.to_dict()
        string = Disassociator(AnonymizationParams(backend="string")).anonymize(dataset)
        assert string.to_dict() == reference.to_dict()
        if kernels.numpy_available():
            packed = _publish(dataset, "numpy", 1)
            assert packed.to_dict() == reference.to_dict()

    def test_refine_counters_cover_every_pair(self):
        # Each visited pair is exactly one of: memo skip, prefilter reject,
        # or a full merge attempt.
        dataset = _scenario_dataset("quest", seed=5)
        engine = Disassociator(AnonymizationParams())
        engine.anonymize(dataset)
        counters = engine.last_report.counters()
        assert counters["refine_pairs_considered"] > 0
        assert counters["refine_merges_attempted"] > 0
        assert (
            counters["refine_merges_skipped_memo"]
            + counters["refine_pairs_prefiltered"]
            + counters["refine_merges_attempted"]
            == counters["refine_pairs_considered"]
        )
        assert counters["refine_merges_applied"] <= counters["refine_merges_attempted"]

    @requires_numpy
    def test_refine_counters_identical_across_kernels(self):
        dataset = _scenario_dataset("clickstream", seed=7)
        reports = []
        for backend, min_rows in (("numpy", 1), ("python", None)):
            engine = Disassociator(AnonymizationParams())
            with kernels.use(backend, min_rows):
                engine.anonymize(dataset)
            counters = engine.last_report.counters()
            counters.pop("packed_min_rows")
            reports.append(counters)
        assert reports[0] == reports[1]

    def test_numpy_absent_fallback(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        dataset = _scenario_dataset("zipf", seed=9)
        published = _publish(dataset, min_rows=1)
        reference = _publish(dataset, "python")
        assert published.to_dict() == reference.to_dict()

    @requires_numpy
    def test_audit_identical_across_kernels(self):
        dataset = _scenario_dataset("quest", seed=13)
        published = Disassociator(AnonymizationParams(k=3, m=2)).anonymize(dataset)
        # Auditing at a stricter k than the data was published with yields
        # chunk violations; both kernel shapes must report the same ones.
        for k in (3, 6):
            with kernels.use("numpy", 1):
                packed = audit(published, k=k)
            with kernels.use("python"):
                expected = audit(published, k=k)
            assert packed == expected
        assert audit(published).ok
