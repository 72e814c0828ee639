"""Equivalence suite: the encoded execution core vs the string reference.

The interned/bitset fast paths (``backend="encoded"``, with and without the
parallel VERPART fan-out) must produce *identical* published datasets to
the pre-refactor string pipeline (``backend="string"``), for every phase
individually and end to end.  These tests are the contract that lets every
future performance PR swap internals without moving the output.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.horizontal import horizontal_partition, horizontal_partition_indices
from repro.core.refine import refine
from repro.core.verification import verify_km_anonymity
from repro.core.vertical import vertical_partition, vertical_partition_fast
from repro.core.vocab import EncodedDataset
from tests.conftest import PAPER_RECORDS, publish


def make_seeded_dataset(seed: int, num_records: int = 400) -> TransactionDataset:
    """Zipf-ish random dataset; duplicates and shared prefixes are common."""
    rng = random.Random(seed)
    vocabulary = [f"t{i}" for i in range(120)]
    weights = [1.0 / (i + 1) for i in range(120)]
    records = []
    for _ in range(num_records):
        length = rng.randint(1, 8)
        record = set()
        while len(record) < length:
            record.add(rng.choices(vocabulary, weights=weights, k=1)[0])
        records.append(record)
    return TransactionDataset(records)


class TestPhaseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_horizontal_partition_matches(self, seed):
        dataset = make_seeded_dataset(seed)
        reference = horizontal_partition(dataset, 25)
        encoded = EncodedDataset.from_dataset(dataset)
        index_parts = horizontal_partition_indices(encoded, 25)
        records = list(dataset)
        assert len(reference) == len(index_parts)
        for ref_part, idx_part in zip(reference, index_parts):
            assert list(ref_part) == [records[i] for i in idx_part]

    @pytest.mark.parametrize("seed,k,m", [(0, 3, 2), (1, 5, 2), (2, 2, 3), (3, 4, 1)])
    def test_vertical_partition_matches(self, seed, k, m):
        dataset = make_seeded_dataset(seed, num_records=150)
        for index, part in enumerate(horizontal_partition(dataset, 20)):
            reference = vertical_partition(part, k, m, label=f"P{index}")
            fast = vertical_partition_fast(list(part), k, m, label=f"P{index}")
            assert reference.cluster.to_dict() == fast.cluster.to_dict()
            assert reference.demoted_terms == fast.demoted_terms

    @pytest.mark.parametrize("seed", [0, 4])
    def test_refine_matches(self, seed):
        dataset = make_seeded_dataset(seed)

        def clusters():
            return [
                vertical_partition(part, 3, 2, label=f"P{i}").cluster
                for i, part in enumerate(horizontal_partition(dataset, 20))
            ]

        reference = refine(clusters(), 3, 2, use_bitsets=False)
        fast = refine(clusters(), 3, 2, use_bitsets=True)
        assert [c.to_dict() for c in reference] == [c.to_dict() for c in fast]


class TestPipelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_backends_publish_identical_datasets(self, seed):
        dataset = make_seeded_dataset(seed)
        string_pub = publish(dataset, k=4, m=2, max_cluster_size=25, backend="string")
        encoded_pub = publish(dataset, k=4, m=2, max_cluster_size=25, backend="encoded")
        assert string_pub.to_dict() == encoded_pub.to_dict()
        verify_km_anonymity(encoded_pub)

    def test_backends_identical_at_500_records(self):
        dataset = make_seeded_dataset(7, num_records=500)
        string_pub = publish(dataset, backend="string", verify=False)
        encoded_pub = publish(dataset, backend="encoded", verify=False)
        assert string_pub.to_dict() == encoded_pub.to_dict()
        verify_km_anonymity(encoded_pub)

    def test_paper_dataset_equivalence_with_sensitive_terms(self):
        dataset = TransactionDataset(PAPER_RECORDS)
        kwargs = dict(k=3, m=2, max_cluster_size=6, sensitive_terms={"viagra"})
        string_pub = publish(dataset, backend="string", **kwargs)
        encoded_pub = publish(dataset, backend="encoded", **kwargs)
        assert string_pub.to_dict() == encoded_pub.to_dict()

    def test_default_backend_is_encoded(self):
        assert AnonymizationParams().backend == "encoded"

    def test_reports_agree_on_structure(self):
        dataset = make_seeded_dataset(9)
        string_engine = Disassociator(AnonymizationParams(backend="string", verify=False))
        encoded_engine = Disassociator(AnonymizationParams(backend="encoded", verify=False))
        string_engine.anonymize(dataset)
        encoded_engine.anonymize(dataset)
        fields = (
            "num_records",
            "num_clusters",
            "num_joint_clusters",
            "num_record_chunks",
            "num_shared_chunks",
            "term_chunk_terms",
        )
        for field in fields:
            assert getattr(string_engine.last_report, field) == getattr(
                encoded_engine.last_report, field
            ), field
