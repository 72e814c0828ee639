"""Kernel-backend coverage: numpy kernels vs the pure-Python fallback.

The kernel layer (:mod:`repro.core.kernels`) promises **bit-for-bit
identical output** on both backends.  This suite is that promise's
enforcement:

* randomized parity of the three primitives against their Python
  references (contiguous-buffer counting, packed combination checking,
  packed sub-record assembly) on three workload shapes,
* HORPART and end-to-end pipeline equivalence under a forced
  ``REPRO_KERNELS`` matrix,
* vocabulary reuse: an engine interning onto a prewarmed vocabulary
  publishes what a fresh engine does,
* backend-resolution semantics (explicit choice > ``use`` scope >
  environment > auto) and validation, and the same for the
  ``packed_min_rows`` crossover.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import kernels
from repro.core.anonymity import BitsetChunkChecker, is_km_anonymous
from repro.core.dataset import TransactionDataset
from repro.core.engine import AnonymizationParams, Disassociator
from repro.core.horizontal import horizontal_partition_indices
from repro.core.vocab import EncodedDataset, Vocabulary
from repro.exceptions import ParameterError
from repro.stream import ShardedPipeline, StreamParams
from tests.conftest import make_workload

requires_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy >= 2.0 not importable"
)

SCENARIOS = ("quest", "zipf", "clickstream")


def _scenario_dataset(name: str, seed: int) -> TransactionDataset:
    if name == "quest":
        return make_workload("quest", records=400, domain=120, avg_len=6.0, seed=seed)
    if name == "zipf":
        return make_workload("zipf", records=400, domain=150, avg_len=5.0, seed=seed)
    if name == "clickstream":
        return make_workload(
            "clickstream", records=400, domain=150, avg_len=5.0, seed=seed, sections=6
        )
    raise AssertionError(name)


def _random_masks(rng: random.Random, rows: int, terms: int, density: float) -> dict:
    masks = {}
    for index in range(terms):
        mask = 0
        for row in range(rows):
            if rng.random() < density:
                mask |= 1 << row
        if mask:
            masks[f"t{index:03d}"] = mask
    return masks


# --------------------------------------------------------------------------- #
# backend resolution
# --------------------------------------------------------------------------- #
class TestResolution:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "numpy" if kernels.numpy_available() else "python")
        assert kernels.resolve("python") == "python"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "python")
        assert kernels.resolve() == "python"

    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.resolve() == expected
        assert kernels.resolve("auto") == expected

    def test_use_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "auto")
        with kernels.use("python"):
            assert kernels.resolve() == "python"
        # restored afterwards
        assert kernels.resolve() == ("numpy" if kernels.numpy_available() else "python")

    def test_use_is_context_local(self, monkeypatch):
        import threading

        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        results = {}

        def probe():
            results["other_thread"] = kernels.resolve()

        with kernels.use("python"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            results["main"] = kernels.resolve()
        assert results["main"] == "python"
        # A concurrent thread is not contaminated by this run's override.
        expected = "numpy" if kernels.numpy_available() else "python"
        assert results["other_thread"] == expected

    def test_nested_use_keeps_outer_overrides(self, monkeypatch):
        # A scope that forces only one knob must not clear the other one
        # an enclosing scope forced (a test forcing the backend around a
        # run that pins the crossover, or the reverse).
        monkeypatch.setenv(kernels.KERNELS_ENV, "auto")
        monkeypatch.setenv(kernels.PACKED_MIN_ROWS_ENV, "7")
        with kernels.use("python", 3):
            with kernels.use(None, 1):
                assert (kernels.resolve(), kernels.packed_min_rows()) == ("python", 1)
            with kernels.use("python"):
                assert kernels.packed_min_rows() == 3
        assert kernels.packed_min_rows() == 7

    def test_invalid_choice_rejected(self):
        with pytest.raises(ParameterError):
            kernels.resolve("fortran")
        with pytest.raises(ParameterError):
            with kernels.use("fortran"):
                pass  # pragma: no cover

    def test_numpy_without_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        with pytest.raises(ParameterError):
            kernels.resolve("numpy")


# --------------------------------------------------------------------------- #
# packed_min_rows resolution and validation
# --------------------------------------------------------------------------- #
class TestPackedMinRows:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(kernels.PACKED_MIN_ROWS_ENV, raising=False)
        assert kernels.packed_min_rows() == kernels.PACKED_MIN_ROWS

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(kernels.PACKED_MIN_ROWS_ENV, "7")
        assert kernels.packed_min_rows() == 7

    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv(kernels.PACKED_MIN_ROWS_ENV, "7")
        assert kernels.packed_min_rows(3) == 3

    def test_use_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.PACKED_MIN_ROWS_ENV, "7")
        with kernels.use(None, 5):
            assert kernels.packed_min_rows() == 5
        assert kernels.packed_min_rows() == 7

    @pytest.mark.parametrize("bad", [0, -5, 2.5, "many", None])
    def test_validation_rejects(self, bad):
        with pytest.raises(ParameterError):
            kernels.validate_min_rows(bad)

    @pytest.mark.parametrize("bad", [0, -1, "soon"])
    def test_use_validates_min_rows(self, bad):
        with pytest.raises(ParameterError):
            with kernels.use(None, bad):
                pass  # pragma: no cover

    def test_use_scope_lands_in_counters(self):
        dataset = make_workload("quest", records=60, domain=30, avg_len=3.0, seed=3)
        engine = Disassociator(AnonymizationParams(k=3))
        with kernels.use(None, 123):
            engine.anonymize(dataset)
        assert engine.last_report.counters()["packed_min_rows"] == 123

    def test_env_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.PACKED_MIN_ROWS_ENV, "zero")
        with pytest.raises(ParameterError):
            kernels.packed_min_rows()


# --------------------------------------------------------------------------- #
# kernel 1: contiguous-buffer counting
# --------------------------------------------------------------------------- #
@requires_numpy
class TestRecordIdBuffer:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_counts_match_counter(self, scenario):
        rng = random.Random(11)
        encoded = EncodedDataset.from_dataset(_scenario_dataset(scenario, seed=5))
        buffer = kernels.RecordIdBuffer(encoded.records)
        for trial in range(20):
            size = rng.randrange(0, len(encoded.records) + 1)
            rows = sorted(rng.sample(range(len(encoded.records)), size))
            expected = Counter()
            for row in rows:
                expected.update(encoded.records[row])
            counts = buffer.counts(kernels.np.array(rows, dtype="int64"))
            assert {t: c for t, c in enumerate(counts.tolist()) if c} == dict(expected)
        full = buffer.counts()
        assert int(full.sum()) == sum(len(r) for r in encoded.records)

    def test_python_reference_matches(self):
        encoded = EncodedDataset.from_dataset(_scenario_dataset("quest", seed=6))
        rows = list(range(0, len(encoded.records), 3))
        buffer = kernels.RecordIdBuffer(encoded.records)
        reference = kernels.supports_python(encoded.records, rows)
        counts = buffer.counts(kernels.np.array(rows, dtype="int64"))
        assert {t: c for t, c in enumerate(counts.tolist()) if c} == reference

    def test_compact_remaps_sparse_large_ids(self):
        # Ids shaped like a late stream window under vocabulary reuse:
        # few distinct terms, arbitrarily large original ids.
        records = [frozenset({7, 100000}), frozenset({7, 512}), frozenset({100000})]
        buffer = kernels.RecordIdBuffer(records, compact=True)
        assert buffer.num_terms == 3  # distinct terms, not max id + 1
        assert buffer.term_ids.tolist() == [7, 512, 100000]
        counts = buffer.counts()
        assert {
            int(buffer.term_ids[cid]): count
            for cid, count in enumerate(counts.tolist())
        } == {7: 2, 512: 1, 100000: 2}
        assert buffer.posting(buffer.term_ids.tolist().index(7)).tolist() == [0, 1]

    def test_postings_are_sorted_memberships(self):
        encoded = EncodedDataset.from_dataset(_scenario_dataset("zipf", seed=7))
        buffer = kernels.RecordIdBuffer(encoded.records)
        for tid in range(0, buffer.num_terms, 17):
            expected = [
                row for row, record in enumerate(encoded.records) if tid in record
            ]
            assert buffer.posting(tid).tolist() == expected

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("max_cluster_size", (10, 30))
    def test_horpart_identical(self, scenario, max_cluster_size):
        encoded = EncodedDataset.from_dataset(_scenario_dataset(scenario, seed=9))
        python = horizontal_partition_indices(
            encoded, max_cluster_size, kernels_backend="python"
        )
        numpy = horizontal_partition_indices(
            encoded, max_cluster_size, kernels_backend="numpy"
        )
        assert python == numpy


# --------------------------------------------------------------------------- #
# kernel 2: packed combination checking
# --------------------------------------------------------------------------- #
@requires_numpy
class TestPackedSelection:
    @pytest.mark.parametrize("rows", (20, 70, 200))
    @pytest.mark.parametrize("m", (2, 3))
    def test_checker_decisions_identical(self, monkeypatch, rows, m):
        # Force packing at every size so the numpy path is exercised even
        # below the production threshold.
        monkeypatch.setattr(kernels, "PACKED_MIN_ROWS", 1)
        rng = random.Random(rows * 10 + m)
        for trial in range(10):
            masks = _random_masks(rng, rows, 40, rng.uniform(0.05, 0.4))
            k = rng.randrange(2, 7)
            reference = BitsetChunkChecker(masks, k, m, kernels_backend="python")
            packed = BitsetChunkChecker(masks, k, m, kernels_backend="numpy")
            assert packed._packed is not None
            terms = sorted(masks)
            rng.shuffle(terms)
            for term in terms:
                assert reference.try_add(term) == packed.try_add(term)
            assert reference.accepted_terms == packed.accepted_terms
            # exercise removal parity (the hold-back fast path)
            accepted = sorted(reference.accepted_terms)
            for term in accepted[: len(accepted) // 2]:
                reference.remove(term)
                packed.remove(term)
            for term in terms:
                assert reference.would_remain_anonymous(
                    term
                ) == packed.would_remain_anonymous(term)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_is_km_anonymous_identical(self, monkeypatch, m):
        monkeypatch.setattr(kernels, "PACKED_MIN_ROWS", 1)
        rng = random.Random(m)
        for trial in range(25):
            rows = rng.randrange(2, 60)
            records = [
                frozenset(
                    f"t{rng.randrange(12)}" for _ in range(rng.randrange(1, 6))
                )
                for _ in range(rows)
            ]
            k = rng.randrange(1, 6)
            assert is_km_anonymous(
                records, k, m, kernels_backend="python"
            ) == is_km_anonymous(records, k, m, kernels_backend="numpy")

    def test_packed_km_matches_reference_on_large_chunk(self):
        rng = random.Random(3)
        masks = _random_masks(rng, 1500, 60, 0.02)
        ordered = list(masks.values())
        from repro.core.anonymity import _masks_are_km_anonymous

        for k in (2, 5, 40):
            assert kernels.packed_km_anonymous(
                ordered, 1500, k, 2
            ) == _masks_are_km_anonymous(ordered, -1, 0, 2, k)

    def test_reset_clears_packed_state(self, monkeypatch):
        monkeypatch.setattr(kernels, "PACKED_MIN_ROWS", 1)
        masks = {"a": 0b0111, "b": 0b1110, "c": 0b1011}
        checker = BitsetChunkChecker(masks, 2, 2, kernels_backend="numpy")
        for term in masks:
            checker.add(term)
        checker.reset()
        assert checker.accepted_terms == frozenset()
        assert checker._packed._count == 0

    def test_unknown_term_add_is_safe(self, monkeypatch):
        monkeypatch.setattr(kernels, "PACKED_MIN_ROWS", 1)
        checker = BitsetChunkChecker({"a": 0b111}, 2, 2, kernels_backend="numpy")
        assert not checker.would_remain_anonymous("ghost")
        for index in range(8):  # overflow the preallocated accepted matrix
            checker.add(f"ghost{index}")
        assert checker.would_remain_anonymous("a")


# --------------------------------------------------------------------------- #
# kernel 3: packed sub-record assembly
# --------------------------------------------------------------------------- #
@requires_numpy
class TestAssembly:
    @pytest.mark.parametrize("rows", (8, 64, 300))
    def test_assembly_matches_python(self, rows):
        rng = random.Random(rows)
        for trial in range(10):
            masks = _random_masks(rng, rows, rng.randrange(2, 12), 0.3)
            term_masks = sorted(masks.items())
            assert kernels.assemble_subrecords(
                term_masks, rows
            ) == kernels.assemble_subrecords_python(term_masks, rows)

    def test_empty_domain(self):
        assert kernels.assemble_subrecords([], 16) == []


# --------------------------------------------------------------------------- #
# forced-backend matrix: end-to-end equivalence
# --------------------------------------------------------------------------- #
@requires_numpy
class TestEndToEndMatrix:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pipeline_identical_under_forced_env(self, monkeypatch, scenario):
        dataset = _scenario_dataset(scenario, seed=21)
        outputs = []
        for backend in ("python", "numpy"):
            monkeypatch.setenv(kernels.KERNELS_ENV, backend)
            engine = Disassociator(AnonymizationParams(k=4, m=2, max_cluster_size=12))
            outputs.append(engine.anonymize(dataset).to_dict())
            assert engine.last_report.kernels == backend
        assert outputs[0] == outputs[1]

    def test_use_scope_beats_environment(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "numpy")
        engine = Disassociator(AnonymizationParams(k=3, m=2))
        with kernels.use("python"):
            engine.anonymize(_scenario_dataset("quest", seed=2))
        assert engine.last_report.kernels == "python"

    def test_packed_thresholds_lowered(self, monkeypatch):
        # With the packing threshold at 1 the whole pipeline runs through
        # the packed checker/assembly paths; output must not move.
        dataset = _scenario_dataset("zipf", seed=4)
        params = AnonymizationParams(k=4, m=2, max_cluster_size=12)
        with kernels.use("python"):
            expected = Disassociator(params).anonymize(dataset).to_dict()
        monkeypatch.setattr(kernels, "PACKED_MIN_ROWS", 1)
        with kernels.use("numpy"):
            forced = Disassociator(params).anonymize(dataset).to_dict()
        assert forced == expected


# --------------------------------------------------------------------------- #
# shard-lifetime vocabulary reuse
# --------------------------------------------------------------------------- #
class TestVocabularyReuse:
    def test_from_dataset_accepts_prewarmed_vocab(self):
        dataset = TransactionDataset([{"b", "a"}, {"c", "a"}])
        vocab = Vocabulary(["z", "a"])
        encoded = EncodedDataset.from_dataset(dataset, vocab=vocab)
        assert encoded.vocab is vocab
        assert vocab.id_of("z") == 0 and vocab.id_of("a") == 1
        assert {vocab.decode(tid) for tid in encoded.records[0]} == {"a", "b"}

    def test_stream_verify_honors_outer_kernels_scope(self, monkeypatch):
        # The global boundary audit runs outside any engine call; it must
        # still see the enclosing scope's backend, not the environment's.
        import repro.stream.executor as executor

        seen = {}
        original = executor.verify_and_repair

        def spy(merged):
            seen["backend"] = kernels.resolve()
            return original(merged)

        monkeypatch.setattr(executor, "verify_and_repair", spy)
        monkeypatch.setenv(kernels.KERNELS_ENV, "auto")
        pipeline = ShardedPipeline(
            AnonymizationParams(k=4, m=2, max_cluster_size=12),
            StreamParams(shards=2, max_records_in_memory=100),
        )
        with kernels.use("python"):
            pipeline.anonymize(_scenario_dataset("quest", seed=3))
        assert seen["backend"] == "python"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_engine_reuses_vocabulary_across_calls(self, scenario):
        dataset = _scenario_dataset(scenario, seed=8)
        # Prewarmed in reversed term order, so the ids differ from what a
        # fresh table would assign; the output must not notice.
        terms = sorted({term for record in dataset for term in record}, reverse=True)
        vocab = Vocabulary(terms)
        engine = Disassociator(
            AnonymizationParams(k=4, m=2, max_cluster_size=12), vocabulary=vocab
        )
        baseline = Disassociator(
            AnonymizationParams(k=4, m=2, max_cluster_size=12)
        )
        first = engine.anonymize(dataset).to_dict()
        grown = len(vocab)
        assert grown == len(terms)
        second = engine.anonymize(dataset).to_dict()
        assert len(vocab) == grown  # append-only: nothing re-interned
        assert first == second == baseline.anonymize(dataset).to_dict()
