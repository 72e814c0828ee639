"""Per-top-level-cluster maintenance of the publication store.

:meth:`~repro.pubstore.PublicationStore.build` rewrites only the
top-level clusters whose content digest changed.  The oracle for that
is a build into an empty directory: after every delta of a seeded
random append/delete sequence, the incrementally maintained store must
answer every :meth:`~repro.pubstore.QueryEngine.execute` op exactly as
a freshly built store does (floats included), reload the same
publication and report the same totals.  The second half drills the new
write path under an injected crash and an expired deadline: a failed
update leaves the previous generation answering unchanged, and the next
run heals it.
"""

from __future__ import annotations

import random
import sqlite3
import time
from contextlib import closing

import pytest

from repro import faults
from repro.core import deadline as deadline_mod
from repro.core.clusters import RecordChunk
from repro.core.engine import AnonymizationParams, Disassociator
from repro.exceptions import DeadlineExceededError, FaultInjected
from repro.pubstore import QUERY_OPS, PublicationStore, QueryEngine
from repro.pubstore.schema import DATA_TABLES
from repro.stream import IncrementalPipeline, StreamParams
from repro.stream import store as store_module
from tests.conftest import make_workload

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: A term no workload publishes: every query must agree on misses too.
MISSING = "never-published-term"


def _records(seed: int, count: int) -> list:
    data = make_workload("quest", records=count, domain=60, avg_len=5.0, seed=seed)
    return [frozenset(record) for record in data]


def _pipeline(tmp_path) -> IncrementalPipeline:
    stream = StreamParams(
        shards=2,
        max_records_in_memory=60,
        store_dir=tmp_path / "shards",
        pubstore_dir=tmp_path / "pub",
    )
    return IncrementalPipeline(PARAMS, stream)


def _requests(terms: list, seed: int) -> list:
    """One ``(op, params)`` list covering every query op, misses included."""
    rng = random.Random(seed)
    probes = [[rng.choice(terms)] for _ in range(4)]
    probes += [rng.sample(terms, 2) for _ in range(6)]
    probes += [rng.sample(terms, 3) for _ in range(4)]
    probes += [[terms[0], MISSING], [MISSING]]
    requests = [("describe", {}), ("top_terms", {"count": 10**6})]
    requests += [("frequent_pairs", {"min_support": s}) for s in (0, 1, 3)]
    for probe in probes:
        for op in ("cooccurrence_count", "containment_ratio", "lower_bound",
                   "expected_support"):
            requests.append((op, {"terms": probe}))
        requests.append(
            ("rule_confidence", {"antecedent": probe[:1], "consequent": probe[1:]})
        )
    for probe in probes[::4]:
        requests.append(
            ("reconstructed_support", {"terms": probe, "reconstructions": 2, "seed": 3})
        )
    assert {op for op, _ in requests} == set(QUERY_OPS)
    return requests


def _answers(store: PublicationStore, requests: list) -> list:
    engine = QueryEngine(store)
    answers = []
    for op, params in requests:
        result = engine.execute(op, params)["result"]
        if op == "describe":
            result.pop("path")
        answers.append((op, result))
    return answers


def _snapshot(store_dir, requests: list) -> tuple:
    """Everything a reader can observe of a store: answers, reload, totals."""
    with PublicationStore(store_dir) as store:
        return (
            _answers(store, requests),
            store.load_publication().to_dict(),
            store.describe()["fingerprint"],
        )


def _assert_matches_fresh_build(tmp_path, published, name: str) -> None:
    """The maintained store answers exactly like a build into an empty dir."""
    with PublicationStore(tmp_path / "pub") as maintained:
        fresh = PublicationStore.from_publication(
            published,
            tmp_path / name,
            generation=maintained.generation,
            source=maintained.source,
        )
        with fresh:
            terms = [term for term, _ in fresh.top_terms(10**6)]
            requests = _requests(terms, seed=len(name))
            assert _answers(maintained, requests) == _answers(fresh, requests)
            assert maintained.load_publication().to_dict() == published.to_dict()
            assert fresh.load_publication().to_dict() == published.to_dict()
            ours, theirs = maintained.describe(), fresh.describe()
            ours.pop("path"), theirs.pop("path")
            assert ours == theirs
            # No leftovers either: orphaned terms, zero-support pairs, rows
            # of deleted clusters.
            assert _row_counts(maintained) == _row_counts(fresh)


def _row_counts(store: PublicationStore) -> dict:
    with closing(sqlite3.connect(store.path)) as db:
        return {
            table: db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in DATA_TABLES
        }


class _LeakyEngine(Disassociator):
    """A window engine that can publish a support-1 term in a record chunk.

    Models a windowing defect: the global boundary pass must catch the
    leak and demote the term into a term chunk before publishing.  Tests
    install it as the store module's engine class and set ``leak`` on the
    class, since every run builds its own engine.
    """

    leak = None

    def anonymize(self, dataset):
        published = super().anonymize(dataset)
        if self.leak is not None:
            leaves = [leaf for top in published.clusters for leaf in top.leaves()]
            leaf = next(leaf for leaf in leaves if leaf.record_chunks)
            chunk = leaf.record_chunks[0]
            subrecords = list(chunk.subrecords)
            subrecords[0] = subrecords[0] | {self.leak}
            leaf.record_chunks[0] = RecordChunk(chunk.domain | {self.leak}, subrecords)
        return published


class TestStoreMatchesRebuild:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_delta_sequences(self, tmp_path, seed):
        rng = random.Random(seed)
        pool = _records(seed, 420)
        live, pool = pool[:240], pool[240:]
        pipeline = _pipeline(tmp_path)
        published = pipeline.run(append=live)
        _assert_matches_fresh_build(tmp_path, published, "fresh-0")
        for step in range(1, 6):
            append, delete = [], []
            kind = rng.choice(("append", "delete", "mixed"))
            if kind in ("append", "mixed"):
                count = rng.randint(3, 20)
                append, pool = pool[:count], pool[count:]
            if kind in ("delete", "mixed"):
                delete = rng.sample(live, rng.randint(1, 6))
            published = pipeline.run(append=append, delete=delete)
            report = pipeline.last_report
            assert report.pubstore_refreshed
            assert 0 < report.pubstore_clusters_rewritten <= len(published.clusters)
            for record in delete:
                live.remove(record)
            live += append
            assert published.total_records() == len(live)
            _assert_matches_fresh_build(tmp_path, published, f"fresh-{step}")

    def test_boundary_demotion(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "Disassociator", _LeakyEngine)
        pipeline = _pipeline(tmp_path)
        records = _records(7, 300)
        published = pipeline.run(append=records[:200])
        assert pipeline.last_report.repair.total_demoted() == 0
        _assert_matches_fresh_build(tmp_path, published, "fresh-clean")

        monkeypatch.setattr(_LeakyEngine, "leak", "leaked-term")
        published = pipeline.run(append=records[200:220])
        assert pipeline.last_report.repair.total_demoted() > 0
        _assert_matches_fresh_build(tmp_path, published, "fresh-demoted")

        monkeypatch.setattr(_LeakyEngine, "leak", None)
        published = pipeline.run(append=records[220:240], delete=records[5:8])
        _assert_matches_fresh_build(tmp_path, published, "fresh-after")


class _ExpiresInsideBuild(deadline_mod.Deadline):
    """A deadline that runs out between a build's first and second check."""

    __slots__ = ("build_checks",)

    def __init__(self):
        super().__init__(3600.0)
        self.build_checks = 0

    def check(self, where: str = "") -> None:
        if where == "pubstore.build":
            self.build_checks += 1
            if self.build_checks == 2:
                self.expires_at = time.monotonic() - 1.0
        super().check(where)


class TestWarmUpdateDrills:
    @pytest.fixture()
    def warm(self, tmp_path):
        """A warm pipeline one delta in, its answers, and the next delta."""
        records = _records(11, 300)
        pipeline = _pipeline(tmp_path)
        pipeline.run(append=records[:200])
        pipeline.run(append=records[200:215])
        with PublicationStore(tmp_path / "pub") as store:
            terms = [term for term, _ in store.top_terms(10**6)]
        requests = _requests(terms, seed=11)
        before = _snapshot(tmp_path / "pub", requests)
        return pipeline, requests, before, records[215:230]

    def _heals(self, tmp_path, pipeline, requests, before) -> None:
        """The failed update left the previous generation; the next run heals."""
        assert _snapshot(tmp_path / "pub", requests) == before
        published = pipeline.run()
        assert pipeline.last_report.pubstore_refreshed
        assert 0 < pipeline.last_report.pubstore_clusters_rewritten < len(
            published.clusters
        )
        _assert_matches_fresh_build(tmp_path, published, "fresh-healed")
        assert _snapshot(tmp_path / "pub", requests) != before

    def test_crash_inside_the_update_transaction(self, tmp_path, warm):
        pipeline, requests, before, delta = warm
        # hit 1 is the build's entry, hit 2 the check just before COMMIT
        with faults.active(faults.FaultPlan.from_text("pubstore.build:2")):
            with pytest.raises(FaultInjected):
                pipeline.run(append=delta)
        self._heals(tmp_path, pipeline, requests, before)

    def test_deadline_expiring_inside_the_update(self, tmp_path, warm):
        pipeline, requests, before, delta = warm
        expiring = _ExpiresInsideBuild()
        with deadline_mod.scope(expiring):
            with pytest.raises(DeadlineExceededError):
                pipeline.run(append=delta)
        assert expiring.build_checks == 2
        self._heals(tmp_path, pipeline, requests, before)
