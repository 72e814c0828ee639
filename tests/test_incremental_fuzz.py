"""Differential fuzzing of the incremental store against the cold oracle.

The contract under test is the tentpole property of
:class:`repro.stream.store.IncrementalPipeline`: after *any* sequence of
record appends and deletes, the incrementally maintained publication is
**bit-for-bit identical** to a cold :class:`repro.stream.ShardedPipeline`
run over the mutated dataset.  The oracle is trivial to state and
expensive to hold -- window reuse, arrival-order preservation under
deletes, plan stability and the boundary repair all have to line up --
which makes it an ideal fuzz target:

* :class:`TestDifferentialFuzz` drives seeded randomized mutation
  sequences (append-only, delete-only, mixed; 30 sequences per workload
  family, 2 delta steps each) over the three paper-shaped workloads and
  compares canonical publication JSON after the final step;
* :class:`TestCrashResume` kills a delta run at every injection point it
  crosses (store open/validate/mutate, window, merge, verify) and checks
  that re-running the *same* delta -- same ``delta_id`` -- converges to
  the oracle regardless of where the first attempt died (mutation
  committed or not).  The same drill runs on a store's *initial* build
  (an empty base, every workload family, ``hash`` and ``horpart``
  routing): the store is the one durable format of a sharded run, so a
  crashed long run is finished exactly this way;
* :class:`TestEnvDrivenFaults` is the CI fault matrix's entry: the same
  crash-then-rerun of a store build, with the crash armed through
  ``$REPRO_FAULTS``;
* :class:`TestServiceDeltaResend` checks the client-side half of that
  contract: the service fails a crashed delta once, and the client's
  resend with the same ``delta_id`` -- through the library or HTTP --
  applies the mutation exactly once.
"""

from __future__ import annotations

import json
import os
import random
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.core.engine import AnonymizationParams
from repro.exceptions import FaultInjected
from repro.service import AnonymizationService, ServiceConfig, ServiceHTTPServer
from repro.stream import IncrementalPipeline, ShardedPipeline, StreamParams
from tests.conftest import make_workload

PARAMS = AnonymizationParams(k=3, m=2, max_cluster_size=12)

#: Workload family -> seeded base dataset (shapes match the resilience
#: suite: small enough for ~100 fuzz runs, rich enough to produce shared
#: chunks, refinement and boundary repairs).
WORKLOADS = {
    "quest": dict(records=250, domain=80, avg_len=6.0, seed=11),
    "zipf": dict(records=220, domain=70, avg_len=5.0, seed=11),
    "clickstream": dict(records=220, domain=60, avg_len=5.0, seed=11),
}

#: Mutation kinds x seeds: 30 sequences per workload family.
KINDS = ("append", "delete", "mixed")
SEEDS = tuple(range(10))

#: How many delta steps each fuzz sequence applies before the oracle check.
STEPS_PER_SEQUENCE = 2


def _stream(store_dir, **overrides) -> StreamParams:
    values = dict(shards=3, max_records_in_memory=100, store_dir=store_dir)
    values.update(overrides)
    return StreamParams(**values)


def _canonical(published) -> str:
    return json.dumps(published.to_dict(), sort_keys=True)


def _cold(records, **stream_overrides):
    """The oracle: a cold sharded run over the full mutated dataset."""
    values = dict(shards=3, max_records_in_memory=100)
    values.update(stream_overrides)
    return ShardedPipeline(PARAMS, StreamParams(**values)).run(list(records))


def _crash_then_rerun(pipeline, plan, **delta):
    """Crash one store run under ``plan``, then re-run it unarmed."""
    with faults.active(plan):
        with pytest.raises(FaultInjected):
            pipeline.run(**delta)
    return pipeline.run(**delta)


def _term_pool(records) -> list:
    return sorted({term for record in records for term in record})


def _random_record(rng: random.Random, pool: list) -> frozenset:
    """A random record mixing existing terms with fresh ones (fuzz both
    vocabulary growth and duplicate-content routing)."""
    size = rng.randint(1, 6)
    terms = set()
    while len(terms) < size:
        if rng.random() < 0.7:
            terms.add(rng.choice(pool))
        else:
            terms.add(f"fresh-{rng.randint(0, 49)}")
    return frozenset(terms)


def _random_delta(rng: random.Random, current: list, pool: list, kind: str):
    """One randomized (append, delete) pair legal against ``current``."""
    appends, deletes = [], []
    if kind in ("append", "mixed"):
        appends = [_random_record(rng, pool) for _ in range(rng.randint(1, 12))]
    if kind in ("delete", "mixed") and current:
        count = rng.randint(1, min(12, len(current)))
        deletes = [current[i] for i in rng.sample(range(len(current)), count)]
    return appends, deletes


def _apply_oracle(current: list, appends: list, deletes: list) -> list:
    """The store's mutation semantics on a plain list.

    Deletes remove the earliest surviving occurrence of each record (in
    delete order), then appends land at the end -- the exact arrival
    order the store maintains.
    """
    mutated = list(current)
    for record in deletes:
        mutated.remove(record)
    return mutated + appends


@pytest.fixture(scope="module")
def base_records():
    """Workload family -> the list of base records (built once)."""
    return {
        name: list(make_workload(name, **spec)) for name, spec in WORKLOADS.items()
    }


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_delta_matches_cold_recompute(
        self, workload, kind, seed, base_records, tmp_path
    ):
        """Any mutation sequence == cold run over the mutated dataset."""
        records = base_records[workload]
        rng = random.Random(seed * 1000 + KINDS.index(kind))
        pool = _term_pool(records)
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        current = list(records)
        for _ in range(STEPS_PER_SEQUENCE):
            appends, deletes = _random_delta(rng, current, pool, kind)
            published = pipeline.run(append=appends, delete=deletes)
            current = _apply_oracle(current, appends, deletes)
        assert _canonical(published) == _canonical(_cold(current))
        report = pipeline.last_report
        assert report.num_records == len(current)
        assert sum(report.shard_records) == len(current)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_incremental_equals_cold_from_scratch(
        self, workload, base_records, tmp_path
    ):
        """The very first (initializing) run is already oracle-identical."""
        records = base_records[workload]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        published = pipeline.run(append=records)
        assert _canonical(published) == _canonical(_cold(records))
        assert pipeline.last_report.initialized

    def test_horpart_strategy_fuzz(self, base_records, tmp_path):
        """Sample-based routing: append-only deltas stay oracle-identical.

        Deletes inside the sample prefix can legitimately change the
        derived plan (rejected with ``StoreError``, covered in the edge
        suite), so the horpart fuzz sticks to appends -- the plan is
        stable and every delta must land bit-for-bit.
        """
        records = base_records["quest"]
        rng = random.Random(77)
        pool = _term_pool(records)
        pipeline = IncrementalPipeline(
            PARAMS, _stream(tmp_path / "store", strategy="horpart")
        )
        pipeline.run(append=records)
        current = list(records)
        for _ in range(3):
            appends, _ = _random_delta(rng, current, pool, "append")
            published = pipeline.run(append=appends)
            current = current + appends
        assert _canonical(published) == _canonical(
            _cold(current, strategy="horpart")
        )


#: Every injection point a delta run crosses, with the 1-based hit that
#: lands *inside the delta* (the initializing run is not under the plan).
DELTA_CRASH_POINTS = [
    ("store.open", 1),
    ("store.validate", 1),
    ("store.mutate", 1),
    ("stream.window", 1),
    ("stream.window", 2),
    ("stream.merge", 1),
    ("stream.verify", 1),
]

#: The points a store's initial build crosses: ``store.validate`` never
#: fires on an empty store, and ``engine.vertical`` hit 2 dies inside the
#: second window's engine run, after the first window committed.
BUILD_CRASH_POINTS = [
    ("store.open", 1),
    ("store.mutate", 1),
    ("stream.window", 1),
    ("stream.window", 2),
    ("engine.vertical", 2),
    ("stream.merge", 1),
    ("stream.verify", 1),
]

#: (base, workload, strategy, point, hit): a delta over a built quest
#: store, and the initial build of every workload under both routings.
CRASH_CASES = [
    pytest.param("built", "quest", "hash", point, hit, id=f"{point}-{hit}")
    for point, hit in DELTA_CRASH_POINTS
] + [
    pytest.param(
        "empty", workload, strategy, point, hit,
        id=f"empty-{workload}-{strategy}-{point}-{hit}",
    )
    for workload in sorted(WORKLOADS)
    for strategy in ("hash", "horpart")
    for point, hit in BUILD_CRASH_POINTS
]


class TestCrashResume:
    @pytest.mark.parametrize("base,workload,strategy,point,hit", CRASH_CASES)
    def test_crash_during_delta_then_rerun(
        self, base, workload, strategy, point, hit, base_records, tmp_path
    ):
        """A delta killed at any phase converges on re-run (same delta_id).

        Crashes before the mutation commit must re-apply the mutation;
        crashes after it must *not* double-apply (the store recognizes the
        ``delta_id``).  Either way the re-run publishes the oracle bytes.
        On an empty base the delta is the store's initial build, and the
        oracle is the cold sharded run over the whole dataset.
        """
        records = base_records[workload]
        pipeline = IncrementalPipeline(
            PARAMS, _stream(tmp_path / "store", strategy=strategy)
        )
        if base == "built":
            pipeline.run(append=records)
            appends = [frozenset({f"crash-{i}", f"crash-{i + 1}"}) for i in range(9)]
            deletes = records[3:7]
            mutated = _apply_oracle(records, appends, deletes)
        else:
            appends, deletes, mutated = records, [], records
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=hit)])
        resumed = _crash_then_rerun(
            pipeline, plan, append=appends, delete=deletes, delta_id="delta-1"
        )
        assert plan.hits(point) == hit
        assert _canonical(resumed) == _canonical(_cold(mutated, strategy=strategy))
        # The mutation landed exactly once, whether the crash hit before
        # or after the commit.
        assert pipeline.last_report.num_records == len(mutated)

    def test_repeated_crashes_still_converge(self, base_records, tmp_path):
        """Several consecutive crashes at different phases, one delta."""
        records = base_records["zipf"]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        appends = [frozenset({f"x{i}", "y"}) for i in range(6)]
        for point in ("store.mutate", "stream.window", "stream.verify"):
            plan = faults.FaultPlan([faults.FaultSpec(point, hit=1)])
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    pipeline.run(append=appends, delta_id="retry-me")
        resumed = pipeline.run(append=appends, delta_id="retry-me")
        assert _canonical(resumed) == _canonical(_cold(records + appends))

    def test_completed_delta_replay_is_noop(self, base_records, tmp_path):
        """Replaying a fully completed delta serves the stored publication."""
        records = base_records["quest"]
        pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
        pipeline.run(append=records)
        appends = [frozenset({"replay-a", "replay-b"})]
        first = pipeline.run(append=appends, delta_id="once")
        replay = pipeline.run(append=appends, delta_id="once")
        assert _canonical(replay) == _canonical(first)
        assert pipeline.last_report.noop
        assert pipeline.last_report.windows_recomputed == 0


class TestServiceDeltaResend:
    """A crashed service delta fails once; the client resends its delta_id."""

    BASE = [
        frozenset({f"t{i}", f"t{i + 1}", f"t{(i * 3) % 17}"}) for i in range(120)
    ]
    APPENDS = [frozenset({"svc-a", "svc-b", f"svc-{i}"}) for i in range(5)]

    @staticmethod
    def _config(tmp_path) -> ServiceConfig:
        return ServiceConfig(
            k=3,
            m=2,
            max_cluster_size=12,
            shards=3,
            max_records_in_memory=100,
            store_dir=str(tmp_path / "store"),
        )

    @staticmethod
    def _window_fault() -> faults.FaultPlan:
        # The first window recompute runs after the delta's mutation has
        # committed, so the failed request leaves the appends durable.
        return faults.FaultPlan([faults.FaultSpec("stream.window", hit=1)])

    def test_resend_through_service_applies_once(self, tmp_path):
        with AnonymizationService(self._config(tmp_path)) as service:
            service.run(self.BASE, mode="delta")
            plan = self._window_fault()
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    service.run(self.APPENDS, mode="delta", delta_id="svc-1")
            assert plan.hits("stream.window") == 1
            result = service.run(self.APPENDS, mode="delta", delta_id="svc-1")
        mutated = self.BASE + self.APPENDS
        assert _canonical(result.publication) == _canonical(_cold(mutated))
        assert result.report.num_records == len(mutated)
        assert result.report.delta_replayed
        assert result.report.appended == 0

    def test_failed_tokenless_delta_heals_on_the_next_run(self, tmp_path):
        """Without a delta_id, an empty delta finishes the durable appends."""
        with AnonymizationService(self._config(tmp_path)) as service:
            service.run(self.BASE, mode="delta")
            with faults.active(self._window_fault()):
                with pytest.raises(FaultInjected):
                    service.run(self.APPENDS, mode="delta")
            healed = service.run(None, mode="delta")
        mutated = self.BASE + self.APPENDS
        assert _canonical(healed.publication) == _canonical(_cold(mutated))
        assert healed.report.num_records == len(mutated)

    def test_resend_through_http_applies_once(self, tmp_path):
        def post(url, body):
            request = urllib.request.Request(
                url + "/anonymize",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        base = [sorted(record) for record in self.BASE]
        appends = [sorted(record) for record in self.APPENDS]
        body = {"mode": "delta", "records": appends, "delta_id": "http-1"}
        server = ServiceHTTPServer(
            AnonymizationService(self._config(tmp_path)), port=0
        ).start()
        try:
            status, _ = post(server.url, {"mode": "delta", "records": base})
            assert status == 200
            with faults.active(self._window_fault()):
                status, failed = post(server.url, body)
            assert (status, failed["kind"]) == (500, "internal")
            status, resent = post(server.url, body)
            assert status == 200
        finally:
            server.close()
        mutated = self.BASE + self.APPENDS
        assert json.dumps(resent["publication"], sort_keys=True) == _canonical(
            _cold(mutated)
        )


class TestEnvDrivenFaults:
    """The CI fault matrix path: ``$REPRO_FAULTS`` arms the same harness."""

    @pytest.mark.skipif(
        not os.environ.get(faults.ENV_VAR),
        reason="set REPRO_FAULTS=point:N to run the env-armed crash matrix",
    )
    def test_env_armed_crash_then_rerun(self, tmp_path):
        records = list(
            make_workload("quest", records=400, domain=100, avg_len=8.0, seed=11)
        )
        # Fresh counters, and the plan armed at import is disarmed so the
        # oracle and the re-run are not themselves crashed.
        plan = faults.plan_from_env()
        assert plan is not None
        previous = faults.active_plan()
        faults.clear()
        try:
            oracle = _cold(records)
            pipeline = IncrementalPipeline(PARAMS, _stream(tmp_path / "store"))
            finished = _crash_then_rerun(
                pipeline, plan, append=records, delta_id="env-build"
            )
            assert _canonical(finished) == _canonical(oracle)
        finally:
            faults.install(previous)
