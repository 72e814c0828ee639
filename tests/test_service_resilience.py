"""Service-hardening tests: deadlines and the one-attempt failure contract.

The contract under test, per the operations runbook (docs/OPERATIONS.md):

* a request's **deadline** (per-request ``deadline`` or the service's
  ``default_deadline``) starts at enqueue, is enforced at dequeue and at
  every pipeline phase boundary, and surfaces as
  :class:`DeadlineExceededError` (HTTP ``504``, kind
  ``deadline_exceeded``), counted once in ``stats()["failures"]``;
* every request **executes once**: a failure (here an injected
  ``service.execute`` fault) fails the request on every entry path --
  ``run()``, a ``submit()`` job, a sync ``POST /anonymize`` (``500``,
  kind ``internal``) and an async job -- without a second execution;
* every HTTP error body carries a machine-readable ``kind`` and oversized
  bodies answer ``413`` under a configurable cap.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.datasets.quest import generate_quest
from repro.exceptions import DeadlineExceededError, FaultInjected, ParameterError
from repro.service import AnonymizationService, ServiceConfig, ServiceHTTPServer

CONFIG = ServiceConfig(k=3, m=2, max_cluster_size=10)


@pytest.fixture()
def dataset():
    return generate_quest(
        num_transactions=150, domain_size=40, avg_transaction_size=5.0, seed=2
    )


@pytest.fixture()
def service():
    svc = AnonymizationService(CONFIG)
    yield svc
    svc.close()


def execute_fault() -> faults.FaultPlan:
    """A plan failing the first request execution the service starts."""
    return faults.FaultPlan([faults.FaultSpec("service.execute", hit=1)])


def http(base: str, method: str, path: str, payload=None, raw=None, timeout=60):
    """One HTTP round-trip; returns ``(status, decoded-json, headers)``."""
    if raw is not None:
        data = raw
    else:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return (
            error.code,
            json.loads(error.read().decode("utf-8")),
            dict(error.headers),
        )


class TestDeadlines:
    def test_request_validation(self, service, dataset):
        with pytest.raises(ParameterError):
            service.run(dataset, deadline=0)

    def test_expired_at_dequeue(self, service, dataset):
        with pytest.raises(DeadlineExceededError):
            service.run(dataset, deadline=1e-9)
        assert service.stats()["failures"]["deadline_exceeded"] == 1

    def test_generous_deadline_passes(self, service, dataset):
        result = service.run(dataset, deadline=300.0)
        assert result.publication.clusters
        assert service.stats()["failures"]["deadline_exceeded"] == 0

    def test_default_deadline_from_config(self, dataset):
        with AnonymizationService(
            ServiceConfig(k=3, max_cluster_size=10, default_deadline=1e-9)
        ) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.run(dataset)
            # a per-request deadline overrides the unworkable default
            assert svc.run(dataset, deadline=300.0).publication.clusters

    def test_queued_job_deadline(self, service, dataset):
        job = service.submit(dataset, deadline=1e-9)
        with pytest.raises(DeadlineExceededError):
            job.result(timeout=60)


class TestOneAttempt:
    def test_run_fails_without_reexecution(self, service, dataset):
        plan = execute_fault()
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                service.run(dataset)
        assert plan.hits("service.execute") == 1

    def test_submitted_job_fails_without_reexecution(self, service, dataset):
        plan = execute_fault()
        with faults.active(plan):
            job = service.submit(dataset)
            with pytest.raises(FaultInjected):
                job.result(timeout=60)
        assert job.state() == "failed"
        assert plan.hits("service.execute") == 1
        assert service.stats()["requests"]["failed"] == 1

    @pytest.mark.parametrize(
        "point,mode",
        [
            ("engine.horizontal", "batch"),
            ("engine.refine", "batch"),
            ("engine.verify", "batch"),
            ("stream.window", "stream"),
            ("stream.merge", "stream"),
        ],
    )
    def test_pipeline_fault_fails_request_once(self, service, dataset, point, mode):
        plan = faults.FaultPlan([faults.FaultSpec(point, hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected) as excinfo:
                service.run(dataset, mode=mode)
        assert excinfo.value.point == point
        assert plan.hits(point) == 1

    def test_failed_request_metrics(self, service, dataset):
        with faults.active(execute_fault()):
            with pytest.raises(FaultInjected):
                service.run(dataset)
        stats = service.stats()
        assert stats["requests"]["failed"] == 1
        assert stats["requests"]["completed"] == 0
        assert stats["requests"]["in_flight"] == 0
        assert stats["requests"]["by_mode"] == {"batch": 0, "stream": 0}
        assert stats["latency"]["request_seconds"]["count"] == 1
        assert stats["phases"]["seconds"] == {}
        assert set(stats["workers"]["busy_seconds"]) == {"caller"}

    def test_failure_leaves_the_service_healthy(self, service, dataset):
        clean = service.run(dataset)
        with faults.active(execute_fault()):
            with pytest.raises(FaultInjected):
                service.run(dataset)
        again = service.run(dataset)
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            clean.to_dict(), sort_keys=True
        )


class TestHTTPFailureContract:
    @pytest.fixture()
    def served(self):
        service = AnonymizationService(CONFIG)
        server = ServiceHTTPServer(
            service, port=0, max_body_bytes=4096
        ).start()
        yield server
        server.close()

    RECORDS = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"]] * 4

    def test_deadline_maps_to_504(self, served):
        status, body, _ = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": self.RECORDS, "deadline": 1e-9, "overrides": {"k": 2}},
        )
        assert status == 504
        assert body["kind"] == "deadline_exceeded"
        assert "deadline" in body["error"]

    def test_sync_failure_maps_to_500_internal_once(self, served):
        plan = execute_fault()
        with faults.active(plan):
            status, body, headers = http(
                served.url,
                "POST",
                "/anonymize",
                {"records": self.RECORDS, "overrides": {"k": 2}},
            )
        assert (status, body["kind"]) == (500, "internal")
        assert "service.execute" in body["error"]
        assert "Retry-After" not in headers
        assert plan.hits("service.execute") == 1

    def test_failed_async_job_carries_kind(self, served):
        plan = execute_fault()
        with faults.active(plan):
            status, body, _ = http(
                served.url,
                "POST",
                "/anonymize",
                {"records": self.RECORDS, "async": True, "overrides": {"k": 2}},
            )
            assert status == 202
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, job, _ = http(served.url, "GET", body["href"])
                if job["state"] in ("failed", "done"):
                    break
                time.sleep(0.02)
        assert job["state"] == "failed"
        assert job["kind"] == "internal"
        assert plan.hits("service.execute") == 1

    def test_service_answers_after_a_failed_request(self, served):
        body = {"records": self.RECORDS, "overrides": {"k": 2}}
        with faults.active(execute_fault()):
            status, _, _ = http(served.url, "POST", "/anonymize", body)
        assert status == 500
        status, result, _ = http(served.url, "POST", "/anonymize", body)
        assert status == 200 and result["publication"]
        _, stats, _ = http(served.url, "GET", "/stats")
        assert (stats["requests"]["failed"], stats["requests"]["completed"]) == (1, 1)

    def test_oversize_body_maps_to_413(self, served):
        status, body, _ = http(
            served.url, "POST", "/anonymize", raw=b"x" * 8192
        )
        assert status == 413
        assert body["kind"] == "too_large"

    def test_bad_request_kinds(self, served):
        status, body, _ = http(
            served.url, "POST", "/anonymize", {"records": self.RECORDS, "resume": True}
        )
        assert (status, body["kind"]) == (400, "bad_request")
        status, body, _ = http(served.url, "GET", "/nope")
        assert (status, body["kind"]) == (404, "not_found")
        status, body, _ = http(served.url, "GET", "/anonymize")
        assert (status, body["kind"]) == (405, "method_not_allowed")

    def test_stats_exposes_failure_counters(self, served):
        http(
            served.url,
            "POST",
            "/anonymize",
            {"records": self.RECORDS, "deadline": 1e-9, "overrides": {"k": 2}},
        )
        _, stats, _ = http(served.url, "GET", "/stats")
        assert stats["failures"] == {"deadline_exceeded": 1}
        assert stats["requests"]["failed"] == 1
