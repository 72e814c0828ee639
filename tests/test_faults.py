"""Unit tests for the deterministic fault-injection harness (``repro.faults``).

The resilience suites (``test_incremental_fuzz.py``,
``test_service_resilience.py``) exercise the harness end-to-end through
the pipelines; this file pins down
the harness itself: trigger semantics, determinism across processes, the
``$REPRO_FAULTS`` grammar, and the arming lifecycle.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.exceptions import FaultInjected, ParameterError


class TestFaultSpec:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge")
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", hit=1, probability=0.5)

    def test_hit_is_one_based(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", hit=0)
        assert faults.FaultSpec("stream.merge", hit=1).hit == 1

    def test_probability_bounds(self):
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", probability=0.0)
        with pytest.raises(ParameterError):
            faults.FaultSpec("stream.merge", probability=1.5)
        assert faults.FaultSpec("stream.merge", probability=1.0).probability == 1.0


class TestFaultPlan:
    def test_nth_hit_fires_exactly_once(self):
        plan = faults.FaultPlan([faults.FaultSpec("p", hit=3)])
        plan.check("p")
        plan.check("p")
        with pytest.raises(FaultInjected) as excinfo:
            plan.check("p")
        assert excinfo.value.point == "p"
        assert excinfo.value.hit == 3
        # the trigger is Nth-hit, not every-hit-from-N: later arrivals pass
        plan.check("p")
        assert plan.hits("p") == 4

    def test_unknown_points_are_free(self):
        plan = faults.FaultPlan([faults.FaultSpec("p", hit=1)])
        plan.check("q")  # no trigger, no counter bump requirement
        with pytest.raises(FaultInjected):
            plan.check("p")

    def test_probability_is_deterministic_per_seed(self):
        def fire_pattern(seed):
            plan = faults.FaultPlan(
                [faults.FaultSpec("p", probability=0.5)], seed=seed
            )
            pattern = []
            for _ in range(32):
                try:
                    plan.check("p")
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)
        assert any(fire_pattern(7))

    def test_reset_rearms_counters(self):
        plan = faults.FaultPlan([faults.FaultSpec("p", hit=2)])
        plan.check("p")
        with pytest.raises(FaultInjected):
            plan.check("p")
        plan.reset()
        plan.check("p")  # first arrival again
        with pytest.raises(FaultInjected):
            plan.check("p")

    def test_describe_is_json_safe_summary(self):
        plan = faults.FaultPlan(
            [faults.FaultSpec("a", hit=1), faults.FaultSpec("b", probability=0.5)],
            seed=3,
        )
        try:
            plan.check("a")
        except FaultInjected:
            pass
        summary = plan.describe()
        assert summary["seed"] == 3
        assert set(summary["triggers"]) == {"a", "b"}
        assert summary["hits"] == {"a": 1}


class TestFromText:
    def test_grammar(self):
        plan = faults.FaultPlan.from_text("stream.merge:2, engine.refine@0.25,p")
        assert plan.points() == ["engine.refine", "p", "stream.merge"]
        with pytest.raises(FaultInjected):  # bare token means first hit
            plan.check("p")

    def test_malformed_triggers_rejected(self):
        with pytest.raises(ParameterError):
            faults.FaultPlan.from_text("stream.merge:soon")
        with pytest.raises(ParameterError):
            faults.FaultPlan.from_text("stream.merge@often")

    def test_empty_text_yields_empty_plan(self):
        assert faults.FaultPlan.from_text("").points() == []


class TestEnvArming:
    def test_plan_from_env(self):
        plan = faults.plan_from_env(
            {faults.ENV_VAR: "stream.window:2", faults.ENV_SEED_VAR: "9"}
        )
        assert plan is not None
        assert plan.points() == ["stream.window"]
        assert plan.seed == 9

    def test_unset_or_blank_disarms(self):
        assert faults.plan_from_env({}) is None
        assert faults.plan_from_env({faults.ENV_VAR: "  "}) is None


class TestLifecycle:
    def test_checks_are_noops_without_a_plan(self):
        previous = faults.active_plan()
        faults.clear()
        try:
            for point in faults.INJECTION_POINTS:
                faults.check(point)
        finally:
            faults.install(previous)

    def test_active_scopes_and_restores(self):
        previous = faults.active_plan()
        plan = faults.FaultPlan([faults.FaultSpec("p", hit=1)])
        with faults.active(plan):
            assert faults.active_plan() is plan
            with pytest.raises(FaultInjected):
                faults.check("p")
        assert faults.active_plan() is previous

    def test_injection_point_registry_matches_plan_points(self):
        # every documented point parses and arms cleanly
        text = ",".join(f"{point}:1" for point in faults.INJECTION_POINTS)
        plan = faults.FaultPlan.from_text(text)
        assert plan.points() == sorted(faults.INJECTION_POINTS)
