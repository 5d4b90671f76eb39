"""Unit tests for the repro.resilience primitives.

Deadlines (ambient scope semantics), admission control (shed / drain),
retry machinery (classification, jittered backoff, circuit breaker),
and the chaos registry (spec grammar, firing discipline, event log).
"""

import random
import time
from types import SimpleNamespace

import pytest

from repro.resilience import (
    AdmissionController,
    BreakerOpen,
    ChaosError,
    CircuitBreaker,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    backoff_delay,
    check_deadline,
    classify,
    current_deadline,
    deadline_scope,
    run_drain,
)
from repro.resilience import chaos as chaos_module
from repro.resilience.chaos import (
    ChaosRegistry,
    FaultSpec,
    parse_chaos,
)


class TestDeadline:
    def test_no_deadline_is_a_noop(self):
        assert current_deadline() is None
        check_deadline()  # must not raise

    def test_scope_installs_and_removes(self):
        with deadline_scope(5_000) as deadline:
            assert deadline is not None
            assert current_deadline() is deadline
            assert deadline.budget_ms == 5_000
            check_deadline()  # plenty of time left
        assert current_deadline() is None

    def test_none_or_nonpositive_budget_installs_nothing(self):
        for budget in (None, 0, -10.0):
            with deadline_scope(budget) as deadline:
                assert deadline is None
                assert current_deadline() is None

    def test_expired_deadline_raises_with_budget_and_elapsed(self):
        with deadline_scope(0.01):  # 10 microseconds
            time.sleep(0.002)
            with pytest.raises(DeadlineExceededError) as info:
                check_deadline()
        assert info.value.budget_ms == pytest.approx(0.01)
        assert info.value.elapsed_ms >= 0.01

    def test_nested_scope_keeps_the_tighter_outer_deadline(self):
        with deadline_scope(50) as outer:
            with deadline_scope(60_000):
                # The inner budget is longer: the outer deadline governs,
                # so a sub-operation can never outlive its request.
                assert current_deadline() is outer
            assert current_deadline() is outer

    def test_nested_scope_allows_a_tighter_inner_deadline(self):
        with deadline_scope(60_000) as outer:
            with deadline_scope(50) as inner:
                assert inner is not outer
                assert current_deadline() is inner
            assert current_deadline() is outer


class TestAdmissionController:
    def test_unbounded_controller_counts_but_never_sheds(self):
        ctrl = AdmissionController(max_inflight=None)
        with ctrl.admit():
            with ctrl.admit():
                assert ctrl.inflight == 2
        assert ctrl.inflight == 0
        assert ctrl.stats()["shed_overload"] == 0

    def test_sheds_past_the_bound_with_retry_after(self):
        ctrl = AdmissionController(max_inflight=1, retry_after=2.5)
        with ctrl.admit():
            with pytest.raises(OverloadedError) as info:
                with ctrl.admit():
                    pass  # pragma: no cover - never admitted
            assert info.value.retry_after == 2.5
            assert info.value.limit == 1
        # Slot freed: admission works again.
        with ctrl.admit():
            pass
        stats = ctrl.stats()
        assert stats["shed_overload"] == 1
        assert stats["admitted"] == 2  # the shed request was never admitted

    def test_exempt_requests_bypass_the_bound_and_the_drain(self):
        ctrl = AdmissionController(max_inflight=1)
        with ctrl.admit():
            with ctrl.admit(exempt=True):
                assert ctrl.inflight == 1  # exempt is not counted
        ctrl.begin_drain()
        with ctrl.admit(exempt=True):
            pass  # still answered while draining

    def test_drain_refuses_new_work(self):
        ctrl = AdmissionController()
        assert ctrl.begin_drain() is True
        assert ctrl.begin_drain() is False  # idempotent
        with pytest.raises(DrainingError):
            with ctrl.admit():
                pass  # pragma: no cover
        assert ctrl.stats()["shed_draining"] == 1

    def test_wait_idle_returns_once_inflight_reaches_zero(self):
        import threading

        ctrl = AdmissionController()
        release = threading.Event()

        def hold():
            with ctrl.admit():
                release.wait(timeout=5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        while ctrl.inflight == 0:
            time.sleep(0.001)
        assert ctrl.wait_idle(0.05) is False  # budget too small
        release.set()
        assert ctrl.wait_idle(5.0) is True
        thread.join()

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class _Failure:
    """Duck-typed stand-in for ServiceClientError in classify tests."""

    def __init__(self, status, refused=False, retry_after=None):
        self.status = status
        self.connection_refused = refused
        self.retry_after = retry_after


class TestClassify:
    def test_connection_refused_always_retryable(self):
        decision = classify(_Failure(0, refused=True), "POST")
        assert decision.retryable and decision.kind == "connection_refused"

    def test_ambiguous_transport_failure_safe_only_when_idempotent(self):
        assert classify(_Failure(0), "GET").retryable
        assert classify(_Failure(0), "HEAD").retryable
        assert not classify(_Failure(0), "POST").retryable
        assert classify(
            _Failure(0), "POST", idempotency_key="k1"
        ).retryable

    def test_503_with_retry_after_is_server_retryable(self):
        decision = classify(_Failure(503, retry_after=1.5), "POST")
        assert decision.retryable
        assert decision.kind == "server_retryable"
        assert decision.retry_after == 1.5

    def test_answered_statuses_are_final(self):
        for status, retry_after in ((404, None), (400, None), (503, None),
                                    (500, None), (200, None)):
            decision = classify(_Failure(status, retry_after=retry_after),
                                "GET")
            assert not decision.retryable
            assert decision.kind == "final"


class TestBackoffDelay:
    def test_zero_base_never_sleeps(self):
        assert backoff_delay(0, 0.0, 2.0) == 0.0
        assert backoff_delay(5, 0.0, 2.0) == 0.0

    def test_draw_is_bounded_by_cap_and_exponential_ceiling(self):
        rng = random.Random(7)
        for attempt in range(8):
            delay = backoff_delay(attempt, 0.1, 2.0, rng=rng)
            assert 0.0 <= delay <= min(2.0, 0.1 * 2 ** attempt)

    def test_floor_wins_over_a_small_draw(self):
        rng = random.Random(7)
        for _ in range(20):
            assert backoff_delay(0, 0.001, 2.0, rng=rng, floor=0.5) >= 0.5

    def test_floor_applies_even_with_zero_base(self):
        assert backoff_delay(0, 0.0, 2.0, floor=1.25) == 1.25


class TestCircuitBreaker:
    def _make(self, threshold=3, cooldown=10.0):
        clock = {"now": 100.0}
        breaker = CircuitBreaker(
            "http://x", failure_threshold=threshold, cooldown=cooldown,
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(BreakerOpen) as info:
            breaker.acquire()
        assert info.value.retry_after <= 10.0
        assert breaker.stats()["rejected"] == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self._make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] += 10.0
        breaker.acquire()  # the probe
        assert breaker.state == "half-open"
        with pytest.raises(BreakerOpen):
            breaker.acquire()  # anyone else fails fast

    def test_probe_success_closes_probe_failure_reopens(self):
        breaker, clock = self._make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == "closed"

        breaker.record_failure()  # trip again
        clock["now"] += 10.0
        breaker.acquire()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        # opened counts every closed/half-open -> open transition:
        # first trip, second trip, and the failed-probe reopen.
        assert breaker.stats()["opened"] == 3
        # A fresh cooldown must elapse before the next probe.
        with pytest.raises(BreakerOpen):
            breaker.acquire()


class TestChaos:
    def test_parse_grammar(self):
        faults = parse_chaos(
            "api.dispatch:latency:ms=50:p=0.3,"
            "manager.feedback.post_commit:kill:after=3:times=1"
        )
        assert faults == [
            FaultSpec("api.dispatch", "latency", ms=50.0, p=0.3),
            FaultSpec("manager.feedback.post_commit", "kill",
                      after=3, times=1),
        ]

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            parse_chaos("just-a-point")
        with pytest.raises(ValueError):
            parse_chaos("api.dispatch:explode")
        with pytest.raises(ValueError):
            parse_chaos("api.dispatch:error:frequency=2")
        with pytest.raises(ValueError):
            parse_chaos("api.dispatch:error:p=2.0")

    def test_error_fault_raises_and_respects_times_cap(self):
        registry = ChaosRegistry("point.a:error:times=2")
        for _ in range(2):
            with pytest.raises(ChaosError):
                registry.hit("point.a")
        assert registry.hit("point.a") is None  # cap reached
        assert registry.stats()["faults"][0]["fired"] == 2

    def test_after_skips_the_first_n_hits(self):
        registry = ChaosRegistry("point.a:error:after=2")
        assert registry.hit("point.a") is None
        assert registry.hit("point.a") is None
        with pytest.raises(ChaosError):
            registry.hit("point.a")

    def test_probability_draws_are_seeded_and_reproducible(self):
        def trace(seed):
            registry = ChaosRegistry("p:error:p=0.5", seed=seed)
            fired = []
            for _ in range(40):
                try:
                    registry.hit("p")
                    fired.append(0)
                except ChaosError:
                    fired.append(1)
            return fired

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)
        assert 0 < sum(trace(11)) < 40

    def test_torn_fault_is_returned_to_the_caller(self):
        registry = ChaosRegistry("server.respond:torn")
        fault = registry.hit("server.respond")
        assert fault is not None and fault.kind == "torn"

    def test_module_hit_is_a_noop_when_disabled(self):
        chaos_module.disable_chaos()
        assert chaos_module.active_chaos() is None
        assert chaos_module.hit("api.dispatch") is None

    def test_configure_from_env(self, tmp_path):
        log = tmp_path / "chaos.jsonl"
        registry = chaos_module.configure_from_env({
            "REPRO_CHAOS": "point.b:error:times=1",
            "REPRO_CHAOS_SEED": "3",
            "REPRO_CHAOS_LOG": str(log),
        })
        try:
            assert registry is chaos_module.active_chaos()
            with pytest.raises(ChaosError):
                chaos_module.hit("point.b")
            assert "point.b" in log.read_text()
        finally:
            chaos_module.disable_chaos()
        assert chaos_module.configure_from_env({}) is None

    def test_unknown_point_costs_nothing(self):
        registry = ChaosRegistry("point.a:error")
        assert registry.hit("point.never") is None


class TestRunDrain:
    def test_drain_checkpoints_and_reports(self, two_cluster_data, tmp_path):
        from repro.service.manager import SessionManager
        from repro.store import SQLiteStore

        data, _ = two_cluster_data
        manager = SessionManager(
            {"wl": data},
            store=SQLiteStore(tmp_path / "sessions.db", fsync="off"),
        )
        manager.create("wl", session_id="drain-a", seed=0)
        ctrl = AdmissionController()
        report = run_drain(ctrl, manager, budget_seconds=1.0)
        assert report["initiated"] is True
        assert report["idle"] is True
        assert report["abandoned_inflight"] == 0
        assert report["checkpointed"] == 1
        assert ctrl.draining
        with pytest.raises(DrainingError):
            with ctrl.admit():
                pass  # pragma: no cover

    def test_drain_shutdown_error_is_reported_not_raised(self):
        from repro.resilience.drain import publish_drain_then_stop

        def broken_shutdown():
            raise RuntimeError("socket already closed")

        front_door = SimpleNamespace(
            last_drain=None, shutdown_hook=broken_shutdown
        )
        report = {"checkpointed": 0}
        publish_drain_then_stop(front_door, report)
        assert front_door.last_drain is report
        assert "socket already closed" in report["shutdown_error"]
