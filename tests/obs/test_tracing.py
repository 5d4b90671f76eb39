"""Trace context, id validation, and perf timers as request spans."""

from __future__ import annotations

import threading

import pytest

from repro import obs, perf
from repro.obs import trace as trace_module
from repro.obs.trace import Trace, accept_trace_id, new_trace_id


@pytest.fixture
def obs_enabled():
    """Observability on (no event sink) for the duration of one test."""
    state = obs.configure()
    yield state
    obs.disable()


class TestTraceIds:
    def test_new_ids_are_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        for trace_id in ids:
            assert accept_trace_id(trace_id) == trace_id

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "short",  # < 8 chars
            "g" * 16,  # non-hex
            "deadbeef\ninjected=1",  # log injection attempt
            "x" * 65,
            "DEADBEEFCAFE??",
        ],
    )
    def test_malformed_ids_are_replaced(self, bad):
        accepted = accept_trace_id(bad)
        assert accepted != bad
        assert len(accepted) == 32

    def test_uppercase_hex_is_normalised(self):
        assert accept_trace_id("DEADBEEF" * 2) == "deadbeef" * 2


class TestTraceContext:
    def test_start_finish_scoping(self):
        assert trace_module.current() is None
        trace = trace_module.start()
        assert trace_module.current() is trace
        trace_module.finish(trace)
        assert trace_module.current() is None

    def test_traces_are_thread_isolated(self):
        seen = {}

        def worker(name):
            trace = trace_module.start()
            seen[name] = (trace, trace_module.current())
            trace_module.finish(trace)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        traces = {id(pair[0]) for pair in seen.values()}
        assert len(traces) == 4
        for trace, current in seen.values():
            assert current is trace

    def test_span_tree_aggregates_paths(self):
        trace = Trace()
        trace.add_span("solve", 0.0, 0.5, False)
        trace.add_span("solve/init", 0.0, 0.1, False)
        trace.add_span("solve", 0.6, 0.25, True)
        tree = trace.span_tree()
        assert tree["solve"]["calls"] == 2
        assert tree["solve"]["seconds"] == pytest.approx(0.75)
        assert tree["solve"]["failed"] == 1
        assert "failed" not in tree["solve/init"]
        assert trace.span_count() == 3

    def test_span_events_preserve_order_and_detail(self):
        trace = Trace()
        trace.add_span("a", trace.started, 0.001, False)
        trace.add_span("b", trace.started, 0.002, True)
        events = trace.span_events()
        assert [e["path"] for e in events] == ["a", "b"]
        assert events[1]["failed"] is True
        assert events[0]["duration_ms"] == pytest.approx(1.0)


class TestPerfBridge:
    """The process-wide ``perf`` registry feeding the active trace."""

    def test_process_registry_timers_become_spans(self, obs_enabled):
        trace = trace_module.start()
        try:
            with perf.timer("solve"):
                with perf.timer("init"):
                    pass
        finally:
            trace_module.finish(trace)
        tree = trace.span_tree()
        assert set(tree) == {"solve", "solve/init"}

    def test_counters_reach_the_trace_without_perf_enabled(self, obs_enabled):
        assert not perf.is_enabled()
        trace = trace_module.start()
        try:
            perf.add("solver.sweeps", 12)
        finally:
            trace_module.finish(trace)
        assert trace.counters == {"solver.sweeps": 12}
        # and nothing leaked into the (disabled) perf registry
        assert perf.snapshot()["counters"] == {}

    def test_failed_timer_marks_span_and_pops_stack(self, obs_enabled):
        trace = trace_module.start()
        try:
            with pytest.raises(RuntimeError):
                with perf.timer("solve"):
                    raise RuntimeError("boom")
            with perf.timer("after"):
                pass
        finally:
            trace_module.finish(trace)
        tree = trace.span_tree()
        assert tree["solve"]["failed"] == 1
        # nesting stack popped despite the exception: no "solve/after"
        assert "after" in tree

    def test_private_registries_never_feed_traces(self, obs_enabled):
        private = perf.PerfRegistry(enabled=True)
        trace = trace_module.start()
        try:
            with private.timer("private_block"):
                pass
            private.add("private_counter")
        finally:
            trace_module.finish(trace)
        assert trace.span_count() == 0
        assert trace.counters == {}

    def test_no_active_trace_is_harmless(self, obs_enabled):
        with perf.timer("solve"):
            pass
        perf.add("anything")
