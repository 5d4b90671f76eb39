"""`repro.obs`: request tracing, structured events, exportable metrics.

One switch turns the whole layer on: :func:`configure` (or the
``REPRO_OBS=1`` / ``REPRO_OBS_LOG=path`` environment variables, read at
import) installs a process-wide :class:`Observability` state.  The code
it observes records through one primitive, :func:`repro.perf.timer` and
:func:`repro.perf.add`: the state is installed at
:data:`repro.perf.observer`, which hands it every timer exit
(:meth:`Observability.span`) and counter bump (:meth:`Observability.count`).

* **Tracing** — the HTTP layer starts a :class:`~repro.obs.trace.Trace`
  per request (id from the ``X-Repro-Trace-Id`` header, or minted); every
  ``perf`` timer that exits while it is active becomes a span of that
  request, and every ``perf.add`` one of its counters.
* **Events** — each completed request is emitted as one JSONL line
  (route, status, trace id, duration, span tree, solver/cache counters)
  to the configured :class:`~repro.obs.events.EventLog`; requests slower
  than ``slow_ms`` — and every 4xx/5xx, as a typed ``error`` event —
  carry full per-span detail.
* **Metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters/gauges/histograms exported at ``GET /v1/metrics`` in
  Prometheus text format (JSON variant via ``?format=json``).  The
  request envelope records the per-route request families; every other
  family is fed by the ``perf`` instruments bound to it in
  :data:`INSTRUMENTS`.

While *disabled* (the default) each ``perf`` call is one module
attribute read plus a ``None`` check, and ``perf.timer`` returns a shared
no-op — pinned by a micro-benchmark in the test suite.
"""

from __future__ import annotations

import os
import re
import time
from typing import Callable

from repro import perf
from repro.obs import trace as trace_module
from repro.obs.events import EventLog, read_events
from repro.obs.metrics import (
    DEFAULT_FSYNC_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_SOLVE_BUCKETS,
    MetricsRegistry,
    bucket_bounds,
    histogram_quantile,
    parse_prometheus,
)
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import Trace, accept_trace_id, new_trace_id

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "Observability",
    "SLO",
    "SLOEngine",
    "TimeSeriesRecorder",
    "Trace",
    "accept_trace_id",
    "active",
    "bucket_bounds",
    "configure",
    "default_slos",
    "disable",
    "histogram_quantile",
    "is_enabled",
    "new_trace_id",
    "parse_prometheus",
    "read_events",
    "route_template",
    "trace_module",
]

#: HTTP header carrying the trace id in both directions.
TRACE_HEADER = "X-Repro-Trace-Id"

_SESSION_PATH = re.compile(
    r"^(?P<prefix>(?:/v1)?)/sessions/(?P<sid>[^/?]+)(?P<rest>/[^?]*)?$"
)


def route_template(method: str, path: str) -> tuple[str, str | None]:
    """Collapse a request path onto its route key; extract the session id.

    ``GET /v1/sessions/abc123/view?detail=1`` becomes
    ``("GET /v1/sessions/{id}/view", "abc123")`` — the same route keys
    the loadgen client records, so client- and server-side latency
    tables join on route strings directly.
    """
    path = path.split("?", 1)[0]
    if len(path) > 1:
        path = path.rstrip("/") or "/"
    match = _SESSION_PATH.match(path)
    if not match:
        return f"{method} {path}", None
    rest = match.group("rest") or ""
    template = f"{match.group('prefix')}/sessions/{{id}}{rest}"
    return f"{method} {template}", match.group("sid")


#: The metric families that ``perf`` instruments feed, one row per
#: family: (family, help text, bucket ladder or ``None`` for a counter,
#: {instrument name: label values}).  A ``perf.add`` value is added to a
#: counter and observed by a histogram; a ``perf.timer`` block observes
#: its seconds, unless it raised.  Labelled children are created on their
#: first observation, so a scrape shows only the series that happened.
INSTRUMENTS = (
    ("repro_solve_duration_seconds",
     "MaxEnt solver wall-clock per solve (INIT + OPTIM).",
     DEFAULT_SOLVE_BUCKETS, {"solver.seconds": {}}),
    ("repro_solver_sweeps_total",
     "Full solver sweeps across all solves.",
     None, {"solver.sweeps": {}}),
    ("repro_solve_cache_lookups_total",
     "Solve-cache lookups, by result.",
     None, {"service.solve_cache_hits": {"result": "hit"},
            "service.solves": {"result": "miss"}}),
    ("repro_feedback_batch_size",
     "Feedback items per applied batch.",
     DEFAULT_SIZE_BUCKETS, {"service.feedback_items": {}}),
    ("repro_wal_append_seconds",
     "Durable write-ahead append per feedback batch.",
     DEFAULT_FSYNC_BUCKETS, {"wal_append": {}}),
    ("repro_store_compactions_total",
     "Feedback-log folds into a fresh checkpoint.",
     None, {"store.compactions": {}}),
    ("repro_store_compacted_records_total",
     "WAL records pruned by compaction.",
     None, {"store.compacted_records": {}}),
    ("repro_store_recoveries_total",
     "Session resumes that replayed a feedback-log tail.",
     None, {"store.recoveries": {}}),
    ("repro_store_recovered_batches_total",
     "Feedback batches replayed from the log during recovery.",
     None, {"store.recovered_batches": {}}),
    ("repro_shed_total",
     "Requests shed by admission control, by reason "
     "(overloaded / draining).",
     None, {"admission.shed_overloaded": {"reason": "overloaded"},
            "admission.shed_draining": {"reason": "draining"}}),
    ("repro_deadline_exceeded_total",
     "Requests aborted because their deadline budget expired.",
     None, {"api.deadline_exceeded": {}}),
    ("repro_feedback_deduplicated_total",
     "Feedback batches answered from the idempotency dedup map "
     "instead of re-applied.",
     None, {"service.feedback_deduplicated": {}}),
)


class Observability:
    """Process-wide observability state: metrics + event sink + tracing.

    Construct directly for tests; production code goes through
    :func:`configure`, which also installs the instance as the active
    state and as :data:`repro.perf.observer`, so that ``perf`` timers and
    counters reach :meth:`span` and :meth:`count`.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        slow_ms: float = 500.0,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.slow_ms = float(slow_ms)
        self.history: TimeSeriesRecorder | None = None
        self.slo: SLOEngine | None = None
        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total",
            "Service requests handled, by route and status code.",
            labelnames=("route", "status"),
        )
        self._request_duration = m.histogram(
            "repro_request_duration_seconds",
            "Server-side request duration, by route.",
            labelnames=("route",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._slow_requests = m.counter(
            "repro_slow_requests_total",
            "Requests slower than the slow-request threshold, by route.",
            labelnames=("route",),
        )
        # instrument name -> (family, label values)
        self._bound: dict[str, tuple] = {}
        for name, help_text, buckets, feeds in INSTRUMENTS:
            labelnames = tuple(next(iter(feeds.values())))
            family = (
                m.counter(name, help_text, labelnames)
                if buckets is None
                else m.histogram(name, help_text, labelnames, buckets)
            )
            for instrument, labels in feeds.items():
                self._bound[instrument] = (family, labels)
        self._sessions_gauge = m.gauge(
            "repro_sessions_in_memory",
            "Live sessions held in memory by the manager.",
        ).default()
        self._hit_ratio_gauge = m.gauge(
            "repro_solve_cache_hit_ratio",
            "Lifetime solve-cache hit ratio (0 when no cache).",
        ).default()

    # ------------------------------------------------------------------
    # Retention + objectives (obs v2)
    # ------------------------------------------------------------------

    def enable_slos(
        self,
        source: Callable[[], MetricsRegistry],
        slos=None,
        history_interval: float = 1.0,
        history_capacity: int = 600,
    ) -> SLOEngine:
        """Record ``source()`` into the history ring buffer and grade SLOs.

        ``source`` returns the registry the service's front door exports
        (:meth:`repro.service.api.ServiceAPI.metrics_registry`), so
        ``/v1/metrics``, ``/v1/metrics/history`` and the SLO report read
        the same numbers.  ``slos`` is a sequence of
        :class:`~repro.obs.slo.SLO`; ``None`` installs
        :func:`~repro.obs.slo.default_slos`.
        """
        self.history = TimeSeriesRecorder(
            source, interval=history_interval, capacity=history_capacity
        )
        self.history.start()
        self.slo = SLOEngine(self.history, slos=slos)
        return self.slo

    def slo_report(self) -> dict | None:
        """Current SLO evaluation, or ``None`` when no engine is on."""
        return self.slo.report() if self.slo is not None else None

    def shutdown(self) -> None:
        """Stop owned background threads (recorder); sinks stay open."""
        if self.history is not None:
            self.history.stop()

    # ------------------------------------------------------------------
    # Request-level recording
    # ------------------------------------------------------------------

    def observe_request(
        self,
        method: str,
        path: str,
        status: int,
        seconds: float,
        *,
        route: str | None = None,
        session_id: str | None = None,
        trace: Trace | None = None,
        trace_id: str | None = None,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        """Record one finished request: metrics always, one event if a
        sink is configured (typed ``error`` event for 4xx/5xx)."""
        if route is None:
            route, extracted = route_template(method, path)
            session_id = session_id or extracted
        self._requests.labels(route=route, status=str(status)).inc()
        self._request_duration.labels(route=route).observe(seconds)
        duration_ms = seconds * 1e3
        slow = duration_ms >= self.slow_ms
        if slow:
            self._slow_requests.labels(route=route).inc()
        if self.events is None:
            return
        failed = status >= 400
        event: dict = {
            "event": "error" if failed else "request",
            "trace_id": trace.trace_id if trace is not None else trace_id,
            "route": route,
            "method": method,
            "path": path.split("?", 1)[0],
            "status": int(status),
            "duration_ms": duration_ms,
        }
        if session_id is not None:
            event["session_id"] = session_id
        if failed:
            event["error_kind"] = error_kind or "error"
            if error:
                event["error"] = error
        if slow:
            event["slow"] = True
        if trace is not None:
            counters = trace.counters
            if counters:
                event["counters"] = counters
                hits = counters.get("service.solve_cache_hits", 0)
                misses = counters.get("service.solves", 0)
                if hits or misses:
                    event["cache"] = "hit" if hits else "miss"
                sweeps = counters.get("solver.sweeps")
                if sweeps is not None:
                    event["solver_sweeps"] = int(sweeps)
            event["spans"] = trace.span_tree()
            if slow or failed:
                # Promote full per-span detail for the requests worth
                # staring at; routine fast requests stay one line.
                event["span_detail"] = trace.span_events()
        self.events.emit(event)

    def update_service_gauges(self, manager) -> None:
        """Refresh scrape-time gauges from a session manager."""
        self._sessions_gauge.set(manager.live_session_count())
        cache = getattr(manager, "cache", None)
        ratio = cache.stats().get("hit_rate", 0.0) if cache is not None else 0.0
        self._hit_ratio_gauge.set(ratio)

    # ------------------------------------------------------------------
    # Instrument recording (repro.perf hands every timer and counter here)
    # ------------------------------------------------------------------

    def span(
        self, name: str, path: str, started: float, elapsed: float,
        failed: bool,
    ) -> None:
        """A ``perf.timer`` exit: a span of the active trace, and an
        observation of the family bound to ``name`` unless it raised."""
        trace = trace_module.current()
        if trace is not None:
            trace.add_span(path, started, elapsed, failed)
        if not failed:
            self._feed(name, elapsed)

    def count(self, name: str, value: float) -> None:
        """A ``perf.add``: a counter of the active trace, and the family
        bound to ``name``."""
        trace = trace_module.current()
        if trace is not None:
            trace.add_count(name, value)
        self._feed(name, value)

    def _feed(self, name: str, value: float) -> None:
        bound = self._bound.get(name)
        if bound is None:
            return
        family, labels = bound
        child = family.labels(**labels) if labels else family.default()
        if family.kind == "counter":
            child.inc(value)
        else:
            child.observe(value)


# ----------------------------------------------------------------------
# Process-wide state
# ----------------------------------------------------------------------

_active: Observability | None = None


def active() -> Observability | None:
    """The installed observability state, or ``None`` while disabled."""
    return _active


def is_enabled() -> bool:
    """Whether observability is currently on."""
    return _active is not None


def configure(
    event_log: str | EventLog | None = None,
    slow_ms: float = 500.0,
    event_log_max_bytes: int | None = None,
) -> Observability:
    """Enable observability process-wide; returns the installed state.

    ``event_log`` may be a path (opened append-mode) or a pre-built
    :class:`EventLog`; ``None`` records metrics and traces without a
    JSONL sink.  ``event_log_max_bytes`` bounds a path-backed log via
    size rotation.  History and SLOs are switched on afterwards, once
    the front door exists, with :meth:`Observability.enable_slos`.
    Reconfiguring replaces the previous state (its event log is closed
    if it was opened here; its recorder is stopped).
    """
    global _active
    previous = _active
    events = (
        EventLog(event_log, max_bytes=event_log_max_bytes)
        if isinstance(event_log, (str, os.PathLike))
        else event_log
    )
    state = Observability(events=events, slow_ms=slow_ms)
    _active = state
    perf.observer = state
    if previous is not None:
        previous.shutdown()
        if previous.events is not None and previous.events is not events:
            previous.events.close()
    return state


def disable() -> None:
    """Turn observability off, stop the recorder, close the event sink."""
    global _active
    state = _active
    _active = None
    perf.observer = None
    if state is not None:
        state.shutdown()
        if state.events is not None:
            state.events.close()


def request_envelope(method: str, path: str, trace_id: str | None = None):
    """Context manager tracing + recording one request (see ServiceAPI)."""
    return _RequestEnvelope(method, path, trace_id)


class _RequestEnvelope:
    """Times one request, traces it, and records it on exit.

    The HTTP layer and :meth:`ServiceAPI.dispatch` both use this; status
    and error typing are posted onto the envelope before exit via
    :meth:`set_result`.
    """

    __slots__ = (
        "method", "path", "trace_id", "trace", "started",
        "status", "error", "error_kind",
    )

    def __init__(self, method: str, path: str, trace_id: str | None) -> None:
        self.method = method
        self.path = path
        self.trace_id = trace_id
        self.trace: Trace | None = None
        self.started = 0.0
        self.status = 500
        self.error: str | None = None
        self.error_kind: str | None = None

    def __enter__(self) -> "_RequestEnvelope":
        if _active is not None:
            self.trace = trace_module.start(self.trace_id)
            self.trace_id = self.trace.trace_id
        self.started = time.perf_counter()
        return self

    def set_result(
        self,
        status: int,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        self.status = int(status)
        self.error = error
        self.error_kind = error_kind

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self.started
        if self.trace is not None:
            trace_module.finish(self.trace)
        state = _active
        if state is None:
            return None
        if exc_type is not None and self.error is None:
            # A bug that escaped the dispatcher's own error mapping.
            self.status = 500
            self.error = f"{exc_type.__name__}: {exc}"
            self.error_kind = "internal_error"
        state.observe_request(
            self.method,
            self.path,
            self.status,
            seconds,
            trace=self.trace,
            trace_id=self.trace_id,
            error=self.error,
            error_kind=self.error_kind,
        )
        return None


# Environment switch, read once at import: REPRO_OBS=1 enables the layer,
# REPRO_OBS_LOG both enables it and attaches the JSONL sink.
_env_log = os.environ.get("REPRO_OBS_LOG", "")
if os.environ.get("REPRO_OBS", "") == "1" or _env_log:
    configure(
        event_log=_env_log or None,
        slow_ms=float(os.environ.get("REPRO_OBS_SLOW_MS", "500")),
    )
