"""Request tracing: a contextvar trace with perf timers as its spans.

A :class:`Trace` is one request's worth of observability state: a trace
id, the spans recorded while it was active, and any counters bumped along
the way.  The active trace lives in a :data:`contextvars.ContextVar`, so
it follows the request through nested calls on its handler thread without
any parameter threading — the solver, whitening and projection code never
learn that tracing exists.

Spans come for free from :mod:`repro.perf`: while observability is
enabled, :data:`repro.perf.observer` holds the
:class:`~repro.obs.Observability` state, and every ``perf.timer`` block
on the process-wide registry reports its nested slash path and duration
into the active trace (:meth:`~repro.obs.Observability.span`), whether
or not the perf registry itself is recording.  A trace's span *tree* is
therefore exactly the perf nesting tree ("solve/init" is a child of
"solve"), and ``perf.add`` counters (solver sweeps, cache hits) land in
:attr:`Trace.counters`.

Trace ids are propagated over HTTP in the ``X-Repro-Trace-Id`` header:
:class:`~repro.service.client.ServiceClient` sends one per request, the
server adopts a well-formed incoming id (or mints one) and echoes it on
the response, so client and server observations of the same request can
be joined on the id.
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from contextvars import ContextVar

#: Accepted over the wire: hex, 8–64 chars (a uuid4 hex is 32).  Anything
#: else is replaced with a fresh id — header values go into logs, and an
#: unconstrained string would let clients inject arbitrary log content.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")

_current: ContextVar["Trace | None"] = ContextVar(
    "repro_obs_trace", default=None
)


def new_trace_id() -> str:
    """A fresh 32-char hex trace id."""
    return uuid.uuid4().hex


def accept_trace_id(candidate: str | None) -> str:
    """Adopt a well-formed incoming trace id, else mint a new one."""
    if candidate:
        candidate = candidate.strip().lower()
        if _TRACE_ID_RE.match(candidate):
            return candidate
    return new_trace_id()


class Trace:
    """Span and counter sink for one traced request."""

    __slots__ = ("trace_id", "started", "_spans", "_counters", "_lock", "_token")

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started = time.perf_counter()
        # (path, start offset s, duration s, failed)
        self._spans: list[tuple[str, float, float, bool]] = []
        self._counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._token = None

    # -- recording (called by Observability.span / .count) -------------

    def add_span(
        self, path: str, started: float, elapsed: float, failed: bool
    ) -> None:
        with self._lock:
            self._spans.append(
                (path, started - self.started, elapsed, failed)
            )

    def add_count(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # -- reporting ------------------------------------------------------

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def span_count(self) -> int:
        with self._lock:
            return len(self._spans)

    def span_tree(self) -> dict[str, dict]:
        """Aggregated tree: path -> ``{"calls", "seconds"}``, sorted.

        The slash paths encode parent/child structure ("solve/init" is a
        child of "solve"), so this nested-dict-free form *is* the span
        tree — cheap to emit on every request and trivially mergeable
        across requests by the analyzer.
        """
        with self._lock:
            spans = list(self._spans)
        tree: dict[str, dict] = {}
        for path, _start, elapsed, failed in spans:
            entry = tree.get(path)
            if entry is None:
                tree[path] = entry = {"calls": 0, "seconds": 0.0}
            entry["calls"] += 1
            entry["seconds"] += elapsed
            if failed:
                entry["failed"] = entry.get("failed", 0) + 1
        return dict(sorted(tree.items()))

    def span_events(self) -> list[dict]:
        """Every individual span in completion order (slow-request detail)."""
        with self._lock:
            spans = list(self._spans)
        return [
            {
                "path": path,
                "start_ms": start * 1e3,
                "duration_ms": elapsed * 1e3,
                **({"failed": True} if failed else {}),
            }
            for path, start, elapsed, failed in spans
        ]


def start(trace_id: str | None = None) -> Trace:
    """Activate a new trace in the current context; returns it."""
    trace = Trace(trace_id)
    trace._token = _current.set(trace)
    return trace


def finish(trace: Trace) -> Trace:
    """Deactivate ``trace`` (must be the innermost active one)."""
    if trace._token is not None:
        _current.reset(trace._token)
        trace._token = None
    return trace


def current() -> Trace | None:
    """The trace active in this context, if any."""
    return _current.get()

