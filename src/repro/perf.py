"""Lightweight perf instrumentation: nested timers and counters.

The hot paths of the solver, whitening/sampling, and the service are
instrumented with :func:`timer` blocks and :func:`add` counters.  The
registry is **disabled by default** and costs one attribute check per
instrumented call site when off — no locks are taken, no timestamps are
read, and ``timer()`` hands back a shared no-op context manager, so the
solver's per-sweep overhead stays effectively zero.

When enabled (programmatically via :func:`enable` or by setting the
``REPRO_PERF=1`` environment variable before import), every ``timer``
block records its call count and accumulated wall-clock seconds under a
slash-separated path that reflects runtime nesting: a ``"optim"`` timer
entered while a ``"solve"`` timer is open on the same thread records as
``"solve/optim"``.  Aggregation is guarded by a lock so concurrent
service threads can share one registry; the nesting stack itself is
thread-local.

Usage::

    from repro import perf

    perf.enable()
    with perf.timer("solve"):
        with perf.timer("init"):
            ...                       # recorded as "solve/init"
        perf.add("sweeps", 12)
    print(perf.snapshot())
    perf.reset()

``snapshot()`` returns plain dicts (JSON-ready); the service's
``GET /v1/stats`` route embeds it under ``"perf"`` together with an
``"enabled"`` marker.

``timer`` and ``add`` are the package's one instrumentation primitive.
While :mod:`repro.obs` is enabled it installs its
:class:`~repro.obs.Observability` state at :data:`observer`, and every
timer exit and counter bump on the *process-wide* registry is handed to
it, whether or not the registry itself is recording: the exit becomes a
span of the active request trace, the bump one of its counters, and
either feeds the metric family that ``repro.obs`` binds to the
instrument's name (``solver.sweeps`` feeds ``repro_solver_sweeps_total``,
the ``wal_append`` timer ``repro_wal_append_seconds``).  Timers are
exception-safe either way: the nesting stack is popped on the ``with``
block's exit even when the body raises, so a failing solve can never
corrupt the paths recorded by later requests on the same thread.
"""

from __future__ import annotations

import os
import threading
import time

#: The :class:`repro.obs.Observability` state installed by
#: :func:`repro.obs.configure`; ``None`` while observability is off.  It
#: receives ``span(name, path, started, elapsed, failed)`` on each timer
#: exit and ``count(name, value)`` on each counter bump.  Only the
#: process-wide :data:`registry` feeds it — private registries built by
#: tests stay silent.
observer = None


class _NullTimer:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    """One live timing block; records on exit under the nested path."""

    __slots__ = ("registry", "name", "started")

    def __init__(self, registry: "PerfRegistry", name: str) -> None:
        self.registry = registry
        self.name = name
        self.started = 0.0

    def __enter__(self) -> "_Timer":
        stack = self.registry._stack()
        stack.append(self.name)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self.started
        reg = self.registry
        stack = reg._stack()
        try:
            path = "/".join(stack)
        finally:
            # The pop must survive anything above it: a frame left behind
            # would prefix every later path on this thread.
            if stack:
                stack.pop()
        if reg.enabled:
            reg._record_timing(path, elapsed)
        target = observer
        if target is not None and reg is registry:
            target.span(
                self.name, path, self.started, elapsed, exc_type is not None
            )
        return None


class PerfRegistry:
    """Thread-safe store of nested timings and named counters.

    One module-level instance (:data:`registry`) backs the convenience
    functions below; independent registries can be created for tests.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._local = threading.local()
        # path -> [calls, total_seconds]
        self._timings: dict[str, list] = {}
        self._counters: dict[str, float] = {}

    # -- state ----------------------------------------------------------

    def enable(self) -> None:
        """Turn recording on (instrumented sites start paying for real)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; accumulated data is kept until reset()."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated timings and counters."""
        with self._lock:
            self._timings.clear()
            self._counters.clear()

    # -- recording ------------------------------------------------------

    def timer(self, name: str):
        """Context manager timing a block under the current nesting path.

        Live when the registry records *or* (process-wide registry only)
        an observer is installed; the shared no-op otherwise.
        """
        if not self.enabled and (observer is None or self is not registry):
            return _NULL_TIMER
        return _Timer(self, name)

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``; live when :meth:`timer` is."""
        target = observer
        if target is not None and self is registry:
            target.count(name, value)
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record_timing(self, path: str, elapsed: float) -> None:
        with self._lock:
            entry = self._timings.get(path)
            if entry is None:
                self._timings[path] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy: ``{"timings": {...}, "counters": {...}}``.

        Each timing entry is ``{"calls": int, "seconds": float}``; paths
        are sorted for stable output.
        """
        with self._lock:
            timings = {
                path: {"calls": int(calls), "seconds": float(seconds)}
                for path, (calls, seconds) in sorted(self._timings.items())
            }
            counters = dict(sorted(self._counters.items()))
        return {"timings": timings, "counters": counters}


#: The process-wide registry used by the convenience functions.
registry = PerfRegistry(enabled=os.environ.get("REPRO_PERF", "") == "1")


def enable() -> None:
    """Enable the process-wide registry."""
    registry.enable()


def disable() -> None:
    """Disable the process-wide registry."""
    registry.disable()


def is_enabled() -> bool:
    """Whether the process-wide registry is currently recording."""
    return registry.enabled


def reset() -> None:
    """Clear the process-wide registry."""
    registry.reset()


def timer(name: str):
    """Time a block on the process-wide registry (no-op when disabled)."""
    return registry.timer(name)


def add(name: str, value: float = 1) -> None:
    """Bump a counter on the process-wide registry (no-op when disabled)."""
    registry.add(name, value)


def snapshot() -> dict:
    """Snapshot of the process-wide registry."""
    return registry.snapshot()
