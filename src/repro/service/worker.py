"""Worker process of the sharded service.

A worker is the whole single-process service stack — ``SessionManager``
over the shared store, ``ServiceAPI`` dispatch, solve cache with the
shared L2 tier — behind a :class:`~repro.service.rpc.RpcServer` instead
of an HTTP socket.  :func:`build_worker_api` builds that stack from a
:class:`WorkerConfig`, and single-process ``repro serve`` serves the
same one over HTTP.  The front-end router forwards HTTP-shaped requests
as RPC frames; everything below ``dispatch`` is byte-identical to the
single-process service, which is what makes the sharded deployment a
routing change rather than a rewrite.  The worker enforces each
request's deadline and records it in its metrics.

RPC operations (the ``"op"`` field of each request frame):

==============  =====================================================
``request``     forward one HTTP-shaped request into ``api.dispatch``
``ping``        liveness probe; answers pid and worker id
``stats``       the manager's :meth:`SessionManager.stats`
``metrics``     ``MetricsRegistry.to_snapshot(source="worker-<id>")``
                for the front-end's commutative merge (PR 8)
``release``     drop one session from memory (ownership handoff)
``drain``       checkpoint every session (the router's drain step)
``shutdown``    drain, answer, then exit the serve loop
==============  =====================================================

Workers are started with the ``spawn`` multiprocessing method: a fresh
interpreter, no inherited locks, threads, or SQLite handles — the
fork-safety hazards this PR's store audit guards against simply never
arise on the main path.  :func:`worker_main` is the spawn entry point;
tests run the same runtime in-process via :class:`WorkerRuntime`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.service.rpc import RpcServer

__all__ = ["WorkerConfig", "WorkerRuntime", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs to build its service stack.

    Plain picklable fields only — this crosses the process boundary as
    the single ``spawn`` argument.  Every worker serves
    :data:`repro.datasets.DATASETS`, each dataset built lazily in the
    process that first needs it rather than pickled across.
    :func:`~repro.service.router.start_fleet` sets ``worker_id`` and
    ``socket_path`` for each worker it spawns.
    """

    worker_id: int = 0
    socket_path: str = ""
    store_url: str | None = None
    fsync: str = "batch"
    cache_size: int = 128
    l2_cache_path: str | None = None
    max_sessions: int = 64
    ttl_seconds: float | None = None
    default_deadline_ms: float | None = None
    obs: bool = False
    obs_log: str | None = None
    obs_log_max_bytes: int | None = None
    slow_ms: float = 500.0


def build_worker_api(config: WorkerConfig, **api_options):
    """The :class:`~repro.service.api.ServiceAPI` a worker serves.

    ``repro serve`` without ``--workers`` serves the same stack over
    HTTP, passing its ``admission`` and ``drain_budget`` through
    ``api_options``.
    """
    from repro.datasets import DATASETS
    from repro.service.api import ServiceAPI
    from repro.service.cache import L2SolveCache, SolveCache
    from repro.service.manager import SessionManager

    store = None
    if config.store_url is not None:
        from repro.store import store_from_url

        store = store_from_url(config.store_url, fsync=config.fsync)
    cache = None
    if config.cache_size > 0:
        l2 = (
            L2SolveCache(config.l2_cache_path)
            if config.l2_cache_path
            else None
        )
        cache = SolveCache(max_entries=config.cache_size, l2=l2)
    manager = SessionManager(
        DATASETS,
        store=store,
        cache=cache,
        max_sessions=config.max_sessions,
        ttl_seconds=config.ttl_seconds,
    )
    return ServiceAPI(
        manager, default_deadline_ms=config.default_deadline_ms, **api_options
    )


class WorkerRuntime:
    """One worker's serve loop: RPC frames in, dispatch results out.

    Usable two ways: :func:`worker_main` runs it as a spawned process's
    main loop; tests construct it around an in-process ``ServiceAPI``
    and call :meth:`serve_background` for a thread-backed worker with
    the exact same wire behaviour.
    """

    def __init__(self, api, manager, worker_id: int = 0) -> None:
        self.api = api
        self.manager = manager
        self.worker_id = worker_id
        self.stop_event = threading.Event()
        self._server: RpcServer | None = None

    # -- op handlers ---------------------------------------------------

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "request":
            return self._handle_request(request)
        if op == "ping":
            return {
                "ok": True,
                "pid": os.getpid(),
                "worker_id": self.worker_id,
                "sessions": self.manager.live_session_count(),
            }
        if op == "stats":
            stats = self.api.manager.stats()
            stats["worker_id"] = self.worker_id
            stats["pid"] = os.getpid()
            return {"ok": True, "stats": stats}
        if op == "metrics":
            return {"ok": True, "snapshot": self._metrics_snapshot()}
        if op == "release":
            released = self.manager.release(
                str(request.get("session_id", "")),
                wait_seconds=float(request.get("wait_seconds", 2.0)),
            )
            return {"ok": True, "released": released}
        if op == "drain":
            return {"ok": True, "checkpointed": self.manager.checkpoint_all()}
        if op == "shutdown":
            try:
                count = self.manager.checkpoint_all()
            except Exception:  # noqa: BLE001 — still shut down
                count = 0
            self.stop_event.set()
            return {"ok": True, "checkpointed": count}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_request(self, request: dict) -> dict:
        status, payload = self.api.dispatch(
            str(request.get("method", "GET")),
            str(request.get("path", "/")),
            body=request.get("body"),
            query=request.get("query") or {},
            trace_id=request.get("trace_id"),
            deadline_ms=request.get("deadline_ms"),
            idempotency_key=request.get("idempotency_key"),
        )
        return {"ok": True, "status": status, "payload": payload}

    def _metrics_snapshot(self) -> dict | None:
        from repro import obs

        state = obs.active()
        if state is None:
            return None
        state.update_service_gauges(self.manager)
        return state.metrics.to_snapshot(source=f"worker-{self.worker_id}")

    # -- lifecycle -----------------------------------------------------

    def serve_background(self, socket_path: str) -> "WorkerRuntime":
        self._server = RpcServer(socket_path, self.handle).serve_background()
        return self

    def serve_until_shutdown(self, socket_path: str) -> None:
        self.serve_background(socket_path)
        self.stop_event.wait()
        self.close()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        self.stop_event.set()


def worker_main(config: WorkerConfig) -> None:
    """Spawn entry point: build the stack, serve RPC until ``shutdown``."""
    from repro import obs
    from repro.resilience import chaos

    chaos.configure_from_env(os.environ)
    if config.obs or config.obs_log:
        obs.configure(
            event_log=config.obs_log,
            slow_ms=config.slow_ms,
            event_log_max_bytes=config.obs_log_max_bytes,
        )
    api = build_worker_api(config)
    runtime = WorkerRuntime(api, api.manager, worker_id=config.worker_id)
    runtime.serve_until_shutdown(config.socket_path)
