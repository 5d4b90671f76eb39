"""Front door of the sharded service: sticky sessions over workers.

``repro serve --workers N`` runs one HTTP front door (this module) and N
worker processes (:mod:`repro.service.worker`); :func:`start_fleet`
spawns the workers and builds the door.  :class:`Router` is a
:class:`~repro.service.api.ServiceAPI`, so the stdlib HTTP server in
:mod:`repro.service.server` drives it like the single-process API, and
it inherits that API's version routing, 404/405 answers, admission (an
overloaded or draining fleet sheds with ``503`` before any RPC hop),
error taxonomy, ``POST /v1/admin/drain`` and drain sequence.  Deadlines
are enforced, and requests recorded, by the worker that runs them.  What
the router adds is fleet-specific:

* **sticky session→worker affinity** — a consistent-hash ring
  (:class:`HashRing`, MD5 over ``sid`` with virtual nodes) pins each
  session to one worker, which is what keeps a session's in-memory state
  (and its per-session lock) in exactly one process;
* **rebalance + migration on worker death** — a dead worker leaves the
  ring; its sessions hash onto survivors, which recover them from the
  shared durable store (checkpoint + WAL-tail replay).  A replacement
  worker is respawned in the background and takes the slot back.
  Before any session is routed to a *different* worker than the one
  that served it last, the previous owner is told to ``release`` the
  session — dropping a stale in-memory copy that could otherwise
  checkpoint old state over the new owner's progress.  Rebalancing is
  only enabled over a shared store; without one, a dead worker's
  sessions are simply gone (as they would be in-process) and requests
  wait for the respawned replacement.
* **telemetry merge** — ``GET /v1/metrics`` pulls each worker's
  ``MetricsRegistry.to_snapshot(source="worker-i")`` and folds them with
  the commutative :meth:`MetricsRegistry.merge`, so one scrape sees the
  whole fleet; ``GET /v1/workers`` exposes the per-worker breakdown the
  merged totals must sum to;
* **the drain's last step** — :meth:`Router.checkpoint_all` asks every
  worker to checkpoint its sessions.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from dataclasses import replace

from repro import obs
from repro.resilience.admission import AdmissionController
from repro.resilience.drain import DEFAULT_DRAIN_BUDGET
from repro.service.api import (
    _SESSION_PATH,
    ServiceAPI,
    TextResponse,
    _request_ctx,
)
from repro.service.rpc import RpcClient, RpcConnectionClosed, RpcError
from repro.service.store import validate_session_id
from repro.service.worker import WorkerConfig, worker_main

__all__ = [
    "HashRing",
    "InProcessWorker",
    "ProcessWorker",
    "Router",
    "WorkerDiedError",
    "WorkerPool",
    "start_fleet",
]

#: Methods the HTTP transport hands to ``dispatch``.  The router forwards
#: each of them on a non-fleet ``/v1`` path, so a worker answers 404 or
#: 405 exactly as it would serving alone.
_FORWARDED_METHODS = ("GET", "POST", "PUT", "PATCH", "DELETE")

#: Virtual nodes per worker on the ring: enough that removing one worker
#: spreads its sessions roughly evenly over the survivors.
VNODES = 64


class WorkerDiedError(Exception):
    """An RPC could not be completed because the worker process is gone."""


class HashRing:
    """Consistent hashing of session ids onto worker ids.

    Deterministic (MD5, no process salt) so every front-end restart and
    every test computes the same assignment, and *consistent*: removing
    a worker only moves the sessions that hashed to it.
    """

    def __init__(self, worker_ids=(), vnodes: int = VNODES) -> None:
        self.vnodes = int(vnodes)
        self._points: list[tuple[int, int]] = []  # (hash, worker_id) sorted
        self._workers: set[int] = set()
        for wid in worker_ids:
            self.add(wid)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.md5(text.encode()).digest()[:8], "big"
        )

    def add(self, worker_id: int) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for v in range(self.vnodes):
            self._points.append((self._hash(f"{worker_id}#{v}"), worker_id))
        self._points.sort()

    def remove(self, worker_id: int) -> None:
        if worker_id not in self._workers:
            return
        self._workers.discard(worker_id)
        self._points = [p for p in self._points if p[1] != worker_id]

    def workers(self) -> set[int]:
        return set(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def lookup(self, key: str) -> int:
        """The worker id owning ``key``; raises LookupError on an empty ring."""
        if not self._points:
            raise LookupError("no live workers on the ring")
        h = self._hash(key)
        points = self._points
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            if points[mid][0] < h:
                lo = mid + 1
            else:
                hi = mid
        return points[lo % len(points)][1]


class _BaseWorker:
    """Shared RPC plumbing: a pool of connections to one worker socket."""

    def __init__(self, worker_id: int, socket_path: str) -> None:
        self.worker_id = worker_id
        self.socket_path = socket_path
        self._clients: list[RpcClient] = []
        self._clients_lock = threading.Lock()
        self.calls = 0
        self.failures = 0

    def alive(self) -> bool:  # pragma: no cover — overridden
        raise NotImplementedError

    def _checkout_client(self) -> RpcClient:
        with self._clients_lock:
            if self._clients:
                return self._clients.pop()
        return RpcClient(self.socket_path, timeout=300.0)

    def call(self, payload: dict, timeout: float | None = None) -> dict:
        """One RPC round-trip; raises :class:`WorkerDiedError` on failure."""
        try:
            client = self._checkout_client()
        except RpcConnectionClosed as exc:
            self.failures += 1
            raise WorkerDiedError(str(exc)) from exc
        try:
            reply = client.call(payload, timeout=timeout)
        except (RpcConnectionClosed, RpcError, OSError) as exc:
            self.failures += 1
            client.close()
            raise WorkerDiedError(
                f"worker {self.worker_id}: {exc}"
            ) from exc
        with self._clients_lock:
            self._clients.append(client)
        self.calls += 1
        return reply

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Poll the socket until the worker answers ``ping``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive():
                return False
            try:
                if self.call({"op": "ping"}, timeout=5.0).get("ok"):
                    return True
            except WorkerDiedError:
                time.sleep(0.05)
        return False

    def close_clients(self) -> None:
        with self._clients_lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()


class ProcessWorker(_BaseWorker):
    """A worker in its own OS process, started with ``spawn``.

    ``spawn`` (not ``fork``): the child is a fresh interpreter with no
    inherited SQLite handles, locks, or threads mid-state — the entire
    class of fork-corruption bugs is excluded by construction.
    """

    def __init__(self, config: WorkerConfig, start_method: str = "spawn") -> None:
        super().__init__(config.worker_id, config.socket_path)
        import multiprocessing

        self.config = config
        ctx = multiprocessing.get_context(start_method)
        self.process = ctx.Process(
            target=worker_main,
            args=(config,),
            name=f"repro-worker-{config.worker_id}",
            daemon=True,
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def terminate(self, join_timeout: float = 5.0) -> None:
        self.close_clients()
        if self.process.is_alive():
            try:
                self.call({"op": "shutdown"}, timeout=join_timeout)
            except WorkerDiedError:
                pass
            self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover — last resort
            self.process.kill()
            self.process.join(timeout=2.0)

    def kill(self) -> None:
        """SIGKILL, no goodbye — the chaos/migration tests' crash lever."""
        self.close_clients()
        self.process.kill()
        self.process.join(timeout=5.0)


class InProcessWorker(_BaseWorker):
    """A worker served from a thread in this process (tests, notebooks).

    Same socket, frames, and ops as :class:`ProcessWorker` — only the
    process boundary is missing, which keeps the router's full code path
    exercised at thread speed.
    """

    def __init__(self, api, manager, worker_id: int, socket_dir: str) -> None:
        from repro.service.worker import WorkerRuntime

        path = os.path.join(socket_dir, f"worker-{worker_id}.sock")
        super().__init__(worker_id, path)
        self.runtime = WorkerRuntime(api, manager, worker_id=worker_id)
        self.runtime.serve_background(path)
        self._alive = True

    def alive(self) -> bool:
        return self._alive and not self.runtime.stop_event.is_set()

    @property
    def pid(self) -> int:
        return os.getpid()

    def terminate(self, join_timeout: float = 5.0) -> None:
        self.close_clients()
        self.runtime.close()
        self._alive = False

    def kill(self) -> None:
        self.terminate()


class WorkerPool:
    """N workers plus respawn-on-death bookkeeping.

    Construct with a ``factory(worker_id) -> worker`` (the CLI passes a
    :class:`ProcessWorker` factory; tests pass :class:`InProcessWorker`).
    """

    def __init__(
        self,
        size: int,
        factory,
        respawn: bool = True,
        ready_timeout: float = 60.0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.factory = factory
        self.respawn = respawn
        self.ready_timeout = float(ready_timeout)
        self._lock = threading.Lock()
        self._workers: dict[int, object] = {}
        self.respawns = 0
        for wid in range(size):
            self._workers[wid] = factory(wid)
        for worker in list(self._workers.values()):
            if not worker.wait_ready(timeout=self.ready_timeout):
                self.close()
                raise WorkerDiedError(
                    f"worker {worker.worker_id} never became ready"
                )

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._workers)

    def worker(self, worker_id: int):
        with self._lock:
            return self._workers.get(worker_id)

    def workers(self) -> list:
        with self._lock:
            return [self._workers[k] for k in sorted(self._workers)]

    def live_ids(self) -> list[int]:
        with self._lock:
            items = list(self._workers.items())
        return [wid for wid, w in items if w.alive()]

    def restart(self, worker_id: int):
        """Replace a dead worker in its slot; returns the new worker."""
        with self._lock:
            old = self._workers.get(worker_id)
        if old is not None:
            try:
                old.close_clients()
            except Exception:  # noqa: BLE001 — it's dead, best effort
                pass
        fresh = self.factory(worker_id)
        if not fresh.wait_ready(timeout=self.ready_timeout):
            fresh.terminate()
            raise WorkerDiedError(
                f"respawned worker {worker_id} never became ready"
            )
        with self._lock:
            self._workers[worker_id] = fresh
            self.respawns += 1
        return fresh

    def close(self) -> None:
        for worker in self.workers():
            try:
                worker.terminate()
            except Exception:  # noqa: BLE001 — shutdown must not raise
                pass


class Router(ServiceAPI):
    """The sharded front door: a :class:`ServiceAPI` over a :class:`WorkerPool`.

    It inherits version routing, 404/405, admission with its 503 shed
    replies, the error taxonomy, ``POST /v1/admin/drain`` and the drain
    sequence.  Fleet routes (health, stats, metrics, workers, the session
    list) are answered here; every other ``/v1`` request is forwarded to
    the session's sticky owner, or to any live worker.  Deadlines are
    enforced, and requests recorded, by the worker that runs them.

    Parameters
    ----------
    pool:
        The workers.
    shared_store:
        True when every worker reads the same durable store — the
        precondition for rebalancing a dead worker's sessions onto
        survivors (they recover from checkpoint + WAL tail).  When
        False the ring is static: requests for a dead worker's slot
        wait for its respawned replacement.
    admission:
        Front-door admission controller (shedding + drain).
    """

    records_requests = False

    def __init__(
        self,
        pool: WorkerPool,
        *,
        shared_store: bool = False,
        admission: AdmissionController | None = None,
        drain_budget: float = DEFAULT_DRAIN_BUDGET,
        dataset_names: list[str] | None = None,
    ) -> None:
        super().__init__(None, admission=admission, drain_budget=drain_budget)
        self.pool = pool
        self.shared_store = shared_store
        self._ring = HashRing(worker_ids=range(pool.size))
        self._ring_lock = threading.Lock()
        # sid -> worker id that last served it; consulted to issue
        # `release` to the previous owner when ownership moves.
        self._owners: dict[str, int] = {}
        self._owners_lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._dataset_names = dataset_names
        self.reroutes = 0
        self.releases = 0
        self.rpc_errors = 0

    def _handlers_for(self, path: str) -> dict:
        """Fleet routes, else forward every method to a worker."""
        fleet = {
            "/health": {"GET": self._health},
            "/stats": {"GET": self._stats},
            "/metrics": {"GET": self._metrics},
            "/workers": {"GET": self._workers_route},
            "/admin/drain": {"POST": self._admin_drain},
            "/sessions": {
                "GET": self._list_sessions,
                "POST": self._create_session,
            },
        }
        if path in fleet:
            return fleet[path]
        match = _SESSION_PATH.match(path)
        sid = match.group("sid") if match else None
        return dict.fromkeys(
            _FORWARDED_METHODS,
            lambda body, query: self._forward(sid, body, query),
        )

    # ------------------------------------------------------------------
    # Forwarding and stickiness
    # ------------------------------------------------------------------

    def _create_session(self, body: dict, query: dict) -> tuple[int, dict]:
        # The router must know the session id before it can pick a
        # worker, so ids are minted here when the client supplied none —
        # the worker then creates the session under this id.  A supplied
        # id is checked before it is hashed, as one process checks it.
        sid = body.get("session_id")
        sid = uuid.uuid4().hex[:16] if sid is None else validate_session_id(sid)
        return self._forward(sid, {**body, "session_id": sid}, query)

    def _forward(
        self, sid: str | None, body: dict, query: dict
    ) -> tuple[int, dict]:
        """Send the current request to ``sid``'s sticky owner (any live
        worker when ``sid`` is None), surviving one worker death."""
        request = {
            "op": "request",
            **_request_ctx.request,
            "body": body,
            "query": query,
        }
        for _attempt in range(2):
            worker = (
                self._any_live_worker()
                if sid is None
                else self._owner_worker(sid)
            )
            if worker is None:
                break
            try:
                return self._unwrap(worker.call(request))
            except WorkerDiedError:
                self.rpc_errors += 1
                # The second pass re-resolves the worker: the ring may
                # have rebalanced the session onto a survivor (shared
                # store), or the slot's replacement is awaited.  The
                # mutation paths stay exactly-once across this retry
                # because the Idempotency-Key rides in `request`.
                self._note_death(worker.worker_id)
        target = "the request" if sid is None else f"session {sid!r}"
        return 503, {
            "error": f"no live worker could serve {target}",
            "kind": "no_workers",
            "retry_after": 1.0,
        }

    def _owner_worker(self, sid: str):
        """Resolve the sticky owner, issuing release on ownership moves."""
        with self._ring_lock:
            try:
                target = self._ring.lookup(sid)
            except LookupError:
                return None
        worker = self.pool.worker(target)
        if worker is None or not worker.alive():
            self._note_death(target)
            with self._ring_lock:
                try:
                    target = self._ring.lookup(sid)
                except LookupError:
                    return None
            worker = self.pool.worker(target)
            if worker is None or not worker.alive():
                return None
        with self._owners_lock:
            previous = self._owners.get(sid)
            self._owners[sid] = target
        if previous is not None and previous != target:
            self.reroutes += 1
            self._release_previous(sid, previous)
        return worker

    def _release_previous(self, sid: str, previous: int) -> None:
        """Tell the old owner to drop its in-memory copy of the session."""
        worker = self.pool.worker(previous)
        if worker is None or not worker.alive():
            return  # died — nothing in memory to go stale
        try:
            worker.call({"op": "release", "session_id": sid}, timeout=10.0)
            self.releases += 1
        except WorkerDiedError:
            self._note_death(previous)

    def _any_live_worker(self):
        for worker in self.pool.workers():
            if worker.alive():
                return worker
        return None

    def _note_death(self, worker_id: int) -> None:
        """Worker died: rebalance (shared store) and respawn its slot."""
        worker = self.pool.worker(worker_id)
        if worker is not None and worker.alive():
            return  # false alarm (e.g. one torn connection)
        if self.shared_store:
            # Survivors can recover its sessions from the store — take
            # the slot off the ring so lookups rebalance immediately.
            with self._ring_lock:
                self._ring.remove(worker_id)
        if self.pool.respawn:
            threading.Thread(
                target=self._respawn,
                args=(worker_id,),
                name=f"repro-respawn-{worker_id}",
                daemon=True,
            ).start()

    def _respawn(self, worker_id: int) -> None:
        with self._respawn_lock:
            worker = self.pool.worker(worker_id)
            if worker is not None and worker.alive():
                return  # already replaced by a concurrent pass
            try:
                self.pool.restart(worker_id)
            except Exception:  # noqa: BLE001 — leave the slot dead;
                return  # the next death note retries
        with self._ring_lock:
            self._ring.add(worker_id)
            # Sessions that hashed away during the outage now hash back;
            # _owner_worker will release them from their interim owners.

    @staticmethod
    def _unwrap(reply: dict) -> tuple[int, dict]:
        if not reply.get("ok", False):
            return 500, {
                "error": reply.get("error", "worker error"),
                "kind": "worker_error",
            }
        if "text" in reply:
            text = TextResponse(reply["text"])
            # Mirror the worker's content type (plain vs Prometheus);
            # TextResponse is a plain str subclass, so an instance
            # attribute shadows the class default cleanly.
            content_type = reply.get("content_type")
            if content_type:
                text.content_type = content_type
            return int(reply["status"]), text
        return int(reply["status"]), reply.get("payload", {})

    # ------------------------------------------------------------------
    # Front-end routes
    # ------------------------------------------------------------------

    def _health(self, body: dict, query: dict) -> tuple[int, dict]:
        live = self.pool.live_ids()
        payload = {
            "status": "ok" if live else "degraded",
            "workers": {"alive": len(live), "total": self.pool.size},
        }
        return 200, payload

    def _metrics(self, body: dict, query: dict) -> tuple[int, dict]:
        """Fleet-wide scrape: merge every worker's snapshot (PR 8)."""
        from repro.obs.metrics import MetricsRegistry

        as_json = str(query.get("format", "")).lower() == "json"
        merged = MetricsRegistry()
        enabled = False
        for worker in self.pool.workers():
            if not worker.alive():
                continue
            try:
                reply = worker.call({"op": "metrics"}, timeout=30.0)
            except WorkerDiedError:
                self._note_death(worker.worker_id)
                continue
            snapshot = reply.get("snapshot")
            if snapshot:
                enabled = True
                merged.merge(snapshot, source=f"worker-{worker.worker_id}")
        state = obs.active()
        if state is not None:
            enabled = True
            merged.merge(state.metrics.to_snapshot(), source="router")
        if not enabled:
            if as_json:
                return 200, {"enabled": False, "families": {}}
            return 200, TextResponse("# repro observability disabled\n")
        if as_json:
            return 200, {"enabled": True, "families": merged.render_json()}
        return 200, TextResponse(merged.render_prometheus())

    def _worker_stats(self) -> list[dict]:
        stats = []
        for worker in self.pool.workers():
            if not worker.alive():
                stats.append(
                    {"worker_id": worker.worker_id, "alive": False}
                )
                continue
            try:
                reply = worker.call({"op": "stats"}, timeout=30.0)
                entry = reply.get("stats", {})
                entry["alive"] = True
                entry["rpc_calls"] = worker.calls
                entry["rpc_failures"] = worker.failures
                stats.append(entry)
            except WorkerDiedError:
                self._note_death(worker.worker_id)
                stats.append(
                    {"worker_id": worker.worker_id, "alive": False}
                )
        return stats

    #: Manager counters that sum meaningfully across workers.
    _SUMMED = (
        "sessions_in_memory",
        "created",
        "resumed",
        "evicted",
        "expired",
        "checkpoints",
        "wal_appends",
        "wal_rollbacks",
        "compactions",
        "replayed_batches",
        "deduplicated",
        "released",
    )

    def _stats(self, body: dict, query: dict) -> tuple[int, dict]:
        workers = self._worker_stats()
        payload: dict = {
            "sharded": True,
            "router": {
                "workers": self.pool.size,
                "workers_alive": len(self.pool.live_ids()),
                "respawns": self.pool.respawns,
                "reroutes": self.reroutes,
                "releases": self.releases,
                "rpc_errors": self.rpc_errors,
                "shared_store": self.shared_store,
                "admission": self.admission.stats(),
                "sticky_sessions": len(self._owners),
            },
            "workers": workers,
        }
        for key in self._SUMMED:
            payload[key] = sum(
                w.get(key, 0) for w in workers if w.get("alive")
            )
        cache_totals: dict = {}
        for w in workers:
            cache = w.get("cache")
            if not cache:
                continue
            for field in ("entries", "hits", "misses", "stores", "evictions"):
                cache_totals[field] = (
                    cache_totals.get(field, 0) + cache.get(field, 0)
                )
            if "l2" in cache and "l2" not in cache_totals:
                cache_totals["l2"] = cache["l2"]
        if cache_totals:
            lookups = cache_totals.get("hits", 0) + cache_totals.get(
                "misses", 0
            )
            cache_totals["hit_rate"] = (
                cache_totals.get("hits", 0) / lookups if lookups else 0.0
            )
            payload["cache"] = cache_totals
        else:
            payload["cache"] = None
        for w in workers:
            if w.get("alive") and "datasets" in w:
                payload["datasets"] = w["datasets"]
                break
        else:
            payload["datasets"] = self._dataset_names or []
        return 200, payload

    def _workers_route(self, body: dict, query: dict) -> tuple[int, dict]:
        """Per-worker breakdown (liveness, sessions, request counters)."""
        workers = []
        for worker in self.pool.workers():
            entry: dict = {
                "worker_id": worker.worker_id,
                "alive": worker.alive(),
                "pid": getattr(worker, "pid", None),
                "socket": worker.socket_path,
                "rpc_calls": worker.calls,
                "rpc_failures": worker.failures,
            }
            if worker.alive():
                try:
                    pong = worker.call({"op": "ping"}, timeout=10.0)
                    entry["sessions"] = pong.get("sessions")
                    reply = worker.call({"op": "metrics"}, timeout=30.0)
                    snapshot = reply.get("snapshot")
                    if snapshot:
                        # Scalar totals per worker, so an external check
                        # can assert the merged /metrics scrape equals
                        # the per-worker sums without re-merging.
                        entry["requests_total"] = _counter_total(
                            snapshot, "repro_requests_total"
                        )
                except WorkerDiedError:
                    entry["alive"] = False
                    self._note_death(worker.worker_id)
            workers.append(entry)
        return 200, {"workers": workers}

    def _list_sessions(self, body: dict, query: dict) -> tuple[int, dict]:
        """Fan out and merge: live entries win over stored duplicates."""
        merged: dict[str, dict] = {}
        for worker in self.pool.workers():
            if not worker.alive():
                continue
            try:
                status, payload = self._unwrap(
                    worker.call(
                        {
                            "op": "request",
                            "method": "GET",
                            "path": "/v1/sessions",
                            "body": {},
                            "query": {},
                        },
                        timeout=60.0,
                    )
                )
            except WorkerDiedError:
                self._note_death(worker.worker_id)
                continue
            if status != 200:
                continue
            for summary in payload.get("sessions", []):
                sid = summary.get("session_id")
                if sid is None:
                    continue
                current = merged.get(sid)
                if current is None or (
                    summary.get("in_memory") and not current.get("in_memory")
                ):
                    merged[sid] = summary
        return 200, {"sessions": [merged[sid] for sid in sorted(merged)]}

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------

    def checkpoint_all(self) -> int:
        """Ask every live worker to checkpoint its sessions (``drain``
        op); returns how many were checkpointed fleet-wide."""
        count = 0
        for worker in self.pool.workers():
            if not worker.alive():
                continue
            try:
                reply = worker.call({"op": "drain"}, timeout=30.0)
            except WorkerDiedError:
                continue  # its sessions stand at their last WAL commit
            count += int(reply.get("checkpointed", 0))
        return count

    def close(self) -> None:
        """Terminate every worker and forget the assignments."""
        self.pool.respawn = False
        self.pool.close()
        with self._owners_lock:
            self._owners.clear()


def _counter_total(snapshot: dict, family: str) -> float:
    """Sum one counter family's samples in a ``to_snapshot`` payload."""
    spec = snapshot.get("families", {}).get(family)
    if not spec:
        return 0.0
    return float(sum(s.get("value", 0.0) for s in spec.get("samples", ())))


def start_fleet(
    size: int, config: WorkerConfig, runtime_dir: str, **router_options
) -> Router:
    """Spawn ``size`` worker processes from ``config``; return their Router.

    Worker ``i`` serves ``config`` with ``worker_id=i`` on the socket
    ``runtime_dir/worker-i.sock``, and logs events to
    ``<config.obs_log>.worker<i>`` when ``obs_log`` is set.  With a
    ``store_url`` every worker opens that store, so the router rebalances
    a dead worker's sessions onto survivors.  ``router_options`` go to
    :class:`Router`.
    """

    def factory(worker_id: int) -> ProcessWorker:
        return ProcessWorker(
            replace(
                config,
                worker_id=worker_id,
                socket_path=os.path.join(
                    runtime_dir, f"worker-{worker_id}.sock"
                ),
                obs_log=(
                    f"{config.obs_log}.worker{worker_id}"
                    if config.obs_log
                    else None
                ),
            )
        )

    return Router(
        WorkerPool(size, factory),
        shared_store=config.store_url is not None,
        **router_options,
    )
