"""JSON API over a :class:`~repro.service.manager.SessionManager`.

This layer is transport-agnostic: :meth:`ServiceAPI.dispatch` takes an
HTTP-shaped request (method, path, query, decoded JSON body) and returns
``(status_code, payload_dict)``.  The stdlib HTTP server in
:mod:`repro.service.server` is one front-end; tests can call ``dispatch``
directly without opening a socket.

``ServiceAPI`` is the one front door of the service.  The sharded
:class:`~repro.service.router.Router` subclasses it and keeps everything
``dispatch`` does — version routing, 404/405, admission with its 503
shed replies, deadlines, the error taxonomy, ``POST /v1/admin/drain``
and the drain sequence (:meth:`ServiceAPI.drain`) — overriding only its
route table, the fleet handlers and the drain's last step,
:meth:`ServiceAPI.checkpoint_all`.

Routes (all versioned under ``/v1``)
------------------------------------
==========  ====================================  ===============================
Method      Path                                  Meaning
==========  ====================================  ===============================
GET         /v1/health                            liveness probe
GET         /v1/datasets                          registered dataset names
GET         /v1/objectives                        registered view objectives
GET         /v1/stats                             manager + solve-cache statistics
GET         /v1/metrics                           Prometheus metrics (see below)
GET         /v1/metrics/history                   retained metrics time-series
POST        /v1/admin/drain                       begin graceful drain (202)
GET         /v1/sessions                          list sessions (live + stored)
POST        /v1/sessions                          create a session
GET         /v1/sessions/{id}                     session status (resumes if stored)
DELETE      /v1/sessions/{id}                     delete session + checkpoint
GET         /v1/sessions/{id}/view                current most-informative view
POST        /v1/sessions/{id}/feedback            batch of typed feedback objects
POST        /v1/sessions/{id}/undo                retract last feedback action
POST        /v1/sessions/{id}/checkpoint          persist to the session store
==========  ====================================  ===============================

``GET /v1/stats`` always carries a ``"perf"`` object — a
:mod:`repro.perf` snapshot plus an explicit ``"enabled"`` flag (empty
timings while profiling is off), so clients never have to sniff for a
missing field.

``GET /v1/metrics`` serves the front door's registry
(:meth:`ServiceAPI.metrics_registry`; in sharded mode the merge of every
worker's) in Prometheus text exposition format (``?format=json`` for the
same data as JSON).  While observability is disabled the route still
answers 200 with an empty exposition / ``{"enabled": false}`` so
scrapers do not flap.

``GET /v1/metrics/history`` serves the ring-buffer time-series the
recorder retains of that same registry (``?seconds=N`` trims the
window, ``?derive=0`` skips the server-side rate/quantile summary); it
answers 200 with ``{"enabled": false}`` while retention is off.
``GET /v1/health`` stays exactly ``{"status": "ok"}`` unless the SLO
engine is on, in which case it carries the full SLO report graded on
that history (``status`` becomes ``ready``/``degraded``/``violating``).

Observability: when :mod:`repro.obs` is enabled, every dispatch in the
process that runs the request (``records_requests``; not the router)
runs inside a request envelope — a per-request trace (id from the
transport, or minted) collects the perf-timer spans fired while
handling it, the per-route metrics are updated, and one structured
event is emitted to the JSONL sink; 4xx/5xx responses emit a typed
``error`` event instead.  The response payloads themselves are
byte-identical with observability on or off.

The view route accepts ``?objective=<name>`` (rank with a different
registered objective) and ``?detail=1`` (include ``row_surprise`` and
``projected`` alongside ``knowledge_nats`` — the observation payload
autonomous exploration policies run on).

The batch feedback body is ``{"feedback": [<feedback dict>, ...]}`` where
each item is the ``to_dict`` form of a :mod:`repro.feedback` object, e.g.
``{"kind": "cluster", "rows": [0, 1, 2], "label": "blob"}``.  The whole
batch is validated before anything is applied, applies atomically, and
costs at most one background-model fit.

A known ``/v1`` path hit with the wrong method answers ``405`` with the
allowed methods in the payload's ``"allow"`` list; any other path —
including every path outside ``/v1`` — answers ``404``.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from repro import obs, perf
from repro.errors import ConstraintError, DataShapeError, ReproError
from repro.feedback import feedback_batch_from_payload
from repro.projection import registry
from repro.projection.view import Projection2D
from repro.resilience import chaos
from repro.resilience.admission import (
    AdmissionController,
    DrainingError,
    OverloadedError,
)
from repro.resilience.chaos import ChaosError
from repro.resilience.deadline import DeadlineExceededError, deadline_scope
from repro.resilience.drain import (
    DEFAULT_DRAIN_BUDGET,
    drain_budget_seconds,
    publish_drain_then_stop,
    run_drain,
)
from repro.service.manager import (
    SessionExistsError,
    SessionManager,
    UnknownDatasetError,
)
from repro.service.store import (
    InvalidSessionIdError,
    NoStoreError,
    SessionNotFoundError,
    StoreError,
)

#: Version prefix every route lives under.
API_VERSION = "v1"

#: HTTP request headers the transport forwards into ``dispatch``.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"
IDEMPOTENCY_HEADER = "Idempotency-Key"

#: Normalized paths that bypass admission control and deadlines: an
#: overloaded or draining server must stay observable and steerable.
_EXEMPT_PATHS = frozenset(
    {
        "/health",
        "/metrics",
        "/metrics/history",
        "/stats",
        "/workers",
        "/admin/drain",
    }
)

_SESSION_PATH = re.compile(r"^/sessions/(?P<sid>[^/]+)(?P<rest>(?:/[^/]+)?)$")

#: Per-thread request context: ``request`` is the dispatched request's
#: method, path, trace id, deadline and idempotency key, read by the
#: handlers that need them (the feedback route, the router's forward)
#: without widening every handler signature.
_request_ctx = threading.local()


class TextResponse(str):
    """Non-JSON response body with its own content type.

    ``dispatch`` normally returns JSON-ready dict payloads; the
    Prometheus variant of the metrics route returns one of these instead,
    and the HTTP layer sends it verbatim with :attr:`content_type`.
    Direct (in-process) dispatch callers can treat it as a plain ``str``.
    """

    content_type = "text/plain; version=0.0.4; charset=utf-8"


def view_to_dict(
    view: Projection2D,
    meta: dict | None = None,
    feature_names: list[str] | None = None,
) -> dict:
    """JSON form of a 2-D view (axes, scores, formatted labels).

    ``feature_names`` feeds the axis labels, so real attribute names show
    up instead of the ``X1..Xd`` placeholders.
    """
    payload = {
        "objective": view.objective,
        "axes": view.axes.tolist(),
        "scores": view.scores.tolist(),
        "all_scores": view.all_scores.tolist(),
        "top_score": float(np.max(np.abs(view.scores))),
        "axis_labels": [
            view.axis_label(0, feature_names=feature_names),
            view.axis_label(1, feature_names=feature_names),
        ],
    }
    if feature_names is not None:
        payload["feature_names"] = list(feature_names)
    if meta:
        payload.update(meta)
    return payload


class ServiceAPI:
    """Maps (method, path) requests onto :class:`SessionManager` calls.

    Parameters
    ----------
    manager:
        The session manager every route operates on.
    admission:
        Admission controller bounding in-flight session work; one with
        no bound is created when omitted (shedding off, drain still
        works).
    default_deadline_ms:
        Deadline budget applied to requests that carry no
        ``X-Repro-Deadline-Ms`` header; ``None`` means no default.
    drain_budget:
        Seconds the drain sequence waits for in-flight work.
    """

    #: Whether ``dispatch`` runs each request in an observability
    #: envelope.  The process that runs a request records it; a front
    #: door that only forwards it (the sharded router) does not.
    records_requests = True

    def __init__(
        self,
        manager: SessionManager | None,
        *,
        admission: AdmissionController | None = None,
        default_deadline_ms: float | None = None,
        drain_budget: float = DEFAULT_DRAIN_BUDGET,
    ) -> None:
        self.manager = manager
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.default_deadline_ms = default_deadline_ms
        self.drain_budget = drain_budget_seconds(drain_budget)
        # Set by the serving layer: called once a drain's report is
        # recorded, to stop the HTTP server / exit the process.
        self.shutdown_hook = None
        self.last_drain: dict | None = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        trace_id: str | None = None,
        deadline_ms: float | None = None,
        idempotency_key: str | None = None,
    ) -> tuple[int, dict]:
        """Route one request; always returns ``(status, payload)``.

        ``payload`` is a JSON-ready dict everywhere except the Prometheus
        variant of the metrics route, which returns a
        :class:`TextResponse`.  ``trace_id`` is the (already validated)
        id the transport extracted from the request headers; it seeds the
        per-request trace and is ignored while observability is off.
        ``deadline_ms`` is the request's time budget (the
        ``X-Repro-Deadline-Ms`` header; the configured default applies
        when ``None``); ``idempotency_key`` is the ``Idempotency-Key``
        header, honoured by the feedback route.
        """
        body = body if body is not None else {}
        query = query if query is not None else {}
        method = method.upper()
        perf.add("api.requests")
        if not self.records_requests or obs.active() is None:
            status, payload, _kind = self._dispatch(
                method, path, body, query, trace_id=trace_id,
                deadline_ms=deadline_ms, idempotency_key=idempotency_key,
            )
            return status, payload
        with obs.request_envelope(method, path, trace_id) as req:
            status, payload, kind = self._dispatch(
                method, path, body, query, trace_id=trace_id,
                deadline_ms=deadline_ms, idempotency_key=idempotency_key,
            )
            error = payload.get("error") if isinstance(payload, dict) else None
            req.set_result(status, error=error, error_kind=kind)
        return status, payload

    def _dispatch(
        self,
        method: str,
        path: str,
        body: dict,
        query: dict,
        trace_id: str | None = None,
        deadline_ms: float | None = None,
        idempotency_key: str | None = None,
    ) -> tuple[int, dict, str | None]:
        """Inner dispatcher: ``(status, payload, error_kind)``.

        ``error_kind`` is ``None`` on success and a stable
        machine-readable tag otherwise; it feeds the structured ``error``
        events only — JSON error payloads keep their historical shape
        (``{"error": ...}``, plus ``"allow"`` on 405), so the /v1 error
        contract is unchanged by observability.  Shed responses
        (``overloaded`` / ``draining``) and deadline expiries answer
        ``503``; the shed payloads carry ``retry_after`` so transports
        can emit a ``Retry-After`` header.
        """
        try:
            normalized = self._strip_version(path)
            chaos.hit("api.dispatch")
            handlers = (
                None if normalized is None else self._handlers_for(normalized)
            )
            if handlers is None:
                return (
                    404,
                    {"error": f"no route {method} {path}"},
                    "unknown_route",
                )
            handler = handlers.get(method)
            if handler is None:
                return (
                    405,
                    {
                        "error": f"method {method} not allowed for {path}",
                        "allow": sorted(handlers),
                    },
                    "method_not_allowed",
                )
            exempt = normalized in _EXEMPT_PATHS
            budget = (
                deadline_ms
                if deadline_ms is not None
                else self.default_deadline_ms
            )
            _request_ctx.request = {
                "method": method,
                "path": path,
                "trace_id": trace_id,
                "deadline_ms": deadline_ms,
                "idempotency_key": idempotency_key,
            }
            try:
                with self.admission.admit(exempt=exempt):
                    with deadline_scope(None if exempt else budget):
                        status, payload = handler(body, query)
            finally:
                _request_ctx.request = None
            return status, payload, None
        except DeadlineExceededError as exc:
            # No retry_after: resending the same budget would burn it
            # again, so the client must decide, not blindly retry.
            perf.add("api.deadline_exceeded")
            return (
                503,
                {"error": str(exc), "kind": "deadline_exceeded"},
                "deadline_exceeded",
            )
        except OverloadedError as exc:
            perf.add("admission.shed_overloaded")
            return (
                503,
                {
                    "error": str(exc),
                    "kind": "overloaded",
                    "retry_after": exc.retry_after,
                },
                "overloaded",
            )
        except DrainingError as exc:
            perf.add("admission.shed_draining")
            return (
                503,
                {
                    "error": str(exc),
                    "kind": "draining",
                    "retry_after": exc.retry_after,
                },
                "draining",
            )
        except ChaosError as exc:
            return 500, {"error": str(exc)}, "chaos_injected"
        except SessionNotFoundError as exc:
            return 404, {"error": str(exc)}, "unknown_session"
        except UnknownDatasetError as exc:
            return 404, {"error": str(exc)}, "unknown_dataset"
        except SessionExistsError as exc:
            return 409, {"error": str(exc)}, "session_exists"
        except NoStoreError as exc:
            return 409, {"error": str(exc)}, "no_store"
        except (
            DataShapeError,
            ConstraintError,
            InvalidSessionIdError,
            ValueError,
            TypeError,
            KeyError,
            OverflowError,
        ) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}, "bad_request"
        except StoreError as exc:
            # Damaged or unusable persistent state (corrupt checkpoint,
            # failed WAL append, recovery refusal) — still a server fault,
            # but tagged distinctly so operators can alert on storage rot
            # separately from handler bugs.  InvalidSessionIdError and
            # NoStoreError, though StoreError subclasses, are caught as a
            # 400 and a 409 above: a bad id in the request, or a
            # checkpoint on a manager run without a store, is not damage.
            return (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                "corrupt_store",
            )
        except ReproError as exc:
            return (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                "server_error",
            )
        except Exception as exc:  # noqa: BLE001 — a handler bug must still
            # produce a JSON response, not a dropped connection.
            return (
                500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                "internal_error",
            )

    @staticmethod
    def _strip_version(path: str) -> str | None:
        """The route-table key of a ``/v1/...`` path, else ``None``.

        A trailing slash is ignored; any path outside ``/v1`` has no
        route (the caller answers 404).
        """
        path = path.rstrip("/")
        prefix = f"/{API_VERSION}"
        if path == prefix:
            return "/"
        if path.startswith(prefix + "/"):
            return path[len(prefix):]
        return None

    def _handlers_for(self, path: str) -> dict | None:
        """Method->handler table for one normalized path (None = 404)."""
        flat = {
            "/health": {"GET": self._health},
            "/datasets": {"GET": self._datasets},
            "/objectives": {"GET": self._objectives},
            "/stats": {"GET": self._stats},
            "/metrics": {"GET": self._metrics},
            "/metrics/history": {"GET": self._metrics_history},
            "/admin/drain": {"POST": self._admin_drain},
            "/sessions": {
                "GET": self._list_sessions,
                "POST": self._create_session,
            },
        }
        if path in flat:
            return flat[path]
        match = _SESSION_PATH.match(path)
        if not match:
            return None
        sid = match.group("sid")
        rest = match.group("rest")
        per_session = {
            "": {"GET": self._session_status, "DELETE": self._delete_session},
            "/view": {"GET": self._view},
            "/feedback": {"POST": self._feedback},
            "/undo": {"POST": self._undo},
            "/checkpoint": {"POST": self._checkpoint},
        }
        table = per_session.get(rest)
        if table is None:
            return None
        return {
            method: (lambda body, query, h=handler: h(sid, body, query))
            for method, handler in table.items()
        }

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def checkpoint_all(self) -> int:
        """Checkpoint every live session (the drain's last step)."""
        return self.manager.checkpoint_all()

    def drain(self, budget_seconds: float | None = None) -> dict:
        """Drain now: refuse new work, let in-flight work settle, checkpoint.

        Waits at most ``budget_seconds`` (default: ``drain_budget``) for
        in-flight requests.  Returns the report and keeps it on
        ``last_drain``.
        """
        budget = self.drain_budget if budget_seconds is None else budget_seconds
        self.last_drain = run_drain(self.admission, self, budget_seconds=budget)
        return self.last_drain

    def start_drain(self, budget_seconds: float | None = None) -> bool:
        """Run :meth:`drain` on a background thread, then stop serving.

        Once the drain ends its report is published (``last_drain``, a
        ``drain`` event) and only then is ``shutdown_hook`` fired.
        Returns False, starting nothing, if a drain is already under way.
        """
        if not self.admission.begin_drain():
            return False
        threading.Thread(
            target=lambda: publish_drain_then_stop(
                self, self.drain(budget_seconds)
            ),
            name="repro-drain",
            daemon=True,
        ).start()
        return True

    def close(self) -> None:
        """Checkpoint every session before the server goes away.

        :class:`~repro.service.router.Router` stops its workers instead;
        each checkpoints its own sessions on the way out.
        """
        self.checkpoint_all()

    # ------------------------------------------------------------------
    # Collection endpoints
    # ------------------------------------------------------------------

    def _health(self, body: dict, query: dict) -> tuple[int, dict]:
        # Payload stays exactly {"status": "ok"} (clients assert on it)
        # unless the SLO engine is explicitly enabled (repro serve --obs).
        state = obs.active()
        if state is not None and state.slo is not None:
            report = state.slo_report()
            if report is not None:
                return 200, report
        return 200, {"status": "ok"}

    def _datasets(self, body: dict, query: dict) -> tuple[int, dict]:
        return 200, {"datasets": self.manager.dataset_names()}

    def _objectives(self, body: dict, query: dict) -> tuple[int, dict]:
        return 200, {"objectives": registry.describe()}

    def _stats(self, body: dict, query: dict) -> tuple[int, dict]:
        stats = self.manager.stats()
        stats["admission"] = self.admission.stats()
        registry_state = chaos.active_chaos()
        if registry_state is not None:
            stats["chaos"] = registry_state.stats()
        return 200, stats

    def _admin_drain(self, body: dict, query: dict) -> tuple[int, dict]:
        """Begin graceful drain; answers ``202`` immediately.

        The drain runs on a background thread (:meth:`start_drain`) so
        this response can still get out.  A repeat call while draining
        answers ``202`` with ``"initiated": false``; a budget that is not
        a finite number of seconds in range answers ``400`` and starts
        nothing.
        """
        budget = drain_budget_seconds(
            body.get("budget_seconds", self.drain_budget)
        )
        return 202, {
            "draining": True,
            "initiated": self.start_drain(budget),
            "budget_seconds": budget,
        }

    def metrics_registry(self):
        """The registry this door exports, or ``None`` while obs is off.

        ``/v1/metrics`` renders it and the history recorder samples it.
        Here it is the process's own registry with the scrape-time gauges
        refreshed from the manager; the sharded
        :class:`~repro.service.router.Router` merges its workers'.
        """
        state = obs.active()
        if state is None:
            return None
        state.update_service_gauges(self.manager)
        return state.metrics

    def _metrics(self, body: dict, query: dict) -> tuple[int, dict]:
        """Metrics scrape: Prometheus text by default, ``?format=json``.

        Answers 200 in both formats while observability is disabled (an
        explicitly-empty body) so scrapers and dashboards never flap when
        the feature is toggled.
        """
        as_json = str(query.get("format", "")).lower() == "json"
        registry = self.metrics_registry()
        if registry is None:
            if as_json:
                return 200, {"enabled": False, "families": {}}
            return 200, TextResponse("# repro observability disabled\n")
        if as_json:
            return 200, {"enabled": True, "families": registry.render_json()}
        return 200, TextResponse(registry.render_prometheus())

    def _metrics_history(self, body: dict, query: dict) -> tuple[int, dict]:
        """Retained metrics time-series with server-side derivation.

        ``?seconds=N`` trims to the last N seconds; ``?derive=0`` skips
        the rate/windowed-quantile summary (raw samples only).  Answers
        ``{"enabled": false}`` while retention is off, mirroring the
        metrics route's never-flap contract.
        """
        state = obs.active()
        recorder = state.history if state is not None else None
        if recorder is None:
            return 200, {"enabled": False, "samples": []}
        seconds = query.get("seconds")
        window = recorder.window(float(seconds) if seconds else None)
        payload: dict = {
            "enabled": True,
            "interval_seconds": recorder.interval,
            "capacity": recorder.capacity,
            "samples": window,
        }
        if str(query.get("derive", "1")).lower() not in ("0", "false", "no"):
            from repro.obs import timeseries as ts

            payload["derived"] = (
                ts.derive(window[0], window[-1]) if len(window) >= 2 else None
            )
        return 200, payload

    def _list_sessions(self, body: dict, query: dict) -> tuple[int, dict]:
        return 200, {"sessions": self.manager.list_sessions()}

    def _create_session(self, body: dict, query: dict) -> tuple[int, dict]:
        dataset = body.get("dataset")
        if not isinstance(dataset, str):
            raise ValueError("body must carry a 'dataset' name")
        # Raises UnknownObjectiveError (a ValueError -> 400) when unknown.
        objective = registry.get(body.get("objective", "pca")).name
        seed = body.get("seed", 0)
        if seed is not None:
            seed = int(seed)
        sid = self.manager.create(
            dataset,
            objective=objective,
            standardize=bool(body.get("standardize", False)),
            seed=seed,
            session_id=body.get("session_id"),
        )
        return 201, {"session_id": sid, "dataset": dataset}

    # ------------------------------------------------------------------
    # Per-session endpoints
    # ------------------------------------------------------------------

    def _session_status(
        self, sid: str, body: dict, query: dict
    ) -> tuple[int, dict]:
        return 200, self.manager.session_stats(sid)

    def _delete_session(
        self, sid: str, body: dict, query: dict
    ) -> tuple[int, dict]:
        removed = self.manager.delete(sid)
        if not removed:
            raise SessionNotFoundError(f"no session {sid!r}")
        return 200, {"session_id": sid, "deleted": True}

    #: Query values accepted as "yes" for boolean flags like ``detail``.
    _TRUTHY = frozenset({"1", "true", "yes", "on", "full"})

    def _view(self, sid: str, body: dict, query: dict) -> tuple[int, dict]:
        objective = query.get("objective")
        if objective is not None:
            objective = registry.get(objective).name  # 400 when unknown
        detail = str(query.get("detail", "")).lower() in self._TRUTHY
        view, meta = self.manager.view(sid, objective=objective, detail=detail)
        feature_names = meta.pop("feature_names", None)
        payload = view_to_dict(view, meta, feature_names=feature_names)
        payload["session_id"] = sid
        return 200, payload

    def _feedback(self, sid: str, body: dict, query: dict) -> tuple[int, dict]:
        batch = feedback_batch_from_payload(body.get("feedback"))
        key = _request_ctx.request["idempotency_key"]
        stats = self.manager.apply_feedback(sid, batch, idempotency_key=key)
        return 200, stats

    def _undo(self, sid: str, body: dict, query: dict) -> tuple[int, dict]:
        label = self.manager.undo(sid)
        return 200, {"session_id": sid, "undone": label}

    def _checkpoint(
        self, sid: str, body: dict, query: dict
    ) -> tuple[int, dict]:
        self.manager.checkpoint(sid)
        return 200, {"session_id": sid, "checkpointed": True}
